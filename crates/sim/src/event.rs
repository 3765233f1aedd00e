//! The event queue at the heart of the discrete-event simulation.
//!
//! Events are ordered by virtual time; ties are broken by a monotonically
//! increasing sequence number so that the execution order is deterministic
//! and FIFO among simultaneous events.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sbqa_types::{ConsumerId, ProviderId, Query, QueryId, VirtualTime};

/// Something that happens at a point in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Event {
    /// A consumer issues its next query (and schedules the following one).
    QueryIssued {
        /// The issuing consumer.
        consumer: ConsumerId,
    },
    /// A query (work request) reaches a provider after network latency.
    QueryReceived {
        /// The receiving provider.
        provider: ProviderId,
        /// The query to enqueue.
        query: Query,
    },
    /// A provider finishes executing a query.
    QueryCompleted {
        /// The provider that finished.
        provider: ProviderId,
        /// The finished query.
        query: QueryId,
    },
    /// A result reaches the issuing consumer after network latency.
    ResultDelivered {
        /// The provider that produced the result.
        provider: ProviderId,
        /// The query the result answers.
        query: QueryId,
    },
    /// Periodic metrics sampling and departure evaluation.
    Sample,
}

/// An event scheduled at a specific virtual time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScheduledEvent {
    /// When the event fires.
    pub at: VirtualTime,
    /// Tie-breaking sequence number (assigned by the queue).
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<ScheduledEvent>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event at the given time.
    pub fn schedule(&mut self, at: VirtualTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, event });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.heap.pop()
    }

    /// Peeks at the earliest event without removing it. The runner uses this
    /// to coalesce simultaneous query arrivals into one mediation batch.
    #[must_use]
    pub fn peek(&self) -> Option<&ScheduledEvent> {
        self.heap.peek()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(VirtualTime::new(5.0), Event::Sample);
        q.schedule(VirtualTime::new(1.0), Event::Sample);
        q.schedule(VirtualTime::new(3.0), Event::Sample);

        let times: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.seconds())
            .collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = VirtualTime::new(2.0);
        q.schedule(
            t,
            Event::QueryIssued {
                consumer: ConsumerId::new(1),
            },
        );
        q.schedule(
            t,
            Event::QueryIssued {
                consumer: ConsumerId::new(2),
            },
        );
        let first = q.pop().unwrap();
        let second = q.pop().unwrap();
        assert!(first.seq < second.seq);
        match (first.event, second.event) {
            (Event::QueryIssued { consumer: c1 }, Event::QueryIssued { consumer: c2 }) => {
                assert_eq!(c1, ConsumerId::new(1));
                assert_eq!(c2, ConsumerId::new(2));
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    proptest! {
        #[test]
        fn prop_pop_order_is_non_decreasing(times in proptest::collection::vec(0.0f64..1e6, 0..200)) {
            let mut q = EventQueue::new();
            for t in &times {
                q.schedule(VirtualTime::new(*t), Event::Sample);
            }
            let mut last = VirtualTime::ZERO;
            while let Some(e) = q.pop() {
                prop_assert!(e.at >= last);
                last = e.at;
            }
        }
    }
}
