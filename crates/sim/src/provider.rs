//! Simulated providers.
//!
//! A provider is a single-server FIFO queue: it executes one query at a time
//! at its configured capacity (work units per virtual second) and queues the
//! rest. Its *utilization*, as exposed to the mediator, is the backlog of
//! work it still has to do, expressed in virtual seconds — the quantity
//! KnBest minimises and the load-driven intention strategies react to.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use sbqa_core::allocator::ProviderSnapshot;
use sbqa_core::intention::ProviderProfile;
use sbqa_types::{CapabilitySet, Duration, ProviderId, Query, QueryId, VirtualTime};

/// Static description of a provider in a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderSpec {
    /// The provider's identity.
    pub id: ProviderId,
    /// Capabilities the provider advertises (which queries it can perform).
    pub capabilities: CapabilitySet,
    /// Processing capacity in work units per virtual second.
    pub capacity: f64,
    /// How the provider computes its intentions.
    pub profile: ProviderProfile,
}

impl ProviderSpec {
    /// Creates a provider spec, sanitising non-positive capacities to 1.
    #[must_use]
    pub fn new(
        id: ProviderId,
        capabilities: CapabilitySet,
        capacity: f64,
        profile: ProviderProfile,
    ) -> Self {
        Self {
            id,
            capabilities,
            capacity: if capacity.is_finite() && capacity > 0.0 {
                capacity
            } else {
                1.0
            },
            profile,
        }
    }
}

/// The execution a provider starts when it picks up a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StartedExecution {
    /// The query being executed.
    pub query: QueryId,
    /// How long the execution will take.
    pub service_time: Duration,
}

/// Runtime state of a simulated provider.
#[derive(Debug, Clone)]
pub(crate) struct ProviderState {
    /// The static spec this state was built from.
    pub spec: ProviderSpec,
    /// `true` while the provider is part of the system.
    pub online: bool,
    /// Virtual time at which the provider departed, if it did.
    pub departed_at: Option<VirtualTime>,
    queue: VecDeque<Query>,
    executing: Option<(QueryId, Duration)>,
    backlog_seconds: f64,
    /// Number of queries this provider finished executing.
    pub queries_performed: u64,
    /// Total virtual time spent executing queries.
    pub busy_time: Duration,
}

impl ProviderState {
    /// Creates the runtime state for a spec.
    #[must_use]
    pub fn new(spec: ProviderSpec) -> Self {
        Self {
            spec,
            online: true,
            departed_at: None,
            queue: VecDeque::new(),
            executing: None,
            backlog_seconds: 0.0,
            queries_performed: 0,
            busy_time: Duration::ZERO,
        }
    }

    /// The provider's identity.
    #[must_use]
    pub fn id(&self) -> ProviderId {
        self.spec.id
    }

    /// Remaining work in virtual seconds (queued plus executing).
    #[must_use]
    pub fn backlog_seconds(&self) -> f64 {
        self.backlog_seconds
    }

    /// Number of queries queued or executing.
    #[must_use]
    pub fn queue_length(&self) -> usize {
        self.queue.len() + usize::from(self.executing.is_some())
    }

    /// The mediator-visible snapshot of this provider.
    #[must_use]
    pub fn snapshot(&self) -> ProviderSnapshot {
        ProviderSnapshot {
            id: self.spec.id,
            capabilities: self.spec.capabilities,
            capacity: self.spec.capacity,
            utilization: self.backlog_seconds,
            queue_length: self.queue_length(),
            online: self.online,
        }
    }

    /// Accepts a query. If the provider was idle it starts executing it
    /// immediately and the returned [`StartedExecution`] tells the runner
    /// when to schedule the completion event; otherwise the query waits in
    /// the FIFO queue.
    pub fn accept(&mut self, query: Query) -> Option<StartedExecution> {
        let service = query.service_time(self.spec.capacity);
        self.backlog_seconds += service.seconds();
        if self.executing.is_none() {
            let id = query.id;
            self.executing = Some((id, service));
            Some(StartedExecution {
                query: id,
                service_time: service,
            })
        } else {
            self.queue.push_back(query);
            None
        }
    }

    /// Marks the currently executing query as finished and starts the next
    /// queued one, if any. Returns the execution the runner must schedule a
    /// completion event for.
    ///
    /// The `completed` id is checked against the executing query to catch
    /// runner bookkeeping bugs early.
    pub fn complete(&mut self, completed: QueryId) -> Option<StartedExecution> {
        match self.executing.take() {
            Some((current, service)) if current == completed => {
                self.backlog_seconds = (self.backlog_seconds - service.seconds()).max(0.0);
                self.queries_performed += 1;
                self.busy_time += service;
            }
            Some(other) => {
                // Put it back; completing a query that is not running is a
                // bug in the caller, not in the provider.
                self.executing = Some(other);
                debug_assert!(false, "completed {completed} but executing {other:?}");
                return None;
            }
            None => {
                debug_assert!(false, "completed {completed} while idle");
                return None;
            }
        }

        let next = self.queue.pop_front()?;
        let service = next.service_time(self.spec.capacity);
        let id = next.id;
        self.executing = Some((id, service));
        Some(StartedExecution {
            query: id,
            service_time: service,
        })
    }

    /// Marks the provider as departed (autonomous environments). Queued work
    /// is dropped; the queries' consumers simply never receive those results.
    pub fn depart(&mut self, at: VirtualTime) {
        self.online = false;
        self.departed_at = Some(at);
        self.queue.clear();
        self.executing = None;
        self.backlog_seconds = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::intention::ProviderProfile;
    use sbqa_types::{Capability, ConsumerId, QueryId};

    fn spec(capacity: f64) -> ProviderSpec {
        ProviderSpec::new(
            ProviderId::new(1),
            CapabilitySet::singleton(Capability::new(0)),
            capacity,
            ProviderProfile::default(),
        )
    }

    fn query(id: u64, work: f64) -> Query {
        Query::builder(QueryId::new(id), ConsumerId::new(1), Capability::new(0))
            .work_units(work)
            .build()
    }

    #[test]
    fn spec_sanitises_capacity() {
        assert_eq!(spec(-1.0).capacity, 1.0);
        assert_eq!(spec(4.0).capacity, 4.0);
    }

    #[test]
    fn idle_provider_starts_immediately() {
        let mut p = ProviderState::new(spec(2.0));
        let started = p
            .accept(query(1, 10.0))
            .expect("idle provider starts at once");
        assert_eq!(started.query, QueryId::new(1));
        assert_eq!(started.service_time.seconds(), 5.0);
        assert_eq!(p.queue_length(), 1);
        assert_eq!(p.backlog_seconds(), 5.0);
    }

    #[test]
    fn busy_provider_queues_fifo() {
        let mut p = ProviderState::new(spec(1.0));
        p.accept(query(1, 1.0)).unwrap();
        assert!(p.accept(query(2, 2.0)).is_none());
        assert!(p.accept(query(3, 3.0)).is_none());
        assert_eq!(p.queue_length(), 3);
        assert_eq!(p.backlog_seconds(), 6.0);

        // Completing query 1 starts query 2.
        let next = p.complete(QueryId::new(1)).expect("queue not empty");
        assert_eq!(next.query, QueryId::new(2));
        assert_eq!(p.queries_performed, 1);
        assert_eq!(p.backlog_seconds(), 5.0);
        assert_eq!(p.busy_time.seconds(), 1.0);

        let next = p.complete(QueryId::new(2)).expect("one more queued");
        assert_eq!(next.query, QueryId::new(3));
        assert!(p.complete(QueryId::new(3)).is_none());
        assert_eq!(p.queries_performed, 3);
        assert_eq!(p.backlog_seconds(), 0.0);
    }

    #[test]
    fn snapshot_reflects_current_state() {
        let mut p = ProviderState::new(spec(2.0));
        p.accept(query(1, 4.0)).unwrap();
        let snap = p.snapshot();
        assert_eq!(snap.id, ProviderId::new(1));
        assert_eq!(snap.capacity, 2.0);
        assert_eq!(snap.utilization, 2.0);
        assert_eq!(snap.queue_length, 1);
        assert!(snap.online);
    }

    #[test]
    fn departure_clears_pending_work() {
        let mut p = ProviderState::new(spec(1.0));
        p.accept(query(1, 1.0)).unwrap();
        p.accept(query(2, 1.0));
        p.depart(VirtualTime::new(10.0));
        assert!(!p.online);
        assert_eq!(p.departed_at, Some(VirtualTime::new(10.0)));
        assert_eq!(p.queue_length(), 0);
        assert_eq!(p.backlog_seconds(), 0.0);
        assert!(!p.snapshot().online);
    }
}
