//! A bounded MPSC ring buffer for the ingest front.
//!
//! The seed's unbounded `std::sync::mpsc` queues gave the service defined
//! behavior only *below* saturation: past it, a hot shard's queue simply
//! grew (we measured 7.9 s p99 under a sustained 10× arrival step) and every
//! query eventually got full-quality mediation seconds too late.
//! [`BoundedRing`] is the physical back-pressure half of the fix: a
//! fixed-capacity FIFO where producers block once the ring is full, which
//! bounds the wall-clock time any admitted query can spend waiting. The
//! bound is two ring-lengths, not one: [`BoundedRing::pop_wave`] moves the
//! whole ring into the consumer's wave at once, so producers fill the ring
//! again while that wave is still being worked off, and a query that
//! enters a full ring then waits for the wave ahead of it and for the ring
//! ahead of it in turn.
//!
//! The ring is deliberately *dumb*: it preserves FIFO order, enforces
//! capacity, and nothing else. All degradation decisions (shrink-kn,
//! baseline fallback, shedding) are made by the deterministic
//! [`DegradationLadder`](sbqa_core::DegradationLadder) on the consumer side,
//! in producer order — wall-clock raciness in *when* the ring fills must
//! never leak into *what* the service decides.
//!
//! Implementation: a `Mutex<VecDeque>` with two condvars (`not_full`,
//! `not_empty`). Lock poisoning is impossible to exploit here — both sides
//! only mutate the deque under the lock and never panic mid-mutation — so
//! poisoned locks are recovered with `PoisonError::into_inner` rather than
//! propagated.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A blocking bounded FIFO queue: multiple producers, one consumer.
#[derive(Debug)]
pub struct BoundedRing<T> {
    inner: Mutex<RingInner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

#[derive(Debug)]
struct RingInner<T> {
    queue: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

impl<T> BoundedRing<T> {
    /// Creates a ring holding at most `capacity` items (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(RingInner {
                queue: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingInner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until the ring has room, then enqueues `item`. Returns
    /// `Err(item)` if the ring was closed while waiting.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.lock();
        while inner.queue.len() >= inner.capacity && !inner.closed {
            inner = self
                .not_full
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if inner.closed {
            return Err(item);
        }
        inner.queue.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues `item` only if the ring has room right now. Returns
    /// `Err(item)` when full or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut inner = self.lock();
        if inner.closed || inner.queue.len() >= inner.capacity {
            return Err(item);
        }
        inner.queue.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues one item if any is ready, without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.lock();
        let item = inner.queue.pop_front();
        if item.is_some() {
            drop(inner);
            self.not_full.notify_one();
        }
        item
    }

    /// Blocks until at least one item is available (or the ring is closed),
    /// then drains *everything* currently queued into `buf` (cleared first).
    /// Returns `false` once the ring is closed and empty — the consumer's
    /// termination signal.
    pub fn pop_wave(&self, buf: &mut Vec<T>) -> bool {
        buf.clear();
        let mut inner = self.lock();
        while inner.queue.is_empty() && !inner.closed {
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if inner.queue.is_empty() {
            return false; // closed and dry
        }
        buf.extend(inner.queue.drain(..));
        drop(inner);
        // A full wave frees many slots: wake every blocked producer.
        self.not_full.notify_all();
        true
    }

    /// Closes the ring: blocked producers fail their push, and the consumer
    /// drains what is left before [`BoundedRing::pop_wave`] returns `false`.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// `true` when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity_bound() {
        let ring = BoundedRing::new(4);
        assert_eq!(ring.capacity(), 4);
        for i in 0..4 {
            ring.try_push(i).unwrap();
        }
        assert_eq!(ring.len(), 4);
        assert!(ring.try_push(99).is_err(), "full ring rejects try_push");
        let mut wave = Vec::new();
        assert!(ring.pop_wave(&mut wave));
        assert_eq!(wave, vec![0, 1, 2, 3]);
        assert!(ring.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let ring = BoundedRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.try_push(7).unwrap();
        assert!(ring.try_push(8).is_err());
        assert_eq!(ring.try_pop(), Some(7));
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn close_unblocks_both_sides() {
        let ring: Arc<BoundedRing<u32>> = Arc::new(BoundedRing::new(1));
        ring.try_push(1).unwrap();

        // A producer blocked on a full ring fails its push once closed.
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(2))
        };
        // A consumer drains the remaining item, then sees termination.
        std::thread::sleep(std::time::Duration::from_millis(20));
        ring.close();
        assert_eq!(producer.join().unwrap(), Err(2));

        let mut wave = Vec::new();
        assert!(ring.pop_wave(&mut wave), "closed ring still drains");
        assert_eq!(wave, vec![1]);
        assert!(!ring.pop_wave(&mut wave), "closed and dry terminates");
    }

    #[test]
    fn a_popped_wave_frees_the_whole_ring_while_it_is_held() {
        // What the queue bound is two ring-lengths for: the wave holds a
        // full ring's items and the ring takes a full ring more behind it.
        let ring = BoundedRing::new(4);
        for i in 0..4 {
            ring.try_push(i).unwrap();
        }
        let mut wave = Vec::new();
        assert!(ring.pop_wave(&mut wave));
        for i in 4..8 {
            ring.try_push(i).unwrap();
        }
        assert!(ring.try_push(8).is_err(), "the refilled ring is full");
        assert_eq!(wave, vec![0, 1, 2, 3]);
        assert_eq!(ring.len(), 4);
    }

    #[test]
    fn blocking_push_waits_for_room() {
        let ring: Arc<BoundedRing<u32>> = Arc::new(BoundedRing::new(2));
        ring.push(0).unwrap();
        ring.push(1).unwrap();
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 2..10u32 {
                    ring.push(i).unwrap();
                }
            })
        };
        let mut drained = Vec::new();
        let mut wave = Vec::new();
        while drained.len() < 10 {
            assert!(ring.pop_wave(&mut wave));
            assert!(wave.len() <= 2, "a wave never exceeds capacity");
            drained.append(&mut wave);
        }
        producer.join().unwrap();
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
    }
}
