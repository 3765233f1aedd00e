//! A bounded MPSC ring buffer for the ingest front.
//!
//! The seed's unbounded `std::sync::mpsc` queues gave the service defined
//! behavior only *below* saturation: past it, a hot shard's queue simply
//! grew (we measured 7.9 s p99 under a sustained 10× arrival step) and every
//! query eventually got full-quality mediation seconds too late.
//! [`BoundedRing`] is the physical back-pressure half of the fix: a
//! fixed-capacity FIFO where producers block once the ring is full, which
//! bounds the wall-clock time any admitted query can spend waiting.
//!
//! Room is counted in weight units, not items: the ingest front pushes one
//! producer chunk as one item weighing its query count
//! ([`BoundedRing::push_weighted`]), so a producer takes the lock and wakes
//! the consumer once per chunk. The consumer takes one item at a time
//! ([`BoundedRing::pop`]) and its room stays taken until the consumer hands
//! it back ([`BoundedRing::release`]) once it is done with the item. What is
//! queued plus what is being worked off therefore never exceeds the
//! capacity, and a query waits behind at most one ring-length. The one
//! exception is an item heavier than the whole ring: it enters an empty
//! ring, alone. [`BoundedRing::push`] and [`BoundedRing::pop_wave`] keep the
//! unit-weight form, in which a wave frees its room as it leaves the ring.
//!
//! A released item may come back as a spare: the next push hands it to the
//! producer to fill again, so buffers circulate instead of being allocated
//! per chunk. Each side is woken only when it is actually waiting.
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
    /// Queued items with their weights, oldest first.
    queue: VecDeque<(T, usize)>,
    /// Released items waiting for a producer to reuse them.
    spares: Vec<T>,
    capacity: usize,
    /// Room taken: the weights of the queued items and of the popped ones
    /// not yet released.
    taken: usize,
    closed: bool,
    /// Threads blocked on each condvar; a side is notified only when some
    /// thread waits on it.
    producers_waiting: usize,
    consumers_waiting: usize,
}

impl<T> RingInner<T> {
    /// Whether an item of `weight` may enter now: it fits in the free room,
    /// or the ring is empty, which admits an item heavier than the ring.
    fn fits(&self, weight: usize) -> bool {
        self.taken == 0 || self.taken + weight <= self.capacity
    }

    /// Queues `item` and takes a spare for the producer, if one is there.
    fn enqueue(&mut self, item: T, weight: usize) -> Option<T> {
        self.taken += weight;
        self.queue.push_back((item, weight));
        self.spares.pop()
    }
}

impl<T> BoundedRing<T> {
    /// Creates a ring holding at most `capacity` weight units (clamped to
    /// ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(RingInner {
                queue: VecDeque::with_capacity(capacity.min(4096)),
                spares: Vec::new(),
                capacity,
                taken: 0,
                closed: false,
                producers_waiting: 0,
                consumers_waiting: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingInner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Unlocks, then wakes the consumer if it waits for an item.
    fn wake_consumer(&self, inner: MutexGuard<'_, RingInner<T>>) {
        let waiting = inner.consumers_waiting > 0;
        drop(inner);
        if waiting {
            self.not_empty.notify_one();
        }
    }

    /// Unlocks, then wakes every producer waiting for room: each checks
    /// whether its own item fits now.
    fn wake_producers(&self, inner: MutexGuard<'_, RingInner<T>>) {
        let waiting = inner.producers_waiting > 0;
        drop(inner);
        if waiting {
            self.not_full.notify_all();
        }
    }

    /// Blocks until the ring has room for one unit, then enqueues `item`.
    /// Returns `Err(item)` if the ring was closed while waiting.
    pub fn push(&self, item: T) -> Result<(), T> {
        self.push_weighted(item, 1).map(drop)
    }

    /// Blocks until `item` fits (see the module docs), then enqueues it as
    /// `weight` units of room and returns a spare the consumer released, if
    /// there is one. Returns `Err(item)` if the ring was closed while
    /// waiting.
    pub fn push_weighted(&self, item: T, weight: usize) -> Result<Option<T>, T> {
        let mut inner = self.lock();
        while !inner.closed && !inner.fits(weight) {
            inner.producers_waiting += 1;
            inner = self
                .not_full
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            inner.producers_waiting -= 1;
        }
        if inner.closed {
            return Err(item);
        }
        let spare = inner.enqueue(item, weight);
        self.wake_consumer(inner);
        Ok(spare)
    }

    /// [`BoundedRing::push_weighted`] without blocking: returns `Err(item)`
    /// when `item` does not fit right now or the ring is closed.
    pub fn try_push_weighted(&self, item: T, weight: usize) -> Result<Option<T>, T> {
        let mut inner = self.lock();
        if inner.closed || !inner.fits(weight) {
            return Err(item);
        }
        let spare = inner.enqueue(item, weight);
        self.wake_consumer(inner);
        Ok(spare)
    }

    /// Blocks until an item is queued, or returns `None` once the ring is
    /// closed and dry.
    fn wait_for_item(&self) -> Option<MutexGuard<'_, RingInner<T>>> {
        let mut inner = self.lock();
        while inner.queue.is_empty() && !inner.closed {
            inner.consumers_waiting += 1;
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            inner.consumers_waiting -= 1;
        }
        (!inner.queue.is_empty()).then_some(inner)
    }

    /// Blocks until an item is queued, then takes the oldest one with its
    /// weight. Its room stays taken until [`BoundedRing::release`]. Returns
    /// `None` once the ring is closed and dry — the consumer's termination
    /// signal.
    pub fn pop(&self) -> Option<(T, usize)> {
        self.wait_for_item()?.queue.pop_front()
    }

    /// Frees the `weight` units of room of an item [`BoundedRing::pop`]
    /// took, and keeps `spare` for a producer to reuse.
    pub fn release(&self, weight: usize, spare: Option<T>) {
        let mut inner = self.lock();
        inner.taken = inner.taken.saturating_sub(weight);
        inner.spares.extend(spare);
        self.wake_producers(inner);
    }

    /// Blocks until at least one item is available (or the ring is closed),
    /// then drains *everything* currently queued into `buf` (cleared first)
    /// and frees its room. Returns `false` once the ring is closed and empty
    /// — the consumer's termination signal.
    pub fn pop_wave(&self, buf: &mut Vec<T>) -> bool {
        buf.clear();
        let Some(mut inner) = self.wait_for_item() else {
            return false;
        };
        let freed: usize = inner.queue.iter().map(|&(_, weight)| weight).sum();
        inner.taken -= freed;
        buf.extend(inner.queue.drain(..).map(|(item, _)| item));
        self.wake_producers(inner);
        true
    }

    /// Closes the ring: blocked producers fail their push, and the consumer
    /// drains what is left before [`BoundedRing::pop`] returns `None`.
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

    /// Room taken: the weights of the queued items and of the popped ones
    /// not yet released.
    #[must_use]
    pub fn taken(&self) -> usize {
        self.lock().taken
    }

    /// The ring's fixed capacity, in weight units.
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
            ring.push(i).unwrap();
        }
        assert_eq!(ring.len(), 4);
        assert!(
            ring.try_push_weighted(99, 1).is_err(),
            "full ring rejects a push"
        );
        let mut wave = Vec::new();
        assert!(ring.pop_wave(&mut wave));
        assert_eq!(wave, vec![0, 1, 2, 3]);
        assert!(ring.is_empty());
        assert_eq!(ring.taken(), 0, "a wave frees its room");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let ring = BoundedRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(7).unwrap();
        assert!(ring.try_push_weighted(8, 1).is_err());
        assert_eq!(ring.pop(), Some((7, 1)));
    }

    #[test]
    fn close_unblocks_both_sides() {
        let ring: Arc<BoundedRing<u32>> = Arc::new(BoundedRing::new(1));
        ring.push(1).unwrap();

        // A producer blocked on a full ring fails its push once closed.
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(2))
        };
        // A consumer drains the remaining item, then sees termination.
        std::thread::sleep(std::time::Duration::from_millis(20));
        ring.close();
        assert_eq!(producer.join().unwrap(), Err(2));

        assert_eq!(ring.pop(), Some((1, 1)), "closed ring still drains");
        assert_eq!(ring.pop(), None, "closed and dry terminates");
        let mut wave = Vec::new();
        assert!(!ring.pop_wave(&mut wave));
    }

    #[test]
    fn a_popped_chunk_holds_its_room_until_released() {
        // What the queue bound is one ring-length for: the chunk being
        // worked off and the chunks queued behind it share the capacity.
        let ring = BoundedRing::new(8);
        ring.try_push_weighted('a', 5).unwrap();
        assert_eq!(ring.pop(), Some(('a', 5)));
        ring.try_push_weighted('b', 3).unwrap();
        assert!(
            ring.try_push_weighted('c', 1).is_err(),
            "the held chunk still takes its room"
        );
        assert_eq!(ring.taken(), 8);
        // Releasing it frees its room and hands its buffer back.
        ring.release(5, Some('a'));
        assert_eq!(ring.try_push_weighted('c', 5), Ok(Some('a')));
        assert_eq!(ring.try_push_weighted('d', 1), Err('d'));
        assert_eq!(ring.pop(), Some(('b', 3)));
        assert_eq!(ring.pop(), Some(('c', 5)));
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
