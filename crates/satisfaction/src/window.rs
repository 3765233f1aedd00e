//! Bounded windows over the last `k` interactions.
//!
//! Section II of the paper: "The satisfaction notions are based on the `k`
//! last interactions that a participant had with the system. The `k` value may
//! be different for each participant depending on its memory capacity."
//!
//! [`InteractionWindow`] is a fixed-capacity FIFO over interaction records.
//! When a new interaction arrives and the window is full, the oldest record is
//! evicted, so satisfaction always reflects the most recent `k` interactions.
//!
//! The ring behind a window is allocated on demand: most participants of a
//! large population hold a handful of interactions, so a window starts with
//! no storage, takes 8 slots at its first record and doubles
//! from there, never past `k`. A window that has reached `k` slots (or its
//! participant's working size) records without allocating.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize, Value};

/// Slots a window's ring takes at its first record (or `k`, if smaller).
const FIRST_RING: usize = 8;

/// A bounded FIFO window over the last `k` interactions of a participant.
///
/// `Deserialize` is implemented by hand rather than derived: the derive
/// would write whatever `capacity` the payload carries straight into the
/// field, bypassing the `k ≥ 1` promotion of [`InteractionWindow::new`] — a
/// deserialized window could then have `capacity == 0` and record
/// interactions it can never hold. The manual impl re-imposes the
/// constructor invariants (capacity at least one, at most `capacity` items,
/// keeping the newest).
///
/// `Clone` is implemented by hand for its `clone_from`: an incremental
/// checkpoint copies a touched window over its stale copy, and doing that
/// item by item reuses the copy's ring buffer and each item's own storage
/// where the derive would allocate a whole new window.
#[derive(Debug, PartialEq, Serialize)]
pub struct InteractionWindow<T> {
    capacity: usize,
    items: VecDeque<T>,
    /// Total number of interactions ever recorded, including evicted ones.
    total_recorded: u64,
}

impl<T: Clone> Clone for InteractionWindow<T> {
    fn clone(&self) -> Self {
        Self {
            capacity: self.capacity,
            items: self.items.clone(),
            total_recorded: self.total_recorded,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.capacity = source.capacity;
        self.total_recorded = source.total_recorded;
        self.items.truncate(source.items.len());
        let shared = self.items.len();
        for (item, fresh) in self.items.iter_mut().zip(&source.items) {
            item.clone_from(fresh);
        }
        // Take the source's ring size rather than `extend`'s own doubling,
        // which could pass `capacity`.
        if self.items.capacity() < source.items.len() {
            self.items
                .reserve_exact(source.items.capacity() - self.items.len());
        }
        self.items.extend(source.items.iter().skip(shared).cloned());
    }
}

impl<T: Deserialize> Deserialize for InteractionWindow<T> {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map"))?;
        let capacity = usize::from_value(serde::__find(entries, "capacity")?)?.max(1);
        let mut items = VecDeque::<T>::from_value(serde::__find(entries, "items")?)?;
        let total_recorded = u64::from_value(serde::__find(entries, "total_recorded")?)?;
        // An over-full payload keeps the newest `capacity` interactions,
        // mirroring `resize`'s shrink-from-the-oldest-side behaviour.
        while items.len() > capacity {
            items.pop_front();
        }
        Ok(Self {
            capacity,
            items,
            total_recorded,
        })
    }
}

/// The serialized form of a satisfaction tracker: its window alone, as the
/// one-field map a derive would write. What a tracker keeps derived from the
/// window is rebuilt when it is read back ([`tracker_window`]), exactly as
/// the window re-imposes its own invariants.
pub(crate) fn tracker_to_value<T: Serialize>(window: &InteractionWindow<T>) -> Value {
    Value::Map(vec![(
        Value::String("window".to_owned()),
        window.to_value(),
    )])
}

/// Reads the window back out of [`tracker_to_value`]'s form.
pub(crate) fn tracker_window<T: Deserialize>(
    value: &Value,
) -> Result<InteractionWindow<T>, serde::Error> {
    let entries = value
        .as_map()
        .ok_or_else(|| serde::Error::custom("expected map"))?;
    InteractionWindow::from_value(serde::__find(entries, "window")?)
}

impl<T> InteractionWindow<T> {
    /// Creates a window remembering at most `k` interactions.
    ///
    /// A capacity of zero is promoted to one: a participant that remembers
    /// nothing cannot compute a satisfaction at all, and the paper assumes
    /// `k ≥ 1`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            capacity: k.max(1),
            items: VecDeque::new(),
            total_recorded: 0,
        }
    }

    /// Reassembles a window from its parts; `items` holds at most `capacity`
    /// interactions, oldest first.
    pub(crate) fn from_parts(capacity: usize, items: VecDeque<T>, total_recorded: u64) -> Self {
        debug_assert!(capacity >= 1 && items.len() <= capacity);
        Self {
            capacity,
            items,
            total_recorded,
        }
    }

    /// The window capacity `k`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of interactions currently remembered (≤ `k`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if no interaction has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total number of interactions ever recorded (monotonically increasing).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Slots the ring currently has storage for: at most `k` for a window
    /// grown by [`InteractionWindow::record`].
    #[must_use]
    pub fn allocated_slots(&self) -> usize {
        self.items.capacity()
    }

    /// Removes and returns the oldest interaction if the window is full.
    ///
    /// This is the eviction half of [`InteractionWindow::record`], split out
    /// so callers can recycle the evicted record's buffers when building the
    /// next one (the registry's zero-allocation steady-state path). It does
    /// not count as a recorded interaction.
    pub fn take_oldest_if_full(&mut self) -> Option<T> {
        if self.items.len() == self.capacity {
            self.items.pop_front()
        } else {
            None
        }
    }

    /// Records a new interaction, evicting the oldest one if the window is
    /// full. Returns the evicted interaction, if any.
    pub fn record(&mut self, item: T) -> Option<T> {
        self.total_recorded += 1;
        let evicted = if self.items.len() == self.capacity {
            self.items.pop_front()
        } else {
            None
        };
        let slots = self.items.capacity();
        if self.items.len() == slots {
            // Grow geometrically, but never past the `k` the window can use.
            let target = (slots * 2).max(FIRST_RING).min(self.capacity);
            self.items.reserve_exact(target - slots);
        }
        self.items.push_back(item);
        evicted
    }

    /// Iterates over the remembered interactions from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// The most recent interaction, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&T> {
        self.items.back()
    }

    /// The oldest remembered interaction, if any.
    #[must_use]
    pub fn oldest(&self) -> Option<&T> {
        self.items.front()
    }

    /// Forgets all remembered interactions (but keeps the total counter).
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Changes the window capacity.
    ///
    /// Shrinking evicts the oldest interactions so that only the newest
    /// `new_k` remain; growing never discards anything.
    pub fn resize(&mut self, new_k: usize) {
        let new_k = new_k.max(1);
        while self.items.len() > new_k {
            self.items.pop_front();
        }
        self.capacity = new_k;
    }
}

impl<T> Extend<T> for InteractionWindow<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.record(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_capacity_is_promoted_to_one() {
        let w: InteractionWindow<u32> = InteractionWindow::new(0);
        assert_eq!(w.capacity(), 1);
    }

    #[test]
    fn the_ring_grows_on_demand_and_never_past_the_capacity() {
        let mut w = InteractionWindow::new(50);
        assert_eq!(w.allocated_slots(), 0, "no storage before the first record");
        let mut sizes = Vec::new();
        for i in 0..200u32 {
            w.record(i);
            if sizes.last() != Some(&w.allocated_slots()) {
                sizes.push(w.allocated_slots());
            }
        }
        assert_eq!(sizes, vec![8, 16, 32, 50]);
        assert_eq!(w.len(), 50);

        let mut small = InteractionWindow::new(3);
        small.extend(0..10u32);
        assert_eq!(small.allocated_slots(), 3);

        // A copy takes the source's ring size, not a doubling past it.
        let mut copy = InteractionWindow::new(50);
        copy.extend(0..32u32);
        copy.clone_from(&w);
        assert_eq!(copy, w);
        assert_eq!(copy.allocated_slots(), 50);
    }

    #[test]
    fn clone_from_copies_over_longer_shorter_and_rotated_windows() {
        let mut source: InteractionWindow<Vec<u32>> = InteractionWindow::new(3);
        for i in 0..5u32 {
            source.record(vec![i; i as usize]);
        }
        // Into an empty window, a fuller one of another capacity, and a
        // stale copy of itself: always an exact copy.
        let mut empty = InteractionWindow::new(1);
        let mut fuller = InteractionWindow::new(8);
        fuller.extend((10..18u32).map(|i| vec![i]));
        let mut stale = source.clone();
        source.record(vec![9]);
        for target in [&mut empty, &mut fuller, &mut stale] {
            target.clone_from(&source);
            assert_eq!(*target, source);
        }
    }

    #[test]
    fn record_evicts_oldest_when_full() {
        let mut w = InteractionWindow::new(3);
        assert_eq!(w.record(1), None);
        assert_eq!(w.record(2), None);
        assert_eq!(w.record(3), None);
        assert_eq!(w.len(), w.capacity());
        assert_eq!(w.record(4), Some(1));
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(w.oldest(), Some(&2));
        assert_eq!(w.latest(), Some(&4));
        assert_eq!(w.total_recorded(), 4);
    }

    #[test]
    fn deserialization_enforces_the_capacity_invariant() {
        // A normal window round-trips unchanged.
        let mut w = InteractionWindow::new(3);
        w.extend([1u32, 2, 3, 4]);
        let back: InteractionWindow<u32> = serde::from_str(&serde::to_string(&w)).unwrap();
        assert_eq!(back, w);

        // A payload claiming capacity 0 (which `new` can never produce) is
        // promoted to 1 on the way in, keeping only the newest item — the
        // window can hold what it records.
        let mut value = w.to_value();
        if let Value::Map(entries) = &mut value {
            for (key, slot) in entries.iter_mut() {
                if matches!(key, Value::String(s) if s == "capacity") {
                    *slot = 0usize.to_value();
                }
            }
        } else {
            panic!("windows serialize as maps");
        }
        let patched: InteractionWindow<u32> = InteractionWindow::from_value(&value).unwrap();
        assert_eq!(patched.capacity(), 1);
        assert_eq!(patched.len(), 1);
        assert_eq!(patched.latest(), Some(&4));
        assert_eq!(patched.len(), patched.capacity());
        // Recording still works and evicts rather than overflowing.
        let mut patched = patched;
        assert_eq!(patched.record(9), Some(4));
        assert_eq!(patched.len(), 1);

        // Non-map payloads are rejected, not misread.
        assert!(InteractionWindow::<u32>::from_value(&Value::Unit).is_err());
    }

    #[test]
    fn clear_keeps_total_counter() {
        let mut w = InteractionWindow::new(2);
        w.record("a");
        w.record("b");
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.total_recorded(), 2);
    }

    #[test]
    fn resize_shrinks_from_the_oldest_side() {
        let mut w = InteractionWindow::new(5);
        w.extend([1, 2, 3, 4, 5]);
        w.resize(2);
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(w.capacity(), 2);
        // Growing keeps everything.
        w.resize(10);
        assert_eq!(w.len(), 2);
        assert_eq!(w.capacity(), 10);
        // Resize to zero is promoted to one.
        w.resize(0);
        assert_eq!(w.capacity(), 1);
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![5]);
    }

    proptest! {
        #[test]
        fn prop_never_exceeds_capacity(k in 1usize..20, items in proptest::collection::vec(0u32..100, 0..100)) {
            let mut w = InteractionWindow::new(k);
            for item in &items {
                w.record(*item);
            }
            prop_assert!(w.len() <= k);
            prop_assert_eq!(w.total_recorded(), items.len() as u64);
        }

        #[test]
        fn prop_keeps_most_recent_items(k in 1usize..20, items in proptest::collection::vec(0u32..100, 1..100)) {
            let mut w = InteractionWindow::new(k);
            for item in &items {
                w.record(*item);
            }
            let expected: Vec<u32> = items.iter().rev().take(k).rev().copied().collect();
            prop_assert_eq!(w.iter().copied().collect::<Vec<_>>(), expected);
        }
    }
}
