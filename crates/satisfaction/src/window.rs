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

/// Slots a window's ring takes at its first record (or `k`, if smaller).
const FIRST_RING: usize = 8;

/// A bounded FIFO window over the last `k` interactions of a participant.
///
/// `Clone` is implemented by hand for its `clone_from`: an incremental
/// checkpoint copies a touched window over its stale copy, and doing that
/// item by item reuses the copy's ring buffer and each item's own storage
/// where the derive would allocate a whole new window.
#[derive(Debug, PartialEq)]
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
        let evicted = self.take_oldest_if_full();
        self.push_newest(item);
        evicted
    }

    /// Appends `item` at the newest end of a window that is not full.
    fn push_newest(&mut self, item: T) {
        let slots = self.items.capacity();
        if self.items.len() == slots {
            // Grow geometrically, but never past the `k` the window can use.
            let target = (slots * 2).max(FIRST_RING).min(self.capacity);
            self.items.reserve_exact(target - slots);
        }
        self.items.push_back(item);
    }

    /// Iterates over the remembered interactions from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

impl<T: Clone + PartialEq> InteractionWindow<T> {
    /// Brings this window level with `source`, a later state of the same
    /// history: the interactions `source` recorded since this window, by
    /// the two windows' counts of records ever made, are recorded here, each
    /// cloned into the interaction it evicts, so their buffers are reused.
    /// Returns how many, or `None`, leaving the window as it was, when that
    /// would not make the two equal: `source` is behind or has another
    /// capacity, has recorded a whole window since (a `clone_from` copies no
    /// more), or does not hold this window's newest interaction where the
    /// count puts it.
    pub(crate) fn catch_up(&mut self, source: &Self) -> Option<usize> {
        let gap = usize::try_from(source.total_recorded.checked_sub(self.total_recorded)?).ok()?;
        let len = source.items.len();
        if source.capacity != self.capacity
            || gap >= len
            || (self.items.len() + gap).min(self.capacity) != len
            || self.items.back() != source.items.get(len - 1 - gap)
        {
            return None;
        }
        for fresh in source.items.range(len - gap..) {
            match self.take_oldest_if_full() {
                Some(mut slot) => {
                    slot.clone_from(fresh);
                    self.push_newest(slot);
                }
                None => self.push_newest(fresh.clone()),
            }
        }
        self.total_recorded = source.total_recorded;
        Some(gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Records every item, oldest first.
    fn record_all<T>(window: &mut InteractionWindow<T>, items: impl IntoIterator<Item = T>) {
        for item in items {
            window.record(item);
        }
    }

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
        record_all(&mut small, 0..10u32);
        assert_eq!(small.allocated_slots(), 3);

        // A copy takes the source's ring size, not a doubling past it.
        let mut copy = InteractionWindow::new(50);
        record_all(&mut copy, 0..32u32);
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
        record_all(&mut fuller, (10..18u32).map(|i| vec![i]));
        let mut stale = source.clone();
        source.record(vec![9]);
        for target in [&mut empty, &mut fuller, &mut stale] {
            target.clone_from(&source);
            assert_eq!(*target, source);
        }
    }

    #[test]
    fn catch_up_records_what_the_source_recorded_since_or_declines() {
        let mut source: InteractionWindow<Vec<u32>> = InteractionWindow::new(3);
        record_all(&mut source, (0..4u32).map(|i| vec![i]));
        let mut copy = source.clone();
        let early = source.clone();
        record_all(&mut source, (4..6u32).map(|i| vec![i; 2]));
        assert_eq!(copy.catch_up(&source), Some(2));
        assert_eq!(copy, source);
        assert_eq!(copy.catch_up(&source), Some(0));

        // Not yet full: the records since are appended.
        let mut young = InteractionWindow::new(8);
        record_all(&mut young, [1u32, 2]);
        let mut grown = young.clone();
        record_all(&mut grown, [3, 4, 5]);
        assert_eq!(young.catch_up(&grown), Some(3));
        assert_eq!(young, grown);

        // A whole window since, a source behind, another capacity, another
        // history: declined, and the window is left as it was.
        let mut far = source.clone();
        record_all(&mut far, (6..9u32).map(|i| vec![i]));
        let mut wide = InteractionWindow::new(4);
        wide.clone_from(&source);
        wide.capacity = 4;
        let mut forked = early.clone();
        record_all(&mut forked, [vec![4], vec![9]]);
        for other in [&far, &early, &wide, &forked] {
            assert_eq!(copy.catch_up(other), None);
            assert_eq!(copy, source);
        }
        let mut empty = InteractionWindow::new(3);
        assert_eq!(empty.catch_up(&source), None, "a whole window behind");
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
        assert_eq!(w.total_recorded, 4);
    }

    proptest! {
        #[test]
        fn prop_never_exceeds_capacity(k in 1usize..20, items in proptest::collection::vec(0u32..100, 0..100)) {
            let mut w = InteractionWindow::new(k);
            for item in &items {
                w.record(*item);
            }
            prop_assert!(w.len() <= k);
            prop_assert_eq!(w.total_recorded, items.len() as u64);
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
