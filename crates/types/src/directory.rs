//! A keyless id → row directory.
//!
//! Every id-keyed structure on the mediation hot path keeps its rows dense —
//! a `Vec` per column, compacted by `swap_remove` — and already stores each
//! row's id in one of those columns. [`IdDirectory`] is the one index from a
//! sparse external id to such a row: an open-addressing table of `row + 1`
//! values (`0` marks an empty slot) that stores **no keys**. A probe is
//! confirmed against the id column its owner already keeps, passed in as
//! `key_of`, so the table costs 4 bytes a slot (8–16 bytes an id at its load
//! of ¼ to ½), carries no per-process hasher state — equal operation
//! sequences build equal tables in every run — and is never iterated:
//! ordered traversal goes through the owner's rows.
//!
//! Slots are found by Fibonacci hashing of the raw id and linear probing;
//! removal shifts the following run back instead of leaving tombstones, so
//! a probe's length depends on the ids present, never on the history.

/// `2^64 / φ`, the multiplier of Fibonacci hashing: consecutive ids land
/// far apart, and ids that differ only in high bits still spread.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Slots of the first table.
const FIRST_SLOTS: usize = 8;

/// An open-addressing table from raw ids to `u32` rows that relies on its
/// owner's id column for the keys (see the module documentation).
///
/// Rows must stay below `u32::MAX`. Every method taking `key_of` calls it
/// only with rows currently in the directory, and expects the id the owner
/// stores for that row.
#[derive(Debug, Default)]
pub struct IdDirectory {
    /// `row + 1` per slot, `0` for an empty one; empty or a power of two
    /// long, and at most half occupied.
    slots: Vec<u32>,
    len: usize,
}

/// By hand for `clone_from`, which copies the table into the one `self`
/// already owns, reading none of its slots.
impl Clone for IdDirectory {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.len = source.len;
    }
}

impl IdDirectory {
    /// Creates an empty directory; the first insert allocates.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids in the directory.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the directory holds no id.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot `key` probes first in a table of `slots` slots (a power of
    /// two of at least 2): the top bits of the Fibonacci product.
    fn home(key: u64, slots: usize) -> usize {
        (key.wrapping_mul(FIBONACCI) >> (u64::BITS - slots.trailing_zeros())) as usize
    }

    /// The slot holding `key`, if present.
    fn slot_of(&self, key: u64, key_of: impl Fn(u32) -> u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = Self::home(key, self.slots.len());
        // At most half the slots are occupied, so the probe meets an empty one.
        while self.slots[at] != 0 {
            if key_of(self.slots[at] - 1) == key {
                return Some(at);
            }
            at = (at + 1) & mask;
        }
        None
    }

    /// The row of `key`, if present.
    #[must_use]
    pub fn find(&self, key: u64, key_of: impl Fn(u32) -> u64) -> Option<u32> {
        self.slot_of(key, key_of).map(|at| self.slots[at] - 1)
    }

    /// Places `row + 1` in the first empty slot of `key`'s probe sequence.
    fn place(slots: &mut [u32], key: u64, row: u32) {
        let mask = slots.len() - 1;
        let mut at = Self::home(key, slots.len());
        while slots[at] != 0 {
            at = (at + 1) & mask;
        }
        slots[at] = row + 1;
    }

    /// Adds `key → row`. `key` must be absent. The table doubles (re-placing
    /// every row by `key_of`) when the insert would fill more than half of it.
    pub fn insert(&mut self, key: u64, row: u32, key_of: impl Fn(u32) -> u64) {
        debug_assert!(row < u32::MAX, "row + 1 must fit the slot");
        debug_assert!(self.slot_of(key, &key_of).is_none(), "key already present");
        if (self.len + 1) * 2 > self.slots.len() {
            let mut grown = vec![0; (self.slots.len() * 2).max(FIRST_SLOTS)];
            for &stored in self.slots.iter().filter(|&&stored| stored != 0) {
                Self::place(&mut grown, key_of(stored - 1), stored - 1);
            }
            self.slots = grown;
        }
        Self::place(&mut self.slots, key, row);
        self.len += 1;
    }

    /// Removes `key`, returning its row. The entries probing past the freed
    /// slot are shifted back into it, so no tombstone is left; call this
    /// before compacting the rows, while `key_of` still answers for them.
    pub fn remove(&mut self, key: u64, key_of: impl Fn(u32) -> u64) -> Option<u32> {
        let mut hole = self.slot_of(key, &key_of)?;
        let row = self.slots[hole] - 1;
        let mask = self.slots.len() - 1;
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let stored = self.slots[at];
            if stored == 0 {
                break;
            }
            // An entry may move back into the hole only if that keeps it at
            // or after its home slot, cyclically.
            let home = Self::home(key_of(stored - 1), self.slots.len());
            if (at.wrapping_sub(home) & mask) >= (at.wrapping_sub(hole) & mask) {
                self.slots[hole] = stored;
                hole = at;
            }
        }
        self.slots[hole] = 0;
        self.len -= 1;
        Some(row)
    }

    /// Re-points `key` from row `from` to row `to` — the patch for the row a
    /// `swap_remove` moved. Needs no `key_of`: `from` identifies the slot.
    pub fn repoint(&mut self, key: u64, from: u32, to: u32) {
        debug_assert!(to < u32::MAX, "row + 1 must fit the slot");
        if self.slots.is_empty() {
            return;
        }
        let mask = self.slots.len() - 1;
        let mut at = Self::home(key, self.slots.len());
        while self.slots[at] != 0 {
            if self.slots[at] == from + 1 {
                self.slots[at] = to + 1;
                return;
            }
            at = (at + 1) & mask;
        }
        debug_assert!(false, "repointed key is not in the directory");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_inserted_ids_and_forgets_removed_ones() {
        let mut ids: Vec<u64> = Vec::new();
        let mut directory = IdDirectory::new();
        assert_eq!(directory.find(7, |_| unreachable!("empty")), None);
        for key in [7u64, 1 << 40, 0, u64::MAX, 8, 9] {
            directory.insert(key, ids.len() as u32, |row| ids[row as usize]);
            ids.push(key);
        }
        assert_eq!(directory.len(), 6);
        for (row, &key) in ids.iter().enumerate() {
            assert_eq!(directory.find(key, |r| ids[r as usize]), Some(row as u32));
        }
        assert_eq!(directory.find(10, |r| ids[r as usize]), None);

        // Swap-remove row 1: remove, compact, re-point the moved last row.
        assert_eq!(directory.remove(1 << 40, |r| ids[r as usize]), Some(1));
        ids.swap_remove(1);
        directory.repoint(ids[1], 5, 1);
        assert_eq!(directory.remove(1 << 40, |r| ids[r as usize]), None);
        for (row, &key) in ids.iter().enumerate() {
            assert_eq!(directory.find(key, |r| ids[r as usize]), Some(row as u32));
        }
    }

    #[test]
    fn the_table_stays_at_most_half_full() {
        let ids: Vec<u64> = (0..1000).collect();
        let mut directory = IdDirectory::new();
        for (row, &key) in ids.iter().enumerate() {
            directory.insert(key, row as u32, |r| ids[r as usize]);
            assert!(directory.len() * 2 <= directory.slots.len());
        }
        assert_eq!(directory.slots.len(), 2048);
    }
}
