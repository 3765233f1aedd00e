//! Shadow-model property test of [`IdDirectory`]: random inserts and
//! removals — the removals compacting the owner's rows by `swap_remove` and
//! re-pointing the moved row, the inserts growing the table through several
//! doublings — against a `BTreeMap<u64, u32>` beside the dense id column
//! the directory confirms its probes with. After every operation every
//! present key must resolve to its row and 64 absent keys to nothing. The
//! same histories then run against [`ProviderColumns`], the owner that keeps
//! its directory inside: `push`, `swap_remove` and `slot_of` must keep every
//! id on its own row. And a directory written with `clone_from` over one of
//! another history and table size must go on as a clone of its source does:
//! the copy reads nothing of the table it overwrites.
//!
//! The vendored proptest stub does not shrink, so sequences stay short
//! (≤ 160 operations) and a failing one is printed whole.

use std::collections::btree_map::{BTreeMap, Entry};

use proptest::prelude::*;

use sbqa_types::{CapabilitySet, IdDirectory, ProviderColumns, ProviderId, ProviderSnapshot};

/// The directory's Fibonacci multiplier (`directory.rs`), needed to build
/// keys that collide on purpose.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The multiplicative inverse of an odd `x` modulo 2⁶⁴ (Newton's iteration
/// doubles the correct low bits each round).
fn inverse(x: u64) -> u64 {
    let mut inverse = x;
    for _ in 0..6 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inverse)));
    }
    inverse
}

/// The `i`-th key of a family.
fn key(family: u8, i: u64) -> u64 {
    match family {
        // Sequential ids, the benchmark's shape.
        0 => i,
        // Ids that differ only above bit 16.
        1 => i << 16,
        // Ids whose Fibonacci products share their top 16 bits, so they
        // share a home slot in every table of up to 2¹⁶ slots.
        2 => inverse(FIBONACCI).wrapping_mul((0xABCD << 48) | i),
        // All three at once.
        _ => key((i % 3) as u8, i / 3),
    }
}

/// The directory beside its owner's id column and the shadow map.
#[derive(Default)]
struct Model {
    directory: IdDirectory,
    ids: Vec<u64>,
    shadow: BTreeMap<u64, u32>,
}

impl Model {
    fn insert(&mut self, key: u64) {
        if self.shadow.contains_key(&key) {
            return;
        }
        let row = self.ids.len() as u32;
        self.ids.push(key);
        let ids = &self.ids;
        self.directory.insert(key, row, |row| ids[row as usize]);
        self.shadow.insert(key, row);
    }

    /// Removes `key` the way every owner does: out of the directory while
    /// the rows are intact, then `swap_remove`, then re-point the moved row.
    fn remove(&mut self, key: u64) {
        let ids = &self.ids;
        let removed = self.directory.remove(key, |row| ids[row as usize]);
        assert_eq!(removed, self.shadow.remove(&key), "remove({key:#x})");
        let Some(row) = removed else {
            return;
        };
        let last = self.ids.len() as u32 - 1;
        self.ids.swap_remove(row as usize);
        if row != last {
            let moved = self.ids[row as usize];
            self.directory.repoint(moved, last, row);
            self.shadow.insert(moved, row);
        }
    }

    fn check(&self, family: u8, what: &str) {
        assert_eq!(self.directory.len(), self.ids.len(), "{what}");
        assert_eq!(self.directory.is_empty(), self.ids.is_empty(), "{what}");
        let find = |key| self.directory.find(key, |row| self.ids[row as usize]);
        for (&key, &row) in &self.shadow {
            assert_eq!(find(key), Some(row), "find({key:#x}) {what}");
            assert_eq!(self.ids[row as usize], key, "shadow and rows agree");
        }
        let absent = (0..)
            .map(|i| key(family, i))
            .filter(|key| !self.shadow.contains_key(key));
        for key in absent.take(64) {
            assert_eq!(find(key), None, "find of absent {key:#x} {what}");
        }
    }
}

proptest! {
    #[test]
    fn the_directory_equals_an_ordered_map_after_every_operation(
        family in 0u8..4,
        // (op, a): 0–4 insert the `a`-th key of the family, 5 remove the last
        // row, 6 the first, 7 a middle one, 8 a key that may be absent.
        ops in proptest::collection::vec((0u8..9, 0u64..160), 1..120),
    ) {
        let mut model = Model::default();
        model.check(family, "when empty");
        for (step, &(op, a)) in ops.iter().enumerate() {
            model.apply(family, (op, a));
            model.check(family, &format!("after step {step} (op {op}, a {a})"));
        }
        // Drain to empty, first row first: every removal re-points.
        while let Some(&first) = model.ids.first() {
            model.remove(first);
            model.check(family, "while draining");
        }
    }
}

impl Model {
    /// Applies one operation of the `(op, a)` encoding the property tests
    /// share.
    fn apply(&mut self, family: u8, (op, a): (u8, u64)) {
        let rows = self.ids.len();
        match op {
            0..=4 => self.insert(key(family, a)),
            5 if rows > 0 => self.remove(self.ids[rows - 1]),
            6 if rows > 0 => self.remove(self.ids[0]),
            7 if rows > 0 => self.remove(self.ids[a as usize % rows]),
            _ => self.remove(key(family, a)),
        }
    }
}

proptest! {
    #[test]
    fn a_directory_copied_with_clone_from_behaves_like_a_clone(
        family in 0u8..4,
        // The source's history, the target's (larger or smaller, another
        // table size), and the history both go through after the copy.
        source_ops in proptest::collection::vec((0u8..9, 0u64..400), 0..160),
        target_ops in proptest::collection::vec((0u8..9, 0u64..400), 0..160),
        after in proptest::collection::vec((0u8..9, 0u64..400), 1..80),
    ) {
        let mut source = Model::default();
        let mut target = Model::default();
        for &op in &source_ops {
            source.apply(family, op);
        }
        for &op in &target_ops {
            target.apply(family, (op.0, op.1 + 7));
        }
        target.directory.clone_from(&source.directory);
        target.ids.clone_from(&source.ids);
        target.shadow.clone_from(&source.shadow);
        let mut clone = Model {
            directory: source.directory.clone(),
            ids: source.ids.clone(),
            shadow: source.shadow.clone(),
        };
        target.check(family, "after the copy");
        for (step, &op) in after.iter().enumerate() {
            target.apply(family, op);
            clone.apply(family, op);
            let what = format!("after step {step} ({op:?})");
            target.check(family, &what);
            clone.check(family, &what);
            prop_assert_eq!(&target.ids, &clone.ids);
        }
    }
}

/// Holds `columns` to the shadow of `id → capacity`: every id resolves to a
/// row carrying that id and capacity, and 64 absent ids to nothing.
fn check_columns(columns: &ProviderColumns, shadow: &BTreeMap<u64, f64>, family: u8, what: &str) {
    assert_eq!(columns.len(), shadow.len(), "{what}");
    for (&id, &capacity) in shadow {
        let slot = columns.slot_of(ProviderId::new(id));
        let slot = slot.unwrap_or_else(|| panic!("slot_of({id:#x}) {what}")) as usize;
        assert_eq!(columns.ids()[slot].raw(), id, "slot_of({id:#x}) {what}");
        assert_eq!(columns.capacity()[slot], capacity, "row of {id:#x} {what}");
    }
    let absent = (0..)
        .map(|i| key(family, i))
        .filter(|key| !shadow.contains_key(key));
    for id in absent.take(64) {
        assert_eq!(columns.slot_of(ProviderId::new(id)), None, "{what}");
    }
}

proptest! {
    #[test]
    fn provider_columns_keep_every_id_on_its_row_after_every_operation(
        family in 0u8..4,
        // (op, a): 0–4 push the `a`-th key of the family unless present,
        // 5 swap-remove the last row, 6 the first, 7 a middle one.
        ops in proptest::collection::vec((0u8..8, 0u64..160), 1..120),
    ) {
        let mut columns = ProviderColumns::new();
        let mut shadow: BTreeMap<u64, f64> = BTreeMap::new();
        check_columns(&columns, &shadow, family, "when empty");
        for (step, &(op, a)) in ops.iter().enumerate() {
            let rows = columns.len();
            let victim = match op {
                0..=4 => {
                    let id = key(family, a);
                    if let Entry::Vacant(absent) = shadow.entry(id) {
                        // A capacity per push, so a row names the push that made it.
                        let capacity = 1.0 + step as f64;
                        absent.insert(capacity);
                        let pid = ProviderId::new(id);
                        let row = ProviderSnapshot::idle(pid, CapabilitySet::EMPTY, capacity);
                        prop_assert_eq!(columns.push(row), rows);
                    }
                    None
                }
                _ if rows == 0 => None,
                5 => Some(rows - 1),
                6 => Some(0),
                _ => Some(a as usize % rows),
            };
            if let Some(slot) = victim {
                shadow.remove(&columns.ids()[slot].raw());
                columns.swap_remove(slot);
            }
            check_columns(&columns, &shadow, family, &format!("after step {step} (op {op}, a {a})"));
        }
        // Drain to empty, first row first: every removal re-points.
        while !columns.is_empty() {
            shadow.remove(&columns.ids()[0].raw());
            columns.swap_remove(0);
            check_columns(&columns, &shadow, family, "while draining");
        }
    }
}

#[test]
fn colliding_keys_share_a_home_slot_by_construction() {
    // What `key(2, _)` relies on: the product's top 16 bits are fixed.
    for i in 0..1000 {
        assert_eq!(key(2, i).wrapping_mul(FIBONACCI) >> 48, 0xABCD);
    }
}
