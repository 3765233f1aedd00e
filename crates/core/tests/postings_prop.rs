//! Property tests pinning the chunked postings container to the model it
//! implements — an ordered set of provider ids: after any churn history of
//! insert / remove operations, a [`PostingsMap`] must agree with a
//! `BTreeSet` shadow on membership, length, ascending-id iteration order,
//! positional select and when its generation moves — and an `All`/`Any`
//! [`MergedSet`] over such maps, read through a [`Candidates`] view, must
//! agree with the naive ordered-set intersection and union on every chunk
//! mix — key-only chunks, chunks that keep their words, chunks past
//! `ARRAY_MAX` keys — before and after slab compactions move its members'
//! rows.
//!
//! Positional select is held to the shadow *after every operation*: a map's
//! cumulative chunk lengths are updated incrementally, so a stale counter
//! shows at the next read, not only at the end of a history — in small and
//! populous chunks, on both sides of the word boundary (`WORDS_MIN`) and in
//! a completely full chunk. A chunk's words are read only by a merge, so the
//! merge property is what holds them in step with the keys. The two-level
//! popcount directory lives in a merged set's dense chunks only; an `Any`
//! merge over a full chunk is what drives its `u16` group prefixes to their
//! largest values.

use std::collections::BTreeSet;
use std::ops::RangeBounds;
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use sbqa_core::allocator::{CandidateBlock, Candidates, RankKey};
use sbqa_core::postings::{MergedSet, PostingsMap, ARRAY_MAX, WORDS_MIN};
use sbqa_types::{CapabilitySet, ProviderColumns, ProviderId, ProviderSnapshot};

/// Checks every equivalence with the ordered set.
fn assert_matches_shadow(map: &PostingsMap, shadow: &BTreeSet<u64>) {
    assert_eq!(map.len(), shadow.len());
    assert_eq!(map.is_empty(), shadow.is_empty());

    // Iteration yields the shadow's ids in ascending order.
    let got: Vec<u64> = map.iter().map(ProviderId::raw).collect();
    let expected: Vec<u64> = shadow.iter().copied().collect();
    assert_eq!(got, expected, "iteration order mismatch");

    // Positional select yields the shadow's id at every position.
    for (pos, &id) in expected.iter().enumerate() {
        assert_eq!(map.select(pos), ProviderId::new(id), "select({pos})");
    }
}

proptest! {
    /// Membership, iteration order, positional select and the generation agree
    /// with a sorted shadow model under arbitrary interleaved churn.
    #[test]
    fn postings_map_equals_sorted_shadow_under_churn(
        // (insert?, id). Ids span three 2^16 chunks so the chunk directory
        // itself churns too.
        ops in proptest::collection::vec((proptest::bool::ANY, 0u64..0x3_0000), 1..250),
        probes in proptest::collection::vec(0u64..0x3_0000, 1..40),
    ) {
        let mut map = PostingsMap::new();
        let mut shadow: BTreeSet<u64> = BTreeSet::new();

        for &(insert, id) in &ops {
            let before = map.generation();
            let changed = if insert {
                let inserted = map.insert(ProviderId::new(id));
                prop_assert_eq!(inserted, shadow.insert(id), "insert({})", id);
                inserted
            } else {
                let removed = map.remove(ProviderId::new(id));
                prop_assert_eq!(removed, shadow.remove(&id), "remove({})", id);
                removed
            };
            // The generation moves exactly when membership does: a bump
            // without a change would re-merge every cached plan for nothing.
            prop_assert_eq!(map.generation() > before, changed, "generation after {}", id);
            assert_matches_shadow(&map, &shadow);
        }

        // Membership probes: hits and misses both agree.
        for &id in probes.iter().chain(shadow.iter()) {
            prop_assert_eq!(map.contains(ProviderId::new(id)), shadow.contains(&id));
        }
    }
}

/// Chunks [`Shapes`] spans, and so the ids its histories can draw.
const SHAPE_CHUNKS: u64 = 6;

/// The utilization of the row holding `id` in [`shape_columns`], so a
/// gathered key names the row it read.
fn shape_utilization(id: u64) -> f64 {
    (id % 1_013) as f64
}

/// One map over six chunks, one per chunk state a positional select can
/// land in, with its ordered-set shadow:
///
/// * chunk 0 — a small key-only chunk (300 entries);
/// * chunk 1 — 6 000 entries, every 7th id: past `ARRAY_MAX`, with words;
/// * chunk 2 — completely full, all 65 536 ids;
/// * chunk 3 — `WORDS_MIN − 1` entries: one insert from building its words;
/// * chunk 4 — exactly `WORDS_MIN` entries: it has just built them;
/// * chunk 5 — a chunk that grew past `WORDS_MIN` and shrank back below it,
///   keeping its words.
#[derive(Clone)]
struct Shapes {
    map: PostingsMap,
    shadow: BTreeSet<u64>,
}

/// Entries of [`Shapes`]' chunk 5 at its largest and after it shrank.
const GREW_TO: u64 = WORDS_MIN as u64 + 500;
const SHRANK_TO: usize = WORDS_MIN - 200;

impl Shapes {
    fn build() -> Self {
        let mut shapes = Shapes {
            map: PostingsMap::new(),
            shadow: BTreeSet::new(),
        };
        let chunk = |index: u64| index << 16;
        let ids = (0..300u64)
            .map(|i| chunk(0) + i * 211)
            .chain((0..6_000u64).map(|i| chunk(1) + i * 7))
            .chain((0..1u64 << 16).map(|i| chunk(2) + i))
            .chain((0..WORDS_MIN as u64 - 1).map(|i| chunk(3) + i * 61))
            .chain((0..WORDS_MIN as u64).map(|i| chunk(4) + i * 59))
            .chain((0..GREW_TO).map(|i| chunk(5) + i * 37));
        for id in ids {
            shapes.insert(id);
        }
        for i in 0..GREW_TO - SHRANK_TO as u64 {
            shapes.remove(chunk(5) + i * 37);
        }
        shapes
    }

    fn insert(&mut self, id: u64) {
        let inserted = self.map.insert(ProviderId::new(id));
        assert_eq!(inserted, self.shadow.insert(id));
    }

    fn remove(&mut self, id: u64) {
        let removed = self.map.remove(ProviderId::new(id));
        assert_eq!(removed, self.shadow.remove(&id));
    }

    /// Holds `select` and a batched `load_keys` over `positions` to the
    /// shadow's id at those positions and that id's row.
    fn assert_positions(&self, columns: &ProviderColumns, positions: &[u32]) {
        let entries: Vec<u64> = self.shadow.iter().copied().collect();
        assert_eq!(self.map.len(), entries.len());
        let mut keys: Vec<RankKey> = Vec::new();
        Candidates::from_map(columns, &self.map).load_keys(positions, &mut keys);
        assert_eq!(keys.len(), positions.len());
        for (key, &position) in keys.iter().zip(positions) {
            let id = entries[position as usize];
            assert_eq!(
                self.map.select(position as usize),
                ProviderId::new(id),
                "select({position})"
            );
            assert_eq!(
                (key.id.raw(), key.utilization, key.position),
                (id, shape_utilization(id), position),
                "load_keys at {position}"
            );
        }
    }
}

/// The slab behind [`Shapes`]: a row for every id of its six chunks, in
/// scrambled order, so id order, slot order and position order all differ.
fn shape_columns() -> &'static ProviderColumns {
    static COLUMNS: OnceLock<ProviderColumns> = OnceLock::new();
    COLUMNS.get_or_init(|| {
        let ids = SHAPE_CHUNKS << 16;
        let mut columns = ProviderColumns::new();
        for row in 0..ids {
            // 7 919 is coprime to 6 · 2^16: every id is visited once.
            let id = row * 7_919 % ids;
            columns.push(ProviderSnapshot {
                utilization: shape_utilization(id),
                ..ProviderSnapshot::idle(ProviderId::new(id), CapabilitySet::EMPTY, 1.0)
            });
        }
        columns
    })
}

fn shapes() -> &'static Shapes {
    static SHAPES: OnceLock<Shapes> = OnceLock::new();
    SHAPES.get_or_init(Shapes::build)
}

#[test]
fn shapes_cover_every_container_a_select_can_land_in() {
    let shapes = shapes();
    let in_chunk = |chunk: u64| shapes.shadow.range(chunk << 16..(chunk + 1) << 16).count();
    assert_eq!(in_chunk(0), 300);
    assert!(in_chunk(1) > ARRAY_MAX);
    assert_eq!(in_chunk(2), 1 << 16);
    assert_eq!(in_chunk(3), WORDS_MIN - 1);
    assert_eq!(in_chunk(4), WORDS_MIN);
    assert_eq!(in_chunk(5), SHRANK_TO);
    // Every position, every shape — including the last member of the full
    // chunk.
    let all: Vec<u32> = (0..shapes.map.len() as u32).collect();
    shapes.assert_positions(shape_columns(), &all);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every insert and remove — in a small chunk, in a populous one,
    /// across the word boundary and in the full chunk — positional select
    /// and the batched key gather read the shadow's id and its row: at the
    /// positions around the touched id, at both ends, and on a stride that
    /// visits every chunk; at every position once the history is over.
    #[test]
    fn select_and_load_keys_follow_the_shadow_after_every_op(
        ops in proptest::collection::vec(
            (proptest::bool::ANY, 0u64..SHAPE_CHUNKS, 0u64..1 << 16),
            1..40,
        ),
    ) {
        let columns = shape_columns();
        let mut shapes = shapes().clone();
        for (step, &(insert, chunk, low)) in ops.iter().enumerate() {
            // Inserts take the drawn id; two removes in three are steered
            // onto an id the map holds (a uniform low mostly misses the
            // sparse chunks).
            let id = if insert || step % 3 == 0 {
                chunk << 16 | low
            } else {
                let nth = low as usize % shapes.shadow.len();
                *shapes.shadow.iter().nth(nth).expect("nth < len")
            };
            if insert {
                shapes.insert(id);
            } else {
                shapes.remove(id);
            }
            let len = shapes.map.len() as u32;
            let rank = shapes.shadow.range(..id).count() as u32;
            let mut positions: Vec<u32> = (rank.saturating_sub(2)..(rank + 3).min(len)).collect();
            positions.extend([0, len - 1]);
            positions.extend((0..len).step_by(509));
            shapes.assert_positions(columns, &positions);
        }
        let all: Vec<u32> = (0..shapes.map.len() as u32).collect();
        shapes.assert_positions(columns, &all);
    }
}

/// Number of postings lists in the merge world.
const LISTS: usize = 7;

/// What the merge world's list 3 shrinks its chunk 1 to after it grew past
/// `ARRAY_MAX`: a populous chunk that keeps words and holds fewer than
/// `ARRAY_MAX` entries.
const SHRUNK_TO: usize = 3_584;

/// A miniature registry: a column slab plus `LISTS` postings lists over it,
/// with an ordered-set shadow of each list's membership. `unregister` compacts
/// the slab exactly as the registry does (out of the lists, then a
/// `swap_remove` of the row, which re-points the moved row's directory entry
/// and nothing in any list).
#[derive(Clone)]
struct World {
    columns: ProviderColumns,
    lists: Vec<PostingsMap>,
    shadow: Vec<BTreeSet<u64>>,
}

impl World {
    /// Two populous chunks and a third only one list reaches, shaped so the
    /// seven lists cover every chunk mix a merge can meet:
    ///
    /// * list 0 — 6 000 entries in both chunks, past `ARRAY_MAX`;
    /// * list 1 — 2 400 entries with words in both;
    /// * list 2 — 6 000 entries in chunk 0, 1 715 with words in chunk 1, so
    ///   merges with it see mixed sources;
    /// * list 3 — exactly `ARRAY_MAX` entries in chunk 0, and a chunk 1 that
    ///   grew past `ARRAY_MAX` and then shrank to [`SHRUNK_TO`];
    /// * list 4 — a few entries per chunk plus a chunk of its own;
    /// * list 5 — key-only chunks: `WORDS_MIN − 1` entries in chunk 0, 924
    ///   in chunk 1;
    /// * list 6 — a chunk 0 that grew past `WORDS_MIN` and shrank below it
    ///   (933 entries, with words), and a chunk 1 that grew past `ARRAY_MAX`
    ///   and shrank to one below [`SHRUNK_TO`].
    fn build() -> Self {
        let mut world = World {
            columns: ProviderColumns::new(),
            lists: vec![PostingsMap::new(); LISTS],
            shadow: vec![BTreeSet::new(); LISTS],
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0x3e7_2026);
        let mut ids: Vec<u64> = (0..12_000u64)
            .flat_map(|i| [i, 0x1_0000 + i])
            .chain((0..40u64).map(|i| 0x2_0000 + i * 9))
            .collect();
        // Slots in shuffled order, so id order and slot order differ.
        for at in (1..ids.len()).rev() {
            ids.swap(at, rng.gen_range(0..=at));
        }
        for &id in &ids {
            let (chunk, i) = (id >> 16, id & 0xffff);
            let member = match chunk {
                0 => [
                    i % 2 == 0,
                    i % 5 == 0,
                    i % 2 == 1,
                    i % 2 == 0 && i < 2 * ARRAY_MAX as u64,
                    i % 997 == 0,
                    i % 11 == 3 && i < 11 * (WORDS_MIN as u64 - 1),
                    i % 9 == 4,
                ],
                1 => [
                    i % 2 == 0,
                    i % 5 == 0,
                    i % 7 == 0,
                    i % 2 == 1 && i < 2 * ARRAY_MAX as u64 + 2,
                    i % 997 == 0,
                    i % 13 == 0,
                    i % 2 == 0 && i < 2 * ARRAY_MAX as u64 + 2,
                ],
                _ => [false, false, false, false, true, false, false],
            };
            if !member.contains(&true) {
                continue;
            }
            // A utilization per row, so a gathered key names the row it read.
            world.columns.push(ProviderSnapshot {
                utilization: (id % 1_013) as f64,
                ..ProviderSnapshot::idle(ProviderId::new(id), CapabilitySet::EMPTY, 1.0)
            });
            for (list, _) in member.iter().enumerate().filter(|(_, &is)| is) {
                world.lists[list].insert(ProviderId::new(id));
                world.shadow[list].insert(id);
            }
        }
        // List 3, chunk 1 holds ARRAY_MAX + 1 entries: shrink it to
        // SHRUNK_TO. List 6's holds as many: shrink it one further. List 6,
        // chunk 0 holds 1 333 entries and has built its words: shrink it
        // below WORDS_MIN.
        world.shrink(3, 0x1_0000.., ARRAY_MAX + 1 - SHRUNK_TO);
        world.shrink(6, 0x1_0000.., ARRAY_MAX + 2 - SHRUNK_TO);
        world.shrink(6, ..0x1_0000, 400);
        world
    }

    /// Removes the `count` lowest members of `list` in `range` from the list
    /// (not from the slab).
    fn shrink(&mut self, list: usize, range: impl RangeBounds<u64>, count: usize) {
        let surplus: Vec<u64> = self.shadow[list]
            .range(range)
            .copied()
            .take(count)
            .collect();
        for id in surplus {
            self.lists[list].remove(ProviderId::new(id));
            self.shadow[list].remove(&id);
        }
    }

    /// Removes a provider for good; returns the lists it was a member of.
    fn unregister(&mut self, id: u64) -> u64 {
        let pid = ProviderId::new(id);
        let slot = self.columns.slot_of(pid).expect("victims are registered");
        let mut was_in = 0u64;
        for list in 0..LISTS {
            if self.lists[list].remove(pid) {
                self.shadow[list].remove(&id);
                was_in |= 1 << list;
            }
        }
        self.columns.swap_remove(slot as usize);
        was_in
    }

    /// The ids in all / any of the mentioned lists, ascending.
    fn expected(&self, classes: u64, conjunctive: bool) -> Vec<u64> {
        let mentioned: Vec<&BTreeSet<u64>> = (0..LISTS)
            .filter(|list| classes & (1 << list) != 0)
            .map(|list| &self.shadow[list])
            .collect();
        let union: BTreeSet<u64> = mentioned
            .iter()
            .flat_map(|set| set.iter().copied())
            .collect();
        union
            .into_iter()
            .filter(|id| !conjunctive || mentioned.iter().all(|set| set.contains(id)))
            .collect()
    }

    /// Holds a view of `set` to the naive merge: length, every positional
    /// read, the streamed order and the dense gather — each resolving the
    /// member's *current* row.
    fn assert_view_matches(&self, set: &MergedSet, classes: u64, conjunctive: bool) {
        let expected = self.expected(classes, conjunctive);
        let view = Candidates::from_merged(&self.columns, set);
        assert_eq!(view.len(), expected.len());
        assert_eq!(view.is_empty(), expected.is_empty());
        for (pos, &id) in expected.iter().enumerate() {
            assert_eq!(set.select(pos).raw(), id, "select({pos})");
            assert_eq!(view.get(pos).id.raw(), id, "get({pos})");
        }
        let members: Vec<u64> = set.iter().map(ProviderId::raw).collect();
        assert_eq!(members, expected, "MergedSet::iter()");
        let streamed: Vec<u64> = view.iter().map(|row| row.id.raw()).collect();
        assert_eq!(streamed, expected, "iter()");
        let mut block = CandidateBlock::new();
        view.gather_all_into(&mut block);
        let gathered: Vec<u64> = block.ids().iter().map(|id| id.raw()).collect();
        assert_eq!(gathered, expected, "gather_all_into");
        assert_keys_match_rows(view);
        // The same for the views that need no merge: each mentioned list on
        // its own, and the merged rows as a plain slice.
        for list in (0..LISTS).filter(|list| classes & (1 << list) != 0) {
            assert_keys_match_rows(Candidates::from_map(&self.columns, &self.lists[list]));
        }
        let rows: Vec<ProviderSnapshot> = view.iter().collect();
        assert_keys_match_rows(Candidates::from_slice(&rows));
    }
}

/// Holds one batched `load_keys` over every position of `view`, in a
/// scattered order, to the per-position `get`.
fn assert_keys_match_rows(view: Candidates<'_>) {
    let len = view.len() as u32;
    // A stride coprime to the length visits every position once.
    let stride = (1..).map(|i| 7_919 + i).find(|s| gcd(*s, len.max(1)) == 1);
    let stride = stride.expect("some stride is coprime");
    let positions: Vec<u32> = (0..len)
        .map(|i| (u64::from(i) * u64::from(stride) % u64::from(len.max(1))) as u32)
        .collect();
    let mut keys: Vec<RankKey> = Vec::new();
    view.load_keys(&positions, &mut keys);
    assert_eq!(keys.len(), positions.len());
    for (key, &position) in keys.iter().zip(&positions) {
        let row = view.get(position as usize);
        assert_eq!(
            (key.id, key.utilization, key.position),
            (row.id, row.utilization, position),
            "load_keys at {position}"
        );
        // The row is the member's own: its utilization names its id.
        assert_eq!(row.utilization, (row.id.raw() % 1_013) as f64);
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(World::build)
}

#[test]
fn merge_world_covers_every_container_mix() {
    // The shapes `World::build` promises, read back through what a map
    // exposes: a chunk's population against the two thresholds.
    let world = world();
    let in_chunk = |list: usize, chunk: u64| {
        world.shadow[list]
            .range(chunk << 16..(chunk + 1) << 16)
            .count()
    };
    // A chunk that grew to WORDS_MIN..=ARRAY_MAX entries and never shrank
    // keeps words and sits under the merge's density threshold.
    let with_words = |list, chunk| (WORDS_MIN..=ARRAY_MAX).contains(&in_chunk(list, chunk));
    assert!(in_chunk(0, 0) > ARRAY_MAX && in_chunk(0, 1) > ARRAY_MAX);
    assert!(with_words(1, 0) && with_words(1, 1));
    assert!(in_chunk(2, 0) > ARRAY_MAX && with_words(2, 1));
    assert_eq!(in_chunk(3, 0), ARRAY_MAX);
    assert_eq!(in_chunk(3, 1), SHRUNK_TO);
    assert!(in_chunk(4, 2) > 0);
    assert!((0..LISTS).all(|list| list == 4 || in_chunk(list, 2) == 0));
    assert_eq!(in_chunk(5, 0), WORDS_MIN - 1);
    assert!(in_chunk(5, 1) < WORDS_MIN);
    assert_eq!(in_chunk(6, 0), 933);
    assert_eq!(in_chunk(6, 1), SHRUNK_TO - 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A merged set read through a candidates view agrees with the naive
    /// ordered-set merge — on every chunk mix, and after compactions:
    /// unregistering a provider moves a survivor's row, which the view must
    /// follow without a re-merge unless the set's own membership changed.
    #[test]
    fn merged_views_equal_naive_set_merges_across_compactions(
        picks in proptest::collection::vec(0usize..LISTS, 2..8),
        conjunctive in proptest::bool::ANY,
        victims in proptest::collection::vec(0usize..1 << 20, 0..5),
    ) {
        // 2–5 of the five lists: a repeated pick widens to its neighbour.
        let mut classes = picks.iter().fold(0u64, |mask, list| mask | 1 << list);
        if classes.count_ones() < 2 {
            classes |= 1 << ((picks[0] + 1) % LISTS);
        }
        let mut world = world().clone();
        let mut set = MergedSet::default();
        set.merge(&world.lists, classes, conjunctive);
        world.assert_view_matches(&set, classes, conjunctive);

        for victim in victims {
            let id = world.columns.ids()[victim % world.columns.len()].raw();
            if world.unregister(id) & classes != 0 {
                // A source list lost a member: the set is stale by contract.
                set.merge(&world.lists, classes, conjunctive);
            }
            world.assert_view_matches(&set, classes, conjunctive);
        }
    }
}

/// An `Any` merge over a list holding a full 65 536-id chunk is dense, and
/// its popcount directory's `u16` group prefixes reach the largest values
/// they can hold: `select` must still read the shadow's id at every
/// position.
#[test]
fn a_merge_over_a_full_chunk_selects_every_position() {
    let full: BTreeSet<u64> = (0..1u64 << 16).collect();
    let other: BTreeSet<u64> = (0..3_000u64)
        .map(|i| i * 5)
        .chain((0..300u64).map(|i| 0x1_0000 + i * 11))
        .collect();
    let build = |ids: &BTreeSet<u64>| {
        let mut map = PostingsMap::new();
        for &id in ids {
            map.insert(ProviderId::new(id));
        }
        map
    };
    let lists = [build(&full), build(&other)];
    let mut set = MergedSet::default();
    set.merge(&lists, 0b11, false);
    let expected: Vec<u64> = full.union(&other).copied().collect();
    assert_eq!(set.len(), expected.len());
    for (pos, &id) in expected.iter().enumerate() {
        assert_eq!(set.select(pos), ProviderId::new(id), "select({pos})");
    }
    let members: Vec<u64> = set.iter().map(ProviderId::raw).collect();
    assert_eq!(members, expected);
}

/// Seeded large-scale churn inside one chunk grown well past `ARRAY_MAX`
/// and then drained, verifying shadow equivalence at every phase boundary.
/// Proptest populations stay small for speed; this pins the mid-array
/// inserts and removes of a populous chunk the proptest can't reach.
#[test]
fn populous_chunk_churn_and_drain_preserve_equivalence() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5b9a_2026);
    let mut map = PostingsMap::new();
    let mut shadow: BTreeSet<u64> = BTreeSet::new();

    // Phase 1: grow one chunk well past ARRAY_MAX in random order, with a
    // second chunk staying sparse so mixed directories are covered.
    while shadow.len() < ARRAY_MAX + 1_500 {
        let id = rng.gen_range(0u64..0x1_8000);
        map.insert(ProviderId::new(id));
        shadow.insert(id);
    }
    assert_matches_shadow(&map, &shadow);

    // Phase 2: interleaved churn at scale — removals and re-inserts inside
    // the populous chunk.
    for _ in 0..4_000 {
        let id = rng.gen_range(0u64..0x1_8000);
        if rng.gen_range(0u8..2) == 0 {
            assert_eq!(map.insert(ProviderId::new(id)), shadow.insert(id));
        } else {
            assert_eq!(map.remove(ProviderId::new(id)), shadow.remove(&id));
        }
    }
    assert_matches_shadow(&map, &shadow);

    // Phase 3: drain far below WORDS_MIN, then verify equivalence holds in
    // the chunk that kept its words.
    let victims: Vec<u64> = shadow.iter().copied().collect();
    for id in victims {
        if shadow.len() <= 512 {
            break;
        }
        assert!(map.remove(ProviderId::new(id)));
        shadow.remove(&id);
    }
    assert_matches_shadow(&map, &shadow);

    // Phase 4: merges against the churned shapes still match the naive
    // model.
    let mut other_ids: BTreeSet<u64> = shadow.iter().copied().step_by(2).collect();
    other_ids.extend((0..64u64).map(|i| 0x2_0000 + i)); // a chunk only `other` has
    let mut other = PostingsMap::new();
    for &id in &other_ids {
        other.insert(ProviderId::new(id));
    }

    let lists = [map, other];
    let mut set = MergedSet::default();
    let members = |set: &MergedSet| set.iter().map(ProviderId::raw).collect::<Vec<u64>>();
    set.merge(&lists, 0b11, true);
    let expected_all: Vec<u64> = shadow.intersection(&other_ids).copied().collect();
    assert_eq!(members(&set), expected_all);
    set.merge(&lists, 0b11, false);
    let expected_any: Vec<u64> = shadow.union(&other_ids).copied().collect();
    assert_eq!(members(&set), expected_any);
}
