//! The KnBest provider pre-selection strategy (DASFAA 2007, used as step 1 of
//! SbQA's mediation).
//!
//! From the set `Pq` of capable providers, KnBest
//!
//! 1. draws `k` providers uniformly at random (the set `K`), then
//! 2. keeps the `kn` *least utilized* providers of `K` (the set `Kn`).
//!
//! The random draw spreads opportunities across the whole provider
//! population (important for provider satisfaction and for discovering
//! under-used providers), while the utilization filter keeps the final
//! candidates from being overloaded. The paper's Scenario 6 adapts the query
//! allocation to the application by varying `kn`: a small `kn` behaves almost
//! like pure load balancing, a large `kn` gives the intention-based scoring
//! more freedom.
//!
//! ## Cost model
//!
//! The draw is a *partial* Fisher–Yates over a persistent identity
//! permutation ([`IndexPool`]): `k` swaps forward, `k` swaps undone, so one
//! selection costs O(k) — independent of `|Pq|` — and, once the pool has
//! grown to the population size, performs zero heap allocation. The ranking
//! keys of the `k` drawn positions are gathered as one batch
//! ([`Candidates::load_keys`]: positions → ids, ids → slots, slots →
//! utilization, each step over the whole batch, so the cache misses of a
//! step overlap; a mediator batch stops after the first step,
//! [`KnBestSelector::draw_into`], and takes the other two over a whole group
//! of draws at once). Over a single class's postings the first step is an index
//! into a chunk's sorted keys, so its `k` loads do not depend on one
//! another either; only a dense merged chunk pays a rank-select. The
//! utilization filter is a
//! bounded insertion: the `kn` best keys seen so far are kept sorted, and a
//! drawn key that does not beat the worst of them — most do not, once the
//! buffer is full — costs one comparison. The order `(utilization, id)` is
//! total, so the `kn` survivors and their order do not depend on how they
//! were found.

use rand::Rng;

use sbqa_types::ProviderId;

use crate::allocator::{Candidates, ProviderSnapshot, RankKey};

/// A persistent identity permutation used to draw `count` distinct positions
/// out of `0..population` uniformly at random in O(count) time.
///
/// The pool keeps a `Vec<u32>` that is always the identity permutation
/// between draws: a draw performs `count` Fisher–Yates swaps, copies the
/// drawn prefix out, then undoes the swaps in reverse. Growing to a larger
/// population extends the identity lazily, so steady-state draws allocate
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct IndexPool {
    identity: Vec<u32>,
    swaps: Vec<u32>,
    drawn: Vec<u32>,
}

impl IndexPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws `min(count, population)` distinct positions from
    /// `0..population`, uniformly at random, returning them in draw order.
    /// The returned slice is valid until the next call.
    pub fn draw<R: Rng>(&mut self, population: usize, count: usize, rng: &mut R) -> &[u32] {
        let count = count.min(population);
        if self.identity.len() < population {
            let start = self.identity.len() as u32;
            self.identity.extend(start..population as u32);
        }
        self.swaps.clear();
        self.drawn.clear();
        for i in 0..count {
            let j = rng.gen_range(i..population);
            self.identity.swap(i, j);
            self.swaps.push(j as u32);
        }
        self.drawn.extend_from_slice(&self.identity[..count]);
        // Restore the identity so the next draw starts from a clean pool.
        for i in (0..count).rev() {
            self.identity.swap(i, self.swaps[i] as usize);
        }
        &self.drawn
    }
}

/// Reusable working memory for [`KnBestSelector::select_into`] /
/// [`KnBestSelector::select_block`]. One scratch per allocator instance
/// keeps steady-state selection allocation-free.
#[derive(Debug, Clone, Default)]
pub struct KnBestScratch {
    pool: IndexPool,
    /// Ranking keys of the drawn set K — gathered once from the candidate
    /// columns so the filter compares dense keys instead of re-reading the
    /// view per comparison (which, for a registry-backed view, would select
    /// in the postings and probe the id directory every time).
    keys: Vec<RankKey>,
    /// Output columns of the selection, parallel and in ranking order.
    positions: Vec<u32>,
    ids: Vec<ProviderId>,
    utilization: Vec<f64>,
}

impl KnBestScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The set `Kn` as dense parallel columns borrowed from the scratch:
/// positions into the candidate view, provider ids and utilizations, all in
/// ranking order (ascending utilization, id tie-break). Step 2 of SbQA reads
/// ids and utilizations straight from here instead of re-resolving each
/// position against the view.
#[derive(Debug, Clone, Copy)]
// sbqa-lint: allow(dead-pub, "returned by KnBestSelector::select_block; the benchmark's trace replay reads it unnamed")
pub struct KnSelection<'s> {
    /// Positions into the candidate view, in ranking order.
    pub positions: &'s [u32],
    /// Provider ids, parallel to `positions`.
    pub ids: &'s [ProviderId],
    /// Utilizations, parallel to `positions`.
    pub utilization: &'s [f64],
}

impl KnSelection<'_> {
    /// Number of selected providers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if nothing was selected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Configurable KnBest selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnBestSelector {
    /// Number of providers drawn at random (`k`).
    pub k: usize,
    /// Number of least-utilized providers retained (`kn`).
    pub kn: usize,
}

impl KnBestSelector {
    /// Creates a selector. `kn` is capped at `k` and both are raised to at
    /// least 1, so the selector is always usable.
    #[must_use]
    pub fn new(k: usize, kn: usize) -> Self {
        let k = k.max(1);
        Self {
            k,
            kn: kn.clamp(1, k),
        }
    }

    /// Applies KnBest to the candidate view, returning the positions (into
    /// `candidates`) of the set `Kn`, sorted by ascending utilization with
    /// provider id as the tie-breaker — deterministic for a given RNG stream
    /// and candidate order.
    ///
    /// Costs O(k·kn) at worst, regardless of `|Pq|`, and performs no heap
    /// allocation once `scratch` has warmed up to the population size.
    pub fn select_into<'s, R: Rng>(
        &self,
        candidates: Candidates<'_>,
        rng: &mut R,
        scratch: &'s mut KnBestScratch,
    ) -> &'s [u32] {
        self.select_block(candidates, rng, scratch).positions
    }

    /// Applies KnBest to the candidate view, returning the set `Kn` as dense
    /// parallel columns (positions, ids, utilizations) in ranking order —
    /// ascending utilization with provider id as the tie-breaker,
    /// deterministic for a given RNG stream and candidate order.
    ///
    /// The ranking keys of the drawn set K are gathered from the view
    /// *once*, as a batch; the filter then runs over dense keys, so a
    /// registry-backed view pays `k` positional lookups total instead of one
    /// per comparison. Costs O(k) plus a shift of at most `kn` keys for each
    /// key that enters the buffer — O(k·kn) at worst — regardless of `|Pq|`,
    /// and performs no heap allocation once `scratch` has warmed up.
    pub fn select_block<'s, R: Rng>(
        &self,
        candidates: Candidates<'_>,
        rng: &mut R,
        scratch: &'s mut KnBestScratch,
    ) -> KnSelection<'s> {
        scratch.positions.clear();
        scratch.ids.clear();
        scratch.utilization.clear();
        let n = candidates.len();
        if n > 0 {
            // Step 1: the random subset K of size min(k, |Pq|), as
            // positions, with each position's ranking key gathered once.
            let drawn = scratch.pool.draw(n, self.k, rng);
            candidates.load_keys(drawn, &mut scratch.keys);
            // Step 2: the kn least-utilized providers of K.
            let kept = keep_lightest(&mut scratch.keys, self.kn);
            for key in &scratch.keys[..kept] {
                scratch.positions.push(key.position);
                scratch.ids.push(key.id);
                scratch.utilization.push(key.utilization);
            }
        }
        KnSelection {
            positions: &scratch.positions,
            ids: &scratch.ids,
            utilization: &scratch.utilization,
        }
    }

    /// Step 1 alone, for a caller that gathers the keys of many draws at
    /// once: draws the random subset K of size min(k, |Pq|) and appends the
    /// keys of its positions to `keys` ([`Candidates::load_ids`]: the ids
    /// are owned; over an id-set view, slots and utilizations are left for
    /// the caller to gather).
    /// Consumes the RNG exactly as [`select_block`](Self::select_block) does.
    pub fn draw_into<R: Rng>(
        &self,
        candidates: Candidates<'_>,
        rng: &mut R,
        scratch: &mut KnBestScratch,
        keys: &mut Vec<RankKey>,
    ) {
        let n = candidates.len();
        if n > 0 {
            candidates.load_ids(scratch.pool.draw(n, self.k, rng), keys);
        }
    }

    /// Applies KnBest to a candidate slice, returning the snapshots of the
    /// set `Kn` — an allocating convenience wrapper over
    /// [`KnBestSelector::select_into`] for tests and one-off callers.
    #[must_use]
    pub fn select<R: Rng>(
        &self,
        candidates: &[ProviderSnapshot],
        rng: &mut R,
    ) -> Vec<ProviderSnapshot> {
        let mut scratch = KnBestScratch::new();
        self.select_into(Candidates::from_slice(candidates), rng, &mut scratch)
            .iter()
            .map(|&pos| candidates[pos as usize])
            .collect()
    }
}

/// Step 2 of KnBest: moves the `min(kn, keys.len())` least-utilized keys
/// to the front of `keys`, in ranking order — ascending utilization, id
/// tie-break — and returns how many that is. Bounded insertion:
/// `keys[..min(i, kn)]` holds, sorted, the best of the first `i` keys, so a
/// key that does not beat the worst of them — most do not, once the buffer
/// is full — costs one comparison.
pub(crate) fn keep_lightest(keys: &mut [RankKey], kn: usize) -> usize {
    let lighter = |a: &RankKey, b: &RankKey| {
        sbqa_types::f64_total_cmp(a.utilization, b.utilization)
            .then_with(|| a.id.cmp(&b.id))
            .is_lt()
    };
    let kn = kn.min(keys.len());
    if kn == 0 {
        return 0;
    }
    for i in 1..keys.len() {
        let key = keys[i];
        if i >= kn && !lighter(&key, &keys[kn - 1]) {
            continue;
        }
        // Shift the worse keys up one place from the end — a full buffer
        // drops its last — until the key's place opens.
        let mut at = i.min(kn - 1);
        while at > 0 && lighter(&key, &keys[at - 1]) {
            keys[at] = keys[at - 1];
            at -= 1;
        }
        keys[at] = key;
    }
    kn
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sbqa_types::{CapabilitySet, ProviderId};

    fn snapshot(id: u64, utilization: f64) -> ProviderSnapshot {
        ProviderSnapshot {
            id: ProviderId::new(id),
            capabilities: CapabilitySet::ALL,
            capacity: 1.0,
            utilization,
            queue_length: 0,
            online: true,
        }
    }

    #[test]
    fn index_pool_draws_distinct_positions_and_restores_identity() {
        let mut pool = IndexPool::new();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let drawn: Vec<u32> = pool.draw(20, 7, &mut rng).to_vec();
            assert_eq!(drawn.len(), 7);
            let mut sorted = drawn.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 7, "duplicates in {drawn:?}");
            assert!(drawn.iter().all(|&p| p < 20));
        }
        // The identity invariant must hold between draws.
        assert!(pool
            .identity
            .iter()
            .enumerate()
            .all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn index_pool_caps_count_at_population_and_grows() {
        let mut pool = IndexPool::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut all: Vec<u32> = pool.draw(4, 99, &mut rng).to_vec();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        // Growing to a larger population works on the same pool.
        let drawn = pool.draw(100, 5, &mut rng);
        assert_eq!(drawn.len(), 5);
        assert!(drawn.iter().all(|&p| p < 100));
    }

    #[test]
    fn select_into_returns_positions_into_the_view() {
        let candidates: Vec<ProviderSnapshot> = vec![
            snapshot(10, 5.0),
            snapshot(11, 0.5),
            snapshot(12, 3.0),
            snapshot(13, 0.1),
        ];
        let sel = KnBestSelector::new(10, 2);
        let mut rng = StdRng::seed_from_u64(42);
        let mut scratch = KnBestScratch::new();
        let positions =
            sel.select_into(Candidates::from_slice(&candidates), &mut rng, &mut scratch);
        let ids: Vec<u64> = positions
            .iter()
            .map(|&p| candidates[p as usize].id.raw())
            .collect();
        assert_eq!(ids, vec![13, 11]);
    }

    #[test]
    fn select_block_columns_are_parallel_and_ranked() {
        let candidates: Vec<ProviderSnapshot> = vec![
            snapshot(10, 5.0),
            snapshot(11, 0.5),
            snapshot(12, 3.0),
            snapshot(13, 0.1),
        ];
        let sel = KnBestSelector::new(10, 3);
        let mut rng = StdRng::seed_from_u64(42);
        let mut scratch = KnBestScratch::new();
        let kn = sel.select_block(Candidates::from_slice(&candidates), &mut rng, &mut scratch);
        assert_eq!(kn.len(), 3);
        assert!(!kn.is_empty());
        // The columns agree with one another and with the view.
        for i in 0..kn.len() {
            let row = candidates[kn.positions[i] as usize];
            assert_eq!(kn.ids[i], row.id);
            assert_eq!(kn.utilization[i], row.utilization);
        }
        // Ranking order: ascending utilization.
        assert!(kn.utilization.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn select_into_on_empty_view_is_empty() {
        let sel = KnBestSelector::new(5, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = KnBestScratch::new();
        assert!(sel
            .select_into(Candidates::from_slice(&[]), &mut rng, &mut scratch)
            .is_empty());
    }

    #[test]
    fn parameters_are_sanitised() {
        let sel = KnBestSelector::new(0, 0);
        assert_eq!(sel.k, 1);
        assert_eq!(sel.kn, 1);
        let sel = KnBestSelector::new(4, 10);
        assert_eq!(sel.kn, 4);
    }

    #[test]
    fn empty_candidates_give_empty_selection() {
        let sel = KnBestSelector::new(5, 2);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sel.select(&[], &mut rng).is_empty());
    }

    #[test]
    fn selection_never_exceeds_kn_or_population() {
        let candidates: Vec<ProviderSnapshot> = (0..10).map(|i| snapshot(i, i as f64)).collect();
        let mut rng = StdRng::seed_from_u64(7);

        let sel = KnBestSelector::new(6, 3);
        assert_eq!(sel.select(&candidates, &mut rng).len(), 3);

        // When the population is smaller than kn, everything is returned.
        let sel = KnBestSelector::new(50, 20);
        assert_eq!(sel.select(&candidates[..2], &mut rng).len(), 2);
    }

    #[test]
    fn when_k_covers_everything_the_least_utilized_win() {
        // With k >= |Pq| the random step is a no-op and the kn least utilized
        // providers must be selected deterministically.
        let candidates: Vec<ProviderSnapshot> = vec![
            snapshot(1, 5.0),
            snapshot(2, 0.5),
            snapshot(3, 3.0),
            snapshot(4, 0.1),
        ];
        let sel = KnBestSelector::new(10, 2);
        let mut rng = StdRng::seed_from_u64(42);
        let kn = sel.select(&candidates, &mut rng);
        let ids: Vec<u64> = kn.iter().map(|s| s.id.raw()).collect();
        assert_eq!(ids, vec![4, 2]);
    }

    #[test]
    fn same_seed_gives_same_selection() {
        let candidates: Vec<ProviderSnapshot> =
            (0..50).map(|i| snapshot(i, (i % 7) as f64)).collect();
        let sel = KnBestSelector::new(10, 4);
        let a = sel.select(&candidates, &mut StdRng::seed_from_u64(99));
        let b = sel.select(&candidates, &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
    }

    #[test]
    fn random_step_spreads_opportunities() {
        // Provider 0 is the single least-utilized provider; with k = 1 the
        // random draw decides alone, so over many mediations other providers
        // must get selected too.
        let candidates: Vec<ProviderSnapshot> = (0..10)
            .map(|i| snapshot(i, if i == 0 { 0.0 } else { 1.0 }))
            .collect();
        let sel = KnBestSelector::new(1, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let mut selected_ids = std::collections::HashSet::new();
        for _ in 0..200 {
            let kn = sel.select(&candidates, &mut rng);
            selected_ids.insert(kn[0].id.raw());
        }
        assert!(
            selected_ids.len() > 5,
            "random step should spread selections"
        );
    }

    proptest! {
        #[test]
        fn prop_selected_are_subset_of_candidates(
            utilizations in proptest::collection::vec(0.0f64..100.0, 1..40),
            k in 1usize..20,
            kn in 1usize..20,
            seed in 0u64..1000,
        ) {
            let candidates: Vec<ProviderSnapshot> = utilizations
                .iter()
                .enumerate()
                .map(|(i, u)| snapshot(i as u64, *u))
                .collect();
            let sel = KnBestSelector::new(k, kn);
            let mut rng = StdRng::seed_from_u64(seed);
            let selection = sel.select(&candidates, &mut rng);
            prop_assert!(selection.len() <= sel.kn.min(candidates.len()));
            for s in &selection {
                prop_assert!(candidates.iter().any(|c| c.id == s.id));
            }
            // No duplicates.
            let mut ids: Vec<u64> = selection.iter().map(|s| s.id.raw()).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), selection.len());
        }

        #[test]
        fn prop_selection_sorted_by_utilization(
            utilizations in proptest::collection::vec(0.0f64..100.0, 1..40),
            seed in 0u64..1000,
        ) {
            let candidates: Vec<ProviderSnapshot> = utilizations
                .iter()
                .enumerate()
                .map(|(i, u)| snapshot(i as u64, *u))
                .collect();
            let sel = KnBestSelector::new(8, 4);
            let mut rng = StdRng::seed_from_u64(seed);
            let selection = sel.select(&candidates, &mut rng);
            for pair in selection.windows(2) {
                prop_assert!(pair[0].utilization <= pair[1].utilization);
            }
        }
    }
}
