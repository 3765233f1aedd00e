//! Uniformly random allocation.
//!
//! Not a technique from the paper, but a useful sanity baseline: it ignores
//! both load and interests, so any technique worth its salt should beat it on
//! response time, and its satisfaction profile shows what "pure chance"
//! fairness looks like.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sbqa_core::allocator::{
    AllocationDecision, Candidates, Drawn, IntentionOracle, QueryAllocator, RankKey,
};
use sbqa_core::knbest::IndexPool;
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_types::{Query, SbqaResult};

use crate::fill_baseline_decision;

/// Random allocator: `q.n` providers drawn uniformly without replacement.
#[derive(Debug, Clone)]
pub struct RandomAllocator {
    rng: ChaCha8Rng,
    /// O(q.n) draw scratch, reused across queries.
    pool: IndexPool,
}

impl RandomAllocator {
    /// Creates a random allocator with a deterministic seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed),
            pool: IndexPool::new(),
        }
    }
}

impl QueryAllocator for RandomAllocator {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn fork(&self) -> Box<dyn QueryAllocator> {
        Box::new(Self {
            rng: self.rng.clone(),
            pool: IndexPool::new(),
        })
    }

    /// Draws `min(q.n, |Pq|)` providers, all of them winners.
    fn select_into(
        &mut self,
        query: &Query,
        candidates: Candidates<'_>,
        drawn: &mut Vec<RankKey>,
    ) -> Option<usize> {
        let positions = self
            .pool
            .draw(candidates.len(), query.replication, &mut self.rng);
        candidates.load_ids(positions, drawn);
        None
    }

    fn score_into(
        &mut self,
        query: &Query,
        drawn: Drawn<'_>,
        oracle: &dyn IntentionOracle,
        _satisfaction: &SatisfactionRegistry,
        decision: &mut AllocationDecision,
    ) -> SbqaResult<()> {
        fill_baseline_decision(query, drawn.ids, oracle, None, decision);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::allocator::{ProviderSnapshot, StaticIntentions};
    use sbqa_types::{Capability, CapabilitySet, ConsumerId, ProviderId, QueryId};

    fn query(replication: usize) -> Query {
        Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(0))
            .replication(replication)
            .build()
    }

    fn candidates(n: u64) -> Vec<ProviderSnapshot> {
        (0..n)
            .map(|i| ProviderSnapshot::idle(ProviderId::new(i), CapabilitySet::ALL, 1.0))
            .collect()
    }

    #[test]
    fn selects_exactly_replication_distinct_providers() {
        let mut alloc = RandomAllocator::new(1);
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle = StaticIntentions::new();
        let decision = alloc
            .allocate(
                &query(3),
                Candidates::from_slice(&candidates(10)),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert_eq!(decision.selected.len(), 3);
        let mut ids: Vec<u64> = decision.selected.iter().map(|p| p.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn replication_larger_than_population_selects_everyone() {
        let mut alloc = RandomAllocator::new(1);
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle = StaticIntentions::new();
        let decision = alloc
            .allocate(
                &query(10),
                Candidates::from_slice(&candidates(3)),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert_eq!(decision.selected.len(), 3);
    }

    #[test]
    fn same_seed_reproduces_choices() {
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle = StaticIntentions::new();
        let run = |seed: u64| {
            let mut alloc = RandomAllocator::new(seed);
            (0..20)
                .map(|_| {
                    alloc
                        .allocate(
                            &query(1),
                            Candidates::from_slice(&candidates(10)),
                            &oracle,
                            &satisfaction,
                        )
                        .unwrap()
                        .selected[0]
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn spreads_selections_over_the_population() {
        let mut alloc = RandomAllocator::new(9);
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle = StaticIntentions::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let d = alloc
                .allocate(
                    &query(1),
                    Candidates::from_slice(&candidates(10)),
                    &oracle,
                    &satisfaction,
                )
                .unwrap();
            seen.insert(d.selected[0].raw());
        }
        assert!(seen.len() >= 8);
    }

    #[test]
    fn empty_candidates_error_and_name() {
        let mut alloc = RandomAllocator::new(0);
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle = StaticIntentions::new();
        assert!(alloc
            .allocate(
                &query(1),
                Candidates::from_slice(&[]),
                &oracle,
                &satisfaction
            )
            .is_err());
        assert_eq!(alloc.name(), "Random");
    }
}
