//! The Capacity-based baseline (\[9\] in the paper).
//!
//! This is how the paper characterises BOINC's own dispatch, and more
//! generally classic load-balancing allocation: the mediator sends a query to
//! the capable providers that currently have the most spare capacity,
//! ignoring everybody's interests. It is excellent at balancing load and at
//! keeping response times low in captive environments, which is exactly why
//! the paper uses it as the performance yardstick — and it is oblivious to
//! participant satisfaction, which is why it sheds volunteers in autonomous
//! environments.
//!
//! Ranking criterion: ascending *relative* utilization (`utilization /
//! capacity`), so a powerful provider with some backlog can still beat a weak
//! idle one — this mirrors BOINC's preference for hosts with more spare
//! computing power.

use sbqa_core::allocator::{
    AllocationDecision, CandidateBlock, Candidates, Drawn, IntentionOracle, QueryAllocator, RankKey,
};
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_types::{Query, SbqaResult};

use crate::{fill_baseline_decision, DEFAULT_CONSIDERATION};

/// Capacity-based allocator: least relative utilization first.
#[derive(Debug, Clone)]
pub struct CapacityAllocator {
    /// Number of providers reported as "considered" for satisfaction
    /// accounting (the technique's analogue of `Kn`).
    consideration: usize,
    /// Candidate positions in rank order, reused across queries.
    order: Vec<u32>,
    /// Dense gather of the candidate set's scoring columns: the ranking
    /// comparator reads these instead of resolving view positions per
    /// comparison.
    block: CandidateBlock,
}

impl Default for CapacityAllocator {
    fn default() -> Self {
        Self {
            consideration: DEFAULT_CONSIDERATION,
            order: Vec::new(),
            block: CandidateBlock::new(),
        }
    }
}

impl CapacityAllocator {
    /// Creates a capacity-based allocator with the default consideration
    /// window.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides how many providers are reported as considered per mediation.
    #[must_use]
    pub fn with_consideration(mut self, consideration: usize) -> Self {
        self.consideration = consideration.max(1);
        self
    }

    fn relative_utilization(utilization: f64, capacity: f64) -> f64 {
        if capacity > 0.0 {
            utilization / capacity
        } else {
            f64::INFINITY
        }
    }
}

impl QueryAllocator for CapacityAllocator {
    fn name(&self) -> &'static str {
        "Capacity"
    }

    fn fork(&self) -> Box<dyn QueryAllocator> {
        Box::new(Self::new().with_consideration(self.consideration))
    }

    /// Ranks the view by spare capacity and keeps the considered prefix.
    fn select_into(
        &mut self,
        query: &Query,
        candidates: Candidates<'_>,
        drawn: &mut Vec<RankKey>,
    ) -> Option<usize> {
        candidates.gather_all_into(&mut self.block);
        let utilization = self.block.utilization();
        let capacity = self.block.capacity();
        let ids = self.block.ids();
        let by_spare_capacity = |&a: &u32, &b: &u32| {
            let (a, b) = (a as usize, b as usize);
            sbqa_types::f64_total_cmp(
                Self::relative_utilization(utilization[a], capacity[a]),
                Self::relative_utilization(utilization[b], capacity[b]),
            )
            .then_with(|| ids[a].cmp(&ids[b]))
        };
        let considered_len = crate::considered_len(self.consideration, query, candidates.len());
        crate::rank_considered_prefix(
            &mut self.order,
            candidates.len(),
            considered_len,
            by_spare_capacity,
        );
        candidates.load_ids(&self.order[..considered_len], drawn);
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

    fn snapshot(id: u64, utilization: f64, capacity: f64) -> ProviderSnapshot {
        ProviderSnapshot {
            id: ProviderId::new(id),
            capabilities: CapabilitySet::ALL,
            capacity,
            utilization,
            queue_length: 0,
            online: true,
        }
    }

    #[test]
    fn selects_least_relatively_utilized_providers() {
        let mut alloc = CapacityAllocator::new();
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle = StaticIntentions::new();
        let candidates = vec![
            snapshot(1, 8.0, 1.0),  // relative 8.0
            snapshot(2, 8.0, 10.0), // relative 0.8
            snapshot(3, 0.5, 1.0),  // relative 0.5
        ];
        let decision = alloc
            .allocate(
                &query(2),
                Candidates::from_slice(&candidates),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert_eq!(
            decision.selected,
            vec![ProviderId::new(3), ProviderId::new(2)]
        );
    }

    #[test]
    fn powerful_busy_provider_beats_weak_idle_one_only_when_relative_load_is_lower() {
        let mut alloc = CapacityAllocator::new();
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle = StaticIntentions::new();
        // Provider 1: utilization 2 over capacity 10 -> 0.2.
        // Provider 2: utilization 1 over capacity 1  -> 1.0.
        let candidates = vec![snapshot(1, 2.0, 10.0), snapshot(2, 1.0, 1.0)];
        let decision = alloc
            .allocate(
                &query(1),
                Candidates::from_slice(&candidates),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert_eq!(decision.selected, vec![ProviderId::new(1)]);
    }

    #[test]
    fn consideration_window_bounds_proposals() {
        let mut alloc = CapacityAllocator::new().with_consideration(2);
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle = StaticIntentions::new();
        let candidates: Vec<ProviderSnapshot> =
            (0..10).map(|i| snapshot(i, i as f64, 1.0)).collect();
        let decision = alloc
            .allocate(
                &query(1),
                Candidates::from_slice(&candidates),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert_eq!(decision.proposals.len(), 2);
        assert_eq!(decision.selected.len(), 1);

        // Replication larger than the consideration window still reports every
        // selected provider as considered.
        let decision = alloc
            .allocate(
                &query(5),
                Candidates::from_slice(&candidates),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert_eq!(decision.selected.len(), 5);
        assert_eq!(decision.proposals.len(), 5);
    }

    #[test]
    fn empty_candidates_error() {
        let mut alloc = CapacityAllocator::new();
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
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(CapacityAllocator::new().name(), "Capacity");
    }
}
