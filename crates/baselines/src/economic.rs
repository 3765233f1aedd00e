//! The economic baseline (\[13\] in the paper — Mariposa-style bidding).
//!
//! In Mariposa, queries carry budgets and providers *bid* for the right to
//! execute query fragments; the broker buys the cheapest acceptable bids.
//! For query allocation purposes (which is how the SbQA paper uses it as a
//! baseline) the essential behaviour is:
//!
//! * each capable provider quotes a **price** for the query, increasing with
//!   the work the query represents on that provider *and* with the backlog
//!   the provider already has (busy providers are expensive providers);
//! * the mediator allocates the query to the `q.n` cheapest bids.
//!
//! Like the capacity baseline, the technique ignores participants' interests;
//! unlike it, the price signal favours *fast* providers (high capacity) even
//! when they already have some backlog, which concentrates work on
//! well-provisioned providers — the behaviour the satisfaction analysis of
//! Scenario 1 is designed to expose.

use sbqa_core::allocator::{
    AllocationDecision, CandidateBlock, Candidates, IntentionOracle, QueryAllocator,
};
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_types::{Query, SbqaError, SbqaResult};

use crate::{fill_baseline_decision, DEFAULT_CONSIDERATION};

/// Economic (bidding) allocator: cheapest bid wins. A provider's bid is the
/// virtual time it would take to deliver the result, `service_time +
/// current_backlog` (queueing plus service), which is also a natural
/// monetary proxy in the Mariposa model.
#[derive(Debug, Clone)]
pub struct EconomicAllocator {
    /// Number of providers reported as "considered" for satisfaction
    /// accounting.
    consideration: usize,
    /// Per-candidate bids, indexed by candidate position.
    bids: Vec<f64>,
    /// Candidate positions in ascending-bid order.
    order: Vec<u32>,
    /// Negated bids of the considered prefix (the reported scores).
    scores: Vec<f64>,
    /// Dense gather of the candidate set's scoring columns; bids and
    /// tie-breaks are computed from these in one linear pass.
    block: CandidateBlock,
}

impl Default for EconomicAllocator {
    fn default() -> Self {
        Self {
            consideration: DEFAULT_CONSIDERATION,
            bids: Vec::new(),
            order: Vec::new(),
            scores: Vec::new(),
            block: CandidateBlock::new(),
        }
    }
}

impl EconomicAllocator {
    /// Creates an economic allocator with default pricing.
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
}

impl QueryAllocator for EconomicAllocator {
    fn name(&self) -> &'static str {
        "Economic"
    }

    fn allocate_into(
        &mut self,
        query: &Query,
        candidates: Candidates<'_>,
        oracle: &dyn IntentionOracle,
        _satisfaction: &SatisfactionRegistry,
        decision: &mut AllocationDecision,
    ) -> SbqaResult<()> {
        if candidates.is_empty() {
            return Err(SbqaError::NoProviderOnline { query: query.id });
        }

        candidates.gather_all_into(&mut self.block);
        self.bids.clear();
        for (&capacity, &utilization) in self
            .block
            .capacity()
            .iter()
            .zip(self.block.utilization().iter())
        {
            let service = query.service_time(capacity).seconds();
            self.bids.push(service + utilization.max(0.0));
        }
        let bids = &self.bids;
        let ids = self.block.ids();
        let by_cheapest_bid = |&a: &u32, &b: &u32| {
            sbqa_types::f64_total_cmp(bids[a as usize], bids[b as usize])
                .then_with(|| ids[a as usize].cmp(&ids[b as usize]))
        };
        let selected_count = query.replication.min(candidates.len());
        let considered_len = self.consideration.max(selected_count).min(candidates.len());

        crate::rank_considered_prefix(
            &mut self.order,
            candidates.len(),
            considered_len,
            by_cheapest_bid,
        );
        // Report the (negated) bid as the technique's score so that higher
        // is better, consistent with the other techniques' score columns.
        self.scores.clear();
        self.scores.extend(
            self.order[..considered_len]
                .iter()
                .map(|&pos| -self.bids[pos as usize]),
        );

        fill_baseline_decision(
            query,
            candidates,
            &self.order[..considered_len],
            selected_count,
            oracle,
            Some(&self.scores),
            decision,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::allocator::{ProviderSnapshot, StaticIntentions};
    use sbqa_types::{Capability, CapabilitySet, ConsumerId, ProviderId, QueryId};

    fn query(replication: usize, work: f64) -> Query {
        Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(0))
            .replication(replication)
            .work_units(work)
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
    fn bid_combines_service_time_and_backlog() {
        let mut alloc = EconomicAllocator::new();
        let decision = alloc
            .allocate(
                &query(1, 10.0),
                Candidates::from_slice(&[snapshot(1, 3.0, 2.0)]),
                &StaticIntentions::new(),
                &SatisfactionRegistry::new(10),
            )
            .unwrap();
        // Capacity 2 -> service 5s, backlog 3s -> bid 8, reported negated.
        let score = decision.proposals[0].score.unwrap();
        assert!((score + 8.0).abs() < 1e-12);
    }

    #[test]
    fn cheapest_bids_win() {
        let mut alloc = EconomicAllocator::new();
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle = StaticIntentions::new();
        let candidates = vec![
            snapshot(1, 0.0, 1.0),  // bid 10
            snapshot(2, 0.0, 10.0), // bid 1
            snapshot(3, 0.5, 5.0),  // bid 2.5
        ];
        let decision = alloc
            .allocate(
                &query(2, 10.0),
                Candidates::from_slice(&candidates),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert_eq!(
            decision.selected,
            vec![ProviderId::new(2), ProviderId::new(3)]
        );
        // Scores are negated bids: the winner has the highest score.
        let winner_score = decision
            .proposals
            .iter()
            .find(|p| p.provider == ProviderId::new(2))
            .unwrap()
            .score
            .unwrap();
        let loser_score = decision
            .proposals
            .iter()
            .find(|p| p.provider == ProviderId::new(1))
            .map(|p| p.score.unwrap_or(f64::NEG_INFINITY));
        if let Some(loser_score) = loser_score {
            assert!(winner_score > loser_score);
        }
    }

    #[test]
    fn fast_providers_attract_work_even_with_backlog() {
        // The crossover the satisfaction analysis cares about: a 10x-capacity
        // provider with a small backlog still underbids an idle slow one.
        let mut alloc = EconomicAllocator::new();
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle = StaticIntentions::new();
        let candidates = vec![snapshot(1, 0.0, 1.0), snapshot(2, 0.5, 10.0)];
        let decision = alloc
            .allocate(
                &query(1, 10.0),
                Candidates::from_slice(&candidates),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert_eq!(decision.selected, vec![ProviderId::new(2)]);
    }

    #[test]
    fn empty_candidates_error_and_name() {
        let mut alloc = EconomicAllocator::new();
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle = StaticIntentions::new();
        assert!(alloc
            .allocate(
                &query(1, 1.0),
                Candidates::from_slice(&[]),
                &oracle,
                &satisfaction
            )
            .is_err());
        assert_eq!(alloc.name(), "Economic");
    }
}
