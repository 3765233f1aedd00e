//! # sbqa-baselines
//!
//! Baseline query-allocation techniques used by the paper's evaluation
//! scenarios, all implementing the same
//! [`QueryAllocator`](sbqa_core::QueryAllocator) trait as SbQA so that the
//! scenario harnesses can swap them freely:
//!
//! * [`CapacityAllocator`] — the paper's "Capacity based" baseline (\[9\]),
//!   equivalent to how BOINC dispatches work: queries go to the
//!   least-utilized capable providers; participants' interests are ignored.
//! * [`EconomicAllocator`] — the economic baseline (\[13\], Mariposa): each
//!   provider bids a price derived from its load and capacity, the lowest
//!   bids win.
//! * [`RandomAllocator`] — a sanity baseline (uniform random) used by tests
//!   and by the multi-capability workload.
//!
//! Even though these techniques ignore intentions when *deciding*, they still
//! report, for every mediation, which providers they considered and what
//! everybody's intentions were — that is what lets the satisfaction model
//! analyse them (Scenario 1: "the proposed satisfaction model allows
//! analyzing different query allocation techniques no matter their query
//! allocation principle").
//!
//! Each runs in SbQA's two phases: the select phase ranks the view
//! (Capacity, Economic) or draws from it (Random) and keeps the considered
//! providers' ids in rank order; the score phase asks the oracle about them
//! and marks the first `min(q.n, considered)` as selected.

#![forbid(unsafe_code)]

pub mod capacity;
pub mod economic;
pub mod factory;
pub mod random_alloc;

pub use capacity::CapacityAllocator;
pub use economic::EconomicAllocator;
pub use factory::build_allocator;
pub use random_alloc::RandomAllocator;

use sbqa_core::allocator::{AllocationDecision, IntentionOracle, ProposalRecord};
use sbqa_types::{ProviderId, Query};

/// The score phase of a baseline technique: fills an [`AllocationDecision`]
/// without allocating (beyond growing the reused decision's buffers).
///
/// `considered` holds provider ids in the technique's rank order — its
/// analogue of SbQA's `Kn` — and the first `min(q.n, considered)` of them
/// are the winners. `scores`, when present, is aligned with `considered`.
/// The function resolves both sides' intentions through the oracle,
/// provider first, so that the satisfaction model can judge the technique,
/// even though the technique itself ignored those intentions.
pub(crate) fn fill_baseline_decision(
    query: &Query,
    considered: &[ProviderId],
    oracle: &dyn IntentionOracle,
    scores: Option<&[f64]>,
    decision: &mut AllocationDecision,
) {
    decision.clear();
    let winners = query.replication.min(considered.len());
    for (rank, &provider) in considered.iter().enumerate() {
        let selected = rank < winners;
        if selected {
            decision.selected.push(provider);
        }
        decision.proposals.push(ProposalRecord {
            provider,
            provider_intention: oracle.provider_intention(provider, query),
            consumer_intention: oracle.consumer_intention(query, provider),
            score: scores.map(|s| s[rank]),
            selected,
        });
    }
}

/// How many providers a baseline reports as "considered" for satisfaction
/// purposes when it does not have a natural candidate-shortlist size of its
/// own. Matches the default `kn` of SbQA so that proposal-driven
/// dissatisfaction is comparable across techniques.
pub(crate) const DEFAULT_CONSIDERATION: usize = 4;

/// How many providers a ranking baseline considers for `query` over
/// `candidate_count` candidates: its consideration window, widened to the
/// query's winners `min(q.n, |Pq|)`, so the considered prefix is never
/// shorter than the winner count.
pub(crate) fn considered_len(consideration: usize, query: &Query, candidate_count: usize) -> usize {
    consideration.max(query.replication).min(candidate_count)
}

/// Fills `order` with the positions `0..candidate_count` ranked by `compare`,
/// keeping only the `considered_len` best. Only the considered prefix is ever
/// read by the ranking baselines, so the prefix is partitioned out with
/// `select_nth_unstable_by` first and the full sort pays O(c·log c) on the
/// `c = considered_len` survivors, not O(n·log n) on the population. Shared
/// by the capacity and economic baselines so their ranking
/// mechanics cannot drift apart.
pub(crate) fn rank_considered_prefix(
    order: &mut Vec<u32>,
    candidate_count: usize,
    considered_len: usize,
    mut compare: impl FnMut(&u32, &u32) -> std::cmp::Ordering,
) {
    order.clear();
    order.extend(0..candidate_count as u32);
    if considered_len > 0 && considered_len < order.len() {
        order.select_nth_unstable_by(considered_len - 1, &mut compare);
        order.truncate(considered_len);
    }
    order.sort_unstable_by(compare);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::allocator::StaticIntentions;
    use sbqa_types::{Capability, ConsumerId, Intention, QueryId};

    #[test]
    fn fill_baseline_decision_resolves_intentions_for_all_considered() {
        let query = Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(0)).build();
        let pool: Vec<ProviderId> = (0..3).map(ProviderId::new).collect();
        let mut oracle = StaticIntentions::new();
        oracle.set_consumer_intention(ProviderId::new(1), Intention::new(0.7));
        oracle.set_provider_intention(ProviderId::new(2), Intention::new(-0.4));

        // Rank order 1, 2, 0 with the first as the single winner.
        let mut decision = AllocationDecision::default();
        fill_baseline_decision(
            &query,
            &[pool[1], pool[2], pool[0]],
            &oracle,
            Some(&[0.9, 0.4, 0.1]),
            &mut decision,
        );
        assert_eq!(decision.selected, vec![ProviderId::new(1)]);
        assert_eq!(decision.proposals.len(), 3);
        assert!(decision.omega.is_none());

        let p1 = decision
            .proposals
            .iter()
            .find(|p| p.provider == ProviderId::new(1))
            .unwrap();
        assert!(p1.selected);
        assert_eq!(p1.consumer_intention, Intention::new(0.7));
        assert_eq!(p1.score, Some(0.9));

        let p2 = decision
            .proposals
            .iter()
            .find(|p| p.provider == ProviderId::new(2))
            .unwrap();
        assert!(!p2.selected);
        assert_eq!(p2.provider_intention, Intention::new(-0.4));
        assert_eq!(p2.score, Some(0.4));

        // Refilling a used decision starts from a clean slate.
        fill_baseline_decision(&query, &[pool[0]], &oracle, None, &mut decision);
        assert_eq!(decision.selected, vec![ProviderId::new(0)]);
        assert_eq!(decision.proposals.len(), 1);
        assert_eq!(decision.proposals[0].score, None);
    }
}
