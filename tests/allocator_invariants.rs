//! Property-based integration tests: invariants every allocation technique
//! must uphold when plugged into the shared `QueryAllocator` interface,
//! whatever its internal principle.

use proptest::prelude::*;

use sbqa::baselines::build_allocator;
use sbqa::core::allocator::{Candidates, ProviderSnapshot, StaticIntentions};
use sbqa::core::ProviderRegistry;
use sbqa::satisfaction::SatisfactionRegistry;
use sbqa::types::{
    AllocationPolicyKind, Capability, CapabilityRequirement, CapabilitySet, ConsumerId, Intention,
    ProviderId, Query, QueryId, SystemConfig,
};

fn candidates(utilizations: &[f64]) -> Vec<ProviderSnapshot> {
    utilizations
        .iter()
        .enumerate()
        .map(|(i, u)| ProviderSnapshot {
            id: ProviderId::new(i as u64),
            capabilities: CapabilitySet::ALL,
            capacity: 1.0 + (i % 3) as f64,
            utilization: *u,
            queue_length: (*u).round() as usize,
            online: true,
        })
        .collect()
}

fn query(replication: usize) -> Query {
    Query::builder(QueryId::new(7), ConsumerId::new(1), Capability::new(0))
        .replication(replication)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every technique selects the right number of distinct providers, all of
    /// them drawn from the candidate set, and reports every selected provider
    /// among its proposals.
    #[test]
    fn all_techniques_respect_the_allocation_contract(
        utilizations in proptest::collection::vec(0.0f64..20.0, 1..40),
        replication in 1usize..5,
        consumer_default in -1.0f64..=1.0,
        provider_default in -1.0f64..=1.0,
        seed in 0u64..500,
    ) {
        let pool = candidates(&utilizations);
        let q = query(replication);
        let config = SystemConfig::default();
        let satisfaction = SatisfactionRegistry::new(config.satisfaction_window);
        let oracle = StaticIntentions::new().with_defaults(
            Intention::new(consumer_default),
            Intention::new(provider_default),
        );

        for kind in AllocationPolicyKind::all() {
            let mut allocator = build_allocator(kind, &config, seed).unwrap();
            let decision = allocator
                .allocate(&q, Candidates::from_slice(&pool), &oracle, &satisfaction)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));

            // Never starved on a non-empty candidate set.
            prop_assert!(!decision.is_starved(), "{} starved", kind.label());

            // Selection size: min(q.n, what the technique is willing to use),
            // never more than q.n or the population.
            prop_assert!(decision.selected.len() <= replication.min(pool.len()));

            // Selected providers are distinct members of the candidate set.
            let mut ids: Vec<u64> = decision.selected.iter().map(|p| p.raw()).collect();
            ids.sort_unstable();
            let mut deduped = ids.clone();
            deduped.dedup();
            prop_assert_eq!(ids.len(), deduped.len(), "{} selected duplicates", kind.label());
            for id in &decision.selected {
                prop_assert!(pool.iter().any(|s| s.id == *id));
            }

            // Every selected provider appears in the proposals, flagged selected.
            for id in &decision.selected {
                let proposal = decision
                    .proposals
                    .iter()
                    .find(|p| p.provider == *id)
                    .unwrap_or_else(|| panic!("{}: {id} missing from proposals", kind.label()));
                prop_assert!(proposal.selected);
            }
            // And no proposal lies about being selected.
            for proposal in &decision.proposals {
                prop_assert_eq!(
                    proposal.selected,
                    decision.selected.contains(&proposal.provider)
                );
            }
        }
    }

    /// Baselines with full-coverage replication pick the providers their
    /// principle promises: the capacity baseline never selects a strictly
    /// more relatively-utilized provider while skipping a strictly less
    /// utilized one when replication is 1.
    #[test]
    fn capacity_baseline_picks_a_least_relatively_utilized_provider(
        utilizations in proptest::collection::vec(0.0f64..20.0, 2..30),
        seed in 0u64..100,
    ) {
        let pool = candidates(&utilizations);
        let q = query(1);
        let config = SystemConfig::default();
        let satisfaction = SatisfactionRegistry::new(config.satisfaction_window);
        let oracle = StaticIntentions::new();
        let mut allocator = build_allocator(AllocationPolicyKind::Capacity, &config, seed).unwrap();
        let decision = allocator.allocate(&q, Candidates::from_slice(&pool), &oracle, &satisfaction).unwrap();
        let chosen = decision.selected[0];
        let relative = |s: &ProviderSnapshot| s.utilization / s.capacity;
        let chosen_rel = relative(pool.iter().find(|s| s.id == chosen).unwrap());
        let best = pool
            .iter()
            .map(relative)
            .fold(f64::INFINITY, f64::min);
        prop_assert!(chosen_rel <= best + 1e-9);
    }

    /// Every technique — SbQA and all three baselines — honours
    /// multi-capability requirements when fed the registry's merged
    /// candidate view: whatever providers it selects satisfy the query's
    /// `All`/`Any` requirement, and selections stay within the merged set.
    #[test]
    fn all_techniques_honour_multi_capability_requirements(
        masks in proptest::collection::vec(1u8..16, 2..30),
        req_mask in 1u8..16,
        conjunctive in proptest::bool::ANY,
        replication in 1usize..4,
        seed in 0u64..200,
    ) {
        let capability_set = |mask: u8| {
            CapabilitySet::from_capabilities(
                (0..4u8).filter(|class| mask & (1 << class) != 0).map(Capability::new),
            )
        };
        let mut registry = ProviderRegistry::new();
        for (i, mask) in masks.iter().enumerate() {
            registry.register(ProviderId::new(i as u64), capability_set(*mask), 1.0 + (i % 3) as f64);
        }
        let set = capability_set(req_mask);
        let required = if conjunctive {
            CapabilityRequirement::All(set)
        } else {
            CapabilityRequirement::Any(set)
        };
        let q = Query::requiring(QueryId::new(7), ConsumerId::new(1), required)
            .replication(replication)
            .build();

        let config = SystemConfig::default();
        let satisfaction = SatisfactionRegistry::new(config.satisfaction_window);
        let oracle = StaticIntentions::new()
            .with_defaults(Intention::new(0.4), Intention::new(0.2));

        let merged = registry.capable_of(&q);
        for kind in AllocationPolicyKind::all() {
            let mut allocator = build_allocator(kind, &config, seed).unwrap();
            let result = allocator.allocate(
                &q,
                Candidates::from_slice(&merged),
                &oracle,
                &satisfaction,
            );
            if merged.is_empty() {
                prop_assert!(result.is_err(), "{} mediated an empty Pq", kind.label());
                continue;
            }
            let decision = result.unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            prop_assert!(!decision.is_starved(), "{} starved", kind.label());
            for id in &decision.selected {
                let snapshot = merged
                    .iter()
                    .find(|s| s.id == *id)
                    .unwrap_or_else(|| panic!("{}: {id} outside merged Pq", kind.label()));
                prop_assert!(
                    snapshot.can_perform(&q),
                    "{}: selected {id} cannot perform {}", kind.label(), required
                );
            }
        }
    }

    /// The SbQA decision's ω always lies in [0, 1] and its scores are finite,
    /// whatever intentions the participants express.
    #[test]
    fn sbqa_scores_and_omega_are_well_formed(
        utilizations in proptest::collection::vec(0.0f64..20.0, 1..30),
        consumer_default in -1.0f64..=1.0,
        provider_default in -1.0f64..=1.0,
        seed in 0u64..100,
    ) {
        let pool = candidates(&utilizations);
        let q = query(2);
        let config = SystemConfig::default();
        let satisfaction = SatisfactionRegistry::new(config.satisfaction_window);
        let oracle = StaticIntentions::new().with_defaults(
            Intention::new(consumer_default),
            Intention::new(provider_default),
        );
        let mut allocator = build_allocator(AllocationPolicyKind::SbQA, &config, seed).unwrap();
        let decision = allocator.allocate(&q, Candidates::from_slice(&pool), &oracle, &satisfaction).unwrap();
        let omega = decision.omega.expect("SbQA reports omega");
        prop_assert!((0.0..=1.0).contains(&omega));
        for proposal in &decision.proposals {
            let score = proposal.score.expect("SbQA scores every proposal");
            prop_assert!(score.is_finite());
        }
    }
}

/// KnBest keeps the `kn` least-utilized providers of its `k` draws. With
/// `k` equal to the candidate count the draw is every candidate, in an order
/// that varies with the seed, so SbQA's proposals must be exactly the two
/// lightest whatever that order: a heavier provider drawn after the buffer
/// filled must never take the place of the `kn`-th lightest.
#[test]
fn knbest_proposes_the_kn_lightest_of_its_draws_in_any_draw_order() {
    let pool = candidates(&[2.0, 0.5, 1.0]);
    let config = SystemConfig::default().with_knbest(3, 2);
    let satisfaction = SatisfactionRegistry::new(config.satisfaction_window);
    let oracle = StaticIntentions::new();
    for seed in 0..32 {
        let mut allocator = build_allocator(AllocationPolicyKind::SbQA, &config, seed).unwrap();
        let decision = allocator
            .allocate(
                &query(1),
                Candidates::from_slice(&pool),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        let mut proposed: Vec<u64> = decision
            .proposals
            .iter()
            .map(|p| p.provider.raw())
            .collect();
        proposed.sort_unstable();
        assert_eq!(proposed, [1, 2], "seed {seed}");
    }
}
