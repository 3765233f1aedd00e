//! Adaptive `kn` composed with the degradation ladder's tiers, pinned at the
//! mediator.
//!
//! Two mechanisms set how many of a query's `k` drawn providers KnBest keeps:
//! the adaptive-`kn` controller (a width per capability class) and the
//! ladder's ShrinkKn tier (a clamp to [`SHRINK_KN_FLOOR`]). The controller's
//! width applies first and the clamp after it; a tier leaves no width behind
//! for the next query; a width past `k` keeps the whole draw; and a
//! technique without a kn-of-k filter is neither re-sized nor sampled, while
//! the controller still tracks the classes its queries name.

use sbqa_baselines::build_allocator;
use sbqa_core::degrade::SHRINK_KN_FLOOR;
use sbqa_core::{DegradationTier, KnControllerConfig, Mediator, StaticIntentions};
use sbqa_types::{
    AllocationPolicyKind, Capability, CapabilitySet, ConsumerId, Intention, ProviderId, Query,
    QueryId, SystemConfig,
};

const K: usize = 10;
const STATIC_KN: usize = 3;
const PROVIDERS: u64 = 16;

fn config() -> SystemConfig {
    SystemConfig::default().with_knbest(K, STATIC_KN)
}

/// A controller starting every class at `initial_kn`, free to move it.
fn controller(initial_kn: usize) -> KnControllerConfig {
    KnControllerConfig {
        initial_kn,
        min_kn: 1,
        max_kn: 16,
        alpha: 1.0,
        ..KnControllerConfig::default()
    }
}

/// A mediator over `PROVIDERS` idle class-0 providers, with a controller.
fn mediator(mut mediator: Mediator, initial_kn: usize) -> Mediator {
    for p in 0..PROVIDERS {
        mediator.register_provider(
            ProviderId::new(p),
            CapabilitySet::singleton(Capability::new(0)),
            1.0,
        );
    }
    mediator.register_consumer(ConsumerId::new(1));
    mediator.enable_adaptive_kn(controller(initial_kn)).unwrap();
    mediator
}

fn sbqa(initial_kn: usize) -> Mediator {
    mediator(Mediator::sbqa(config(), 7).unwrap(), initial_kn)
}

fn query(id: u64) -> Query {
    Query::builder(QueryId::new(id), ConsumerId::new(1), Capability::new(0)).build()
}

/// The consumer loves every allocation and the providers hate the work: a
/// gap sample, if one were taken, sits far above the controller's band.
fn oracle() -> StaticIntentions {
    StaticIntentions::new().with_defaults(Intention::new(0.9), Intention::new(-0.9))
}

/// How many providers the mediation of query `id` at `tier` consulted.
fn consulted(mediator: &mut Mediator, id: u64, tier: DegradationTier) -> usize {
    mediator
        .submit_at(&query(id), &oracle(), tier)
        .unwrap()
        .proposals
        .len()
}

#[test]
fn the_controller_sizes_the_filter_and_shrink_kn_clamps_it_for_one_query() {
    let mut mediator = sbqa(8);
    assert_eq!(
        consulted(&mut mediator, 1, DegradationTier::ShrinkKn),
        SHRINK_KN_FLOOR,
        "the clamp applies after the controller's width"
    );
    assert_eq!(
        consulted(&mut mediator, 2, DegradationTier::Normal),
        8,
        "the clamp leaves nothing behind"
    );
    consulted(&mut mediator, 3, DegradationTier::Baseline);
    assert_eq!(
        consulted(&mut mediator, 4, DegradationTier::Normal),
        8,
        "the fallback leaves nothing behind"
    );
    assert_eq!(mediator.current_kn(0), Some(8));
}

#[test]
fn a_controller_width_past_k_keeps_the_whole_draw() {
    let mut mediator = sbqa(12);
    assert_eq!(consulted(&mut mediator, 1, DegradationTier::Normal), K);
    assert_eq!(
        consulted(&mut mediator, 2, DegradationTier::ShrinkKn),
        SHRINK_KN_FLOOR
    );
    assert_eq!(
        mediator.current_kn(0),
        Some(12),
        "the controller keeps its own"
    );
}

#[test]
fn a_technique_without_a_filter_is_tracked_but_never_sampled() {
    let capacity = build_allocator(AllocationPolicyKind::Capacity, &config(), 7).unwrap();
    let mut mediator = mediator(Mediator::new(capacity, 16), 8);
    let batch: Vec<Query> = (0..12).map(query).collect();
    for _ in 0..5 {
        let report = mediator.submit_batch(&batch, &oracle(), |_, _, _| {});
        assert_eq!(report.mediated, batch.len());
    }
    let controller = mediator.adaptive_kn().unwrap();
    assert_eq!(controller.rounds(), 5);
    assert!(controller.trail().is_empty());
    assert_eq!(controller.class_widths().collect::<Vec<_>>(), [(0, 8)]);
    assert_eq!(controller.gap_ewma(0), None);
}
