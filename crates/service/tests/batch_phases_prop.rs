//! Property: the phased batch step decides exactly what per-query submits
//! decide.
//!
//! Both fronts take a batch in two phases: the select phases of a group of
//! queries (KnBest draws in stream order, then one gather of their keys and
//! satisfaction rows), then the groups' score phases in order. Random
//! batches go through a front and, separately, through each shard's
//! per-query step (`MediatorShard::submit`, whose mediation is
//! `Mediator::submit_at`) in the order the front mediates them. Everything
//! observable must agree: the outcomes, both sides' satisfaction bit for bit
//! (`satisfaction_digest`), the plan-cache counters, the ladder's stats, the
//! adaptive-`kn` trail and the replication log — read through its counters,
//! through the standby's lockstep with the registry, and through what a
//! promotion replays from it.
//!
//! The batches mix single-class queries with `All`/`Any` multi-class ones
//! over a plan cache of one or two entries (so a cold resolve recycles a plan
//! an earlier query of the same group drew from), queries that starve in the
//! middle of a batch, bursts that drive an armed ladder through its tiers,
//! armed adaptive `kn`, replicated shards, the threaded front with a ring
//! smaller than a producer chunk (so waves split chunks), and each baseline
//! (Capacity, Economic, Random) in SbQA's place, plain or replicated.

use std::sync::Arc;
use std::time::Instant;

use proptest::prelude::*;

use sbqa_baselines::build_allocator;
use sbqa_core::{
    AllocationDecision, DegradationConfig, DegradationLadder, IntentionOracle, KnControllerConfig,
    Mediator,
};
use sbqa_replication::{registry_digest, satisfaction_digest};
use sbqa_service::{
    IngestConfig, MediationService, MediatorShard, OutcomeRecord, ShardRouter, ShardedMediator,
};
use sbqa_types::{
    AllocationPolicyKind, Capability, CapabilityRequirement, CapabilitySet, ConsumerId, Intention,
    ProviderId, Query, QueryId, SbqaResult, SystemConfig, VirtualTime,
};

/// Classes providers advertise; class `STARVING` is advertised by nobody.
const CLASSES: u8 = 4;
const STARVING: u8 = 4;
const PROVIDERS: u64 = 24;
const CONSUMERS: u64 = 3;

/// Intentions that differ per (query, provider), so that a decision read
/// against the wrong satisfaction state would rank differently.
#[derive(Debug, Clone, Copy)]
struct HashOracle(u64);

impl HashOracle {
    fn value(self, salt: u64, query: QueryId, provider: ProviderId) -> Intention {
        let mut x = self.0 ^ salt;
        x = x.wrapping_add(query.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x = x.wrapping_add(provider.raw().wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        x ^= x >> 31;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 29;
        Intention::new((x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
    }
}

impl IntentionOracle for HashOracle {
    fn consumer_intention(&self, query: &Query, provider: ProviderId) -> Intention {
        self.value(1, query.id, provider)
    }

    fn provider_intention(&self, provider: ProviderId, query: &Query) -> Intention {
        self.value(2, query.id, provider)
    }
}

/// How a case arms the service.
#[derive(Debug, Clone, Copy)]
struct Setup {
    shards: usize,
    seed: u64,
    plan_cache: usize,
    ladder: bool,
    adaptive: bool,
    /// Checkpoint interval of a replicated service.
    replicate: Option<u64>,
    /// Ring capacity of the threaded front; `None` drives it inline.
    threaded: Option<usize>,
    /// The baseline hosted in place of SbQA, if any.
    baseline: Option<AllocationPolicyKind>,
}

fn classes(mask: u8) -> CapabilitySet {
    CapabilitySet::from_capabilities(
        (0..CLASSES)
            .filter(|class| mask & (1 << class) != 0)
            .map(Capability::new),
    )
}

/// Provider `p` advertises its base class and, for some, one or two more.
fn provider_classes(p: u64) -> CapabilitySet {
    let base = (p % u64::from(CLASSES)) as u8;
    let mut mask = 1 << base;
    if p.is_multiple_of(3) {
        mask |= 1 << ((base + 1) % CLASSES);
    }
    if p.is_multiple_of(5) {
        mask |= 1 << ((base + 2) % CLASSES);
    }
    classes(mask)
}

fn build(setup: Setup) -> ShardedMediator {
    let config = SystemConfig::default().with_knbest(6, 3);
    let mediators = (0..setup.shards as u64)
        .map(|index| {
            let mut mediator = match setup.baseline {
                Some(kind) => Mediator::new(
                    build_allocator(kind, &config, setup.seed + index).unwrap(),
                    config.satisfaction_window,
                ),
                None => Mediator::sbqa(config.clone(), setup.seed + index).unwrap(),
            };
            mediator.set_plan_cache_capacity(setup.plan_cache);
            mediator
        })
        .collect();
    let mut service = ShardedMediator::new(setup.seed, mediators).unwrap();
    for p in 0..PROVIDERS {
        service.register_provider(
            ProviderId::new(p),
            provider_classes(p),
            1.0 + (p % 3) as f64,
        );
    }
    for c in 1..=CONSUMERS {
        service.register_consumer(ConsumerId::new(c));
    }
    if setup.ladder {
        service
            .enable_degradation(DegradationConfig {
                capacity: 8,
                drain_rate: 200.0,
            })
            .unwrap();
    }
    if setup.adaptive {
        service
            .enable_adaptive_kn(KnControllerConfig {
                initial_kn: 3,
                min_kn: 1,
                max_kn: 6,
                alpha: 1.0,
                target_gap: 0.2,
                deadband: 0.05,
                step: 1,
                window: 8,
            })
            .unwrap();
    }
    if let Some(interval) = setup.replicate {
        service.replicate().unwrap();
        service.set_checkpoint_interval(interval);
    }
    churn(&mut service, 0);
    service
}

/// Query `id` from its spec: `(kind, mask, conjunctive, replication,
/// consumer)`. Kind 0 is single-class, 1 and 2 multi-class, 3 starves.
fn query(id: u64, at: f64, spec: (u8, u8, bool, usize, u64)) -> Query {
    let (kind, mask, conjunctive, replication, consumer) = spec;
    let consumer = ConsumerId::new(1 + consumer % CONSUMERS);
    let required = match kind {
        0 => CapabilityRequirement::All(classes(mask & mask.wrapping_neg())),
        3 => CapabilityRequirement::All(CapabilitySet::singleton(Capability::new(STARVING))),
        _ => {
            // At least two classes, so the plan cache resolves it.
            let mask = mask | (1 << ((mask.trailing_zeros() as u8 + 1) % CLASSES));
            if conjunctive {
                CapabilityRequirement::All(classes(mask))
            } else {
                CapabilityRequirement::Any(classes(mask))
            }
        }
    };
    Query::requiring(QueryId::new(id), consumer, required)
        .replication(replication)
        .issued_at(VirtualTime::new(at))
        .build()
}

/// One query of a case: `((kind, mask, conjunctive, replication),
/// (consumer, gap))`, the gap picking how far its issue time advances.
type Spec = ((u8, u8, bool, usize), (u64, u8));

/// The batches of a case: issue times advance in bursts (a ladder fills)
/// and calms (it drains).
fn batches(specs: &[Vec<Spec>]) -> Vec<Vec<Query>> {
    let mut id = 0;
    let mut at = 0.0;
    specs
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(
                    |&((kind, mask, conjunctive, replication), (consumer, gap))| {
                        id += 1;
                        at += [0.0, 0.001, 0.002, 0.08][usize::from(gap % 4)];
                        query(id, at, (kind, mask, conjunctive, replication, consumer))
                    },
                )
                .collect()
        })
        .collect()
}

/// What a decision decided, bit for bit: every proposal's provider, both
/// intentions, score and selected flag, in proposal order, and ω.
type Decided = (Vec<(u64, u64, u64, Option<u64>, bool)>, Option<u64>);

/// One outcome as both paths report it: the query, the selection, the
/// starved and shed flags, and what was decided. The threaded front reports
/// outcome records only, so its outcomes carry no decision.
type Outcome = (u64, Vec<u64>, bool, bool, Option<Decided>);

fn outcome(record: &OutcomeRecord) -> Outcome {
    (
        record.query.raw(),
        record.selected.iter().map(|p| p.raw()).collect(),
        record.starved,
        record.shed,
        None,
    )
}

fn decided(decision: &AllocationDecision) -> Decided {
    let proposals = decision.proposals.iter().map(|proposal| {
        (
            proposal.provider.raw(),
            proposal.provider_intention.value().to_bits(),
            proposal.consumer_intention.value().to_bits(),
            proposal.score.map(f64::to_bits),
            proposal.selected,
        )
    });
    (proposals.collect(), decision.omega.map(f64::to_bits))
}

fn record(shard: usize, query: &Query, result: SbqaResult<&AllocationDecision>) -> Outcome {
    let decision = result.as_ref().ok().map(|decision| decided(decision));
    let mut outcome = outcome(&OutcomeRecord::from_result(shard, query, result));
    outcome.4 = decision;
    outcome
}

/// The registry writes before batch `batch`, the same on both sides: new
/// loads, which KnBest ranks by, and provider `batch % PROVIDERS` flipping
/// offline or back, which makes cached plans stale.
fn churn(service: &mut ShardedMediator, batch: usize) {
    for p in 0..PROVIDERS {
        let load = (p as usize * 7 + batch * 3) % 11;
        service
            .update_provider_load(ProviderId::new(p), load as f64 / 4.0, load)
            .unwrap();
    }
    let provider = ProviderId::new(batch as u64 % PROVIDERS);
    service
        .set_provider_online(provider, batch % 2 == 1)
        .unwrap();
}

/// The per-query reference: each shard's per-query step over the batch in
/// the front's order — `(issued_at, id)`, stable — with the batch boundary
/// around it, as the fronts drove shards before they took batches in
/// phases. Inline, every shard sees the boundary; threaded (`busy_only`),
/// only the shards the producer chunk sent queries to.
fn per_query(
    service: ShardedMediator,
    batch: &[Query],
    oracle: &HashOracle,
    busy_only: bool,
) -> (ShardedMediator, Vec<Outcome>) {
    let mut order: Vec<&Query> = batch.iter().collect();
    order.sort_by_key(|query| (query.issued_at, query.id));
    let (router, mut shards) = service.into_shards();
    let busy: Vec<bool> = (0..shards.len())
        .map(|shard| !busy_only || order.iter().any(|q| router.shard_of_query(q.id) == shard))
        .collect();
    for (shard, _) in shards.iter_mut().zip(&busy).filter(|(_, busy)| **busy) {
        shard.begin_batch();
    }
    let mut outcomes = Vec::new();
    for query in order {
        let shard = router.shard_of_query(query.id);
        let result = shards[shard]
            .submit(query, oracle, Instant::now())
            .expect("no replication fault");
        outcomes.push(record(shard, query, result));
    }
    for (shard, _) in shards.iter_mut().zip(&busy).filter(|(_, busy)| **busy) {
        shard.end_batch();
    }
    (
        ShardedMediator::from_shards(router, shards).unwrap(),
        outcomes,
    )
}

/// Everything a shard exposes that the two paths must agree on.
fn shard_state(shard: &MediatorShard) -> String {
    format!(
        "{:?} sat={:x} reg={:x} cache={:?} ladder={:?} trail={:?} repl={:?} lockstep={} fault={:?}",
        shard.report(),
        satisfaction_digest(shard.mediator().satisfaction()),
        registry_digest(shard.mediator().providers()),
        shard.mediator().plan_cache_stats(),
        shard.ladder().map(DegradationLadder::stats),
        shard.kn_trail(),
        shard.replication_stats(),
        shard.standby_in_lockstep(),
        shard.fault(),
    )
}

fn states(service: &ShardedMediator) -> Vec<String> {
    service.shards().map(shard_state).collect()
}

/// Runs a case both ways and checks that they agree; returns the tiers the
/// phased run's ladders admitted at and the sheds they made, for coverage.
fn check(setup: Setup, specs: &[Vec<Spec>]) -> [u64; 4] {
    let oracle = HashOracle(setup.seed);
    let batches = batches(specs);
    let mut reference = build(setup);
    let mut expected = Vec::new();
    for (index, batch) in batches.iter().enumerate() {
        let (service, outcomes) = per_query(reference, batch, &oracle, setup.threaded.is_some());
        reference = service;
        expected.push(outcomes);
        churn(&mut reference, index + 1);
    }

    let mut phased = build(setup);
    let mut got = Vec::new();
    match setup.threaded {
        None => {
            for (index, batch) in batches.iter().enumerate() {
                let mut outcomes = Vec::new();
                phased
                    .try_submit_batch(batch, &oracle, |position, query, result| {
                        assert_eq!(batch[position].id, query.id);
                        let shard = shard_of(setup, query);
                        outcomes.push(record(shard, query, result));
                    })
                    .unwrap();
                got.push(outcomes);
                churn(&mut phased, index + 1);
            }
            assert_eq!(got, expected, "outcomes of {setup:?}");
        }
        Some(ring_capacity) => {
            // One producer chunk per batch. A registry write needs the
            // shards back, so each batch is one spawn of the service.
            for (index, batch) in batches.iter().enumerate() {
                let router = *phased.router();
                let config = IngestConfig {
                    ring_capacity,
                    degradation: None,
                };
                let mut running =
                    MediationService::spawn_with(phased, Arc::new(oracle), config).unwrap();
                running.enqueue_batch(batch.iter().cloned());
                let (report, shards) = running.finish_with_shards();
                phased = ShardedMediator::from_shards(router, shards).unwrap();
                // Both in the merged `(issued_at, id)` order, without the
                // decisions the threaded report does not carry.
                let outcomes: Vec<Outcome> = report.outcomes.iter().map(outcome).collect();
                let records: Vec<Outcome> = expected[index]
                    .iter()
                    .map(|(query, selected, starved, shed, _)| {
                        (*query, selected.clone(), *starved, *shed, None)
                    })
                    .collect();
                assert_eq!(outcomes, records, "outcomes of {setup:?}, batch {index}");
                churn(&mut phased, index + 1);
            }
        }
    }
    assert_eq!(states(&phased), states(&reference), "shards of {setup:?}");

    if setup.replicate.is_some() {
        // The log, read through what a promotion replays from it: the
        // promoted shards and their next decisions agree too.
        for index in 0..setup.shards {
            let promoted = phased.crash_shard(index, &oracle).unwrap();
            assert_eq!(reference.crash_shard(index, &oracle).unwrap(), promoted);
        }
        assert_eq!(
            states(&phased),
            states(&reference),
            "promoted shards of {setup:?}"
        );
        let next: Vec<Query> = batches
            .concat()
            .iter()
            .map(|q| {
                let mut q = q.clone();
                q.id = QueryId::new(q.id.raw() + 10_000);
                q.issued_at = VirtualTime::new(q.issued_at.seconds() + 100.0);
                q
            })
            .collect();
        let (reference, expected) = per_query(reference, &next, &oracle, false);
        let mut got = Vec::new();
        phased
            .try_submit_batch(&next, &oracle, |_, query, result| {
                got.push(record(shard_of(setup, query), query, result));
            })
            .unwrap();
        assert_eq!(got, expected, "decisions after promotion, {setup:?}");
        assert_eq!(states(&phased), states(&reference));
    }

    let mut tiers = [0; 4];
    for shard in phased.shards() {
        if let Some(stats) = shard.ladder().map(DegradationLadder::stats) {
            tiers[0] += stats.normal;
            tiers[1] += stats.shrink_kn;
            tiers[2] += stats.baseline;
            tiers[3] += stats.shed;
        }
    }
    tiers
}

/// The shard a query routes to (the router is pure in the seed).
fn shard_of(setup: Setup, query: &Query) -> usize {
    ShardRouter::new(setup.shards, setup.seed).shard_of_query(query.id)
}

fn setup(
    mode: u8,
    shards: usize,
    seed: u64,
    plan_cache: usize,
    ladder: bool,
    ring: usize,
) -> Setup {
    Setup {
        shards,
        seed,
        plan_cache,
        ladder,
        adaptive: mode == 1,
        replicate: matches!(mode, 2 | 4 | 6).then_some(1 + seed % 2),
        threaded: (mode == 3 || mode == 4).then_some(ring),
        baseline: (mode >= 5).then(|| {
            [
                AllocationPolicyKind::Capacity,
                AllocationPolicyKind::Economic,
                AllocationPolicyKind::Random,
            ][(seed % 3) as usize]
        }),
    }
}

fn query_specs() -> impl Strategy<Value = Vec<Vec<Spec>>> {
    let spec = (
        (0u8..4, 1u8..16, proptest::bool::ANY, 1usize..4),
        (0u64..3, 0u8..8),
    );
    proptest::collection::vec(proptest::collection::vec(spec, 6..40), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grouped_batches_decide_like_per_query_submits(
        // 0 plain, 1 adaptive kn, 2 replicated, 3 threaded, 4 threaded and
        // replicated, 5 a baseline picked by the seed, 6 that baseline
        // replicated.
        mode in 0u8..7,
        shards in 1usize..4,
        seed in 0u64..1_000,
        plan_cache in 1usize..3,
        ladder in proptest::bool::ANY,
        ring in 1usize..6,
        specs in query_specs(),
    ) {
        check(setup(mode, shards, seed, plan_cache, ladder, ring), &specs);
    }
}

/// A burst long enough to take an armed ladder through all four tiers and
/// a calm that brings it back, on both fronts: the property above holds
/// where every tier's select and score phases meet in one group.
#[test]
fn every_ladder_tier_meets_in_the_phased_groups() {
    let burst: Vec<Spec> = (0..48u8)
        .map(|i| {
            (
                (i % 3, 1 + i % 15, i % 2 == 0, 1 + usize::from(i % 3)),
                (u64::from(i), 1),
            )
        })
        .chain((0..12u8).map(|i| {
            (
                (i % 3, 3, true, 2),
                (u64::from(i), if i == 0 { 3 } else { 1 }),
            )
        }))
        .collect();
    let specs = vec![burst.clone(), burst];
    for mode in [0, 2, 3, 4] {
        let tiers = check(setup(mode, 1, 7, 1, true, 4), &specs);
        assert!(
            tiers.iter().all(|&count| count > 0),
            "mode {mode}: {tiers:?}"
        );
    }
}
