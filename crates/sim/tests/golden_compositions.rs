//! Golden gates for compositions of mechanisms (seed 42): what no single
//! mechanism's test covers, declared on one [`ServiceRun`] each.
//!
//! * **A crash during a shed storm after a resize**: a 100× arrival step
//!   through laddered, replicated shards; the service grows from 2 to 3
//!   shards before the step and loses shard 0's primary while it is
//!   shedding. The outcome stream must not care about the crash, nor about
//!   the driver (inline or shard threads), nor about the producer's chunking.
//! * **A churn storm behind a standby that never checkpoints**: eight
//!   registry mutations before every batch, no automatic checkpoint — so a
//!   promotion replays the whole log — and both primaries killed in the
//!   last quarter, against the uninterrupted run.
//!
//! Each composition's digest is pinned, so a refactor that moves the shared
//! trajectory trips the gate even while the variants still agree.

use sbqa_core::intention::{ConsumerProfile, ProviderProfile};
use sbqa_core::{DegradationConfig, SystemConfig};
use sbqa_sim::{
    generate_query_stream, outcome_digest, run, shed_digest, timed_outcome_digest, ConsumerSpec,
    HashWorld, LoadStep, ProviderSpec, RunEvent, ServiceRun, ServiceRunReport, Timeline,
    WorkloadModel,
};
use sbqa_types::{Capability, CapabilitySet, ConsumerId, ProviderId, Query};

/// Pinned outcomes of the shed-storm composition. On intended drift, re-run
/// with `--nocapture` and copy the printed replacements.
const STORM_DIGEST: u64 = 0x0aba_fe9a_f26c_8488;
const STORM_SHED_DIGEST: u64 = 0x82a1_747b_e7cf_f5dd;
const STORM_SHED: u64 = 1_657;

/// Pinned outcome digest of the churn composition.
const CHURN_DIGEST: u64 = 0x9672_aa74_de20_4547;

fn consumers() -> Vec<ConsumerSpec> {
    (0..4u64)
        .map(|c| {
            ConsumerSpec::new(
                ConsumerId::new(c),
                Capability::new((c % 3) as u8),
                2.0,
                1.0,
                1,
                ConsumerProfile::default(),
            )
        })
        .collect()
}

fn providers() -> Vec<ProviderSpec> {
    (0..36u64)
        .map(|p| {
            ProviderSpec::new(
                ProviderId::new(1_000 + p),
                CapabilitySet::from_capabilities([
                    Capability::new((p % 3) as u8),
                    Capability::new(((p + 1) % 3) as u8),
                ]),
                1.0 + (p % 2) as f64,
                ProviderProfile::default(),
            )
        })
        .collect()
}

fn drive(config: &ServiceRun, churn: usize, stream: &[Query]) -> ServiceRunReport {
    let mut world = HashWorld::new(config.seed, churn);
    run(config, &providers(), &consumers(), stream, &mut world).unwrap()
}

#[test]
fn a_crash_while_shedding_after_a_resize_changes_nothing() {
    // Both chunkings cut a batch at every multiple of 64 × 17, which is
    // where the events are scheduled: they fire at the same stream position
    // however the producer chunks.
    const QUARTER: usize = 64 * 17;
    let stream = generate_query_stream(
        &consumers(),
        &WorkloadModel::default(),
        4 * QUARTER,
        42,
        Some(LoadStep {
            at_fraction: 0.5,
            rate_multiplier: 100.0,
        }),
    );
    let resize = Timeline::new().at(stream[QUARTER].issued_at, RunEvent::Resize { shards: 3 });
    let crash = resize
        .clone()
        .at(stream[3 * QUARTER].issued_at, RunEvent::Crash { shard: 0 });
    let storm = |timeline: &Timeline, threaded, batch| {
        let config = ServiceRun {
            shards: 2,
            batch,
            threaded,
            ladder: Some(DegradationConfig {
                capacity: 64,
                drain_rate: 40.0,
            }),
            // Co-prime with both chunkings' batch counts at the crash, so
            // every variant's promotion has logged queries to replay.
            replicate: Some(5),
            timeline: timeline.clone(),
            ..ServiceRun::new(SystemConfig::default().with_knbest(10, 3), 42)
        };
        drive(&config, 0, &stream)
    };

    let calm = storm(&resize, None, 64);
    assert_eq!(calm.events_fired, 1);
    assert_eq!(calm.report.shards.len(), 3, "the resize took");
    let digest = outcome_digest(&calm.report.outcomes);
    let shed = shed_digest(&calm.report.outcomes);

    // On drift, these are the replacement values for the STORM constants.
    println!(
        "storm digest {digest:#018x} shed_digest {shed:#018x} shed {}",
        calm.report.shed()
    );

    for batch in [64, 17] {
        for threaded in [None, Some(64)] {
            let stormy = storm(&crash, threaded, batch);
            let variant = format!("chunk {batch}, threaded {threaded:?}");
            assert_eq!(stormy.events_fired, 2, "{variant}");
            let replay = &stormy.promotions[0].replay;
            assert!(
                replay.queries_mediated > 0 && replay.queries_shed > 0,
                "{variant}: the crash hit a shedding shard: {replay:?}"
            );
            assert_eq!(stormy.report.outcomes, calm.report.outcomes, "{variant}");
            assert_eq!(
                stormy.report.degradation_stats(),
                calm.report.degradation_stats(),
                "{variant}"
            );
        }
    }

    let stats = calm.report.degradation_stats().expect("ladders armed");
    assert!(
        stats.degraded() && stats.shed > 0,
        "tier counters: {stats:?}"
    );
    assert_eq!(digest, STORM_DIGEST, "outcome digest drifted");
    assert_eq!(shed, STORM_SHED_DIGEST, "shed-set digest drifted");
    assert_eq!(calm.report.shed(), STORM_SHED, "shed count drifted");
}

#[test]
fn a_churn_storm_behind_an_uncheckpointed_standby_survives_both_crashes() {
    let stream = generate_query_stream(&consumers(), &WorkloadModel::default(), 1_200, 42, None);
    let churned = |timeline: Timeline, threaded| {
        let config = ServiceRun {
            shards: 2,
            batch: 32,
            threaded,
            replicate: Some(0),
            timeline,
            ..ServiceRun::new(SystemConfig::default().with_knbest(10, 3), 42)
        };
        drive(&config, 8, &stream)
    };

    let calm = churned(Timeline::new(), None);
    let digest = timed_outcome_digest(&calm.report.outcomes);

    // On drift, this is the replacement value for CHURN_DIGEST.
    println!("churn digest {digest:#018x}");

    let plan = Timeline::new()
        .at(stream[900].issued_at, RunEvent::Crash { shard: 1 })
        .at(stream[1_050].issued_at, RunEvent::Crash { shard: 0 });
    // The threaded run quiesces at every boundary: the churn is a world step.
    for threaded in [None, Some(64)] {
        let stormy = churned(plan.clone(), threaded);
        assert_eq!(stormy.events_fired, 2, "threaded {threaded:?}");
        assert_eq!(
            stormy.report.outcomes, calm.report.outcomes,
            "threaded {threaded:?}"
        );
        // Never checkpointed past each standby's bootstrap: a promotion
        // replays everything its shard mediated before the crash.
        let stats = stormy.report.replication_stats().unwrap();
        assert_eq!((stats.checkpoints, stats.promotions), (2, 2));
        for promotion in &stormy.promotions {
            let mediated_before = calm
                .report
                .outcomes
                .iter()
                .take_while(|o| o.issued_at < stream[900].issued_at)
                .filter(|o| o.shard == promotion.shard)
                .count();
            let replayed = promotion.replay.queries_mediated + promotion.replay.queries_starved;
            assert!(
                replayed >= mediated_before,
                "shard {} replayed {replayed} of at least {mediated_before}",
                promotion.shard
            );
        }
    }

    assert_eq!(digest, CHURN_DIGEST, "outcome digest drifted");
}
