//! Golden failover byte-identity gate (seed 42).
//!
//! Drives the same deterministic stream — with mid-run registry churn —
//! through a replicated two-shard service twice: once uninterrupted, once
//! with both shards' primaries killed at a scheduled virtual time and their
//! standbys promoted. The merged `(VirtualTime, QueryId)`-ordered outcome
//! streams must be **byte-identical**, and their shared digest is pinned so
//! a refactor that changes either run's allocation trajectory (RNG
//! consumption, replay ordering, churn derivation) trips this gate even if
//! the two runs still agree with each other.

use sbqa_core::intention::{ConsumerProfile, ProviderProfile};
use sbqa_core::SystemConfig;
use sbqa_sim::{
    generate_query_stream, run, timed_outcome_digest, ConsumerSpec, HashWorld, ProviderSpec,
    RunEvent, ServiceRun, ServiceRunReport, Timeline, WorkloadModel,
};
use sbqa_types::{Capability, CapabilitySet, ConsumerId, ProviderId, VirtualTime};

/// Pinned outcomes of the seed-42 run: (mediated, starved, outcome digest,
/// crash virtual time of the plan).
const GOLDEN_MEDIATED: usize = 400;
const GOLDEN_STARVED: usize = 0;
const GOLDEN_DIGEST: u64 = 0x1177_9275_a73a_1c4c;

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

fn replicated(timeline: Timeline, stream: &[sbqa_types::Query]) -> ServiceRunReport {
    let config = ServiceRun {
        shards: 2,
        batch: 32,
        replicate: Some(4),
        timeline,
        ..ServiceRun::new(SystemConfig::default().with_knbest(10, 3), 42)
    };
    let mut world = HashWorld::new(42, 5);
    run(&config, &providers(), &consumers(), stream, &mut world).unwrap()
}

#[test]
fn failover_run_seed42_is_byte_identical_and_pinned() {
    let stream = generate_query_stream(&consumers(), &WorkloadModel::default(), 400, 42, None);

    let calm = replicated(Timeline::new(), &stream);
    let crash_time = stream[stream.len() / 2].issued_at;
    let plan = Timeline::new()
        .at(crash_time, RunEvent::Crash { shard: 0 })
        .at(crash_time, RunEvent::Crash { shard: 1 });
    let stormy = replicated(plan, &stream);
    let digest = |run: &ServiceRunReport| timed_outcome_digest(&run.report.outcomes);

    // On drift, these are the replacement values for the GOLDEN constants.
    println!(
        "mediated {} starved {} digest {:#018x} crash at {}",
        calm.report.total.mediated,
        calm.report.total.starved,
        digest(&calm),
        crash_time.seconds(),
    );

    // The headline property: a run that loses both primaries mid-stream is
    // byte-identical to one that never crashed.
    assert_eq!(stormy.events_fired, 2);
    assert_eq!(calm.report.outcomes, stormy.report.outcomes);
    assert_eq!(digest(&calm), digest(&stormy));

    // The pinned trajectory: both runs must also match history.
    let total = calm.report.total;
    assert_eq!(total.mediated, GOLDEN_MEDIATED, "mediated count drifted");
    assert_eq!(total.starved, GOLDEN_STARVED, "starved count drifted");
    assert_eq!(
        digest(&calm),
        GOLDEN_DIGEST,
        "outcome stream digest drifted"
    );

    // Promotion really happened and really replayed work.
    let stats = stormy.report.replication_stats().unwrap();
    assert_eq!(stats.promotions, 2);
    let replayed: usize = stormy
        .promotions
        .iter()
        .map(|p| p.replay.queries_mediated + p.replay.queries_starved)
        .sum();
    assert!(replayed > 0, "promotion replayed no logged queries");
}

#[test]
fn failover_run_seed42_is_reproducible() {
    let stream = generate_query_stream(&consumers(), &WorkloadModel::default(), 400, 42, None);
    let plan = Timeline::new().at(VirtualTime::new(10.0), RunEvent::Crash { shard: 1 });
    let a = replicated(plan.clone(), &stream);
    let b = replicated(plan, &stream);
    assert_eq!(a.report.outcomes, b.report.outcomes);
    assert_eq!(a.events_fired, b.events_fired);
    assert_eq!(
        timed_outcome_digest(&a.report.outcomes),
        timed_outcome_digest(&b.report.outcomes)
    );
}
