//! Golden overload byte-identity gate (seed 42).
//!
//! Drives a deterministic stream with a sustained **100× arrival step**
//! through the bounded-ring service with the degradation ladder armed, and
//! pins the outcome-stream digest *and* the shed-set digest: the overload
//! sacrifice — which queries ride which tier, which are shed — must be
//! byte-identical across runs and across producer chunk sizes, and must
//! match history. A refactor that changes tier thresholds, leak
//! arithmetic, drain order or the chunk normalization trips this gate.

use sbqa_core::intention::{ConsumerProfile, ProviderProfile};
use sbqa_core::{DegradationConfig, SystemConfig};
use sbqa_service::ServiceReport;
use sbqa_sim::{
    generate_query_stream, outcome_digest, run, shed_digest, ConsumerSpec, HashWorld, LoadStep,
    ProviderSpec, ServiceRun, WorkloadModel,
};
use sbqa_types::{Capability, CapabilitySet, ConsumerId, ProviderId};

/// Pinned outcomes of the seed-42 run under a 100× step. On intended
/// drift, re-run with `--nocapture` and copy the printed replacements.
const GOLDEN_DIGEST: u64 = 0x1037_6273_5af7_af43;
const GOLDEN_SHED_DIGEST: u64 = 0x1ec9_7e47_472a_9b76;
const GOLDEN_SHED: u64 = 1_218;

const STREAM_LEN: usize = 2_000;

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

const STEP: LoadStep = LoadStep {
    at_fraction: 0.25,
    rate_multiplier: 100.0,
};

fn overloaded(batch: usize, stream: &[sbqa_types::Query]) -> ServiceReport {
    let config = ServiceRun {
        shards: 2,
        batch,
        threaded: Some(256),
        // The base arrival rate of the 4 consumers is ~8/s; the ladder's
        // drain model sits comfortably above it, so the pre-step stream
        // rides Normal. The 100× step (→ ~800/s) buries the model and
        // must climb every tier.
        ladder: Some(DegradationConfig {
            capacity: 64,
            drain_rate: 40.0,
        }),
        ..ServiceRun::new(SystemConfig::default().with_knbest(10, 3), 42)
    };
    let mut world = HashWorld::new(42, 0);
    run(&config, &providers(), &consumers(), stream, &mut world)
        .unwrap()
        .report
}

#[test]
fn overload_run_seed42_is_byte_identical_and_pinned() {
    let stream = generate_query_stream(
        &consumers(),
        &WorkloadModel::default(),
        STREAM_LEN,
        42,
        Some(STEP),
    );

    let golden = overloaded(64, &stream);
    let digest = outcome_digest(&golden.outcomes);
    let shed = shed_digest(&golden.outcomes);

    // On drift, these are the replacement values for the GOLDEN constants.
    println!(
        "digest {digest:#018x} shed_digest {shed:#018x} shed {}",
        golden.shed()
    );

    // All three degraded tiers (and Normal) are exercised and counted.
    let stats = golden.degradation_stats().expect("ladder armed");
    assert!(stats.normal > 0, "tier counters: {stats:?}");
    assert!(stats.shrink_kn > 0, "tier counters: {stats:?}");
    assert!(stats.baseline > 0, "tier counters: {stats:?}");
    assert!(stats.shed > 0, "tier counters: {stats:?}");
    // Conservation over the whole stream.
    assert_eq!(stats.observed() as usize, STREAM_LEN);
    assert_eq!(golden.outcomes.len(), STREAM_LEN);
    assert_eq!(
        stats.admitted() as usize,
        golden.total.submitted(),
        "admitted = mediated + starved"
    );

    // Byte-identical across runs.
    let again = overloaded(64, &stream);
    assert_eq!(digest, outcome_digest(&again.outcomes));
    assert_eq!(shed, shed_digest(&again.outcomes));

    // Byte-identical across producer chunk sizes.
    for batch in [16usize, 999] {
        let rechunked = overloaded(batch, &stream);
        assert_eq!(
            digest,
            outcome_digest(&rechunked.outcomes),
            "chunk size {batch} changed the outcome stream"
        );
        assert_eq!(
            shed,
            shed_digest(&rechunked.outcomes),
            "chunk size {batch} changed the shed set"
        );
    }

    // The pinned trajectory: the run must also match history.
    assert_eq!(digest, GOLDEN_DIGEST, "outcome digest drifted");
    assert_eq!(shed, GOLDEN_SHED_DIGEST, "shed-set digest drifted");
    assert_eq!(golden.shed(), GOLDEN_SHED, "shed count drifted");
}
