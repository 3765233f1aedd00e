//! Golden adaptive-`kn` trajectory gate (seed 13).
//!
//! Drives one stepped stream (×5 halfway) through two adaptive shards inside
//! the load-feedback world — backlog mirrored into provider load, harsh
//! dissatisfaction departures — and pins what the static-vs-adaptive
//! comparison reads off it: the tallies, the departures, both satisfaction
//! means to the bit, the final width and a fold of every controller
//! adjustment. The constants were recorded from the dedicated adaptive loop
//! this driver replaced, so a refactor that reorders the feedback steps, the
//! oracle's hash or the controller's cadence trips this gate.

use sbqa_core::intention::{ConsumerProfile, ProviderProfile};
use sbqa_core::{KnControllerConfig, SystemConfig};
use sbqa_sim::{
    generate_query_stream, run, AdaptiveOracle, ConsumerSpec, DeparturePolicy, LoadFeedback,
    LoadStep, ProviderSpec, ServiceRun, WorkloadModel,
};
use sbqa_types::{Capability, CapabilitySet, ConsumerId, ProviderId};

/// Pinned outcomes of the seed-13 run. On intended drift, re-run with
/// `--nocapture` and copy the printed replacements.
const GOLDEN_MEDIATED: usize = 1_960;
const GOLDEN_STARVED: usize = 40;
const GOLDEN_DEPARTED: usize = 16;
const GOLDEN_MEAN_BITS: u64 = 0x3fe5_a4f2_94d8_efaf;
const GOLDEN_POST_STEP_BITS: u64 = 0x3fe3_e3f6_cb49_b5df;
const GOLDEN_FINAL_KN: f64 = 2.0;
const GOLDEN_TRAIL_DIGEST: u64 = 0xd5fe_46c2_e0f4_391f;
const GOLDEN_ADJUSTMENTS: usize = 8;

const STREAM_LEN: usize = 2_000;

fn consumers() -> Vec<ConsumerSpec> {
    (0..4u64)
        .map(|c| {
            ConsumerSpec::new(
                ConsumerId::new(c),
                Capability::new((c % 2) as u8),
                4.0,
                0.5,
                1,
                ConsumerProfile::default(),
            )
        })
        .collect()
}

fn providers() -> Vec<ProviderSpec> {
    (0..24u64)
        .map(|p| {
            ProviderSpec::new(
                ProviderId::new(1_000 + p),
                CapabilitySet::singleton(Capability::new((p % 2) as u8)),
                1.0,
                ProviderProfile::default(),
            )
        })
        .collect()
}

#[test]
fn adaptive_run_seed13_matches_the_pinned_trajectory() {
    let consumers = consumers();
    let providers = providers();
    let step = LoadStep {
        at_fraction: 0.5,
        rate_multiplier: 5.0,
    };
    let stream = generate_query_stream(
        &consumers,
        &WorkloadModel::default(),
        STREAM_LEN,
        13,
        Some(step),
    );
    let config = ServiceRun {
        shards: 2,
        adaptive_kn: Some(KnControllerConfig {
            initial_kn: 4,
            min_kn: 2,
            max_kn: 10,
            ..KnControllerConfig::default()
        }),
        ..ServiceRun::new(SystemConfig::default().with_knbest(12, 4), 13)
    };
    let mut world = LoadFeedback::new(AdaptiveOracle::new(13, 0.4, 3.0, &providers).unwrap());
    world.departure = DeparturePolicy::Autonomous {
        consumer_threshold: 0.0,
        provider_threshold: 0.55,
        min_interactions: 20,
    };
    world.step_at = Some(stream[STREAM_LEN / 2].issued_at);

    let report = run(&config, &providers, &consumers, &stream, &mut world)
        .unwrap()
        .report;

    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut adjustments = 0;
    for adjustment in report.shards.iter().flat_map(|shard| &shard.kn_trail) {
        adjustments += 1;
        for word in [
            adjustment.round,
            u64::from(adjustment.class),
            adjustment.kn as u64,
            adjustment.gap_ewma.to_bits(),
        ] {
            for byte in word.to_le_bytes() {
                digest ^= u64::from(byte);
                digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    // On drift, these are the replacement values for the GOLDEN constants.
    println!(
        "mediated {} starved {} departed {} mean {:#018x} post-step {:#018x} final kn {:?} \
         trail digest {digest:#018x} adjustments {adjustments}",
        report.total.mediated,
        report.total.starved,
        world.departed(),
        world.mean_query_satisfaction().to_bits(),
        world.post_step_satisfaction().to_bits(),
        world.final_mean_kn(),
    );

    assert_eq!(report.total.mediated, GOLDEN_MEDIATED, "mediated drifted");
    assert_eq!(report.total.starved, GOLDEN_STARVED, "starved drifted");
    assert_eq!(world.departed(), GOLDEN_DEPARTED, "departures drifted");
    assert_eq!(
        world.mean_query_satisfaction().to_bits(),
        GOLDEN_MEAN_BITS,
        "whole-run satisfaction drifted"
    );
    assert_eq!(
        world.post_step_satisfaction().to_bits(),
        GOLDEN_POST_STEP_BITS,
        "post-step satisfaction drifted"
    );
    assert_eq!(world.final_mean_kn(), Some(GOLDEN_FINAL_KN));
    assert_eq!(adjustments, GOLDEN_ADJUSTMENTS, "controller trail drifted");
    assert_eq!(digest, GOLDEN_TRAIL_DIGEST, "controller trail drifted");
}
