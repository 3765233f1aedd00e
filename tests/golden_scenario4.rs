//! Golden-output regression test for `scenario 4 --quick --seed 42`.
//!
//! Scenario 4 is the paper's autonomous comparison (SbQA vs Capacity vs
//! Economic): providers below satisfaction 0.35 and consumers below 0.5
//! leave. It is the closed loop's departure path end to end, so this gate
//! pins it bit for bit: per technique, who stayed, how many queries
//! completed, starved or were left in flight, both final mean satisfactions
//! to the bit, and an FNV-1a fold of every point of every time series. A
//! change to when or how a participant leaves, or to what a snapshot reads
//! after it left, trips it.

use sbqa::boinc::{Scenario, ScenarioId};
use sbqa::sim::SimulationReport;

/// One technique's outcome: (providers kept, consumers kept, completed,
/// starved, unfinished, final consumer satisfaction bits, final provider
/// satisfaction bits, series digest).
type Row = (usize, usize, u64, u64, u64, u64, u64, u64);

/// Expected outcomes per technique label.
const GOLDEN: &[(&str, Row)] = &[
    (
        "SbQA",
        (
            31,
            3,
            2423,
            0,
            24,
            0x3fe9_e7f0_9583_5e33,
            0x3fe8_ea7a_b492_4420,
            0x4228_68ac_9897_ca03,
        ),
    ),
    (
        "Capacity",
        (
            28,
            3,
            2427,
            0,
            20,
            0x3fe7_3c4c_677d_c9f9,
            0x3fe7_0d60_8657_0b7e,
            0xa3c0_9ce9_ba0a_2a8d,
        ),
    ),
    (
        "Economic",
        (
            13,
            3,
            2428,
            0,
            19,
            0x3feb_0732_1aba_1005,
            0x3fe9_701f_8a76_69e6,
            0x8ecc_58d4_385e_578f,
        ),
    ),
];

fn quick_seeded_scenario4() -> Scenario {
    // Mirrors `scenario 4 --quick --seed 42` (the harness derives the
    // population seed as seed + 1).
    let mut scenario = Scenario::quick(ScenarioId::S4);
    scenario.sim = scenario.sim.clone().with_seed(42);
    scenario.population = scenario.population.clone().with_seed(43);
    scenario
}

/// FNV-1a over every series point's time and value bits, series by series.
fn series_digest(report: &SimulationReport) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for series in &report.series {
        for point in series.points() {
            fold(point.at.seconds().to_bits());
            fold(point.value.to_bits());
        }
        fold(u64::MAX);
    }
    hash
}

fn observed(report: &SimulationReport) -> Row {
    (
        report.participants.final_providers,
        report.participants.final_consumers,
        report.response.completed(),
        report.response.starved(),
        report.response.unfinished(),
        report.final_consumer_satisfaction().to_bits(),
        report.final_provider_satisfaction().to_bits(),
        series_digest(report),
    )
}

#[test]
fn scenario4_quick_seed42_matches_golden_outputs() {
    let outcome = quick_seeded_scenario4().run().unwrap();
    // On drift, this dump is the replacement for the GOLDEN table.
    for result in &outcome.results {
        let (providers, consumers, completed, starved, unfinished, c_bits, p_bits, digest) =
            observed(&result.report);
        println!(
            "(\"{}\", ({providers}, {consumers}, {completed}, {starved}, {unfinished}, \
             {c_bits:#018x}, {p_bits:#018x}, {digest:#018x})),",
            result.label
        );
    }
    assert_eq!(outcome.results.len(), GOLDEN.len());
    for (result, (label, row)) in outcome.results.iter().zip(GOLDEN) {
        assert_eq!(result.label, *label);
        assert_eq!(observed(&result.report), *row, "{label} drifted");
    }
}
