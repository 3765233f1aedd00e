//! The degradation ladder's hysteresis, end to end through the public API:
//! a tier is entered at its threshold and left only once the modeled depth
//! falls a full hysteresis band below it.

use sbqa::core::{Admission, DegradationConfig, DegradationLadder, DegradationTier};
use sbqa::types::VirtualTime;

/// Binary-exact thresholds over a 64-query bucket draining 1 query per
/// virtual second: ShrinkKn enters at depth 16, Baseline at 32, Shed at 48,
/// and each hysteresis band is 4 queries deep.
fn exact_ladder() -> DegradationLadder {
    DegradationLadder::new(DegradationConfig {
        capacity: 64,
        drain_rate: 1.0,
        shrink_threshold: 0.25,
        baseline_threshold: 0.5,
        shed_threshold: 0.75,
        hysteresis: 0.0625,
    })
    .unwrap()
}

#[test]
fn a_depth_inside_the_hysteresis_band_keeps_the_tier() {
    use DegradationTier::{Baseline, Normal, Shed, ShrinkKn};
    // (simultaneous arrivals, the tier they reach, then an arrival that
    // finds the depth two below that tier's entry — inside its band — and
    // one that finds it five below, under the band).
    let cases = [
        // Depth 20; then 14 (band 12..16), then 15 − 4 = 11.
        (20, ShrinkKn, 6.0, Admission::Admit(ShrinkKn), 10.0, Normal),
        // Depth 34; then 30 (band 28..32), then 31 − 4 = 27.
        (34, Baseline, 4.0, Admission::Admit(Baseline), 8.0, ShrinkKn),
        // Depth 48, as sheds do not deepen the bucket; then 46 (band
        // 44..48), shed, then 46 − 3 = 43.
        (60, Shed, 2.0, Admission::Shed, 5.0, Baseline),
    ];
    for (arrivals, entered, in_band, kept, below, relaxed) in cases {
        let mut ladder = exact_ladder();
        for _ in 0..arrivals {
            ladder.observe_arrival(VirtualTime::ZERO);
        }
        assert_eq!(ladder.tier(), entered);
        assert_eq!(
            ladder.observe_arrival(VirtualTime::new(in_band)),
            kept,
            "{entered:?} inside its band"
        );
        assert_eq!(
            ladder.observe_arrival(VirtualTime::new(below)),
            Admission::Admit(relaxed),
            "{entered:?} under its band"
        );
    }
}
