//! The degradation ladder's hysteresis, end to end through the public API:
//! a tier is entered at its threshold and left only once the modeled depth
//! falls a full hysteresis band below it.

use sbqa::core::{Admission, DegradationConfig, DegradationLadder, DegradationTier};
use sbqa::types::VirtualTime;

/// A 100-query bucket draining 1 query per virtual second, so the ladder's
/// fixed thresholds land on whole depths: ShrinkKn enters at 25, Baseline
/// at 85, Shed at 90, and each hysteresis band is 5 queries deep.
fn exact_ladder() -> DegradationLadder {
    DegradationLadder::new(DegradationConfig {
        capacity: 100,
        drain_rate: 1.0,
    })
    .unwrap()
}

#[test]
fn a_depth_inside_the_hysteresis_band_keeps_the_tier() {
    use DegradationTier::{Baseline, Normal, Shed, ShrinkKn};
    // (simultaneous arrivals, the tier they reach, then an arrival that
    // finds the depth inside that tier's band and one that finds it under
    // the band).
    let cases = [
        // Depth 30; then 22 (band 20..25), then 23 − 4 = 19.
        (30, ShrinkKn, 8.0, Admission::Admit(ShrinkKn), 12.0, Normal),
        // Depth 87; then 83 (band 80..85), then 84 − 5 = 79.
        (87, Baseline, 4.0, Admission::Admit(Baseline), 9.0, ShrinkKn),
        // Depth 90, as sheds do not deepen the bucket; then 88 (band
        // 85..90), shed, then 88 − 4 = 84.
        (100, Shed, 2.0, Admission::Shed, 6.0, Baseline),
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
