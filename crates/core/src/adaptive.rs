//! Adaptive `kn`: self-tuning the KnBest exploration width from the
//! observed satisfaction gap.
//!
//! The paper's Scenario 6 shows that `kn` adapts SbQA to the application: a
//! small `kn` behaves like load balancing (KnBest's utilization filter
//! decides), a large `kn` gives the intention-based SQLB scoring more
//! freedom (better-matched allocations, but more consulted-and-rejected
//! providers). The paper sweeps `kn` statically; the headline claim —
//! *self-adaptation* — wants the mediator to move `kn` at runtime from what
//! it observes.
//!
//! [`KnController`] closes that loop. The mediator asks it for every
//! query's width and applies that width to the technique's kn-of-k filter.
//! Per **capability class** it keeps a sliding [`GapWindow`] of
//! per-mediation [`GapSample`]s (the issuing consumer's satisfaction with
//! the allocation vs the mean satisfaction of the consulted providers, read
//! off each finished decision, so sampling reads no registry) and an
//! **EWMA** of the windowed gap. At every batch boundary the mediator
//! calls [`KnController::adapt`]; classes whose EWMA leaves the hysteresis
//! band `target_gap ± deadband` get their `kn` stepped down (gap above the
//! band: providers are falling behind — shrink exploration, reject fewer,
//! let the utilization filter spread load) or up (gap below the band: there
//! is headroom — widen exploration so scoring can chase better-matched
//! providers), clamped to `[min_kn, max_kn]`.
//!
//! ## Determinism
//!
//! The controller is a pure function of the observed sample stream: no
//! clocks, no randomness, no dependence on hash iteration order (classes are
//! stored densely and visited in index order). Re-sizing `kn` does **not**
//! change the RNG consumption of the KnBest draw (the draw always performs
//! `k` swaps; `kn` only truncates the survivors), so enabling adaptation
//! alters *decisions*, never the RNG stream alignment — and with the
//! controller disabled (the default) the mediator is byte-identical to a
//! controller-free build, which keeps every golden seed stable.
//!
//! ## End-to-end example
//!
//! A mediator whose providers keep performing queries they hate: their
//! satisfaction collapses, the gap EWMA rises above the band, and the
//! controller pulls `kn` down from its initial width towards `min_kn`.
//!
//! ```
//! use sbqa_core::{KnControllerConfig, Mediator, StaticIntentions};
//! use sbqa_types::{
//!     Capability, CapabilitySet, ConsumerId, Intention, ProviderId, Query, QueryId, SystemConfig,
//! };
//!
//! // Build a registry of six capability-0 providers behind an SbQA mediator.
//! let config = SystemConfig::default().with_knbest(6, 4);
//! let mut mediator = Mediator::sbqa(config, 42).unwrap();
//! for p in 0..6u64 {
//!     mediator.register_provider(
//!         ProviderId::new(p),
//!         CapabilitySet::singleton(Capability::new(0)),
//!         1.0,
//!     );
//! }
//! mediator.register_consumer(ConsumerId::new(1));
//!
//! // Enable adaptation: start at kn = 4, allow [2, 6], react quickly.
//! mediator.enable_adaptive_kn(KnControllerConfig {
//!     initial_kn: 4,
//!     min_kn: 2,
//!     max_kn: 6,
//!     alpha: 0.5,
//!     ..KnControllerConfig::default()
//! })
//! .unwrap();
//!
//! // The consumer loves every allocation (+0.8) while providers hate the
//! // work (-0.8): provider satisfaction collapses, the gap EWMA rises.
//! let oracle = StaticIntentions::new()
//!     .with_defaults(Intention::new(0.8), Intention::new(-0.8));
//! let batch: Vec<Query> = (0..16u64)
//!     .map(|q| Query::builder(QueryId::new(q), ConsumerId::new(1), Capability::new(0)).build())
//!     .collect();
//! for _ in 0..8 {
//!     mediator.submit_batch(&batch, &oracle, |_, _, _| {});
//! }
//!
//! // The controller reacted: kn moved down from 4 to the configured floor.
//! let controller = mediator.adaptive_kn().unwrap();
//! assert_eq!(controller.current_kn(0), Some(2));
//! assert!(!controller.trail().is_empty(), "adjustments were recorded");
//! ```

use sbqa_satisfaction::{GapSample, GapWindow};
use sbqa_types::{Query, SbqaError, SbqaResult, MAX_CAPABILITY_CLASSES};

use crate::allocator::AllocationDecision;

/// The class bucket used for queries that mention no capability class at all
/// (an `All{}` wildcard requirement).
const WILDCARD_CLASS: u8 = MAX_CAPABILITY_CLASSES;

/// Upper bound on the retained [`KnController::trail`]: when reached, the
/// oldest half is discarded. Generous for experiment runs (the full
/// `scenario_adaptive` preset records well under a hundred adjustments)
/// while keeping a permanently-oscillating long-lived service at a few
/// hundred KiB of trajectory, not an unbounded leak.
const TRAIL_CAPACITY: usize = 8_192;

/// Knobs of the adaptive-`kn` controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnControllerConfig {
    /// Exploration width every class starts from.
    pub initial_kn: usize,
    /// Lower clamp of the adapted width (≥ 1).
    pub min_kn: usize,
    /// Upper clamp of the adapted width. The effective width is additionally
    /// capped by the KnBest draw's `k` at apply time.
    pub max_kn: usize,
    /// EWMA smoothing factor in `(0, 1]`: the weight of the newest windowed
    /// gap mean. `1` disables smoothing.
    pub alpha: f64,
    /// The gap the controller steers towards. The gap is signed
    /// (`consumer − provider`), and in proposal-based satisfaction models a
    /// healthy steady state sits slightly above zero.
    pub target_gap: f64,
    /// Half-width of the hysteresis band around [`target_gap`]: the EWMA
    /// must leave `target_gap ± deadband` before `kn` moves, preventing
    /// oscillation on noise.
    ///
    /// [`target_gap`]: KnControllerConfig::target_gap
    pub deadband: f64,
    /// How many steps `kn` moves per adaptation round (≥ 1).
    pub step: usize,
    /// Capacity of the per-class sliding sample window.
    pub window: usize,
}

impl Default for KnControllerConfig {
    fn default() -> Self {
        Self {
            initial_kn: 4,
            min_kn: 2,
            max_kn: 16,
            alpha: 0.3,
            target_gap: 0.15,
            deadband: 0.1,
            step: 1,
            window: 64,
        }
    }
}

impl KnControllerConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> SbqaResult<()> {
        if self.min_kn == 0 {
            return Err(SbqaError::invalid_config("adaptive kn: min_kn must be ≥ 1"));
        }
        if self.min_kn > self.max_kn {
            return Err(SbqaError::invalid_config(format!(
                "adaptive kn: min_kn ({}) cannot exceed max_kn ({})",
                self.min_kn, self.max_kn
            )));
        }
        if self.initial_kn < self.min_kn || self.initial_kn > self.max_kn {
            return Err(SbqaError::invalid_config(format!(
                "adaptive kn: initial_kn ({}) must lie in [{}, {}]",
                self.initial_kn, self.min_kn, self.max_kn
            )));
        }
        if !self.alpha.is_finite() || self.alpha <= 0.0 || self.alpha > 1.0 {
            return Err(SbqaError::invalid_config(format!(
                "adaptive kn: alpha must lie in (0, 1], got {}",
                self.alpha
            )));
        }
        if !self.target_gap.is_finite() || !self.deadband.is_finite() || self.deadband < 0.0 {
            return Err(SbqaError::invalid_config(
                "adaptive kn: target_gap must be finite and deadband finite and ≥ 0",
            ));
        }
        if self.step == 0 {
            return Err(SbqaError::invalid_config("adaptive kn: step must be ≥ 1"));
        }
        if self.window == 0 {
            return Err(SbqaError::invalid_config("adaptive kn: window must be ≥ 1"));
        }
        Ok(())
    }
}

/// The gap sample of one finished mediation, straight off its decision:
/// Definition 1 for the consumer (the selected proposals' unit consumer
/// intentions over `q.n`; missing results count 0) and the per-proposal
/// Definition 2 averaged over the consulted providers (the selected
/// proposals' unit provider intentions over the number of proposals; a
/// rejected proposal counts 0). `None` when nobody was consulted.
///
/// Unlike the registry's long-run values, this instantaneous signal cannot
/// be censored by dissatisfied participants departing, and it is sharply
/// `kn`-sensitive (every consulted-but-rejected provider contributes a
/// zero), which is what makes it a usable control input.
pub(crate) fn gap_sample(query: &Query, decision: &AllocationDecision) -> Option<GapSample> {
    if decision.proposals.is_empty() {
        return None;
    }
    let mut consumer_gain = 0.0;
    let mut provider_gain = 0.0;
    for proposal in decision.proposals.iter().filter(|p| p.selected) {
        consumer_gain += proposal.consumer_intention.to_unit().value();
        provider_gain += proposal.provider_intention.to_unit().value();
    }
    Some(GapSample::from_sums(
        consumer_gain,
        query.replication,
        provider_gain,
        decision.proposals.len(),
    ))
}

/// One recorded `kn` change — an entry of the controller's trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnAdjustment {
    /// Adaptation round (batch boundary) at which the change happened,
    /// counted from 1.
    pub round: u64,
    /// Capability class the change applies to (`MAX_CAPABILITY_CLASSES` for
    /// the class-less wildcard bucket).
    pub class: u8,
    /// The new exploration width.
    pub kn: usize,
    /// The gap EWMA that triggered the change.
    pub gap_ewma: f64,
}

/// Per-class controller state.
#[derive(Debug, Clone)]
struct ClassState {
    window: GapWindow,
    ewma: Option<f64>,
    kn: usize,
    /// Samples observed since the last adaptation round; classes with no
    /// fresh evidence do not adapt.
    fresh: usize,
}

impl ClassState {
    fn new(config: &KnControllerConfig) -> Self {
        Self {
            window: GapWindow::new(config.window),
            ewma: None,
            kn: config.initial_kn,
            fresh: 0,
        }
    }
}

/// Self-tuning exploration-width controller: one EWMA'd gap signal and one
/// `kn` per capability class.
///
/// See the [module documentation](self) for the control law and an
/// end-to-end example.
#[derive(Debug, Clone)]
pub struct KnController {
    config: KnControllerConfig,
    /// Dense per-class states, indexed by class (entry 64 is the wildcard
    /// bucket). Lazily populated on first contact, visited in index order —
    /// no hash-iteration nondeterminism.
    states: Vec<Option<ClassState>>,
    rounds: u64,
    trail: Vec<KnAdjustment>,
}

impl KnController {
    /// Creates a controller. Fails on an invalid configuration.
    pub fn new(config: KnControllerConfig) -> SbqaResult<Self> {
        config.validate()?;
        Ok(Self {
            config,
            states: vec![None; usize::from(MAX_CAPABILITY_CLASSES) + 1],
            rounds: 0,
            trail: Vec::new(),
        })
    }

    /// The configuration the controller runs with.
    #[must_use]
    pub fn config(&self) -> &KnControllerConfig {
        &self.config
    }

    /// Number of adaptation rounds performed so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The controller class of a query: the lowest capability class its
    /// requirement mentions, or [`WILDCARD_CLASS`] for class-less wildcard
    /// requirements. Multi-capability queries share the bucket of their
    /// lowest mentioned class.
    fn class_of(query: &Query) -> u8 {
        query
            .required
            .classes()
            .iter()
            .next()
            .map_or(WILDCARD_CLASS, sbqa_types::Capability::class)
    }

    /// The dense bucket a class maps to: out-of-range classes (there are
    /// only [`MAX_CAPABILITY_CLASSES`]) share the wildcard bucket, on reads
    /// and writes alike.
    fn bucket(class: u8) -> usize {
        usize::from(class).min(usize::from(WILDCARD_CLASS))
    }

    fn state_mut(&mut self, class: u8) -> &mut ClassState {
        self.states[Self::bucket(class)].get_or_insert_with(|| ClassState::new(&self.config))
    }

    /// The exploration width the given query should be drawn with.
    #[must_use]
    pub fn kn_for_query(&mut self, query: &Query) -> usize {
        self.state_mut(Self::class_of(query)).kn
    }

    /// Records one mediation's gap sample under the query's class.
    pub fn observe_query(&mut self, query: &Query, sample: GapSample) {
        self.observe(Self::class_of(query), sample);
    }

    /// Records one gap sample under an explicit class.
    pub fn observe(&mut self, class: u8, sample: GapSample) {
        let state = self.state_mut(class);
        state.window.record(sample);
        state.fresh += 1;
    }

    /// Runs one adaptation round — the mediator calls this at every batch
    /// boundary. Every class that observed at least one sample since the
    /// previous round folds its windowed gap mean into its EWMA and, if the
    /// EWMA sits outside the hysteresis band, steps `kn` towards the band.
    /// Returns the number of classes whose `kn` changed.
    pub fn adapt(&mut self) -> usize {
        self.rounds += 1;
        let config = self.config;
        let mut changed = 0;
        for (idx, slot) in self.states.iter_mut().enumerate() {
            let Some(state) = slot else { continue };
            if state.fresh == 0 {
                continue;
            }
            state.fresh = 0;
            let windowed = state.window.gap();
            let ewma = match state.ewma {
                Some(prev) => config.alpha * windowed + (1.0 - config.alpha) * prev,
                None => windowed,
            };
            state.ewma = Some(ewma);

            let kn = if ewma > config.target_gap + config.deadband {
                state.kn.saturating_sub(config.step).max(config.min_kn)
            } else if ewma < config.target_gap - config.deadband {
                (state.kn + config.step).min(config.max_kn)
            } else {
                state.kn
            };
            if kn != state.kn {
                state.kn = kn;
                changed += 1;
                // Bounded trajectory: once the trail hits its cap, the
                // oldest half is dropped in one amortized-O(1) drain, so a
                // long-lived service whose load oscillates across the band
                // keeps the most recent ≤ TRAIL_CAPACITY adjustments
                // instead of leaking memory forever.
                if self.trail.len() >= TRAIL_CAPACITY {
                    self.trail.drain(..TRAIL_CAPACITY / 2);
                }
                self.trail.push(KnAdjustment {
                    round: self.rounds,
                    class: idx as u8,
                    kn,
                    gap_ewma: ewma,
                });
            }
        }
        changed
    }

    /// The current width of a class, if the class has been contacted.
    /// Out-of-range classes read the wildcard bucket, mirroring where
    /// [`KnController::observe`] routes their writes.
    #[must_use]
    pub fn current_kn(&self, class: u8) -> Option<usize> {
        self.states[Self::bucket(class)].as_ref().map(|s| s.kn)
    }

    /// The current gap EWMA of a class, once one adaptation round has seen
    /// samples for it. Out-of-range classes read the wildcard bucket.
    #[must_use]
    pub fn gap_ewma(&self, class: u8) -> Option<f64> {
        self.states[Self::bucket(class)]
            .as_ref()
            .and_then(|s| s.ewma)
    }

    /// The recorded `kn` changes, in adaptation order. Bounded: only the
    /// most recent 8 192 adjustments are retained (the oldest half is
    /// discarded when the trail is full), so long-lived controllers do not
    /// grow without limit.
    #[must_use]
    pub fn trail(&self) -> &[KnAdjustment] {
        &self.trail
    }

    /// Iterates over `(class, current kn)` for every contacted class, in
    /// class order.
    pub fn class_widths(&self) -> impl Iterator<Item = (u8, usize)> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| slot.as_ref().map(|state| (idx as u8, state.kn)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_types::{Capability, CapabilityRequirement, CapabilitySet, ConsumerId, QueryId};

    fn sample(consumer: f64, provider: f64) -> GapSample {
        GapSample::new(consumer, provider)
    }

    fn config() -> KnControllerConfig {
        KnControllerConfig {
            initial_kn: 4,
            min_kn: 2,
            max_kn: 8,
            alpha: 1.0, // no smoothing: tests see the windowed mean directly
            target_gap: 0.0,
            deadband: 0.1,
            step: 1,
            window: 16,
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        KnControllerConfig::default().validate().unwrap();
        let bad = |f: fn(&mut KnControllerConfig)| {
            let mut c = KnControllerConfig::default();
            f(&mut c);
            c.validate()
        };
        assert!(bad(|c| c.min_kn = 0).is_err());
        assert!(bad(|c| c.min_kn = 20).is_err());
        assert!(bad(|c| c.initial_kn = 1).is_err());
        assert!(bad(|c| c.alpha = 0.0).is_err());
        assert!(bad(|c| c.alpha = 1.5).is_err());
        assert!(bad(|c| c.alpha = f64::NAN).is_err());
        assert!(bad(|c| c.target_gap = f64::INFINITY).is_err());
        assert!(bad(|c| c.deadband = -0.1).is_err());
        assert!(bad(|c| c.step = 0).is_err());
        assert!(bad(|c| c.window = 0).is_err());
    }

    #[test]
    fn gap_above_band_shrinks_kn_to_the_floor() {
        let mut controller = KnController::new(config()).unwrap();
        for round in 0..5 {
            controller.observe(3, sample(0.9, 0.1));
            controller.adapt();
            let expected = (4usize.saturating_sub(round + 1)).max(2);
            assert_eq!(controller.current_kn(3), Some(expected), "round {round}");
        }
        // Clamped at min_kn, no further trail entries accumulate.
        assert_eq!(controller.current_kn(3), Some(2));
        assert_eq!(controller.trail().len(), 2);
        assert!(controller.gap_ewma(3).unwrap() > 0.7);
    }

    #[test]
    fn gap_below_band_widens_kn_to_the_ceiling() {
        let mut controller = KnController::new(config()).unwrap();
        for _ in 0..10 {
            controller.observe(0, sample(0.1, 0.9));
            controller.adapt();
        }
        assert_eq!(controller.current_kn(0), Some(8));
        let trail = controller.trail();
        assert_eq!(trail.len(), 4, "4 → 5 → 6 → 7 → 8");
        assert!(trail.windows(2).all(|w| w[0].round < w[1].round));
        assert!(trail.iter().all(|a| a.class == 0));
    }

    #[test]
    fn deadband_holds_kn_steady() {
        let mut controller = KnController::new(config()).unwrap();
        for _ in 0..10 {
            controller.observe(1, sample(0.55, 0.5)); // gap 0.05, inside ±0.1
            controller.adapt();
        }
        assert_eq!(controller.current_kn(1), Some(4));
        assert!(controller.trail().is_empty());

        // An EWMA exactly on either edge is inside the band. The edges are
        // binary-exact: 0.125 ± 0.25 is [-0.125, 0.375].
        let mut controller = KnController::new(KnControllerConfig {
            target_gap: 0.125,
            deadband: 0.25,
            ..config()
        })
        .unwrap();
        controller.observe(0, sample(0.875, 0.5));
        controller.observe(1, sample(0.5, 0.625));
        controller.adapt();
        assert_eq!(controller.gap_ewma(0), Some(0.375));
        assert_eq!(controller.gap_ewma(1), Some(-0.125));
        assert_eq!(controller.current_kn(0), Some(4), "upper edge");
        assert_eq!(controller.current_kn(1), Some(4), "lower edge");
        assert!(controller.trail().is_empty());
    }

    #[test]
    fn classes_adapt_independently() {
        let mut controller = KnController::new(config()).unwrap();
        for _ in 0..6 {
            controller.observe(0, sample(1.0, 0.0)); // shrink
            controller.observe(7, sample(0.0, 1.0)); // widen
            controller.adapt();
        }
        assert_eq!(controller.current_kn(0), Some(2));
        assert_eq!(controller.current_kn(7), Some(8));
        assert_eq!(controller.current_kn(5), None, "uncontacted class");
        let widths: Vec<(u8, usize)> = controller.class_widths().collect();
        assert_eq!(widths, vec![(0, 2), (7, 8)]);
    }

    #[test]
    fn stale_classes_do_not_adapt_without_fresh_samples() {
        let mut controller = KnController::new(config()).unwrap();
        controller.observe(2, sample(1.0, 0.0));
        controller.adapt();
        assert_eq!(controller.current_kn(2), Some(3));
        // No new samples: ten rounds later the width is unchanged even
        // though the window still holds the old dissatisfied samples.
        for _ in 0..10 {
            controller.adapt();
        }
        assert_eq!(controller.current_kn(2), Some(3));
        assert_eq!(controller.rounds(), 11);
    }

    #[test]
    fn ewma_smooths_single_round_spikes() {
        let mut controller = KnController::new(KnControllerConfig {
            alpha: 0.2,
            ..config()
        })
        .unwrap();
        // Long calm history first.
        for _ in 0..5 {
            controller.observe(0, sample(0.5, 0.5));
            controller.adapt();
        }
        assert_eq!(controller.current_kn(0), Some(4));
        // One violent spike moves the EWMA by only alpha · window-mean — the
        // window itself also dilutes the spike, so kn must hold.
        controller.observe(0, sample(1.0, 0.0));
        controller.adapt();
        assert_eq!(controller.current_kn(0), Some(4));
    }

    #[test]
    fn controller_is_a_pure_function_of_the_sample_stream() {
        let run = || {
            let mut controller = KnController::new(KnControllerConfig::default()).unwrap();
            for i in 0..200u32 {
                let c = f64::from(i % 17) / 16.0;
                let p = f64::from(i % 5) / 8.0;
                controller.observe((i % 3) as u8, sample(c, p));
                if i % 10 == 9 {
                    controller.adapt();
                }
            }
            (
                controller.trail().to_vec(),
                controller.current_kn(0),
                controller.current_kn(1),
                controller.current_kn(2),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn class_of_picks_lowest_mentioned_class() {
        let q = Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(9)).build();
        assert_eq!(KnController::class_of(&q), 9);

        let multi = Query::requiring(
            QueryId::new(2),
            ConsumerId::new(1),
            CapabilityRequirement::Any(CapabilitySet::from_capabilities([
                Capability::new(12),
                Capability::new(5),
            ])),
        )
        .build();
        assert_eq!(KnController::class_of(&multi), 5);

        let wildcard = Query::requiring(
            QueryId::new(3),
            ConsumerId::new(1),
            CapabilityRequirement::All(CapabilitySet::EMPTY),
        )
        .build();
        assert_eq!(KnController::class_of(&wildcard), WILDCARD_CLASS);
    }

    #[test]
    fn out_of_range_classes_read_and_write_the_wildcard_bucket() {
        let mut controller = KnController::new(config()).unwrap();
        controller.observe(200, sample(1.0, 0.0));
        controller.adapt();
        // The write landed in the wildcard bucket, and reads under the
        // foreign key see the same state — no silent asymmetry.
        assert_eq!(controller.current_kn(200), Some(3));
        assert_eq!(controller.current_kn(WILDCARD_CLASS), Some(3));
        assert_eq!(
            controller.gap_ewma(200),
            controller.gap_ewma(WILDCARD_CLASS)
        );
    }

    #[test]
    fn trail_is_bounded() {
        // Window of 1 so each round's mean is the last sample: alternating
        // extreme samples flip the width across the band every round,
        // recording one adjustment per round. The trail must stay capped.
        let mut controller = KnController::new(KnControllerConfig {
            window: 1,
            ..config()
        })
        .unwrap();
        for round in 0..(TRAIL_CAPACITY * 2) {
            let s = if round % 2 == 0 {
                sample(1.0, 0.0) // shrink
            } else {
                sample(0.0, 1.0) // widen
            };
            controller.observe(0, s);
            controller.adapt();
        }
        let trail = controller.trail();
        assert!(trail.len() <= TRAIL_CAPACITY);
        assert!(trail.len() >= TRAIL_CAPACITY / 2, "recent half retained");
        // The retained suffix is the most recent one.
        assert_eq!(trail.last().unwrap().round, controller.rounds());
    }

    #[test]
    fn step_size_scales_the_reaction() {
        let mut controller = KnController::new(KnControllerConfig {
            step: 3,
            ..config()
        })
        .unwrap();
        controller.observe(0, sample(0.0, 1.0));
        controller.adapt();
        assert_eq!(controller.current_kn(0), Some(7));
        controller.observe(0, sample(0.0, 1.0));
        controller.adapt();
        assert_eq!(controller.current_kn(0), Some(8), "clamped at max_kn");
    }
}
