//! The three-tier degradation ladder: deterministic admission control for
//! the regime *past* saturation.
//!
//! SbQA's premise is that the mediator keeps both market sides satisfied
//! under load it does not control — which includes load it cannot absorb.
//! This module defines what the system does when the ingest queue grows
//! faster than mediation drains it, as an explicit, deterministic ladder:
//!
//! 1. **ShrinkKn** — clamp the KnBest exploration width to
//!    [`SHRINK_KN_FLOOR`]. The allocation stays intention-aware (SQLB
//!    scoring over a narrower `Kn`), it just explores less. Cheapest quality
//!    concession first.
//! 2. **Baseline** — fall back to a capacity-based allocation
//!    ([`baseline_allocate_into`]): no random pre-selection, no scoring over
//!    `kn` candidates, intentions gathered for the winners only.
//! 3. **Shed** — reject the query before mediation, in stable
//!    `(VirtualTime, QueryId)` arrival order, so the shed *set* is a pure
//!    function of `(seed, stream)`.
//!
//! ## Why the ladder is deterministic
//!
//! Physical queue depth is wall-clock-racy: it depends on thread scheduling,
//! so tier decisions keyed on it would differ run to run. The ladder instead
//! tracks a *modeled* depth — a leaky bucket over the stream's own virtual
//! time: every admitted query deepens the bucket by one, and the bucket
//! leaks [`DegradationConfig::drain_rate`] queries per virtual second of
//! `issued_at` progress. Queries are observed in `(VirtualTime, QueryId)`
//! order per shard, so the modeled depth — and with it every tier
//! transition and every shed decision — is byte-reproducible per seed and
//! independent of ingest chunk sizes and thread timing. The bounded ring in
//! `sbqa-service` bounds the *physical* queue; this ladder decides
//! *degradation*, and only the ladder's decisions reach the outcome stream.
//!
//! Hysteresis keeps the ladder from flapping at a threshold: a tier is
//! entered at `threshold × capacity` and left only once the modeled depth
//! falls below `(threshold − hysteresis) × capacity`.

use serde::{Deserialize, Serialize};

use sbqa_types::{f64_total_cmp, ProviderId, Query, SbqaError, SbqaResult, VirtualTime};

use crate::allocator::{AllocationDecision, Candidates, IntentionOracle, ProposalRecord};

/// How many candidates the capacity fallback considers, counted from the
/// front of the candidate view. Bounds the fallback's per-query cost on huge
/// capability classes while keeping the choice deterministic (the view's
/// position order is registry order, which is replicated state).
const BASELINE_CONSIDERATION: usize = 64;

/// The exploration width the ShrinkKn tier clamps `kn` to (a narrower
/// configured or adapted width is kept as it is).
pub const SHRINK_KN_FLOOR: usize = 2;

/// The degradation tier a query is mediated under. Ordered by severity:
/// `Normal < ShrinkKn < Baseline < Shed`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum DegradationTier {
    /// Full SbQA mediation at the controller-chosen exploration width.
    #[default]
    Normal,
    /// SbQA mediation with `kn` clamped to [`SHRINK_KN_FLOOR`].
    ShrinkKn,
    /// Capacity-based fallback allocation; no KnBest draw, no SQLB scoring.
    Baseline,
    /// Admission control rejects queries before mediation.
    Shed,
}

impl DegradationTier {
    /// Short stable label, for tables and digests.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DegradationTier::Normal => "normal",
            DegradationTier::ShrinkKn => "shrink-kn",
            DegradationTier::Baseline => "baseline",
            DegradationTier::Shed => "shed",
        }
    }
}

/// The ladder's verdict on one arriving query: plain data the host passes to
/// [`Mediator::submit_at`](crate::Mediator::submit_at) with the query and
/// appends to a replicated shard's log beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Admission {
    /// Mediate the query under the given tier (never [`DegradationTier::Shed`]).
    Admit(DegradationTier),
    /// Reject the query before mediation.
    Shed,
}

/// Configuration of the [`DegradationLadder`].
///
/// Thresholds are fractions of `capacity`; the defaults put most of the
/// overload region in the ShrinkKn band (quality degrades gently first) and
/// keep the Baseline band thin, with shedding as the last resort.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationConfig {
    /// Capacity of the modeled queue, in queries. Also the capacity the
    /// service layer gives its physical ingest ring.
    pub capacity: usize,
    /// Queries the modeled queue drains per virtual second. Set this to the
    /// arrival rate the deployment is provisioned for: a 1× stream then
    /// stays at depth ≈ 0 and a 10× step builds pressure at 9× that rate.
    pub drain_rate: f64,
    /// Enter [`DegradationTier::ShrinkKn`] at `shrink_threshold × capacity`.
    pub shrink_threshold: f64,
    /// Enter [`DegradationTier::Baseline`] at `baseline_threshold × capacity`.
    pub baseline_threshold: f64,
    /// Enter [`DegradationTier::Shed`] at `shed_threshold × capacity`.
    pub shed_threshold: f64,
    /// A tier is left only once depth falls `hysteresis × capacity` below
    /// its entry threshold.
    pub hysteresis: f64,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self {
            capacity: 1024,
            drain_rate: 1000.0,
            shrink_threshold: 0.25,
            baseline_threshold: 0.85,
            shed_threshold: 0.90,
            hysteresis: 0.05,
        }
    }
}

impl DegradationConfig {
    /// Checks every field against its legal domain.
    pub fn validate(&self) -> SbqaResult<()> {
        if self.capacity == 0 {
            return Err(SbqaError::invalid_config(
                "degradation capacity must be ≥ 1",
            ));
        }
        if !(self.drain_rate.is_finite() && self.drain_rate > 0.0) {
            return Err(SbqaError::invalid_config(
                "degradation drain_rate must be finite and positive",
            ));
        }
        let ordered = 0.0 < self.shrink_threshold
            && self.shrink_threshold <= self.baseline_threshold
            && self.baseline_threshold <= self.shed_threshold
            && self.shed_threshold <= 1.0;
        if !ordered {
            return Err(SbqaError::invalid_config(
                "degradation thresholds must satisfy 0 < shrink ≤ baseline ≤ shed ≤ 1",
            ));
        }
        if !(self.hysteresis.is_finite()
            && self.hysteresis >= 0.0
            && self.hysteresis < self.shrink_threshold)
        {
            return Err(SbqaError::invalid_config(
                "degradation hysteresis must be in [0, shrink_threshold)",
            ));
        }
        Ok(())
    }
}

/// Per-tier admission counters, surfaced through `ShardReport` /
/// `ServiceReport` like the cache and replication stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DegradationStats {
    /// Queries admitted at full mediation quality.
    pub normal: u64,
    /// Queries admitted with the exploration width clamped to the floor.
    pub shrink_kn: u64,
    /// Queries admitted under the capacity-based fallback.
    pub baseline: u64,
    /// Queries rejected by admission control.
    pub shed: u64,
    /// Tier transitions the ladder performed.
    pub transitions: u64,
}

impl DegradationStats {
    /// Queries that were admitted (all tiers below Shed).
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.normal + self.shrink_kn + self.baseline
    }

    /// Every query the ladder observed, admitted or shed.
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.admitted() + self.shed
    }

    /// `true` if any query was admitted below full quality or shed.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.shrink_kn + self.baseline + self.shed > 0
    }

    /// Folds another ladder's counters into this one (used when merging
    /// shard reports into a service report).
    pub fn merge(&mut self, other: &DegradationStats) {
        self.normal += other.normal;
        self.shrink_kn += other.shrink_kn;
        self.baseline += other.baseline;
        self.shed += other.shed;
        self.transitions += other.transitions;
    }
}

/// The deterministic leaky-bucket ladder itself.
///
/// Feed it every arriving query's `issued_at` in `(VirtualTime, QueryId)`
/// order via [`DegradationLadder::observe_arrival`]; it answers with the
/// tier to mediate under, or [`Admission::Shed`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradationLadder {
    config: DegradationConfig,
    /// Modeled queue depth, in queries.
    depth: f64,
    /// Virtual time of the last observed arrival (the leak's clock).
    last: VirtualTime,
    tier: DegradationTier,
    stats: DegradationStats,
}

impl DegradationLadder {
    /// Builds a ladder from a validated configuration.
    pub fn new(config: DegradationConfig) -> SbqaResult<Self> {
        config.validate()?;
        Ok(Self {
            config,
            depth: 0.0,
            last: VirtualTime::ZERO,
            tier: DegradationTier::Normal,
            stats: DegradationStats::default(),
        })
    }

    /// Observes one arriving query and decides its admission. Must be called
    /// in `(issued_at, id)` order per shard; `issued_at` regressions are
    /// treated as simultaneous arrivals (no negative leak).
    pub fn observe_arrival(&mut self, at: VirtualTime) -> Admission {
        let elapsed = at.since(self.last).seconds();
        if elapsed > 0.0 {
            self.depth = (self.depth - self.config.drain_rate * elapsed).max(0.0);
            self.last = at;
        }
        self.adjust_tier();
        if self.tier == DegradationTier::Shed {
            self.stats.shed += 1;
            return Admission::Shed;
        }
        self.depth += 1.0;
        match self.tier {
            DegradationTier::Normal => self.stats.normal += 1,
            DegradationTier::ShrinkKn => self.stats.shrink_kn += 1,
            DegradationTier::Baseline => self.stats.baseline += 1,
            DegradationTier::Shed => {}
        }
        Admission::Admit(self.tier)
    }

    /// Moves the tier with hysteresis: escalate as soon as an entry
    /// threshold is crossed, relax only once depth is a full hysteresis band
    /// below it.
    fn adjust_tier(&mut self) {
        let cap = self.config.capacity as f64;
        let hyst = self.config.hysteresis * cap;
        let entry = |threshold: f64| threshold * cap;
        let escalate = if self.depth >= entry(self.config.shed_threshold) {
            DegradationTier::Shed
        } else if self.depth >= entry(self.config.baseline_threshold) {
            DegradationTier::Baseline
        } else if self.depth >= entry(self.config.shrink_threshold) {
            DegradationTier::ShrinkKn
        } else {
            DegradationTier::Normal
        };
        let relax = if self.depth >= entry(self.config.shed_threshold) - hyst {
            DegradationTier::Shed
        } else if self.depth >= entry(self.config.baseline_threshold) - hyst {
            DegradationTier::Baseline
        } else if self.depth >= entry(self.config.shrink_threshold) - hyst {
            DegradationTier::ShrinkKn
        } else {
            DegradationTier::Normal
        };
        let next = if escalate > self.tier {
            escalate
        } else if relax < self.tier {
            relax
        } else {
            self.tier
        };
        if next != self.tier {
            self.tier = next;
            self.stats.transitions += 1;
        }
    }

    /// The tier the ladder currently sits in.
    #[must_use]
    pub fn tier(&self) -> DegradationTier {
        self.tier
    }

    /// The current modeled queue depth.
    #[must_use]
    pub fn depth(&self) -> f64 {
        self.depth
    }

    /// The ladder's admission counters so far.
    #[must_use]
    pub fn stats(&self) -> DegradationStats {
        self.stats
    }

    /// The configuration the ladder runs with.
    #[must_use]
    pub fn config(&self) -> &DegradationConfig {
        &self.config
    }
}

/// The Baseline-tier allocation: a deterministic capacity-based fallback.
///
/// Considers the first 64 candidates of the view (in
/// registry order), ranks them by `(utilization / capacity, id)` ascending
/// and selects the `min(q.n, considered)` least-loaded. No RNG is consumed,
/// no scoring over `kn` runs; intentions are gathered for the winners only,
/// so the satisfaction registry keeps tracking — at proposal breadth zero —
/// while the system rides out the overload.
pub fn baseline_allocate_into(
    query: &Query,
    candidates: Candidates<'_>,
    oracle: &dyn IntentionOracle,
    decision: &mut AllocationDecision,
) -> SbqaResult<()> {
    if candidates.is_empty() {
        return Err(SbqaError::NoProviderOnline { query: query.id });
    }
    decision.clear();

    // (relative load, id) keys of the consideration prefix, on the stack and
    // streamed: a positional read would select and probe once per candidate.
    let mut keys = [(0.0, ProviderId::new(0)); BASELINE_CONSIDERATION];
    let mut considered = 0;
    for snapshot in candidates.iter().take(BASELINE_CONSIDERATION) {
        let load = if snapshot.capacity > 0.0 {
            snapshot.utilization / snapshot.capacity
        } else {
            f64::INFINITY
        };
        keys[considered] = (load, snapshot.id);
        considered += 1;
    }
    let keys = &mut keys[..considered];
    keys.sort_unstable_by(|a, b| f64_total_cmp(a.0, b.0).then_with(|| a.1.cmp(&b.1)));

    let winner_count = query.replication.min(considered);
    for &(_, provider) in keys.iter().take(winner_count) {
        let consumer_intention = oracle.consumer_intention(query, provider);
        let provider_intention = oracle.provider_intention(provider, query);
        decision.proposals.push(ProposalRecord {
            provider,
            provider_intention,
            consumer_intention,
            score: None,
            selected: true,
        });
        decision.selected.push(provider);
    }
    decision.omega = None;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::StaticIntentions;
    use sbqa_types::{Capability, CapabilitySet, ConsumerId, Intention, ProviderSnapshot, QueryId};

    fn config() -> DegradationConfig {
        DegradationConfig {
            capacity: 100,
            drain_rate: 10.0,
            ..DegradationConfig::default()
        }
    }

    #[test]
    fn tiers_are_ordered_by_severity() {
        assert!(DegradationTier::Normal < DegradationTier::ShrinkKn);
        assert!(DegradationTier::ShrinkKn < DegradationTier::Baseline);
        assert!(DegradationTier::Baseline < DegradationTier::Shed);
        assert_eq!(DegradationTier::default(), DegradationTier::Normal);
    }

    #[test]
    fn config_validation_rejects_bad_fields() {
        assert!(config().validate().is_ok());
        let bad = DegradationConfig {
            capacity: 0,
            ..config()
        };
        assert!(bad.validate().is_err());
        let bad = DegradationConfig {
            drain_rate: 0.0,
            ..config()
        };
        assert!(bad.validate().is_err());
        let bad = DegradationConfig {
            shrink_threshold: 0.95,
            ..config()
        };
        assert!(bad.validate().is_err(), "shrink above baseline");
        let bad = DegradationConfig {
            hysteresis: 0.5,
            ..config()
        };
        assert!(bad.validate().is_err(), "hysteresis swallows shrink band");
    }

    #[test]
    fn sustainable_arrivals_stay_normal() {
        // 1 query per 0.2 virtual seconds against a drain of 10/s: the
        // bucket never accumulates.
        let mut ladder = DegradationLadder::new(config()).unwrap();
        for i in 0..500u64 {
            let admission = ladder.observe_arrival(VirtualTime::new(i as f64 * 0.2));
            assert_eq!(admission, Admission::Admit(DegradationTier::Normal));
        }
        assert_eq!(ladder.tier(), DegradationTier::Normal);
        assert_eq!(ladder.stats().transitions, 0);
        assert_eq!(ladder.stats().admitted(), 500);
    }

    #[test]
    fn sustained_overload_climbs_the_ladder_in_order() {
        // 100 arrivals per virtual second against a drain of 10/s: depth
        // grows ~90/s and must walk Normal → ShrinkKn → Baseline → Shed.
        let mut ladder = DegradationLadder::new(config()).unwrap();
        let mut tiers = Vec::new();
        for i in 0..300u64 {
            let at = VirtualTime::new(i as f64 * 0.01);
            match ladder.observe_arrival(at) {
                Admission::Admit(tier) => {
                    if tiers.last() != Some(&tier) {
                        tiers.push(tier);
                    }
                }
                Admission::Shed => {
                    if tiers.last() != Some(&DegradationTier::Shed) {
                        tiers.push(DegradationTier::Shed);
                    }
                }
            }
        }
        assert_eq!(
            tiers[..4],
            [
                DegradationTier::Normal,
                DegradationTier::ShrinkKn,
                DegradationTier::Baseline,
                DegradationTier::Shed,
            ],
            "tiers engage strictly in severity order"
        );
        // At saturation the ladder oscillates between Shed (which lets the
        // bucket leak) and Baseline (which refills it) — by design, the
        // system serves what it can at the cheapest quality and sheds the
        // rest, never dropping below Baseline while pressure persists.
        assert!(
            tiers[3..].iter().all(|&t| t >= DegradationTier::Baseline),
            "steady overload stays in the Baseline/Shed band: {tiers:?}"
        );
        let stats = ladder.stats();
        assert!(stats.shed > 0);
        assert!(stats.degraded());
        assert_eq!(stats.observed(), 300);
        assert!(stats.transitions >= 3);
    }

    #[test]
    fn shed_queries_do_not_deepen_the_bucket() {
        let mut ladder = DegradationLadder::new(config()).unwrap();
        // Simultaneous arrivals push straight past every threshold.
        for _ in 0..95 {
            ladder.observe_arrival(VirtualTime::ZERO);
        }
        assert_eq!(ladder.tier(), DegradationTier::Shed);
        let depth = ladder.depth();
        for _ in 0..50 {
            assert_eq!(ladder.observe_arrival(VirtualTime::ZERO), Admission::Shed);
        }
        assert_eq!(
            ladder.depth(),
            depth,
            "shed arrivals leave the modeled depth unchanged"
        );
    }

    #[test]
    fn hysteresis_holds_the_tier_through_small_dips() {
        let mut ladder = DegradationLadder::new(config()).unwrap();
        // Push depth to 30 (ShrinkKn enters at 25).
        for _ in 0..30 {
            ladder.observe_arrival(VirtualTime::ZERO);
        }
        assert_eq!(ladder.tier(), DegradationTier::ShrinkKn);
        // Leak down to ~21: inside the hysteresis band (exit below 20).
        let admission = ladder.observe_arrival(VirtualTime::new(1.0));
        assert_eq!(admission, Admission::Admit(DegradationTier::ShrinkKn));
        // Leak well below the band: the ladder relaxes.
        let admission = ladder.observe_arrival(VirtualTime::new(2.0));
        assert_eq!(admission, Admission::Admit(DegradationTier::Normal));
        assert_eq!(ladder.stats().transitions, 2);
    }

    #[test]
    fn ladder_is_a_pure_function_of_the_arrival_stream() {
        let arrivals: Vec<f64> = (0..400).map(|i| (i as f64) * 0.013).collect();
        let run = || {
            let mut ladder = DegradationLadder::new(config()).unwrap();
            let decisions: Vec<Admission> = arrivals
                .iter()
                .map(|&at| ladder.observe_arrival(VirtualTime::new(at)))
                .collect();
            (decisions, ladder.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_merge_is_field_wise_addition() {
        let mut a = DegradationStats {
            normal: 1,
            shrink_kn: 2,
            baseline: 3,
            shed: 4,
            transitions: 5,
        };
        let b = DegradationStats {
            normal: 10,
            shrink_kn: 20,
            baseline: 30,
            shed: 40,
            transitions: 50,
        };
        a.merge(&b);
        assert_eq!(a.normal, 11);
        assert_eq!(a.shrink_kn, 22);
        assert_eq!(a.baseline, 33);
        assert_eq!(a.shed, 44);
        assert_eq!(a.transitions, 55);
        assert_eq!(a.admitted(), 66);
        assert_eq!(a.observed(), 110);
    }

    fn snapshots(n: u64) -> Vec<ProviderSnapshot> {
        (0..n)
            .map(|i| {
                let mut s = ProviderSnapshot::idle(
                    ProviderId::new(i),
                    CapabilitySet::singleton(Capability::new(0)),
                    1.0 + (i % 3) as f64,
                );
                s.utilization = (i % 7) as f64;
                s
            })
            .collect()
    }

    fn query(id: u64, replication: usize) -> Query {
        Query::builder(QueryId::new(id), ConsumerId::new(1), Capability::new(0))
            .replication(replication)
            .build()
    }

    #[test]
    fn baseline_fallback_picks_least_relative_load_with_id_tiebreak() {
        let providers = snapshots(10);
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));
        let mut decision = AllocationDecision::default();
        baseline_allocate_into(
            &query(1, 2),
            Candidates::from_slice(&providers),
            &oracle,
            &mut decision,
        )
        .unwrap();
        // Providers 0 and 7 have utilization 0 (relative load 0): lowest id
        // first.
        assert_eq!(
            decision.selected,
            vec![ProviderId::new(0), ProviderId::new(7)]
        );
        assert_eq!(decision.proposals.len(), 2, "winners only, no Kn breadth");
        assert!(decision.proposals.iter().all(|p| p.score.is_none()));
        assert!(decision.omega.is_none());
    }

    #[test]
    fn baseline_fallback_bounds_consideration_and_is_deterministic() {
        let providers = snapshots(500);
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.2), Intention::new(0.1));
        let run = || {
            let mut decision = AllocationDecision::default();
            baseline_allocate_into(
                &query(9, 3),
                Candidates::from_slice(&providers),
                &oracle,
                &mut decision,
            )
            .unwrap();
            decision
        };
        let first = run();
        assert_eq!(first, run());
        // Every winner sits inside the consideration prefix.
        assert!(first
            .selected
            .iter()
            .all(|p| p.raw() < BASELINE_CONSIDERATION as u64));
    }

    #[test]
    fn baseline_fallback_starves_on_empty_candidates() {
        let oracle = StaticIntentions::new();
        let mut decision = AllocationDecision::default();
        let err = baseline_allocate_into(
            &query(1, 1),
            Candidates::from_slice(&[]),
            &oracle,
            &mut decision,
        )
        .unwrap_err();
        assert!(err.is_starvation());
    }
}
