//! Query generation.
//!
//! The workload model turns a [`ConsumerSpec`]
//! into a stream of queries: exponential inter-arrival times (a Poisson
//! process at the consumer's rate), exponentially-distributed work sizes
//! around the consumer's mean, a Short/Medium/Long class mix, and —
//! when the consumer declares extra capability classes — a configurable mix
//! of single- and multi-capability requirements (`All`/`Any` semantics).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sbqa_types::{
    CapabilityRequirement, Duration, IdGenerator, Query, QueryClass, QueryId, VirtualTime,
};

use crate::consumer::ConsumerSpec;
use crate::rng::SimRng;

/// Probability of a short query.
const SHORT_FRACTION: f64 = 0.25;

/// Probability of a long query (the remainder is medium).
const LONG_FRACTION: f64 = 0.25;

/// Lower bound on sampled work sizes, to avoid zero-length queries.
const MIN_WORK_UNITS: f64 = 0.05;

/// The generated query mix: a fixed Short/Medium/Long class mix (25 % short,
/// 25 % long, the rest medium) and a configurable multi-capability mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadModel {
    /// Probability that a query widens its requirement to the consumer's
    /// base classes *plus* its [`extra_capabilities`]. Only applies to
    /// consumers that declare extra classes; at the default of `0.0` no RNG
    /// is consumed and every query carries the consumer's base requirement,
    /// so existing single-capability workloads are byte-identical.
    ///
    /// [`extra_capabilities`]: crate::consumer::ConsumerSpec::extra_capabilities
    pub multi_capability_fraction: f64,
    /// Among widened queries, the probability that the requirement is forced
    /// to disjunctive (`Any`) semantics; otherwise a widened query keeps its
    /// consumer's base semantics (conjunctive bases widen to `All`,
    /// disjunctive bases to `Any` — widening never silently turns a
    /// disjunctive consumer's queries into conjunctions). At `0.0` no RNG is
    /// consumed for the choice.
    pub any_semantics_fraction: f64,
}

impl Default for WorkloadModel {
    fn default() -> Self {
        Self {
            multi_capability_fraction: 0.0,
            any_semantics_fraction: 0.0,
        }
    }
}

impl WorkloadModel {
    /// Builder-style override of the multi-capability query mix: `multi` is
    /// the probability that a query widens to the consumer's extra classes,
    /// `any` the probability that a widened query uses `Any` semantics.
    #[must_use]
    pub fn with_multi_capability_mix(mut self, multi: f64, any: f64) -> Self {
        self.multi_capability_fraction = multi.clamp(0.0, 1.0);
        self.any_semantics_fraction = any.clamp(0.0, 1.0);
        self
    }

    /// Samples the delay until a consumer's next query.
    #[must_use]
    pub fn next_arrival(&self, spec: &ConsumerSpec, rng: &mut SimRng) -> Duration {
        Duration::new(rng.exponential(spec.arrival_rate))
    }

    /// Samples a query class according to the fixed mix.
    #[must_use]
    fn sample_class(rng: &mut SimRng) -> QueryClass {
        let u = rng.uniform();
        if u < SHORT_FRACTION {
            QueryClass::Short
        } else if u < SHORT_FRACTION + LONG_FRACTION {
            QueryClass::Long
        } else {
            QueryClass::Medium
        }
    }

    /// Samples the capability requirement of a consumer's next query.
    ///
    /// Consumers without extra capability classes (and workloads with the
    /// mix disabled) always get the base requirement *without consuming any
    /// randomness*, which keeps pre-existing single-capability workloads
    /// byte-identical per seed.
    #[must_use]
    fn sample_requirement(&self, spec: &ConsumerSpec, rng: &mut SimRng) -> CapabilityRequirement {
        if self.multi_capability_fraction <= 0.0 || spec.extra_capabilities.is_empty() {
            return spec.requirement;
        }
        if rng.uniform() >= self.multi_capability_fraction {
            return spec.requirement;
        }
        let widened = spec.requirement.classes().union(spec.extra_capabilities);
        let force_any =
            self.any_semantics_fraction > 0.0 && rng.uniform() < self.any_semantics_fraction;
        if force_any || !spec.requirement.is_conjunctive() {
            CapabilityRequirement::Any(widened)
        } else {
            CapabilityRequirement::All(widened)
        }
    }

    /// Builds the next query for a consumer.
    #[must_use]
    pub fn next_query(
        &self,
        id: QueryId,
        spec: &ConsumerSpec,
        now: VirtualTime,
        rng: &mut SimRng,
    ) -> Query {
        let work = rng
            .exponential(1.0 / spec.mean_work_units)
            .max(MIN_WORK_UNITS);
        Query::requiring(id, spec.id, self.sample_requirement(spec, rng))
            .replication(spec.replication)
            .work_units(work)
            .class(Self::sample_class(rng))
            .issued_at(now)
            .build()
    }
}

/// A mid-stream arrival-rate step: after `at_fraction` of the stream has
/// been generated, every consumer's arrival rate is multiplied by
/// `rate_multiplier`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStep {
    /// Fraction of the stream (in `[0, 1]`) generated at the base rates.
    pub at_fraction: f64,
    /// Rate multiplier applied from that point on (≥ 1 steps the load up).
    pub rate_multiplier: f64,
}

/// Generates a deterministic open-loop arrival stream: every consumer emits
/// queries as an independent Poisson process (via the shared
/// [`WorkloadModel`]), merged in arrival order with ids minted in that
/// order — so the stream is sorted by `(issued_at, id)`, the natural batch
/// order both mediation fronts expect.
///
/// A [`LoadStep`] divides the sampled inter-arrival delays by its multiplier
/// rather than re-parameterising the distribution, so per-event RNG
/// consumption is unchanged; the post-step interleaving of consumers can
/// still differ from the unstepped stream (denser arrivals pop in a
/// different merge order). Techniques compared on the *same* generated
/// stream see byte-identical queries either way.
#[must_use]
pub fn generate_query_stream(
    consumers: &[ConsumerSpec],
    workload: &WorkloadModel,
    count: usize,
    seed: u64,
    step: Option<LoadStep>,
) -> Vec<Query> {
    assert!(
        !consumers.is_empty(),
        "a stream needs at least one consumer"
    );
    // (first stepped position, divisor of the delays sampled from there on).
    let (switch_at, multiplier) = step.map_or((usize::MAX, 1.0), |step| {
        let valid = step.rate_multiplier.is_finite() && step.rate_multiplier > 0.0;
        (
            ((count as f64) * step.at_fraction.clamp(0.0, 1.0)) as usize,
            if valid { step.rate_multiplier } else { 1.0 },
        )
    });
    let master = SimRng::new(seed);
    // Mirror the event-driven runner's stream split so the two paths stay
    // decorrelated the same way.
    let mut arrival_rng = master.derive(1);
    let mut workload_rng = master.derive(3);
    let mut ids = IdGenerator::new();

    // (next arrival time, consumer position), min-first.
    let mut heap: BinaryHeap<Reverse<(VirtualTime, usize)>> = BinaryHeap::new();
    for (position, spec) in consumers.iter().enumerate() {
        let delay = workload.next_arrival(spec, &mut arrival_rng);
        heap.push(Reverse((VirtualTime::ZERO + delay, position)));
    }

    let mut stream = Vec::with_capacity(count);
    while stream.len() < count {
        let Reverse((at, position)) = heap.pop().expect("heap holds every consumer");
        let spec = &consumers[position];
        stream.push(workload.next_query(ids.next_query(), spec, at, &mut workload_rng));
        let mut delay = workload.next_arrival(spec, &mut arrival_rng);
        if stream.len() >= switch_at {
            delay = Duration::new(delay.seconds() / multiplier);
        }
        heap.push(Reverse((at + delay, position)));
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::intention::ConsumerProfile;
    use sbqa_types::{Capability, ConsumerId};

    fn spec(rate: f64, work: f64) -> ConsumerSpec {
        ConsumerSpec::new(
            ConsumerId::new(1),
            Capability::new(3),
            rate,
            work,
            2,
            ConsumerProfile::default(),
        )
    }

    fn consumers(n: u64) -> Vec<ConsumerSpec> {
        (0..n)
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

    #[test]
    fn stream_generation_is_deterministic_and_ordered() {
        let consumers = consumers(3);
        let workload = WorkloadModel::default();
        let a = generate_query_stream(&consumers, &workload, 200, 9, None);
        let b = generate_query_stream(&consumers, &workload, 200, 9, None);
        assert_eq!(a, b);
        let c = generate_query_stream(&consumers, &workload, 200, 10, None);
        assert_ne!(a, c);
        // Sorted by (issued_at, id); ids minted in arrival order.
        assert!(a
            .windows(2)
            .all(|w| (w[0].issued_at, w[0].id) <= (w[1].issued_at, w[1].id)));
        assert_eq!(a[0].id, QueryId::new(0));
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn load_step_compresses_arrivals_after_the_switch() {
        let consumers = consumers(3);
        let workload = WorkloadModel::default();
        let step = LoadStep {
            at_fraction: 0.5,
            rate_multiplier: 4.0,
        };
        let stream = generate_query_stream(&consumers, &workload, 2_000, 7, Some(step));
        assert_eq!(stream.len(), 2_000);
        // Ids are minted in arrival order, like the unstepped generator.
        assert!(stream
            .iter()
            .enumerate()
            .all(|(i, q)| q.id == QueryId::new(i as u64)));
        // The second half arrives ~4x denser.
        let span =
            |qs: &[Query]| (qs.last().unwrap().issued_at - qs.first().unwrap().issued_at).seconds();
        let first = span(&stream[..1_000]);
        let second = span(&stream[1_000..]);
        assert!(
            second < first / 2.0,
            "post-step half spans {second}s vs {first}s before"
        );
        // Virtual time still advances monotonically.
        assert!(stream.windows(2).all(|w| w[0].issued_at <= w[1].issued_at));
        // Up to the switch the step changes nothing.
        let plain = generate_query_stream(&consumers, &workload, 2_000, 7, None);
        assert_eq!(stream[..1_000], plain[..1_000]);
    }

    #[test]
    fn a_query_carries_its_consumers_replication_requirement_and_time() {
        let mut rng = SimRng::new(1);
        let q = WorkloadModel::default().next_query(
            QueryId::new(1),
            &spec(1.0, 3.0),
            VirtualTime::new(5.0),
            &mut rng,
        );
        assert_eq!(q.replication, 2);
        assert_eq!(
            q.required,
            sbqa_types::CapabilityRequirement::single(Capability::new(3))
        );
        assert_eq!(q.issued_at, VirtualTime::new(5.0));
    }

    #[test]
    fn arrival_rate_controls_mean_interarrival() {
        let model = WorkloadModel::default();
        let mut rng = SimRng::new(2);
        let s = spec(4.0, 1.0);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| model.next_arrival(&s, &mut rng).seconds())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean inter-arrival {mean}");
    }

    #[test]
    fn sampled_work_respects_minimum_and_mean() {
        let model = WorkloadModel::default();
        let mut rng = SimRng::new(3);
        let s = spec(1.0, 2.0);
        let n = 20_000;
        let mut sum = 0.0;
        for i in 0..n {
            let q = model.next_query(QueryId::new(i), &s, VirtualTime::ZERO, &mut rng);
            assert!(q.work_units >= MIN_WORK_UNITS * QueryClass::Short.work_factor());
            sum += q.work_units;
        }
        // Mean of the exponential is 2.0, scaled by the class mix
        // (0.25·0.4 + 0.5·1.0 + 0.25·1.6 = 1.0), so the overall mean stays ≈ 2.
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean work {mean}");
    }

    #[test]
    fn default_mix_never_widens_requirements_or_consumes_rng() {
        let with_extras = spec(1.0, 1.0)
            .with_extra_capabilities(sbqa_types::CapabilitySet::singleton(Capability::new(7)));
        let plain = spec(1.0, 1.0);
        let model = WorkloadModel::default();

        // Identical RNG streams must yield identical queries whether or not
        // the consumer declares extras, because the disabled mix draws
        // nothing: pre-existing workloads stay byte-identical per seed.
        let mut rng_a = SimRng::new(11);
        let mut rng_b = SimRng::new(11);
        for i in 0..200u64 {
            let qa = model.next_query(QueryId::new(i), &with_extras, VirtualTime::ZERO, &mut rng_a);
            let qb = model.next_query(QueryId::new(i), &plain, VirtualTime::ZERO, &mut rng_b);
            assert_eq!(qa.required, with_extras.requirement);
            assert_eq!(qa.work_units, qb.work_units);
            assert_eq!(qa.class, qb.class);
        }
    }

    #[test]
    fn multi_capability_mix_widens_with_configured_semantics() {
        use sbqa_types::{CapabilityRequirement, CapabilitySet};

        let extras = CapabilitySet::from_capabilities([Capability::new(7), Capability::new(9)]);
        let s = spec(1.0, 1.0).with_extra_capabilities(extras);
        let widened = s.requirement.classes().union(extras);
        let model = WorkloadModel::default().with_multi_capability_mix(0.6, 0.5);
        let mut rng = SimRng::new(5);

        let n = 20_000;
        let mut single = 0usize;
        let mut all = 0usize;
        let mut any = 0usize;
        for i in 0..n {
            let q = model.next_query(QueryId::new(i as u64), &s, VirtualTime::ZERO, &mut rng);
            match q.required {
                req if req == s.requirement => single += 1,
                CapabilityRequirement::All(set) => {
                    assert_eq!(set, widened);
                    all += 1;
                }
                CapabilityRequirement::Any(set) => {
                    assert_eq!(set, widened);
                    any += 1;
                }
            }
        }
        // 40% single, 30% All-widened, 30% Any-widened (±2 points).
        assert!(
            (single as f64 / n as f64 - 0.4).abs() < 0.02,
            "single {single}"
        );
        assert!((all as f64 / n as f64 - 0.3).abs() < 0.02, "all {all}");
        assert!((any as f64 / n as f64 - 0.3).abs() < 0.02, "any {any}");
    }

    #[test]
    fn widening_preserves_a_disjunctive_base() {
        use sbqa_types::{CapabilityRequirement, CapabilitySet};

        // A consumer whose base requirement is already disjunctive: widened
        // queries must stay disjunctive (never silently flip to `All`, which
        // would be strictly *stricter* than the base requirement).
        let base = CapabilityRequirement::Any(CapabilitySet::from_capabilities([
            Capability::new(1),
            Capability::new(2),
        ]));
        let extras = CapabilitySet::singleton(Capability::new(3));
        let s = spec(1.0, 1.0)
            .with_requirement(base)
            .with_extra_capabilities(extras);
        let widened = base.classes().union(extras);
        // any_semantics_fraction 0.0: the base semantics decide alone.
        let model = WorkloadModel::default().with_multi_capability_mix(1.0, 0.0);
        let mut rng = SimRng::new(9);
        for i in 0..200u64 {
            let q = model.next_query(QueryId::new(i), &s, VirtualTime::ZERO, &mut rng);
            assert_eq!(q.required, CapabilityRequirement::Any(widened));
        }
    }

    #[test]
    fn mix_fractions_are_clamped() {
        let model = WorkloadModel::default().with_multi_capability_mix(7.0, -3.0);
        assert_eq!(model.multi_capability_fraction, 1.0);
        assert_eq!(model.any_semantics_fraction, 0.0);
    }

    #[test]
    fn class_mix_follows_the_fixed_fractions() {
        let mut rng = SimRng::new(4);
        let n = 20_000;
        let mut short = 0;
        let mut long = 0;
        for _ in 0..n {
            match WorkloadModel::sample_class(&mut rng) {
                QueryClass::Short => short += 1,
                QueryClass::Long => long += 1,
                QueryClass::Medium => {}
            }
        }
        assert!((short as f64 / n as f64 - SHORT_FRACTION).abs() < 0.02);
        assert!((long as f64 / n as f64 - LONG_FRACTION).abs() < 0.02);
    }
}
