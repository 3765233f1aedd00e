//! Seeded inputs: the provider world, the query streams, the registry-op
//! schedules and the intention oracle.
//!
//! Everything here is a pure function of `(seed, size)`. The program under
//! test receives only the generated [`Query`]s and [`Op`]s; nothing in this
//! module reads the program's outputs, so a stream and its op schedule can be
//! compared byte for byte across runs.

use std::collections::BTreeSet;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use sbqa_core::IntentionOracle;
use sbqa_types::{
    Capability, CapabilityRequirement, CapabilitySet, ConsumerId, Intention, ProviderId, Query,
    QueryId, SystemConfig, VirtualTime,
};

/// Capability classes in the world.
pub const CLASSES: u8 = 16;
/// Consumers in the world (ids `1..=CONSUMERS`).
pub const CONSUMERS: u64 = 64;
/// Queries per `submit_batch` / `enqueue_batch` call, on every workload.
pub const BATCH: usize = 64;
/// Distinct multi-class requirements of the churn workload: 4× the 64-entry
/// plan cache, so hits, evictions and cold merges all occur.
pub const REQUIREMENTS: usize = 256;
/// First provider id; provider `i` has id `PROVIDER_BASE + i`.
pub const PROVIDER_BASE: u64 = 1000;

/// The mediator configuration every workload runs with.
#[must_use]
pub fn system_config() -> SystemConfig {
    SystemConfig::default().with_knbest(20, 4)
}

/// One provider of the common world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderSpec {
    /// The provider's id.
    pub id: ProviderId,
    /// What it advertises.
    pub capabilities: CapabilitySet,
    /// Work units per virtual second.
    pub capacity: f64,
}

fn class(raw: usize) -> Capability {
    Capability::new((raw % CLASSES as usize) as u8)
}

/// Provider `i` of the common world: base class `i % 16`, plus `base + 1`
/// when `i % 3 == 0`, plus `base + 2` when `i % 5 == 0`; capacity `1 + i % 4`.
#[must_use]
pub fn provider(i: usize) -> ProviderSpec {
    let base = i % CLASSES as usize;
    let mut capabilities = CapabilitySet::singleton(class(base));
    if i.is_multiple_of(3) {
        capabilities.insert(class(base + 1));
    }
    if i.is_multiple_of(5) {
        capabilities.insert(class(base + 2));
    }
    ProviderSpec {
        id: ProviderId::new(PROVIDER_BASE + i as u64),
        capabilities,
        capacity: 1.0 + (i % 4) as f64,
    }
}

/// Provider `i` with every class shifted up by one: what a churn
/// re-registration swaps the provider's profile to (and back).
#[must_use]
pub fn shifted_provider(i: usize) -> ProviderSpec {
    let original = provider(i);
    let capabilities = CapabilitySet::from_capabilities(
        original
            .capabilities
            .iter()
            .map(|cap| class(cap.class() as usize + 1)),
    );
    ProviderSpec {
        capabilities,
        ..original
    }
}

/// The world's consumers.
pub fn consumers() -> impl Iterator<Item = ConsumerId> {
    (1..=CONSUMERS).map(ConsumerId::new)
}

fn rng(seed: u64, salt: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn single_query(id: u64, rng: &mut ChaCha8Rng, at: f64) -> Query {
    let consumer = ConsumerId::new(rng.gen_range(1..=CONSUMERS));
    let capability = Capability::new(rng.gen_range(0..CLASSES));
    Query::builder(QueryId::new(id), consumer, capability)
        .issued_at(VirtualTime::new(at))
        .build()
}

/// Single-capability queries, uniform over the 16 classes and the 64
/// consumers, ids `1..=count`, one issued every `dt` virtual seconds.
#[must_use]
pub fn single_stream(seed: u64, count: usize, dt: f64) -> Vec<Query> {
    let mut rng = rng(seed, 1);
    (0..count)
        .map(|i| single_query(i as u64 + 1, &mut rng, i as f64 * dt))
        .collect()
}

/// The churn workload's fixed multi-class requirements, in Zipf rank order.
///
/// In the common world a provider advertises `{b}`, `{b, b+1}`, `{b, b+2}`
/// or `{b, b+1, b+2}`, so exactly 48 conjunctive sets match anybody: those
/// 48 `All` requirements are all included and the remaining 208 are `Any`
/// over 2–4 classes. (An even All/Any split would make most `All` queries
/// starve, and the workloads are chosen so that no operation fails.) The
/// seeded shuffle mixes both kinds across the popularity ranks.
#[must_use]
pub fn requirement_table(seed: u64) -> Vec<CapabilityRequirement> {
    let mut rng = rng(seed, 2);
    let mut table = Vec::with_capacity(REQUIREMENTS);
    for base in 0..CLASSES as usize {
        for shape in [&[0usize, 1][..], &[0, 2], &[0, 1, 2]] {
            let set = CapabilitySet::from_capabilities(shape.iter().map(|&d| class(base + d)));
            table.push(CapabilityRequirement::All(set));
        }
    }
    let mut seen = BTreeSet::new();
    while table.len() < REQUIREMENTS {
        let width = rng.gen_range(2..=4usize);
        let mut set = CapabilitySet::singleton(class(rng.gen_range(0..CLASSES as usize)));
        while set.len() < width {
            set.insert(class(rng.gen_range(0..CLASSES as usize)));
        }
        if seen.insert(set.bits()) {
            table.push(CapabilityRequirement::Any(set));
        }
    }
    // Fisher–Yates with the seeded generator.
    for i in (1..table.len()).rev() {
        table.swap(i, rng.gen_range(0..=i));
    }
    table
}

/// 40 % single-class queries, 60 % multi-class drawn Zipf(1.0) from
/// [`requirement_table`].
#[must_use]
pub fn multicap_stream(seed: u64, count: usize, dt: f64) -> Vec<Query> {
    let table = requirement_table(seed);
    let mut cdf = Vec::with_capacity(table.len());
    let mut total = 0.0;
    for rank in 1..=table.len() {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    let mut rng = rng(seed, 3);
    (0..count)
        .map(|i| {
            let id = i as u64 + 1;
            let at = i as f64 * dt;
            if rng.gen::<f64>() < 0.4 {
                return single_query(id, &mut rng, at);
            }
            let consumer = ConsumerId::new(rng.gen_range(1..=CONSUMERS));
            let draw = rng.gen::<f64>() * total;
            let rank = cdf.partition_point(|&c| c <= draw).min(table.len() - 1);
            Query::requiring(QueryId::new(id), consumer, table[rank])
                .issued_at(VirtualTime::new(at))
                .build()
        })
        .collect()
}

/// Virtual length of the overload square wave's calm phase, seconds.
pub const OVERLOAD_CALM_S: f64 = 4.0;
/// Virtual length of the overload square wave's burst phase, seconds.
pub const OVERLOAD_BURST_S: f64 = 0.5;
/// Calm arrival rate: 0.5× the ladder's drain rate of 1 000/s.
pub const OVERLOAD_CALM_RATE: f64 = 500.0;
/// Burst arrival rate: 8× the drain rate.
pub const OVERLOAD_BURST_RATE: f64 = 8000.0;

/// Single-class queries whose *virtual* arrival rate is a square wave around
/// the ladder's drain rate: a burst at 8× for 0.5 s, then calm at 0.5× for
/// 4 s. Calibrated once (see the tests) so every tier takes ≥ 2 % of the
/// stream and 30–50 % of it is shed; the wall clock plays no part.
#[must_use]
pub fn overload_stream(seed: u64, count: usize) -> Vec<Query> {
    let mut rng = rng(seed, 4);
    let mut at = 0.0_f64;
    let period = OVERLOAD_BURST_S + OVERLOAD_CALM_S;
    (0..count)
        .map(|i| {
            let query = single_query(i as u64 + 1, &mut rng, at);
            let rate = if at % period < OVERLOAD_BURST_S {
                OVERLOAD_BURST_RATE
            } else {
                OVERLOAD_CALM_RATE
            };
            at += 1.0 / rate;
            query
        })
        .collect()
}

/// One registry write issued between query batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `update_provider_load`: must not invalidate cached plans.
    Load {
        /// Target provider.
        id: ProviderId,
        /// New utilization.
        utilization: f64,
        /// New queue length.
        queue_length: usize,
    },
    /// `set_provider_online`: invalidates the plans of the provider's classes.
    Online {
        /// Target provider.
        id: ProviderId,
        /// New state.
        online: bool,
    },
    /// `register_provider` on an existing id with a different profile (the
    /// registry's replace path: unindex + index, online and idle again). The
    /// service fronts expose no `unregister`, so this is the churn write that
    /// moves postings through their public surface.
    Reregister(ProviderSpec),
}

/// Which writes a schedule carries beside the 8 load updates per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Churn {
    /// Load updates only (`replicated_failover`).
    LoadOnly,
    /// Plus one online toggle every 4th batch and one re-registration every
    /// 16th (`sync_multicap_churn`).
    Full,
}

/// The writes that follow each batch of a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSchedule {
    ops: Vec<Op>,
    /// `ends[b]` is the end (exclusive) of batch `b`'s ops in `ops`.
    ends: Vec<u32>,
}

impl OpSchedule {
    /// Generates the schedule for `batches` batches over `providers` providers.
    #[must_use]
    pub fn generate(seed: u64, batches: usize, providers: usize, churn: Churn) -> Self {
        let mut rng = rng(seed, 5);
        let mut ops = Vec::with_capacity(batches * 9);
        let mut ends = Vec::with_capacity(batches);
        let mut offline: Option<ProviderId> = None;
        let mut shifted: BTreeSet<usize> = BTreeSet::new();
        for batch in 1..=batches {
            for _ in 0..8 {
                ops.push(Op::Load {
                    id: provider(rng.gen_range(0..providers)).id,
                    utilization: rng.gen::<f64>() * 4.0,
                    queue_length: rng.gen_range(0..8usize),
                });
            }
            if churn == Churn::Full && batch % 4 == 0 {
                // At most one provider is offline at a time, so no
                // requirement's candidate set can drain empty.
                ops.push(match offline.take() {
                    Some(id) => Op::Online { id, online: true },
                    None => {
                        let id = provider(rng.gen_range(0..providers)).id;
                        offline = Some(id);
                        Op::Online { id, online: false }
                    }
                });
            }
            if churn == Churn::Full && batch % 16 == 0 {
                let i = rng.gen_range(0..providers);
                ops.push(Op::Reregister(if shifted.remove(&i) {
                    provider(i)
                } else {
                    shifted.insert(i);
                    shifted_provider(i)
                }));
            }
            ends.push(u32::try_from(ops.len()).expect("op schedule fits in u32"));
        }
        Self { ops, ends }
    }

    /// The writes that follow batch `batch` (0-based).
    #[must_use]
    pub fn after_batch(&self, batch: usize) -> &[Op] {
        let start = if batch == 0 {
            0
        } else {
            self.ends[batch - 1] as usize
        };
        &self.ops[start..self.ends[batch] as usize]
    }

    /// Every op, in issue order.
    #[must_use]
    pub fn all(&self) -> &[Op] {
        &self.ops
    }
}

/// The harness-owned intention oracle: a pure hash of
/// `(seed, query id, provider id)` mapped into `[-1, 1]`. Thread-safe and
/// stateless; its cost is reported on its own as `oracle.intentions_ns`.
#[derive(Debug, Clone, Copy)]
pub struct HashOracle {
    seed: u64,
}

impl HashOracle {
    /// An oracle for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    fn value(self, salt: u64, query: QueryId, provider: ProviderId) -> Intention {
        let mut x = self
            .seed
            .wrapping_add(salt)
            .wrapping_add(query.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(provider.raw().wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        Intention::new(((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0)
    }
}

impl IntentionOracle for HashOracle {
    fn consumer_intention(&self, query: &Query, provider: ProviderId) -> Intention {
        self.value(0x00C0_FFEE, query.id, provider)
    }

    fn provider_intention(&self, provider: ProviderId, query: &Query) -> Intention {
        self.value(0x0BAD_CAFE, query.id, provider)
    }
}

/// FNV-1a digest of an outcome stream: query id, winners in decision order,
/// starved/shed flags — the same fold as `sbqa_sim::outcome_digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeDigest(u64);

impl Default for OutcomeDigest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl OutcomeDigest {
    fn fold(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds one query's outcome into the digest.
    pub fn push(&mut self, query: QueryId, selected: &[ProviderId], starved: bool, shed: bool) {
        self.fold(&query.raw().to_le_bytes());
        for provider in selected {
            self.fold(&provider.raw().to_le_bytes());
        }
        self.fold(&[u8::from(starved), u8::from(shed)]);
    }

    /// The digest so far.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::{Admission, DegradationConfig, DegradationLadder};

    #[test]
    fn same_seed_gives_identical_streams_and_schedules() {
        assert_eq!(single_stream(7, 500, 0.001), single_stream(7, 500, 0.001));
        assert_eq!(
            multicap_stream(7, 500, 0.001),
            multicap_stream(7, 500, 0.001)
        );
        assert_eq!(overload_stream(7, 500), overload_stream(7, 500));
        assert_eq!(
            OpSchedule::generate(7, 64, 2000, Churn::Full),
            OpSchedule::generate(7, 64, 2000, Churn::Full)
        );
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(single_stream(7, 500, 0.001), single_stream(8, 500, 0.001));
        assert_ne!(
            multicap_stream(7, 500, 0.001),
            multicap_stream(8, 500, 0.001)
        );
        assert_ne!(requirement_table(7), requirement_table(8));
        assert_ne!(
            OpSchedule::generate(7, 64, 2000, Churn::Full),
            OpSchedule::generate(8, 64, 2000, Churn::Full)
        );
    }

    #[test]
    fn requirements_are_distinct_and_every_one_matches_somebody() {
        let table = requirement_table(42);
        assert_eq!(table.len(), REQUIREMENTS);
        let keys: BTreeSet<(bool, u64)> = table
            .iter()
            .map(|r| (r.is_conjunctive(), r.classes().bits()))
            .collect();
        assert_eq!(keys.len(), REQUIREMENTS);
        for requirement in &table {
            assert!((2..=4).contains(&requirement.classes().len()));
            let matches = (0..240)
                .filter(|&i| requirement.matched_by(provider(i).capabilities))
                .count();
            assert!(matches > 0, "{requirement} matches nobody");
        }
    }

    #[test]
    fn churn_schedule_has_the_documented_mix() {
        let schedule = OpSchedule::generate(42, 64, 2000, Churn::Full);
        let count = |f: fn(&Op) -> bool| schedule.all().iter().filter(|op| f(op)).count();
        assert_eq!(count(|op| matches!(op, Op::Load { .. })), 64 * 8);
        assert_eq!(count(|op| matches!(op, Op::Online { .. })), 16);
        assert_eq!(count(|op| matches!(op, Op::Reregister(_))), 4);
        assert_eq!(schedule.after_batch(0).len(), 8);
        assert_eq!(schedule.after_batch(15).len(), 10);
        let loads_only = OpSchedule::generate(42, 64, 2000, Churn::LoadOnly);
        assert_eq!(loads_only.all().len(), 64 * 8);
    }

    #[test]
    fn overload_wave_reaches_every_tier_and_sheds_a_third_to_a_half() {
        let mut ladder = DegradationLadder::new(DegradationConfig::default()).unwrap();
        let stream = overload_stream(42, 60_000);
        for query in &stream {
            let _: Admission = ladder.observe_arrival(query.issued_at);
        }
        let stats = ladder.stats();
        let share = |n: u64| n as f64 / stream.len() as f64;
        for tier in [stats.normal, stats.shrink_kn, stats.baseline] {
            assert!(share(tier) >= 0.02, "{stats:?}");
        }
        assert!((0.30..=0.50).contains(&share(stats.shed)), "{stats:?}");
    }

    #[test]
    fn oracle_is_a_pure_function_in_range() {
        let oracle = HashOracle::new(42);
        let query = &single_stream(42, 1, 0.0)[0];
        let provider = provider(3).id;
        let value = oracle.consumer_intention(query, provider);
        assert_eq!(value, oracle.consumer_intention(query, provider));
        assert_ne!(value, oracle.provider_intention(provider, query));
        assert!((-1.0..=1.0).contains(&value.value()));
        assert_ne!(
            value,
            HashOracle::new(43).consumer_intention(query, provider)
        );
    }
}
