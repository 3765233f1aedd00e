//! Fault-injection runner: crash mediator shards at virtual times, promote
//! their standbys, and prove the outcome stream does not care.
//!
//! [`run_replicated_service`] drives the same deterministic open-loop
//! streams as [`crate::sharded`] through a replicated
//! [`ShardedMediator`] — every shard paired with a delta-log-fed standby
//! — while a [`FaultPlan`] schedules shard crashes at virtual times.
//! Between batches the runner applies a deterministic registry churn (load
//! updates and online flips, a pure hash of `(seed, batch index)`), so the
//! replication stream carries real mutations, not just the bootstrap
//! registrations.
//!
//! The headline property, pinned by the golden failover test and the
//! `scenario_failover` harness: for a fixed `(seed, stream)`, the merged
//! `(VirtualTime, QueryId)`-ordered outcome stream of a run with crashes is
//! **byte-identical** to the uninterrupted run. Crashing a shard destroys
//! its registry, satisfaction state and allocator RNG; promotion rebuilds
//! all three from the standby's checkpoint + delta tail + query journal.

use std::time::Instant;

use sbqa_core::SystemConfig;
use sbqa_service::failover::{ReplayReport, ReplicationStats};
use sbqa_service::{OutcomeRecord, ShardReport, ShardedMediator};
use sbqa_types::{Query, SbqaResult, VirtualTime};

use crate::consumer::ConsumerSpec;
use crate::provider::ProviderSpec;
use crate::sharded::HashIntentions;

/// Crashes scheduled against a replicated run: each entry kills one shard's
/// primary at the batch boundary where virtual time first reaches `at`.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    crashes: Vec<(VirtualTime, usize)>,
}

impl FaultPlan {
    /// An empty plan (the uninterrupted baseline).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a crash of `shard` at virtual time `at` (fires at the
    /// first batch whose earliest query was issued at or after `at`; shard
    /// indices wrap into the service's shard count).
    #[must_use]
    pub fn crash_at(mut self, at: VirtualTime, shard: usize) -> Self {
        self.crashes.push((at, shard));
        self.crashes.sort_by_key(|&(at, shard)| (at, shard));
        self
    }

    /// The scheduled crashes, ordered by time.
    #[must_use]
    pub fn crashes(&self) -> &[(VirtualTime, usize)] {
        &self.crashes
    }

    /// `true` if nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }
}

/// Configuration of a replicated (failover) service run.
#[derive(Debug, Clone)]
pub struct FailoverRunConfig {
    /// Number of replicated shards.
    pub shards: usize,
    /// Queries per submitted batch.
    pub batch: usize,
    /// Seed for routing, per-shard allocators, oracle and churn.
    pub seed: u64,
    /// The SbQA configuration every shard runs.
    pub system: SystemConfig,
    /// Batches between automatic standby checkpoints (0 = never).
    pub checkpoint_interval: u64,
    /// Registry mutations injected between batches (load updates and
    /// online flips, deterministically derived from `(seed, batch)`).
    pub churn_per_batch: usize,
}

/// Results of one replicated run.
#[derive(Debug, Clone)]
pub struct FailoverRunReport {
    /// Every query's outcome in merged `(VirtualTime, QueryId)` order.
    pub outcomes: Vec<OutcomeRecord>,
    /// Per-shard tallies, latency and replication counters.
    pub shards: Vec<ShardReport>,
    /// One `(shard, replay tallies)` entry per crash fired.
    pub replays: Vec<(usize, ReplayReport)>,
    /// Crashes that actually fired (a plan entry past the stream's end
    /// never fires).
    pub crashes_fired: usize,
    /// Wall-clock span of the whole drain.
    pub wall: std::time::Duration,
}

impl FailoverRunReport {
    /// Queries mediated successfully.
    #[must_use]
    pub fn mediated(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.starved).count()
    }

    /// Queries that starved.
    #[must_use]
    pub fn starved(&self) -> usize {
        self.outcomes.len() - self.mediated()
    }

    /// Fleet-wide replication counters (every shard of a replicated run
    /// carries them).
    #[must_use]
    pub fn replication_stats(&self) -> Option<ReplicationStats> {
        let mut merged: Option<ReplicationStats> = None;
        for shard in &self.shards {
            if let Some(stats) = &shard.replication {
                merged
                    .get_or_insert_with(ReplicationStats::default)
                    .merge(stats);
            }
        }
        merged
    }

    /// FNV-1a digest of the whole outcome stream — two runs are
    /// byte-identical iff their digests (and lengths) agree, which is what
    /// the golden failover gate pins.
    #[must_use]
    pub fn outcome_digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for outcome in &self.outcomes {
            for byte in outcome.query.raw().to_le_bytes() {
                eat(byte);
            }
            for byte in outcome.issued_at.seconds().to_bits().to_le_bytes() {
                eat(byte);
            }
            eat(u8::from(outcome.starved));
            for provider in &outcome.selected {
                for byte in provider.raw().to_le_bytes() {
                    eat(byte);
                }
            }
            eat(0xFF);
        }
        hash
    }
}

/// One deterministic churn hash step (SplitMix64 finalizer).
fn churn_hash(seed: u64, batch: u64, step: u64) -> u64 {
    let mut x = seed
        .wrapping_add(0x6368_7572_6E21_0000)
        .wrapping_add(batch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(step.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Applies the batch's deterministic registry churn: a pure function of
/// `(seed, batch index)`, so a crashed run and an uninterrupted run mutate
/// their registries identically.
fn apply_churn(
    service: &mut ShardedMediator,
    providers: &[ProviderSpec],
    config: &FailoverRunConfig,
    batch: u64,
) -> SbqaResult<()> {
    if providers.is_empty() {
        return Ok(());
    }
    for step in 0..config.churn_per_batch {
        let h = churn_hash(config.seed, batch, step as u64);
        let spec = &providers[(h as usize) % providers.len()];
        if h & 0b100 == 0 {
            let utilization = ((h >> 8) & 0xFF) as f64 / 32.0;
            let queue_length = ((h >> 16) & 0x7) as usize;
            service.update_provider_load(spec.id, utilization, queue_length)?;
        } else {
            service.set_provider_online(spec.id, h & 1 == 0)?;
        }
    }
    Ok(())
}

/// Registers the population, arms replication on every shard, then drains
/// the stream in `batch`-sized chunks — firing the plan's crashes at their
/// virtual times and injecting deterministic registry churn between batches.
///
/// # Errors
///
/// Configuration/arming errors, churn routing errors, or replication
/// replay errors during a promotion.
pub fn run_replicated_service(
    config: &FailoverRunConfig,
    providers: &[ProviderSpec],
    consumers: &[ConsumerSpec],
    stream: &[Query],
    plan: &FaultPlan,
) -> SbqaResult<FailoverRunReport> {
    let mut service = ShardedMediator::sbqa(config.system.clone(), config.seed, config.shards)?;
    service.replicate()?;
    service.set_checkpoint_interval(config.checkpoint_interval);
    for spec in providers {
        service.register_provider(spec.id, spec.capabilities, spec.capacity);
    }
    for spec in consumers {
        service.register_consumer(spec.id);
    }
    let oracle = HashIntentions::new(config.seed);
    let router = *service.router();

    let mut pending = plan.crashes().to_vec();
    pending.sort_by_key(|&(at, shard)| (at, shard));
    let mut fired = 0usize;
    let mut replays = Vec::new();
    let mut outcomes = Vec::with_capacity(stream.len());

    // sbqa-lint: allow(wall-clock, "throughput measurement printed to the report only; allocation is driven by VirtualTime")
    let started = Instant::now();
    for (batch_index, chunk) in stream.chunks(config.batch.max(1)).enumerate() {
        if let Some(first) = chunk.first() {
            while fired < pending.len() && pending[fired].0 <= first.issued_at {
                let shard = pending[fired].1 % service.shard_count();
                let replay = service.crash_shard(shard, &oracle)?;
                replays.push((shard, replay));
                fired += 1;
            }
        }
        apply_churn(&mut service, providers, config, batch_index as u64)?;
        service.try_submit_batch(chunk, &oracle, |_, query, result| {
            let (selected, starved) = match result {
                Ok(decision) => (decision.selected.clone(), false),
                Err(_) => (Vec::new(), true),
            };
            outcomes.push(OutcomeRecord {
                shard: router.shard_of_query(query.id),
                query: query.id,
                consumer: query.consumer,
                issued_at: query.issued_at,
                selected,
                starved,
                shed: false,
            });
        })?;
    }
    let wall = started.elapsed();

    // The stream arrives sorted by (issued_at, id) and batches preserve
    // that order, so `outcomes` is already in merged order.
    Ok(FailoverRunReport {
        outcomes,
        shards: service.shard_reports(),
        replays,
        crashes_fired: fired,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::generate_query_stream;
    use crate::workload::WorkloadModel;
    use sbqa_core::intention::{ConsumerProfile, ProviderProfile};
    use sbqa_types::{Capability, CapabilitySet, ConsumerId, ProviderId};

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

    fn providers(n: u64) -> Vec<ProviderSpec> {
        (0..n)
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

    fn config(shards: usize) -> FailoverRunConfig {
        FailoverRunConfig {
            shards,
            batch: 25,
            seed: 42,
            system: SystemConfig::default().with_knbest(10, 3),
            checkpoint_interval: 3,
            churn_per_batch: 4,
        }
    }

    #[test]
    fn crashed_run_is_byte_identical_to_uninterrupted() {
        let providers = providers(30);
        let consumers = consumers(3);
        let stream = generate_query_stream(&consumers, &WorkloadModel::default(), 300, 42);
        let config = config(2);

        let calm =
            run_replicated_service(&config, &providers, &consumers, &stream, &FaultPlan::new())
                .unwrap();
        let midpoint = stream[stream.len() / 2].issued_at;
        let plan = FaultPlan::new().crash_at(midpoint, 0).crash_at(midpoint, 1);
        let stormy =
            run_replicated_service(&config, &providers, &consumers, &stream, &plan).unwrap();

        assert_eq!(stormy.crashes_fired, 2);
        assert_eq!(stormy.replays.len(), 2);
        assert_eq!(calm.outcomes, stormy.outcomes);
        assert_eq!(calm.outcome_digest(), stormy.outcome_digest());
        // Promotions show up in the replication counters.
        let stats = stormy.replication_stats().unwrap();
        assert_eq!(stats.promotions, 2);
        assert_eq!(calm.replication_stats().unwrap().promotions, 0);
    }

    #[test]
    fn crashes_past_the_stream_never_fire() {
        let providers = providers(12);
        let consumers = consumers(2);
        let stream = generate_query_stream(&consumers, &WorkloadModel::default(), 60, 7);
        let far_future = stream.last().unwrap().issued_at + sbqa_types::Duration::new(1_000.0);
        let plan = FaultPlan::new().crash_at(far_future, 0);
        let report =
            run_replicated_service(&config(2), &providers, &consumers, &stream, &plan).unwrap();
        assert_eq!(report.crashes_fired, 0);
        assert!(report.replays.is_empty());
        assert_eq!(report.outcomes.len(), 60);
    }
}
