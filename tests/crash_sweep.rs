//! Crash at every point: a replicated front crashed at any batch boundary,
//! on any shard, must continue exactly as if it had never crashed.
//!
//! A small world (two shards, 24 providers, batches of 8 over 320 queries)
//! is driven inline through [`sbqa::sim::run`] once uninterrupted, then once
//! per crash point: every batch boundary × every shard, with the
//! degradation ladder off and on. The oracle is a pure hash, and three churn
//! mutations run before every batch: a load update and two online flips to
//! a hashed flag, so effective flips, no-op flips and load updates all meet
//! the shard's log. Every crashed run must equal the uncrashed one in every
//! outcome field and in every participant's final satisfaction, bit for bit.
//!
//! The sampled sweep runs with the tier-1 tests. The full sweep is ignored
//! there and run by `scripts/ci.sh` under `--release`:
//! `cargo test --release -p sbqa --test crash_sweep -- --include-ignored`.

use std::sync::Arc;

use sbqa::core::allocator::IntentionOracle;
use sbqa::core::intention::{ConsumerProfile, ProviderProfile};
use sbqa::core::{DegradationConfig, SystemConfig};
use sbqa::service::{OutcomeRecord, ShardedMediator};
use sbqa::sim::openloop::{Boundary, World};
use sbqa::sim::{
    generate_query_stream, mix, run, ConsumerSpec, HashIntentions, LoadStep, ProviderSpec,
    RunEvent, ServiceRun, Timeline, WorkloadModel,
};
use sbqa::types::{
    Capability, CapabilitySet, ConsumerId, ProviderId, Query, SbqaResult, VirtualTime,
};

const SEED: u64 = 42;
const SHARDS: usize = 2;
const BATCH: usize = 8;
const QUERIES: usize = 320;
/// Co-prime with nothing in particular: crash points land right after a
/// checkpoint, one batch after it and two batches after it.
const CHECKPOINT_EVERY: u64 = 3;

/// Every participant's final satisfaction, as `(shard, side, id, bits)`.
type Satisfactions = Vec<(usize, u8, u64, u64)>;

/// The pure-hash world, with three churn mutations before every batch and a
/// tally of what its online flips did. After every batch it keeps every
/// participant's satisfaction, so after the run it holds the final one.
struct Churn {
    oracle: HashIntentions,
    /// Online flips that changed nothing, and flips that toggled the flag.
    flips: [usize; 2],
    satisfactions: Satisfactions,
}

impl Churn {
    fn new() -> Self {
        Self {
            oracle: HashIntentions::new(SEED),
            flips: [0; 2],
            satisfactions: Vec::new(),
        }
    }
}

fn online(service: &ShardedMediator, id: ProviderId) -> Option<bool> {
    let shard = service.router().shard_of_provider(id);
    let snapshot = service.shard(shard).mediator().providers().get(id)?;
    Some(snapshot.online)
}

impl World for Churn {
    fn oracle(&self) -> &dyn IntentionOracle {
        &self.oracle
    }

    fn shared_oracle(&self) -> Option<Arc<dyn IntentionOracle + Send + Sync>> {
        Some(Arc::new(self.oracle))
    }

    fn before_batch(&mut self, service: &mut ShardedMediator, at: &Boundary<'_>) -> SbqaResult<()> {
        for step in 0..3u64 {
            let h = mix(SEED, 0x6372_6173_6800, at.index as u64, step);
            let id = at.providers[(h >> 32) as usize % at.providers.len()].id;
            if step == 0 {
                service.update_provider_load(
                    id,
                    ((h >> 8) & 0xFF) as f64 / 32.0,
                    (h >> 16) as usize & 7,
                )?;
            } else {
                let flag = h & 1 == 0;
                let toggles = online(service, id) != Some(flag);
                service.set_provider_online(id, flag)?;
                self.flips[usize::from(toggles)] += 1;
            }
        }
        Ok(())
    }

    fn after_batch(
        &mut self,
        service: &mut ShardedMediator,
        _at: &Boundary<'_>,
        _outcomes: &[OutcomeRecord],
    ) -> SbqaResult<()> {
        self.satisfactions.clear();
        for shard in 0..service.shard_count() {
            let registry = service.satisfaction(shard);
            let consumers = registry
                .consumer_satisfactions()
                .map(|(id, s)| (0, id.raw(), s));
            let providers = registry
                .provider_satisfactions()
                .map(|(id, s)| (1, id.raw(), s));
            self.satisfactions.extend(
                consumers
                    .chain(providers)
                    .map(|(side, id, s)| (shard, side, id, f64::from(s).to_bits())),
            );
        }
        Ok(())
    }
}

fn consumers() -> Vec<ConsumerSpec> {
    (0..4u64)
        .map(|c| {
            let class = Capability::new((c % 3) as u8);
            ConsumerSpec::new(
                ConsumerId::new(c),
                class,
                2.0,
                1.0,
                1,
                ConsumerProfile::default(),
            )
        })
        .collect()
}

fn providers() -> Vec<ProviderSpec> {
    (0..24u64)
        .map(|p| {
            let classes = [
                Capability::new((p % 3) as u8),
                Capability::new(((p + 1) % 3) as u8),
            ];
            ProviderSpec::new(
                ProviderId::new(100 + p),
                CapabilitySet::from_capabilities(classes),
                1.0 + (p % 2) as f64,
                ProviderProfile::default(),
            )
        })
        .collect()
}

/// The stream: a calm half, then a tenfold arrival step that a ladder meets
/// by degrading and shedding.
fn stream() -> Vec<Query> {
    let step = LoadStep {
        at_fraction: 0.5,
        rate_multiplier: 10.0,
    };
    generate_query_stream(
        &consumers(),
        &WorkloadModel::default(),
        QUERIES,
        SEED,
        Some(step),
    )
}

fn ladder() -> DegradationConfig {
    DegradationConfig {
        capacity: 8,
        drain_rate: 16.0,
    }
}

/// One inline run of the world, crashing `crash` = `(shard, at)` if given.
fn drive(
    stream: &[Query],
    ladder: Option<DegradationConfig>,
    crash: Option<(usize, VirtualTime)>,
) -> (Vec<OutcomeRecord>, Churn, usize) {
    let timeline = crash.map_or_else(Timeline::new, |(shard, at)| {
        Timeline::new().at(at, RunEvent::Crash { shard })
    });
    let plan = ServiceRun {
        shards: SHARDS,
        batch: BATCH,
        ladder,
        replicate: Some(CHECKPOINT_EVERY),
        timeline,
        ..ServiceRun::new(
            SystemConfig::default().with_knbest(6, 2).with_window(8),
            SEED,
        )
    };
    let mut world = Churn::new();
    let report = run(&plan, &providers(), &consumers(), stream, &mut world)
        .unwrap_or_else(|error| panic!("crash {crash:?}: {error}"));
    (report.report.outcomes, world, report.events_fired)
}

/// Crashes every shard at every `stride`-th batch boundary, ladder off and
/// on, and holds each crashed run to the uncrashed one. Returns the number
/// of crashed runs.
fn sweep(stride: usize) -> usize {
    let stream = stream();
    let mut crashed_runs = 0;
    for ladder in [None, Some(ladder())] {
        let (calm, calm_world, _) = drive(&stream, ladder, None);
        assert_eq!(calm.len(), QUERIES);
        assert!(
            calm.iter().any(|o| !o.starved && !o.shed),
            "something is mediated"
        );
        assert!(
            calm_world.flips.iter().all(|&flips| flips > 0),
            "both no-op and effective flips: {:?}",
            calm_world.flips
        );
        if ladder.is_some() {
            assert!(calm.iter().any(|o| o.shed), "the ladder sheds");
        }
        for boundary in (0..QUERIES / BATCH).step_by(stride) {
            for shard in 0..SHARDS {
                let at = stream[boundary * BATCH].issued_at;
                let point = format!(
                    "ladder {}, boundary {boundary}, shard {shard}",
                    ladder.is_some()
                );
                let (outcomes, world, fired) = drive(&stream, ladder, Some((shard, at)));
                assert_eq!(fired, 1, "{point}: the crash fired");
                assert_eq!(outcomes, calm, "{point}: outcomes");
                assert_eq!(
                    world.satisfactions, calm_world.satisfactions,
                    "{point}: satisfaction"
                );
                crashed_runs += 1;
            }
        }
    }
    crashed_runs
}

#[test]
fn a_crash_at_every_seventh_boundary_changes_nothing() {
    assert_eq!(sweep(7), 2 * SHARDS * (QUERIES / BATCH).div_ceil(7));
}

#[test]
#[ignore = "the full sweep: scripts/ci.sh runs it under --release"]
fn a_crash_at_every_boundary_of_every_shard_changes_nothing() {
    assert_eq!(sweep(1), 2 * SHARDS * QUERIES / BATCH);
}
