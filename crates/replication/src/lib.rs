//! # sbqa-replication
//!
//! Crash-tolerance for the mediator: an append-only, monotonically-sequenced
//! log of everything a shard did, a standby that reproduces a live shard by
//! checkpoint + replay of that log, and the handoff package that moves
//! providers between shards without re-registering the world.
//!
//! ## Why replay can promise byte-identity
//!
//! Every decision the SbQA mediator makes is a pure function of its state:
//! the provider registry (candidates enumerate in ascending provider id by
//! construction), the satisfaction registry (ω per pair) and the allocator's
//! RNG position. All three are reproducible:
//!
//! * registry state replays from the [log](log::DeltaLog) — a registry
//!   emits one record per effective mutation (every `register`, an
//!   `unregister` or `update_load` of a known provider, a `set_online` that
//!   toggles the flag) and none for a no-op, so a replica that applies the
//!   stream performs exactly the primary's mutations;
//! * the allocator forks ([`sbqa_core::QueryAllocator::fork`]) with its RNG
//!   stream position intact;
//! * satisfaction and RNG state *between* checkpoint and crash depend on the
//!   queries mediated in that window — a starved query consumes no RNG, a
//!   mediated one consumes draws proportional to `k` — so the shard appends
//!   every offered query, with its admission verdict, and every consumer
//!   registration to the same log, and a
//!   [promotion](standby::StandbyShard::promote) replays it in order: the
//!   exact order the primary met them.
//!
//! After promotion the standby's mediator is in the primary's precise
//! pre-crash state, and the decision stream continues byte-identically (the
//! service crate's failover tests and `scenario_failover` pin this on seed
//! 42).
//!
//! ## Sequence invariants
//!
//! Log sequences start at 1 and increase by exactly 1 per appended record.
//! A standby stands at the watermark of its checkpoint, and every read of
//! the log checks that the records past it follow on without a gap: a log
//! that ends before the watermark, is pruned past it, skips a sequence or
//! lost a query's body is reported as a `replication gap`, never silently
//! skipped. One checkpoint + the contiguous log past it is therefore
//! sufficient *and necessary* to reconstruct the primary.

pub mod handoff;
pub mod log;
pub mod standby;

pub use handoff::HandoffPackage;
pub use log::{DeltaLog, Entry, SharedDeltaLog};
pub use standby::{ReplayReport, StandbyShard};

use sbqa_core::{Mediator, RegistryDelta};
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_types::SbqaResult;

/// Counters describing one shard's replication machinery, surfaced through
/// the service's `ShardReport` tables next to the cache and latency rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicationStats {
    /// Records in the shard's log past the standby's checkpoint: what a
    /// promotion replays.
    pub log_depth: usize,
    /// Highest sequence ever appended to the log.
    pub last_appended: u64,
    /// `last_appended` minus the checkpoint's watermark: how far the
    /// checkpoint trails the log.
    pub replay_lag: u64,
    /// Checkpoints installed into the standby over its lifetime.
    pub checkpoints: u64,
    /// Promotions this shard slot has survived.
    pub promotions: u64,
}

impl ReplicationStats {
    /// Folds another shard's counters into a service-wide aggregate: depths
    /// sum, the sequence high-water mark and lag take the maximum (the
    /// service-level lag is its worst shard's lag).
    pub fn merge(&mut self, other: &ReplicationStats) {
        self.log_depth += other.log_depth;
        self.last_appended = self.last_appended.max(other.last_appended);
        self.replay_lag = self.replay_lag.max(other.replay_lag);
        self.checkpoints += other.checkpoints;
        self.promotions += other.promotions;
    }
}

/// Replays one registry delta through the mediator-level mutators, so the
/// side effects beyond the registry match the primary's ingest path:
/// `Register` also (idempotently) registers the provider's satisfaction
/// tracker, exactly as [`Mediator::register_provider`] does live; the other
/// three touch the registry alone.
///
/// # Errors
///
/// Propagates the registry's [`sbqa_types::SbqaError::UnknownProvider`] when
/// the delta addresses a provider the mediator does not know — the
/// out-of-sync signal of a corrupt or misrouted stream.
pub fn apply_delta(mediator: &mut Mediator, delta: &RegistryDelta) -> SbqaResult<()> {
    match *delta {
        RegistryDelta::Register {
            id,
            capabilities,
            capacity,
        } => {
            mediator.register_provider(id, capabilities, capacity);
            Ok(())
        }
        RegistryDelta::Unregister { id } => {
            if mediator.unregister_provider(id) {
                Ok(())
            } else {
                Err(sbqa_types::SbqaError::UnknownProvider { provider: id })
            }
        }
        RegistryDelta::SetOnline { id, online } => mediator.set_provider_online(id, online),
        RegistryDelta::UpdateLoad {
            id,
            utilization,
            queue_length,
        } => mediator.update_provider_load(id, utilization, queue_length),
    }
}

/// Order-sensitive digest of a registry's replicated state: the slab rows in
/// slot order plus the online tally, folded through FNV-1a over the exact
/// `Debug` rendering (which round-trips `f64` values). Two registries with
/// equal digests agree on membership, slab layout, load columns and online
/// flags — the byte-identity a standby's snapshot + replay is held to
/// ([`StandbyShard::replay_digest`]).
#[must_use]
pub fn registry_digest(registry: &sbqa_core::ProviderRegistry) -> u64 {
    let mut hash = FNV_OFFSET;
    for snapshot in registry.iter() {
        fold(&mut hash, &format!("{snapshot:?};"));
    }
    fold(&mut hash, &format!("online={}", registry.online_count()));
    hash
}

/// Order-stable digest of a satisfaction registry's whole state: every
/// consumer tracker, then every provider tracker, in ascending id order,
/// folded through FNV-1a over the exact `Debug` rendering (window length,
/// every remembered interaction with its `f64` intentions, lifetime count)
/// of the tracker — a provider's materialised from its row
/// ([`sbqa_satisfaction::ProviderView::to_tracker`]), so the digest sees
/// what the registry remembers and nothing of how it stores it.
/// Two registries with equal digests answer every satisfaction and ω query
/// alike now and after any common sequence of further mediations — what an
/// incrementally cut checkpoint is held to against its primary.
#[must_use]
pub fn satisfaction_digest(registry: &SatisfactionRegistry) -> u64 {
    let mut hash = FNV_OFFSET;
    fold_trackers(
        &mut hash,
        registry.consumer_satisfactions().map(|(id, _)| id),
        |id| registry.consumer(id),
    );
    fold_trackers(
        &mut hash,
        registry.provider_satisfactions().map(|(id, _)| id),
        |id| registry.provider(id).map(|view| view.to_tracker()),
    );
    hash
}

/// Folds `id=tracker;` for every id, ascending.
fn fold_trackers<I: Ord + Copy + std::fmt::Debug, T: std::fmt::Debug>(
    hash: &mut u64,
    ids: impl Iterator<Item = I>,
    tracker: impl Fn(I) -> T,
) {
    let mut ids: Vec<I> = ids.collect();
    ids.sort_unstable();
    for id in ids {
        fold(hash, &format!("{id:?}={:?};", tracker(id)));
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(hash: &mut u64, text: &str) {
    for &byte in text.as_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}
