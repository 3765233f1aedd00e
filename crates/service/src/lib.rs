//! # sbqa-service
//!
//! The sharded mediation service: the paper's single logical mediator,
//! scaled across cores without touching allocation semantics.
//!
//! The [`Mediator`](sbqa_core::Mediator) of `sbqa_core` mediates one query
//! at a time over the whole provider population. This crate partitions that
//! population across `N` **shards** — each a full mediator (capability
//! -indexed registry + satisfaction registry + allocation technique) over
//! its slice — behind a thin deterministic [`ShardRouter`]:
//!
//! * a [`MediatorShard`] is one mediator plus everything the service keeps
//!   about it — tallies, latency samples, an optional degradation ladder
//!   (shrink-kn → capacity baseline → deterministic shedding) and an
//!   optional standby behind the shard's one log — and owns the one
//!   per-query step ([`MediatorShard::submit`]: kept-fault check → ladder
//!   verdict → append to the log → mediate → tally), the one batch step
//!   that takes it in two phases over a group of queries, and the one batch
//!   boundary;
//! * [`ShardedMediator`] is the one front-end: it owns the router and the
//!   shards, routes registrations and load updates, arms ladders, adaptive
//!   `kn` and standbys on every shard, resizes live and crashes shards
//!   ([`crash_shard`](ShardedMediator::crash_shard) promotes a standby in
//!   place with a byte-identical decision stream);
//! * two drivers bring queries to the shards. **Inline**,
//!   [`ShardedMediator::submit_batch`] processes a batch in merged
//!   `(VirtualTime, QueryId)` order on the caller's thread. **Threaded**,
//!   [`MediationService`] gives every shard a bounded ingest ring
//!   ([`BoundedRing`]) and a mediation thread; producers enqueue query
//!   batches, each entering a shard's ring as one chunk that the shard
//!   mediates as one batch, and block only when a ring has no room for a
//!   chunk; a query waits behind at most one ring-length. `finish()` merges the
//!   per-shard outcome streams and [`ShardReport`]s into one
//!   [`ServiceReport`].
//!
//! ## What composes
//!
//! | | inline | threaded |
//! |---|---|---|
//! | plain | yes | yes |
//! | degradation ladder | yes | yes |
//! | replicated | yes | yes |
//! | replicated + ladder | yes | yes |
//! | adaptive `kn` | yes | yes |
//! | adaptive `kn` + replicated | refused | refused |
//!
//! A checkpoint does not carry the `kn` controller, so arming both on one
//! shard is an [`InvalidConfiguration`](sbqa_types::SbqaError) in either
//! order rather than a divergence after the first promotion.
//!
//! ## What a crash takes
//!
//! A shard's `mediator` field: provider registry, satisfaction registry,
//! allocator RNG and plan-cache counters. The promoted mediator is the
//! standby's replay of exactly that. Everything else on the shard — ladder
//! state, cumulative tallies, latency samples (which therefore span
//! promotions, like the tallies), the checkpoint cadence — was never part of
//! what crashes and stays.
//!
//! ## Replication faults
//!
//! A sequence gap is met when the standby reads the log; a log record that
//! does not apply is met where it is applied, at a replaying checkpoint cut
//! or a promotion. Either is kept on the shard, surfaces in one place (the
//! shard's sync, at the next query routed there) and is never folded into a
//! query's outcome. The inline driver aborts the batch with it
//! ([`ShardedMediator::try_submit_batch`]); a threaded shard stops taking
//! queries, keeps draining its ring, and hands the fault back on the shard
//! and in its [`ShardReport`]. A faulted standby is never cut or promoted
//! again: [`ShardedMediator::crash_shard`] calls the crash off and re-arms
//! the shard around its intact mediator.
//!
//! [`ReplicatedMediator`] is not a third front-end: it is a
//! [`ShardedMediator`] replicated from construction, with the two
//! signatures that surface a pending fault as `Err`.
//!
//! ## Determinism contract
//!
//! With **one shard** the service is byte-identical to the plain mediator:
//! routing degenerates to the identity, shard 0's allocator consumes the
//! exact RNG stream the plain `Mediator::sbqa` of that seed would, and an arrival
//! -ordered batch is processed in the same order. With **`N` shards** the
//! merged outcome stream is byte-stable across runs for a fixed seed and
//! producer order: routing is a pure seeded hash, per-shard processing
//! order is queue order, and the merge sorts by `(VirtualTime, QueryId)` —
//! nothing observable depends on thread interleaving. The integration tests
//! of this crate pin both properties.
//!
//! What sharding *does* change at `N > 1` — by design — is the candidate
//! set: a query sees only its shard's slice of the population, so `kn`
//! draws come from `|Pq|/N` candidates and satisfaction is tracked per
//! shard. That is the standard scale-out trade-off: each shard remains a
//! faithful SbQA mediator over its slice.

#![forbid(unsafe_code)]

pub mod failover;
pub mod ingest;
pub mod report;
pub mod ring;
pub mod router;
pub mod shard;
pub mod sharded;

pub use failover::ReplicatedMediator;
pub use ingest::{IngestConfig, MediationService};
pub use report::{OutcomeRecord, Selected, ServiceReport, ShardReport};
pub use ring::BoundedRing;
pub use router::ShardRouter;
pub use shard::MediatorShard;
pub use sharded::ShardedMediator;
