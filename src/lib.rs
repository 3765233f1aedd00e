//! # sbqa — Satisfaction-based Query Allocation
//!
//! An open-source reproduction of *"SbQA: A Self-Adaptable Query Allocation
//! Process"* (Quiané-Ruiz, Lamarre, Valduriez — ICDE 2009): a query-allocation
//! framework for distributed information systems in which autonomous
//! consumers and providers have private interests in queries, may become
//! dissatisfied, and may leave — taking their capacity with them.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`types`] — identifiers, the `[-1, 1]` intention and `[0, 1]`
//!   satisfaction domains, queries, capabilities, configuration;
//! * [`satisfaction`] — the long-run satisfaction model (Definitions 1 and 2),
//!   the registry the mediator reads ω from, and the satisfaction-gap signal;
//! * [`core`] — the SbQA allocation process: KnBest pre-selection, SQLB
//!   scoring (Definition 3) with the self-adapting ω of Equation 2, the
//!   mediator, and the [`core::QueryAllocator`] trait every technique
//!   implements;
//! * [`baselines`] — the Capacity-based and Economic (Mariposa-style)
//!   baselines of the paper, plus a Random sanity baseline;
//! * [`service`] — the sharded mediation service: provider-disjoint mediator
//!   shards behind a deterministic router, driven inline or through
//!   per-shard bounded rings and threads, with per-shard tail-latency
//!   instrumentation, degradation ladders and promotable standbys;
//! * [`sim`] — the discrete-event simulator standing in for SimJava, plus
//!   the open-loop driver of the mediation service ([`sim::openloop`]);
//! * [`boinc`] — the BOINC-shaped volunteer-computing workload and the seven
//!   demonstration scenarios;
//! * [`metrics`] — the measurement toolkit shared by every experiment.
//!
//! ## Quick start
//!
//! ```
//! use sbqa::core::{Mediator, StaticIntentions};
//! use sbqa::types::{
//!     Capability, CapabilitySet, ConsumerId, Intention, ProviderId, Query, QueryId, SystemConfig,
//! };
//!
//! // A mediator running the SbQA allocation process.
//! let mut mediator = Mediator::sbqa(SystemConfig::default(), 42).unwrap();
//!
//! // Three providers able to answer capability-0 queries.
//! for p in 0..3u64 {
//!     mediator.register_provider(
//!         ProviderId::new(p),
//!         CapabilitySet::singleton(Capability::new(0)),
//!         1.0,
//!     );
//! }
//! mediator.register_consumer(ConsumerId::new(1));
//!
//! // The consumer prefers provider 2; provider 2 likes the consumer's queries.
//! let mut intentions = StaticIntentions::new()
//!     .with_defaults(Intention::new(0.1), Intention::new(0.1));
//! intentions.set_consumer_intention(ProviderId::new(2), Intention::new(0.9));
//! intentions.set_provider_intention(ProviderId::new(2), Intention::new(0.8));
//!
//! let query = Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(0)).build();
//! let outcome = mediator.submit(&query, &intentions).unwrap();
//! assert_eq!(outcome.selected()[0], ProviderId::new(2));
//! ```

#![forbid(unsafe_code)]

pub use sbqa_baselines as baselines;
pub use sbqa_boinc as boinc;
pub use sbqa_core as core;
pub use sbqa_metrics as metrics;
pub use sbqa_satisfaction as satisfaction;
pub use sbqa_service as service;
pub use sbqa_sim as sim;
pub use sbqa_types as types;

/// The crate version, kept in sync with the workspace.
// sbqa-lint: allow(dead-pub, "the crate version for downstream users, pinned by version_is_exported")
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exported() {
        assert!(!super::VERSION.is_empty());
    }
}
