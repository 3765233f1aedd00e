//! # sbqa-sim
//!
//! A discrete-event simulator for distributed query allocation — the
//! substitute for the SimJava network simulation used by the paper's
//! prototype.
//!
//! The simulated world contains:
//!
//! * **consumers** that issue queries following a Poisson process, each with
//!   an intention profile (which providers they like, or whether they only
//!   care about response time),
//! * **providers** with heterogeneous capacity, a FIFO work queue and an
//!   intention profile (which consumers they like, or whether they only care
//!   about their own load),
//! * a **mediator** hosting any [`QueryAllocator`](sbqa_core::QueryAllocator)
//!   (SbQA or a baseline) plus the satisfaction registry, as the one shard
//!   of a [`ShardedMediator`](sbqa_service::ShardedMediator),
//! * a simple **network model** adding latency between all parties,
//! * a **departure model** ([`DeparturePolicy`]) that distinguishes captive
//!   environments (nobody can leave) from autonomous ones (participants
//!   leave when their satisfaction drops below a threshold, as in Scenarios
//!   2 and 4): a leaving provider goes offline, a leaving consumer stops
//!   issuing.
//!
//! Everything is driven by a virtual clock and a binary-heap event queue;
//! runs are fully deterministic for a given seed.
//!
//! That closed loop ([`Simulation`] on the [`EventQueue`]) measures the
//! *system* around the mediation service at one shard. The crate's second —
//! and only other — loop is the open one: [`openloop::run`] drives a
//! pre-generated arrival stream ([`generate_query_stream`]) through the
//! service a [`ServiceRun`] declares (shards, driver, ladder, standbys,
//! adaptive `kn`, a [`Timeline`] of crashes and resizes) inside a [`World`]
//! ([`HashWorld`], [`LoadFeedback`]), consulting the seeded [`oracle`]s.
//! Both loops apply the one departure rule of [`DeparturePolicy`].

#![forbid(unsafe_code)]

pub mod config;
pub mod consumer;
pub mod event;
pub mod network;
pub mod openloop;
pub mod oracle;
pub mod provider;
pub mod report;
pub mod rng;
pub mod runner;
pub mod workload;

pub use config::{DeparturePolicy, NetworkConfig, SimulationConfig};
pub use consumer::{ConsumerSpec, ConsumerState};
pub use event::{Event, EventQueue, ScheduledEvent};
pub use network::NetworkModel;
pub use openloop::{
    admitted_satisfaction, outcome_digest, run, shed_digest, timed_outcome_digest, Boundary,
    HashWorld, LoadFeedback, Promotion, RunEvent, ServiceRun, ServiceRunReport, Timeline, World,
};
pub use oracle::{mix, AdaptiveOracle, HashIntentions};
pub use provider::{ProviderSpec, ProviderState};
pub use report::{ParticipantCounts, SimulationReport};
pub use rng::SimRng;
pub use runner::{Simulation, SimulationBuilder};
pub use workload::{generate_query_stream, LoadStep, WorkloadModel};
