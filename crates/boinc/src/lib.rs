//! # sbqa-boinc
//!
//! The BOINC-shaped volunteer-computing workload used by the paper's
//! demonstration, and the seven evaluation scenarios built on top of it.
//!
//! The demo models three research projects as consumers:
//!
//! * a **popular** one (SETI@home): "the majority of providers want to
//!   collaborate in this project",
//! * a **normal** one (proteins@home): "a great number, but not most, of
//!   providers want to collaborate",
//! * an **unpopular** one (Einstein@home): "most providers desire to
//!   collaborate […] with a small fraction of computational resources",
//!
//! and a population of volunteers (providers) that donate heterogeneous
//! computational resources and hold preferences over the projects. Queries
//! are independent work units, optionally replicated for result validation
//! because volunteers may be malicious.
//!
//! [`scenarios`] packages the seven demo scenarios as runnable experiment
//! presets; the `sbqa-bench` binaries and the examples are thin wrappers
//! around them.

#![forbid(unsafe_code)]

pub mod interactive;
pub mod population;
pub mod project;
pub mod replication;
pub mod scenarios;
pub mod volunteer;

pub use interactive::InteractiveParticipant;
pub use population::{BoincPopulation, PopulationConfig};
pub use project::{Project, ProjectKind};
pub use replication::ReplicationPolicy;
pub use scenarios::{Scenario, ScenarioId, ScenarioOutcome, TechniqueResult};
pub use volunteer::{VolunteerConfig, VolunteerGenerator};
