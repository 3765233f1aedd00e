//! # sbqa-types
//!
//! Core vocabulary for the SbQA (Satisfaction-based Query Allocation)
//! reproduction. Every other crate in the workspace builds on these types:
//!
//! * identifiers for participants and queries ([`ConsumerId`], [`ProviderId`],
//!   [`QueryId`]),
//! * the bounded numeric domains of the paper ([`Intention`] in `[-1, 1]`,
//!   [`Satisfaction`] in `[0, 1]`),
//! * the [`Query`] structure carried through mediation,
//! * capability classes used to determine which providers can perform a query,
//! * virtual-time primitives used by the simulator,
//! * the keyless id → row [`IdDirectory`] behind every dense, id-addressed
//!   registry,
//! * shared error and configuration types.
//!
//! The crate is deliberately free of allocation-policy logic: it only encodes
//! the *domains* the paper defines, including their invariants (clamping,
//! ordering, serialisation).

#![forbid(unsafe_code)]

pub mod capability;
pub mod config;
pub mod directory;
pub mod error;
pub mod float_ord;
pub mod id;
pub mod intention;
pub mod provider;
pub mod query;
pub mod satisfaction_value;
pub mod time;

pub use capability::{Capability, CapabilityRequirement, CapabilitySet, MAX_CAPABILITY_CLASSES};
pub use config::{AllocationPolicyKind, OmegaPolicy, SystemConfig};
pub use directory::IdDirectory;
pub use error::{SbqaError, SbqaResult};
pub use float_ord::f64_total_cmp;
pub use id::{ConsumerId, IdGenerator, ProviderId, QueryId};
pub use intention::Intention;
pub use provider::{ProviderColumns, ProviderSnapshot};
pub use query::{Query, QueryBuilder, QueryClass, QueryOutcome};
pub use satisfaction_value::Satisfaction;
pub use time::{Duration, VirtualTime};
