//! # sbqa-core
//!
//! The query-allocation process of SbQA (Section III of the paper) and the
//! abstractions every allocation technique in this workspace plugs into.
//!
//! Given an incoming query `q` and the set `Pq` of providers able to perform
//! it, the SbQA mediator:
//!
//! 1. applies the **KnBest** strategy ([`knbest`]): select `k` providers at
//!    random from `Pq`, keep the `kn` least-utilized of them (the set `Kn`);
//! 2. asks the consumer for its intention towards each provider in `Kn` and
//!    each provider in `Kn` for its intention towards `q` (the
//!    [`IntentionOracle`] abstraction);
//! 3. scores every provider in `Kn` with the **SQLB** balance of intentions
//!    ([`scoring`], Definition 3), using a balancing parameter ω that is
//!    either fixed by the application or derived from the consumer's and
//!    provider's satisfaction (Equation 2);
//! 4. ranks the providers ([`ranking`]) and allocates `q` to the
//!    `min(q.n, kn)` best-scored ones;
//! 5. sends the mediation result to the consumer and to *all* providers in
//!    `Kn`, so that satisfaction reflects proposals as well as allocations
//!    ([`mediator`]).
//!
//! The exploration width `kn` can additionally **self-tune** at runtime: the
//! [`adaptive`] module's [`KnController`] picks it per capability class from
//! the observed consumer/provider satisfaction gap, and the mediator applies
//! it to each query's draw, which is the paper's self-adaptation claim
//! applied to KnBest itself.
//!
//! Baseline techniques (capacity-based, economic, …) implement the same
//! [`QueryAllocator`] trait in the `sbqa-baselines` crate, which is what lets
//! the scenario harnesses compare them under identical conditions.

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod allocator;
pub mod degrade;
pub mod delta;
pub mod intention;
pub mod knbest;
pub mod mediator;
pub mod postings;
pub mod ranking;
pub mod registry;
pub mod scoring;

pub use adaptive::{KnAdjustment, KnController, KnControllerConfig};
pub use allocator::{
    AllocationDecision, CandidateBlock, Candidates, Drawn, IntentionOracle, ProposalRecord,
    ProviderColumns, ProviderSnapshot, QueryAllocator, StaticIntentions,
};
pub use degrade::{
    Admission, BaselineFallback, DegradationConfig, DegradationLadder, DegradationStats,
    DegradationTier,
};
pub use delta::RegistryDelta;
pub use intention::{
    ConsumerIntentionStrategy, ConsumerProfile, ProviderIntentionStrategy, ProviderProfile,
};
pub use knbest::{IndexPool, KnBestScratch, KnBestSelector, KnSelection};
pub use mediator::{BatchReport, MediationOutcome, Mediator, SELECT_GROUP};
pub use postings::PostingsMap;
pub use registry::{PlanCacheStats, ProviderRegistry};
pub use sbqa_types::{OmegaPolicy, SystemConfig};
pub use scoring::{provider_score, resolve_omega};

/// The SbQA allocator itself, implementing [`QueryAllocator`] with KnBest
/// pre-selection and SQLB scoring. Re-exported from [`mediator`].
pub use mediator::SbqaAllocator;
