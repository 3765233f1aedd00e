//! # sbqa-satisfaction
//!
//! The long-run satisfaction model of SbQA (Section II of the paper, in turn
//! taken from the SQLB framework, VLDB 2007).
//!
//! Participants — consumers and providers — are autonomous: they have private
//! interests in queries and may leave a system that keeps ignoring those
//! interests. The satisfaction model turns the history of a participant's
//! *expressed intentions* over its last `k` interactions into a single number
//! in `[0, 1]`:
//!
//! * **consumer satisfaction** ([`ConsumerSatisfaction`]): for each of the
//!   last `k` queries, how much the consumer wanted the providers that
//!   actually performed it (Definition 1);
//! * **provider satisfaction** ([`ProviderSatisfaction`]): over the last `k`
//!   queries *proposed* to the provider, how much it wanted the ones it
//!   actually got to perform (Definition 2);
//!
//! The mediator keeps its own mirror of everybody's satisfaction in a
//! [`SatisfactionRegistry`], which is what the ω computation of Equation 2
//! reads. The [`gap`] module distils the registry's two sides into a cheap
//! windowed **satisfaction-gap signal** ([`GapSample`] / [`GapWindow`]) that
//! self-adapting components — the adaptive-`kn` controller in `sbqa_core` —
//! consume on the hot path without extra registry scans.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod consumer;
pub mod gap;
pub mod provider;
pub mod registry;
mod rows;
pub mod window;

pub use analysis::{SatisfactionAnalysis, SatisfactionSnapshot, SideSummary};
pub use consumer::{ConsumerInteraction, ConsumerSatisfaction};
pub use gap::{GapSample, GapWindow};
pub use provider::{ProviderInteraction, ProviderSatisfaction};
pub use registry::{RowHint, SatisfactionRegistry};
pub use rows::ProviderView;
pub use window::InteractionWindow;
