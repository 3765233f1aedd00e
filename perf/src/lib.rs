//! `sbqa_perf`: the repository's benchmark.
//!
//! A standalone harness that drives the three service front-ends of
//! `sbqa_service` through their public API only, reads eight end-to-end
//! metrics on four workloads, checks that the outputs are correct, and — in
//! a separate traced mode — times the calls into each layer's public
//! functions from outside. See `perf/README.md` for the workloads, the
//! metrics and how to read the output.

pub mod alloc_count;
pub mod gen;
pub mod probes;
pub mod result;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
