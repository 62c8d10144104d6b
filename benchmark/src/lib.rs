//! # fastz-benchmark
//!
//! The repository's benchmark: four workloads driven through the same
//! public entry points the `fastz` CLI uses, an untraced run that
//! reports the end-to-end metrics, and a traced run that reports one
//! set of metrics per layer. See `BENCHMARK.md` beside this crate.

#![warn(missing_docs)]

pub mod args;
pub mod check;
pub(crate) mod heap;
pub mod measure;
pub(crate) mod probe;
pub mod report;
pub mod run;
pub(crate) mod stats;
pub mod trace;
pub mod workload;
