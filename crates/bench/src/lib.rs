//! # fastz-bench
//!
//! Shared harness code for the binaries that regenerate every table and
//! figure of the FastZ paper (`table1`, `table2`, `fig2`, `fig7`, `fig8`,
//! `fig9`, `fig11`, `roofline`) plus the Criterion micro-benchmarks.

#![warn(missing_docs)]

pub mod checksum;
pub mod eval;
pub mod opts;
pub mod table;

pub use checksum::{alignment_checksum, fnv1a};
pub use eval::{evaluate_pair, PairEval, PairWorkload};
pub use opts::{args_or_exit, flag_number, HarnessOpts};
pub use table::Table;
