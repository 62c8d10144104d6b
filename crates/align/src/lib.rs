//! # fastz-align
//!
//! Scalar alignment engines for the FastZ reproduction: the exact y-drop
//! Gotoh extension LASTZ uses (plus the parallel-safe conservative pruning
//! variant FastZ relies on), ungapped x-drop filtering, a banded
//! Smith-Waterman baseline (Darwin-WGA's heuristic), two-sided seed
//! extension, and the sequential and multicore LASTZ drivers that serve as
//! the paper's CPU baselines.

#![warn(missing_docs)]

pub mod alignment;
pub mod banded;
pub mod driver;
pub mod extend;
pub mod format;
pub mod multicore;
pub mod score;
pub mod stats;
pub mod trace;
pub mod ungapped;
pub mod ydrop;

pub use alignment::{push_op, Alignment, EditOp};
pub use banded::banded_extend;
pub use driver::{
    dedupe_alignments, sequential_banded, sequential_gapped, sequential_ungapped_filtered,
    DriverConfig, DriverReport, DriverStats, ExtensionRecord,
};
pub use extend::{gapped_extend, ExtendConfig, GappedExtension};
pub use format::{gapped_rows, write_general, write_maf};
pub use multicore::multicore_gapped;
pub use stats::{summarize, AlignmentSummary};
pub use trace::{CellScores, CellSink, DenseTrace, NoTrace};
pub use ungapped::{xdrop_extend, Hsp};
pub use ydrop::{
    walk_traceback_with, ydrop_extend, ydrop_extend_traced, ExtensionStats, OneSidedExtension,
    PruneMode,
};
