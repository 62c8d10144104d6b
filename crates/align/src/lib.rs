//! # fastz-align
//!
//! Scalar alignment engines for the FastZ reproduction: the exact y-drop
//! Gotoh extension LASTZ uses (plus the parallel-safe conservative pruning
//! variant FastZ relies on), ungapped x-drop filtering, a banded
//! Smith-Waterman baseline (Darwin-WGA's heuristic), and two-sided seed
//! extension with one splice around the seed body.
//!
//! The paper's CPU baselines are the four drivers in [`driver`]:
//! gapped, ungapped-filtered, banded and multicore LASTZ. They run one
//! per-seed loop over static anchor partitions and differ only in the
//! extension they hand it.

#![warn(missing_docs)]

pub mod alignment;
pub mod banded;
pub mod driver;
pub mod extend;
pub mod format;
pub mod score;
pub mod stats;
pub mod trace;
pub mod ungapped;
pub mod ydrop;

pub use alignment::{push_op, Alignment, EditOp};
pub use banded::banded_extend;
pub use driver::{
    dedupe_alignments, multicore_gapped, sequential_banded, sequential_gapped,
    sequential_ungapped_filtered, DriverConfig, DriverReport, DriverStats, ExtensionRecord,
};
pub use extend::{gapped_extend, ExtendConfig, ExtendScratch, GappedExtension};
pub use format::{gapped_rows, write_general, write_maf};
pub use stats::{summarize, AlignmentSummary};
pub use trace::{CellScores, CellSink, DenseTrace, NoTrace};
pub use ungapped::{xdrop_extend, Hsp};
pub use ydrop::{
    walk_traceback_with, ydrop_extend, ydrop_extend_traced, ExtensionStats, OneSidedExtension,
    PruneMode,
};
