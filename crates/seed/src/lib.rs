//! # fastz-seed
//!
//! Stages 1-2 of the whole-genome-alignment pipeline: exact-match seeding
//! with contiguous or spaced seed shapes (LASTZ's 12-of-19 by default), a
//! bucketed seed index, anchor enumeration, and per-diagonal-band
//! filtering plus deterministic subsampling to a seed budget.

#![warn(missing_docs)]

pub mod anchor;
pub mod index;
pub mod persist;
pub mod shape;
pub mod workload;

pub use anchor::{
    band_filter, find_anchors, sample_anchors, Anchor, AnchorSource, BAND_WIDTH, BAND_WINDOW,
};
pub use index::{
    build_peak_bytes, check_target_len, legacy_build_peak_bytes, IndexBuildError, SeedIndex,
    MAX_TARGET_LEN,
};
pub use persist::{IndexOrigin, PersistError, ShardedSeedIndex, INDEX_FORMAT_VERSION};
pub use shape::SeedShape;
pub use workload::{Workload, WorkloadParams};
