//! # fastz-core
//!
//! The paper's primary contribution: FastZ's inspector-executor gapped
//! seed-extension pipeline on the GPU simulator — lightweight inspector,
//! eager traceback, executor trimming, cyclic use-and-discard register
//! buffers, length-binned load balancing, and CUDA-stream scheduling —
//! plus the Feng-et-al GPU baseline and the Figure 9 ablation switches.

#![warn(missing_docs)]

pub mod ablation;
pub mod binning;
pub mod bitvec;
pub mod cost;
pub mod gpu_baseline;
mod lanes;
mod lanes16;
pub mod pipeline;
pub mod pool;
pub mod resilient;
pub mod view;
pub mod warp_engine;
pub mod wavefront_step;

pub use ablation::OptFlags;
pub use binning::{
    bin_allocation, classify, BinClass, BinCounts, BinPacker, LaunchDemux, MergedLaunch,
    TaggedTask, BIN_BOUNDS, BIN_SLOTS, EAGER_BOUND,
};
pub use bitvec::{
    bitvec_extend, bitvec_extend_in, bitvec_extend_view, BitvecConfig, BitvecExtension,
    BitvecMutation, BitvecStats, ExtendBackend,
};
pub use gpu_baseline::{baseline_problem_time, baseline_total_time};
pub use pipeline::{
    run_fastz, run_fastz_in_pool, run_fastz_observed, sim_threads, FastZConfig, FastZReport,
    FastZStats,
};
pub use pool::{Arena, HostDispatch, HostPool, PoolStats};
pub use resilient::{
    combine_fingerprint, workload_fingerprint, Checkpoint, ResilienceConfig, ResilienceReport,
};
pub use view::BaseView;
pub use warp_engine::{
    strip_widths, warp_extend, warp_extend_in, warp_extend_traced, warp_extend_traced_on,
    warp_extend_view, SimdIsa, StripWidths, WarpConfig, WarpExtension, WavefrontBackend,
};
pub use wavefront_step::{
    step_interpreter, step_simd, step_simd_narrow_on, step_simd_on, StepIn, StepOut,
};
