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
pub mod layout;
pub mod multi_gpu;
pub mod pipeline;
pub mod pool;
pub mod resilient;
pub mod warp_engine;
pub mod wavefront_step;

pub use ablation::OptFlags;
pub use binning::{
    bin_allocation, classify, BinClass, BinCounts, BinPacker, LaunchDemux, MergedLaunch,
    TaggedTask, BIN_BOUNDS, BIN_SLOTS, EAGER_BOUND,
};
pub use bitvec::{
    bitvec_extend, bitvec_extend_in, prefilter_anchors, BitvecConfig, BitvecExtension,
    BitvecMutation, BitvecStats, ExtendBackend, PrefilterConfig,
};
pub use gpu_baseline::{baseline_problem_time, baseline_total_time};
pub use multi_gpu::{
    device_speed, partition_anchors, partition_anchors_sharded, rebalance_shards,
    run_fastz_multi_gpu, run_fastz_multi_gpu_resilient, straggler_index, MultiGpuReport, Partition,
    ShardSchedule, SHARD_MOVE_COST_S,
};
pub use pipeline::{
    run_fastz, run_fastz_in_pool, run_fastz_observed, run_fastz_resilient, FastZConfig,
    FastZReport, FastZStats,
};
pub use pool::{Arena, HostDispatch, HostPool, PoolStats};
pub use resilient::{
    combine_fingerprint, workload_fingerprint, Checkpoint, ResilienceConfig, ResilienceReport,
};
pub use warp_engine::{
    warp_extend, warp_extend_in, warp_extend_traced, warp_extend_traced_in, SimdIsa, WarpConfig,
    WarpExtension, WavefrontBackend,
};
pub use wavefront_step::{step_interpreter, step_simd, StepIn, StepOut};
