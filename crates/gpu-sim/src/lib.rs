//! # fastz-gpu-sim
//!
//! A software GPU execution simulator — the documented substitution for
//! the paper's CUDA hardware (see `DESIGN.md`). Two layers:
//!
//! * **Functional**: warp/lane lockstep primitives (shuffles, ballots,
//!   votes) and a capacity-checked shared-memory scratchpad. FastZ's
//!   kernels execute on these and produce real alignments, verified
//!   against the scalar reference engines.
//! * **Accounting + timing**: work counters recorded during execution,
//!   an occupancy calculator, a per-kernel block-scheduling/roofline
//!   timing engine, a CUDA-stream pipeline model, and an analytic CPU
//!   model for the sequential/multicore LASTZ baselines.

#![warn(missing_docs)]

pub mod counters;
pub mod device;
pub mod fault;
pub mod isa;
pub mod kernel;
pub mod lanes32;
pub mod model;
pub mod occupancy;
pub mod roofline;
pub mod sanitize;
pub mod shared;
pub mod stream;
pub mod timeline;
pub mod warp;

pub use counters::{FaultCounters, KernelCounters, WarpCounters};
pub use device::{CpuSpec, DeviceSpec};
pub use fault::{
    time_kernel_resilient, FaultKind, FaultPlan, FaultRates, FaultSite, ResilientKernelTiming,
    WatchdogPolicy,
};
pub use isa::{instructions_per_step, step_mix, InstrClass, MixEntry};
pub use kernel::{time_kernel, KernelSpec, KernelTiming, WarpTask};
pub use model::CpuModel;
pub use occupancy::{occupancy, BlockResources, Occupancy, OccupancyLimit};
pub use roofline::{analyze, Bound, RooflineReport};
pub use sanitize::{Finding, FindingKind, NoSanitize, SanitizeReport, Sanitizer, ShadowSanitizer};
pub use shared::SharedMem;
pub use stream::{
    time_stream_pipeline, time_stream_pipeline_capped, time_stream_pipeline_resilient,
    PipelineTiming, ResilientPipelineTiming,
};
pub use timeline::{PhaseEntry, PhaseTimeline};
pub use warp::{
    ballot, branch_paths, lane_max, shfl_down, shfl_up, splat, warp_all, warp_any,
    warp_max_with_lane, Lanes, WARP_SIZE,
};
