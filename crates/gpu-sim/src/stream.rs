//! CUDA-stream pipeline timing (paper §3.4, "Streams").
//!
//! Kernels launched on one stream serialize: every kernel's
//! bulk-synchronous tail (its slowest SM/task) blocks the next launch.
//! Kernels on different streams overlap: the device block scheduler
//! back-fills idle SMs with blocks from other streams' kernels, so the
//! pipeline behaves like one pooled bag of tasks whose only hard floors
//! are total throughput (compute and bandwidth) and the single longest
//! task.

use crate::counters::FaultCounters;
use crate::device::DeviceSpec;
use crate::fault::{time_kernel_resilient, FaultPlan, FaultSite, WatchdogPolicy};
use crate::kernel::{time_kernel, KernelSpec, WarpTask};
use crate::occupancy::occupancy;
use fastz_obs::{names, MetricsSink};

/// Timing of a multi-kernel pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PipelineTiming {
    /// End-to-end time in seconds.
    pub time_s: f64,
    /// Aggregate compute component.
    pub compute_s: f64,
    /// Aggregate DRAM component.
    pub memory_s: f64,
    /// Aggregate launch overhead.
    pub launch_s: f64,
    /// The single longest task's serial time.
    pub longest_task_s: f64,
}

impl PipelineTiming {
    /// Emits the timing components as `{phase="…"}`-labeled gauges.
    pub fn record_into<S: MetricsSink>(&self, sink: &mut S, phase: &str) {
        sink.gauge_set(
            &names::phase(names::PIPELINE_COMPUTE_SECONDS, phase),
            self.compute_s,
        );
        sink.gauge_set(
            &names::phase(names::PIPELINE_MEMORY_SECONDS, phase),
            self.memory_s,
        );
        sink.gauge_set(
            &names::phase(names::PIPELINE_LAUNCH_SECONDS, phase),
            self.launch_s,
        );
    }
}

/// Times `kernels` executed over `streams` CUDA streams.
pub fn time_stream_pipeline(
    device: &DeviceSpec,
    kernels: &[KernelSpec],
    streams: usize,
) -> PipelineTiming {
    time_stream_pipeline_capped(device, kernels, streams, None)
}

/// [`time_stream_pipeline`] with an optional cap on concurrently
/// resident warp tasks.
///
/// The cap models device-memory capacity limits: when each task must
/// hold a large per-problem allocation (e.g. the un-optimized
/// inspector's worst-case score matrices, paper §3: "allocating memory
/// for the worst case alignment lengths reduces parallelism"), fewer
/// tasks fit on the device than the SMs could schedule, and throughput
/// degrades proportionally.
pub fn time_stream_pipeline_capped(
    device: &DeviceSpec,
    kernels: &[KernelSpec],
    streams: usize,
    max_concurrent_tasks: Option<usize>,
) -> PipelineTiming {
    // Zero streams is a caller configuration bug, not a reason to bring
    // the whole run down: clamp to one stream (strict serialization).
    let streams = streams.max(1);
    if kernels.is_empty() {
        return PipelineTiming::default();
    }

    // Resource-resident warp slots vs the memory-capacity cap.
    let min_warps = kernels
        .iter()
        .map(|k| occupancy(device, &k.resources).warps_per_sm)
        .min()
        .unwrap()
        .max(1);
    let resident_slots = min_warps * device.sm_count;
    let utilization = match max_concurrent_tasks {
        Some(cap) => (cap.max(1) as f64 / resident_slots as f64).min(1.0),
        None => 1.0,
    };

    if streams == 1 {
        // Strict serialization: sum of bulk-synchronous kernel times,
        // each degraded by the capacity utilization.
        let mut total = PipelineTiming::default();
        for k in kernels {
            let t = time_kernel(device, k);
            let compute = t.compute_s / utilization;
            let time = compute.max(t.memory_s).max(t.longest_task_s) + t.launch_s;
            total.time_s += time;
            total.compute_s += compute;
            total.memory_s += t.memory_s;
            total.launch_s += t.launch_s;
            total.longest_task_s = total.longest_task_s.max(t.longest_task_s);
        }
        return total;
    }

    // Multi-stream: pool every task (the scheduler back-fills across
    // kernel boundaries). Use the most restrictive resource footprint
    // among the kernels for the occupancy check.
    let clock_hz = device.clock_ghz * 1e9;
    let issue = device.warp_issue_per_sm().min(min_warps as f64) * utilization;

    let all_tasks: Vec<&WarpTask> = kernels.iter().flat_map(|k| k.tasks.iter()).collect();
    let total_cycles: f64 = all_tasks.iter().map(|t| t.cycles).sum();
    let total_bytes: f64 = all_tasks.iter().map(|t| t.dram_bytes).sum();
    let longest_cycles = all_tasks.iter().map(|t| t.cycles).fold(0.0, f64::max);

    let device_issue = issue * device.sm_count as f64;
    let compute_s = (total_cycles / device_issue).max(longest_cycles) / clock_hz;
    let memory_s = total_bytes / (device.dram_bw_gbps * 1e9);
    // Launches on distinct streams overlap; each stream still serializes
    // its own launches.
    let per_stream_kernels = kernels.len().div_ceil(streams);
    let launch_s = per_stream_kernels as f64 * device.launch_overhead_s;

    PipelineTiming {
        time_s: compute_s.max(memory_s) + launch_s,
        compute_s,
        memory_s,
        launch_s,
        longest_task_s: longest_cycles / clock_hz,
    }
}

/// Timing of a pipeline run under a fault plan.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResilientPipelineTiming {
    /// Fault-free timing of the successful work.
    pub base: PipelineTiming,
    /// Modeled time added by fault handling.
    pub overhead_s: f64,
    /// Backoff component of the overhead.
    pub backoff_s: f64,
    /// Faults injected across all kernels.
    pub faults: FaultCounters,
    /// Kernel relaunches forced by hangs.
    pub retries: u64,
}

impl ResilientPipelineTiming {
    /// End-to-end time including fault overhead.
    pub fn time_s(&self) -> f64 {
        self.base.time_s + self.overhead_s
    }
}

/// [`time_stream_pipeline_capped`] under a [`FaultPlan`]: each kernel is
/// probed for hangs (watchdog deadline + exponential backoff per
/// relaunch), stream stalls, and shared-memory pressure at the site
/// `(device 0, scope, kernel_index)`; the recovery cost is summed into
/// `overhead_s` on top of the fault-free pipeline time. Deadlines derive
/// from each kernel's expected time, which scales with its bin size.
pub fn time_stream_pipeline_resilient(
    device: &DeviceSpec,
    kernels: &[KernelSpec],
    streams: usize,
    max_concurrent_tasks: Option<usize>,
    plan: &FaultPlan,
    scope: u32,
    watchdog: &WatchdogPolicy,
) -> ResilientPipelineTiming {
    let base = time_stream_pipeline_capped(device, kernels, streams, max_concurrent_tasks);
    let mut out = ResilientPipelineTiming {
        base,
        ..ResilientPipelineTiming::default()
    };
    if plan.is_none() {
        return out;
    }
    for (idx, spec) in kernels.iter().enumerate() {
        let site = FaultSite::new(0, scope, idx as u64);
        let t = time_kernel_resilient(device, spec, plan, site, watchdog);
        out.overhead_s += t.overhead_s;
        out.backoff_s += t.backoff_s;
        out.faults.merge(&t.faults);
        out.retries += t.retries;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRates;
    use crate::occupancy::BlockResources;

    fn dev() -> DeviceSpec {
        DeviceSpec::rtx3080_ampere()
    }

    fn kernel(n_tasks: usize, cycles: f64) -> KernelSpec {
        KernelSpec::new(
            "k",
            vec![
                WarpTask {
                    cycles,
                    dram_bytes: 0.0
                };
                n_tasks
            ],
            BlockResources::fastz_inspector(),
        )
    }

    #[test]
    fn empty_pipeline_is_free() {
        assert_eq!(
            time_stream_pipeline(&dev(), &[], 32),
            PipelineTiming::default()
        );
    }

    #[test]
    fn multi_stream_beats_single_stream_with_skewed_kernels() {
        // 16 kernels, each with one long task and many short ones: with a
        // single stream each kernel's long tail serializes; with 32
        // streams the tails overlap. The paper measures 1.7-2.4×.
        let mut kernels = Vec::new();
        for _ in 0..16 {
            let mut k = kernel(2_000, 2_000.0);
            k.tasks.push(WarpTask {
                cycles: 3e6,
                dram_bytes: 0.0,
            });
            kernels.push(k);
        }
        let single = time_stream_pipeline(&dev(), &kernels, 1);
        let multi = time_stream_pipeline(&dev(), &kernels, 32);
        let gain = single.time_s / multi.time_s;
        assert!(gain > 1.3, "stream gain only {gain:.2}");
    }

    #[test]
    fn single_stream_time_is_sum_of_kernels() {
        let kernels = vec![kernel(100, 1_000.0), kernel(100, 1_000.0)];
        let both = time_stream_pipeline(&dev(), &kernels, 1);
        let one = time_stream_pipeline(&dev(), &kernels[..1], 1);
        assert!((both.time_s - 2.0 * one.time_s).abs() < 1e-9);
    }

    #[test]
    fn pooled_time_floors_at_longest_task() {
        let mut k = kernel(10, 100.0);
        k.tasks.push(WarpTask {
            cycles: 1e9,
            dram_bytes: 0.0,
        });
        let t = time_stream_pipeline(&dev(), &[k], 8);
        let clock_hz = dev().clock_ghz * 1e9;
        assert!(t.compute_s >= 1e9 / clock_hz);
        assert!((t.longest_task_s - 1e9 / clock_hz).abs() < 1e-12);
    }

    #[test]
    fn zero_streams_clamps_to_serial_instead_of_panicking() {
        let kernels = vec![kernel(100, 1_000.0), kernel(100, 1_000.0)];
        let zero = time_stream_pipeline(&dev(), &kernels, 0);
        let one = time_stream_pipeline(&dev(), &kernels, 1);
        assert_eq!(zero, one);
    }

    #[test]
    fn resilient_pipeline_charges_faults_on_top_of_base() {
        let kernels: Vec<KernelSpec> = (0..32).map(|_| kernel(500, 2_000.0)).collect();
        let watchdog = WatchdogPolicy::default();
        let plan = FaultPlan::from_seed(11);
        let free = time_stream_pipeline_resilient(
            &dev(),
            &kernels,
            32,
            None,
            &FaultPlan::none(),
            0,
            &watchdog,
        );
        assert_eq!(free.overhead_s, 0.0);
        assert_eq!(free.faults.total(), 0);
        let faulty =
            time_stream_pipeline_resilient(&dev(), &kernels, 32, None, &plan, 0, &watchdog);
        assert_eq!(
            faulty.base.time_s, free.base.time_s,
            "base timing unchanged"
        );
        assert!(
            faulty.faults.total() > 0,
            "drill rates over 32 kernels should fire"
        );
        assert!(faulty.overhead_s > 0.0);
        assert!((faulty.time_s() - (faulty.base.time_s + faulty.overhead_s)).abs() < 1e-15);
        // Deterministic across calls.
        let again = time_stream_pipeline_resilient(&dev(), &kernels, 32, None, &plan, 0, &watchdog);
        assert_eq!(again.faults, faulty.faults);
        assert_eq!(again.overhead_s, faulty.overhead_s);
        // Hang rate 1.0: every kernel retries max_consecutive times.
        let all_hang = plan.with_rates(FaultRates {
            hang: 1.0,
            ..FaultRates::NONE
        });
        let hung =
            time_stream_pipeline_resilient(&dev(), &kernels, 32, None, &all_hang, 0, &watchdog);
        assert_eq!(hung.retries, 2 * kernels.len() as u64);
        assert_eq!(hung.faults.hangs, hung.retries);
    }

    #[test]
    fn launch_overhead_amortizes_across_streams() {
        let kernels: Vec<KernelSpec> = (0..64).map(|_| kernel(1, 10.0)).collect();
        let s1 = time_stream_pipeline(&dev(), &kernels, 1);
        let s32 = time_stream_pipeline(&dev(), &kernels, 32);
        assert!(s32.launch_s < s1.launch_s / 10.0);
    }
}
