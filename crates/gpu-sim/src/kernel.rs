//! Kernel timing: block scheduling, per-SM issue throughput, and the
//! device-wide bandwidth ceiling.
//!
//! A kernel is a bag of warp tasks (FastZ: one seed-extension side per
//! warp). The timing engine list-schedules tasks onto SMs in submission
//! order (modeling the hardware block scheduler's work-conserving FIFO),
//! clocks each SM at its warp-issue rate, floors every SM at its longest
//! single task (a warp cannot run faster than one instruction per cycle),
//! and finally takes the maximum of compute and DRAM time (roofline).
//! The kernel completes only when the slowest SM finishes — the
//! bulk-synchronous barrier whose load-imbalance consequences motivate
//! FastZ's length binning (paper §3.3).

use crate::device::DeviceSpec;
use crate::occupancy::{occupancy, BlockResources};

/// One warp's worth of work, in device-neutral units.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarpTask {
    /// Warp-cycles of issue work (already divergence-derated).
    pub cycles: f64,
    /// DRAM bytes moved (reads + writes that miss on-chip storage).
    pub dram_bytes: f64,
}

/// A kernel: named bag of warp tasks plus its per-block resources.
#[derive(Clone, Debug)]
pub struct KernelSpec {
    /// Display name (phase attribution).
    pub name: String,
    /// Warp tasks in submission order.
    pub tasks: Vec<WarpTask>,
    /// Per-block resource demands (occupancy input).
    pub resources: BlockResources,
}

impl KernelSpec {
    /// Creates a kernel from tasks with the given resources.
    pub fn new(name: impl Into<String>, tasks: Vec<WarpTask>, resources: BlockResources) -> Self {
        KernelSpec {
            name: name.into(),
            tasks,
            resources,
        }
    }

    /// Total warp-cycles over all tasks.
    pub fn total_cycles(&self) -> f64 {
        self.tasks.iter().map(|t| t.cycles).sum()
    }

    /// Total DRAM bytes over all tasks.
    pub fn total_dram_bytes(&self) -> f64 {
        self.tasks.iter().map(|t| t.dram_bytes).sum()
    }

    /// The longest single task's cycles.
    pub fn longest_task_cycles(&self) -> f64 {
        self.tasks.iter().map(|t| t.cycles).fold(0.0, f64::max)
    }
}

/// Timing breakdown of one kernel execution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelTiming {
    /// Compute time of the slowest SM in seconds.
    pub compute_s: f64,
    /// Device DRAM time in seconds.
    pub memory_s: f64,
    /// Launch overhead in seconds.
    pub launch_s: f64,
    /// End-to-end kernel time (max(compute, memory) + launch).
    pub time_s: f64,
    /// The single longest warp task's serial time in seconds.
    pub longest_task_s: f64,
    /// Load-imbalance factor: slowest-SM compute ÷ mean-SM compute
    /// (1.0 = perfectly balanced).
    pub imbalance: f64,
}

/// Per-SM load accumulator used by the list scheduler.
#[derive(Clone, Copy, Default)]
struct SmLoad {
    cycles: f64,
    longest: f64,
}

/// Times one kernel on `device`.
pub fn time_kernel(device: &DeviceSpec, spec: &KernelSpec) -> KernelTiming {
    let occ = occupancy(device, &spec.resources);
    assert!(
        occ.warps_per_sm > 0,
        "kernel {} cannot be scheduled: zero occupancy",
        spec.name
    );
    let clock_hz = device.clock_ghz * 1e9;
    if spec.tasks.is_empty() {
        return KernelTiming {
            launch_s: device.launch_overhead_s,
            time_s: device.launch_overhead_s,
            imbalance: 1.0,
            ..KernelTiming::default()
        };
    }

    // List-schedule tasks to the least-loaded SM in submission order.
    // `total_cmp` keeps the least-loaded selection total even if a NaN
    // task cost poisons an SM's accumulator (`partial_cmp().unwrap()`
    // used to panic mid-schedule on the first comparison against it).
    let mut sms = vec![SmLoad::default(); device.sm_count];
    for task in &spec.tasks {
        let (idx, _) = sms
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cycles.total_cmp(&b.1.cycles))
            .unwrap();
        sms[idx].cycles += task.cycles;
        sms[idx].longest = sms[idx].longest.max(task.cycles);
    }

    // An SM drains its queue at `warp_issue_per_sm` warp-instructions per
    // cycle (given enough resident warps to hide latency) but can never
    // finish before its longest single warp: a warp issues at most one
    // instruction per cycle.
    let issue = device.warp_issue_per_sm().min(occ.warps_per_sm as f64);
    let sm_time = |sm: &SmLoad| (sm.cycles / issue).max(sm.longest) / clock_hz;
    let compute_s = sms.iter().map(sm_time).fold(0.0, f64::max);
    let mean_s = sms.iter().map(sm_time).sum::<f64>() / device.sm_count as f64;

    let memory_s = spec.total_dram_bytes() / (device.dram_bw_gbps * 1e9);
    let longest_task_s = spec.longest_task_cycles() / clock_hz;
    let launch_s = device.launch_overhead_s;

    KernelTiming {
        compute_s,
        memory_s,
        launch_s,
        time_s: compute_s.max(memory_s) + launch_s,
        longest_task_s,
        imbalance: if mean_s > 0.0 {
            compute_s / mean_s
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::rtx3080_ampere()
    }

    fn res() -> BlockResources {
        BlockResources::fastz_inspector()
    }

    fn uniform(n: usize, cycles: f64, bytes: f64) -> Vec<WarpTask> {
        vec![
            WarpTask {
                cycles,
                dram_bytes: bytes
            };
            n
        ]
    }

    #[test]
    fn empty_kernel_costs_only_launch() {
        let t = time_kernel(&dev(), &KernelSpec::new("k", vec![], res()));
        assert_eq!(t.time_s, dev().launch_overhead_s);
        assert_eq!(t.compute_s, 0.0);
    }

    #[test]
    fn uniform_tasks_balance_perfectly() {
        let tasks = uniform(68 * 64, 10_000.0, 0.0);
        let t = time_kernel(&dev(), &KernelSpec::new("k", tasks, res()));
        assert!(
            (t.imbalance - 1.0).abs() < 0.05,
            "imbalance {}",
            t.imbalance
        );
        assert!(t.compute_s > 0.0);
        assert_eq!(t.memory_s, 0.0);
    }

    #[test]
    fn one_giant_task_dominates_kernel_time() {
        // The unbinned-executor pathology: one 8K×8K task among thousands
        // of tiny ones holds the whole (bulk-synchronous) kernel hostage.
        let mut tasks = uniform(10_000, 1_000.0, 0.0);
        tasks.push(WarpTask {
            cycles: 5e8,
            dram_bytes: 0.0,
        });
        let t = time_kernel(&dev(), &KernelSpec::new("k", tasks, res()));
        assert!(t.compute_s >= t.longest_task_s);
        assert!(
            t.longest_task_s / t.compute_s > 0.95,
            "giant task should dominate: {} vs {}",
            t.longest_task_s,
            t.compute_s
        );
        assert!(t.imbalance > 5.0);
    }

    #[test]
    fn memory_bound_kernel_is_limited_by_bandwidth() {
        // Huge DRAM traffic, trivial compute.
        let tasks = uniform(1000, 100.0, 1e7);
        let t = time_kernel(&dev(), &KernelSpec::new("k", tasks, res()));
        assert!(t.memory_s > t.compute_s);
        assert!((t.time_s - t.launch_s - t.memory_s).abs() < 1e-12);
        // 1e10 bytes at 760 GB/s ≈ 13.2 ms.
        assert!((t.memory_s - 1e10 / 760e9).abs() < 1e-6);
    }

    #[test]
    fn more_sms_run_faster() {
        let tasks = uniform(10_000, 50_000.0, 0.0);
        let big = time_kernel(&dev(), &KernelSpec::new("k", tasks.clone(), res()));
        let small_dev = DeviceSpec {
            sm_count: 4,
            ..dev()
        };
        let small = time_kernel(&small_dev, &KernelSpec::new("k", tasks, res()));
        assert!(small.compute_s > big.compute_s * 10.0);
    }

    #[test]
    fn nan_task_cost_does_not_panic_the_scheduler() {
        // Regression (PR 6 float-ranking sweep): one NaN-cycle task (a
        // poisoned derating upstream) lands on some SM and turns its
        // accumulator NaN; every later least-loaded selection then
        // compared NaN and panicked through partial_cmp().unwrap().
        // total_cmp orders NaN above all real loads, so the remaining
        // tasks route to the healthy SMs and timing completes.
        let mut tasks = uniform(100, 1_000.0, 0.0);
        tasks[3] = WarpTask {
            cycles: f64::NAN,
            dram_bytes: 0.0,
        };
        let t = time_kernel(&dev(), &KernelSpec::new("k", tasks, res()));
        // The poisoned SM propagates NaN into the slowest-SM fold; the
        // invariant under test is completion, not a meaningful time.
        assert!(t.time_s.is_nan() || t.time_s > 0.0);
    }

    #[test]
    fn totals_and_longest_helpers() {
        let spec = KernelSpec::new(
            "k",
            vec![
                WarpTask {
                    cycles: 5.0,
                    dram_bytes: 3.0,
                },
                WarpTask {
                    cycles: 7.0,
                    dram_bytes: 1.0,
                },
            ],
            res(),
        );
        assert_eq!(spec.total_cycles(), 12.0);
        assert_eq!(spec.total_dram_bytes(), 4.0);
        assert_eq!(spec.longest_task_cycles(), 7.0);
    }
}
