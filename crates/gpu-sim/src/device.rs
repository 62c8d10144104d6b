//! Device specifications: the paper's three GPUs and the CPU baseline.
//!
//! These numbers parameterize the timing model only; the *functional*
//! behaviour of kernels (which cells get computed, what gets spilled) is
//! identical on every device.

/// A GPU specification.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Architecture generation label used in the paper's figures.
    pub arch: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// SIMT lanes (CUDA cores) per SM.
    pub lanes_per_sm: usize,
    /// Warp schedulers per SM (warp-instruction issue slots per cycle).
    /// 4 on Pascal GP102, Volta GV100, and Ampere GA102 alike.
    pub schedulers_per_sm: usize,
    /// Fraction of nominal issue slots the wavefront DP loop achieves.
    /// Calibration constant: encapsulates effects outside the analytic
    /// model — read-after-write stalls on the recurrence's serial
    /// add/max chain, shuffle latency, and (on Volta's 16-wide
    /// processing blocks) the two-cycle execution of each warp
    /// instruction. Calibrated once against the paper's per-benchmark
    /// Figure 7 envelope; all relative results emerge from measured
    /// workload statistics.
    pub issue_efficiency: f64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// DRAM bandwidth in GB/s.
    pub dram_bw_gbps: f64,
    /// Shared memory per SM in KiB.
    pub shared_kib_per_sm: usize,
    /// 32-bit registers per SM.
    pub regs_per_sm: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// L2 cache in MiB.
    pub l2_mib: usize,
    /// Device memory in GiB.
    pub mem_gib: usize,
    /// Kernel launch overhead in seconds.
    pub launch_overhead_s: f64,
    /// Device-wide (grid) synchronization latency in seconds — the cost
    /// the Feng-et-al baseline pays per anti-diagonal.
    pub grid_sync_s: f64,
}

impl DeviceSpec {
    /// Nvidia Titan X (Pascal): 28 SMs, 12 GB (paper §4).
    pub fn titan_x_pascal() -> DeviceSpec {
        DeviceSpec {
            name: "Titan X",
            arch: "Pascal",
            sm_count: 28,
            lanes_per_sm: 128,
            schedulers_per_sm: 4,
            issue_efficiency: 0.43,
            clock_ghz: 1.0, // the paper quotes 3584 1-wide lanes at 1 GHz
            dram_bw_gbps: 480.0,
            shared_kib_per_sm: 96,
            regs_per_sm: 65_536,
            max_warps_per_sm: 64,
            l2_mib: 3,
            mem_gib: 12,
            launch_overhead_s: 6e-6,
            grid_sync_s: 2.5e-6,
        }
    }

    /// Nvidia QV100 (Volta): 80 SMs, 32 GB (paper §4).
    pub fn qv100_volta() -> DeviceSpec {
        DeviceSpec {
            name: "QV100",
            arch: "Volta",
            sm_count: 80,
            lanes_per_sm: 64,
            schedulers_per_sm: 4,
            issue_efficiency: 0.265,
            clock_ghz: 1.38,
            dram_bw_gbps: 900.0,
            shared_kib_per_sm: 96,
            regs_per_sm: 65_536,
            max_warps_per_sm: 64,
            l2_mib: 6,
            mem_gib: 32,
            launch_overhead_s: 5e-6,
            grid_sync_s: 2.0e-6,
        }
    }

    /// Nvidia RTX 3080 (Ampere): 68 SMs, 10 GB (paper §4 and §6: nominal
    /// 29.77 TFlop/s and 760 GB/s).
    pub fn rtx3080_ampere() -> DeviceSpec {
        DeviceSpec {
            name: "RTX 3080",
            arch: "Ampere",
            sm_count: 68,
            lanes_per_sm: 128,
            schedulers_per_sm: 4,
            issue_efficiency: 0.294,
            clock_ghz: 1.71,
            dram_bw_gbps: 760.0,
            shared_kib_per_sm: 128,
            regs_per_sm: 65_536,
            max_warps_per_sm: 48,
            l2_mib: 5,
            mem_gib: 10,
            launch_overhead_s: 4e-6,
            grid_sync_s: 1.5e-6,
        }
    }

    /// The paper's three evaluation GPUs, oldest generation first.
    pub fn paper_gpus() -> Vec<DeviceSpec> {
        vec![
            DeviceSpec::titan_x_pascal(),
            DeviceSpec::qv100_volta(),
            DeviceSpec::rtx3080_ampere(),
        ]
    }

    /// Total SIMT lanes on the device.
    pub fn total_lanes(&self) -> usize {
        self.sm_count * self.lanes_per_sm
    }

    /// Achievable warp-instruction issue slots per SM per cycle.
    pub fn warp_issue_per_sm(&self) -> f64 {
        self.schedulers_per_sm as f64 * self.issue_efficiency
    }

    /// Peak scalar operations per second (lanes × clock).
    pub fn peak_ops_per_s(&self) -> f64 {
        self.total_lanes() as f64 * self.clock_ghz * 1e9
    }
}

/// A CPU specification (the paper's AMD Ryzen 3950X testbed).
#[derive(Clone, Debug, PartialEq)]
pub struct CpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Physical cores.
    pub cores: usize,
    /// Hardware threads (SMT).
    pub threads: usize,
    /// Sustained clock in GHz.
    pub clock_ghz: f64,
    /// DRAM bandwidth in GB/s.
    pub dram_bw_gbps: f64,
    /// L3 cache in MiB.
    pub l3_mib: usize,
}

impl CpuSpec {
    /// AMD Ryzen 3950X: 16 cores / 32 threads, 3.5 GHz, 64 MB L3 (paper §4).
    pub fn ryzen_3950x() -> CpuSpec {
        CpuSpec {
            name: "Ryzen 3950X",
            cores: 16,
            threads: 32,
            clock_ghz: 3.5,
            dram_bw_gbps: 47.0,
            l3_mib: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_gpu_parameters() {
        let pascal = DeviceSpec::titan_x_pascal();
        assert_eq!(pascal.sm_count, 28);
        assert_eq!(pascal.total_lanes(), 3584); // the paper's 3584 lanes
        let volta = DeviceSpec::qv100_volta();
        assert_eq!(volta.sm_count, 80);
        let ampere = DeviceSpec::rtx3080_ampere();
        assert_eq!(ampere.sm_count, 68);
        assert_eq!(ampere.mem_gib, 10);
    }

    #[test]
    fn ampere_roofline_threshold_matches_paper() {
        // §6: 29.77 TFlop/s ÷ 760 GB/s ≈ 39 ops/byte. Our lane-based peak
        // is half the (FMA-counted) TFlop number, so the threshold is ~19.6
        // before FMA accounting; verify within the right ballpark using
        // FMA×2.
        let a = DeviceSpec::rtx3080_ampere();
        let fma_peak = 2.0 * a.peak_ops_per_s();
        let threshold = fma_peak / (a.dram_bw_gbps * 1e9);
        assert!((threshold - 39.0).abs() < 4.0, "threshold {threshold}");
    }

    #[test]
    fn generations_increase_in_throughput() {
        let gpus = DeviceSpec::paper_gpus();
        assert!(gpus[0].peak_ops_per_s() < gpus[1].peak_ops_per_s());
        assert!(gpus[1].peak_ops_per_s() < gpus[2].peak_ops_per_s());
    }

    #[test]
    fn warp_issue_rates() {
        assert!((DeviceSpec::titan_x_pascal().warp_issue_per_sm() - 1.72).abs() < 1e-9);
        assert!((DeviceSpec::qv100_volta().warp_issue_per_sm() - 1.06).abs() < 1e-9);
    }

    #[test]
    fn cpu_spec() {
        let cpu = CpuSpec::ryzen_3950x();
        assert_eq!(cpu.cores, 16);
        assert_eq!(cpu.threads, 32);
        assert_eq!(cpu.l3_mib, 64);
    }
}
