//! The analytic cost model and its calibration constants.
//!
//! Everything the timing engine multiplies by lives here, with the paper
//! citation for each value. The *work quantities* (steps, cells, bytes)
//! are measured from functional execution; only the conversion to seconds
//! is modeled. `CPU_CYCLES_PER_CELL` anchors the absolute scale (it was
//! calibrated once so that FastZ-on-Ampere lands near the paper's 111×);
//! every *relative* effect — ablation staircase, GPU generations,
//! per-benchmark ordering — emerges from measured statistics.

use crate::device::CpuSpec;

/// ALU operations per DP cell: 5 additions + 4 comparisons (paper §2.2).
pub const OPS_PER_CELL: u64 = 9;

/// SIMD divergence derating: the 9 operations expand to 23 under
/// divergent `max` branches (paper §6: derating factor 2.56).
pub const DIVERGENCE_DERATE: f64 = 2.56;

/// Warp-cycles per wavefront step: the 9 ops × 2.56 derate ≈ 23
/// instructions, each issued once warp-wide.
pub const CYCLES_PER_STEP: f64 = 23.0;

/// Fixed per-warp-task setup cost in cycles (argument fetch, sequence
/// pointer setup, result write).
pub const TASK_SETUP_CYCLES: f64 = 400.0;

/// CPU cycles per DP cell for the sequential LASTZ inner loop
/// (calibration anchor). LASTZ's C implementation — bounds checks,
/// traceback writes, y-drop interval maintenance, unpredictable `max`
/// branches — sustains roughly 20 cycles per cell on a modern x86 core,
/// consistent with our own Rust engine's measured throughput.
pub const CPU_CYCLES_PER_CELL: f64 = 20.0;

/// Effective DRAM bytes per cell for the CPU engines: the 12 B of S/I/D
/// score state plus the 1 B packed traceback stream through memory on
/// large scans (the row working set exceeds L2 for long extensions).
/// This puts the 32-worker chip-wide ceiling at ≈20.7× — the paper's
/// stated reason multicore scaling stops at ≈20× (§5.1).
pub const CPU_DRAM_BYTES_PER_CELL: f64 = 13.0;

/// SMT yield: each hardware thread beyond the physical core count adds
/// this fraction of a core's throughput (memory-latency-bound DP loops
/// benefit substantially from a second hardware thread).
pub const SMT_YIELD: f64 = 0.45;

/// Analytic CPU timing for the sequential and multicore LASTZ baselines.
#[derive(Clone, Debug)]
pub struct CpuModel {
    /// The CPU being modeled.
    pub spec: CpuSpec,
}

impl CpuModel {
    /// Model for the paper's Ryzen 3950X.
    pub fn ryzen_3950x() -> CpuModel {
        CpuModel {
            spec: CpuSpec::ryzen_3950x(),
        }
    }

    /// Single-thread DP throughput in cells/second.
    pub fn cells_per_second_single(&self) -> f64 {
        self.spec.clock_ghz * 1e9 / CPU_CYCLES_PER_CELL
    }

    /// Modeled sequential LASTZ time for `cells` DP cells.
    pub fn sequential_time(&self, cells: u64) -> f64 {
        cells as f64 / self.cells_per_second_single()
    }

    /// Effective core count for `workers` threads (SMT beyond the
    /// physical cores yields [`SMT_YIELD`] each).
    pub fn effective_cores(&self, workers: usize) -> f64 {
        let workers = workers.min(self.spec.threads);
        if workers <= self.spec.cores {
            workers as f64
        } else {
            self.spec.cores as f64 + (workers - self.spec.cores) as f64 * SMT_YIELD
        }
    }

    /// Modeled multicore time given each worker's cell count: the slowest
    /// partition bounds compute; chip-wide DRAM bandwidth bounds the
    /// whole run (the reason the paper's 32 processes reach only ≈20×).
    pub fn multicore_time(&self, per_worker_cells: &[u64]) -> f64 {
        if per_worker_cells.is_empty() {
            return 0.0;
        }
        let workers = per_worker_cells.len();
        let per_worker_rate =
            self.cells_per_second_single() * self.effective_cores(workers) / workers as f64;
        let slowest = *per_worker_cells.iter().max().unwrap() as f64;
        let compute = slowest / per_worker_rate;
        let total: u64 = per_worker_cells.iter().sum();
        let bandwidth = total as f64 * CPU_DRAM_BYTES_PER_CELL / (self.spec.dram_bw_gbps * 1e9);
        compute.max(bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_time_scales_linearly() {
        let m = CpuModel::ryzen_3950x();
        let t1 = m.sequential_time(1_000_000);
        let t2 = m.sequential_time(2_000_000);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn effective_cores_saturate() {
        let m = CpuModel::ryzen_3950x();
        assert_eq!(m.effective_cores(1), 1.0);
        assert_eq!(m.effective_cores(16), 16.0);
        let e32 = m.effective_cores(32);
        assert!(e32 > 16.0 && e32 < 32.0);
        // Beyond the hardware thread count nothing more is gained.
        assert_eq!(m.effective_cores(64), e32);
    }

    #[test]
    fn multicore_32_lands_near_papers_20x() {
        // Balanced partitions of a large workload: the paper's 32-process
        // configuration achieves ≈20× over sequential (§5.1).
        let m = CpuModel::ryzen_3950x();
        let total: u64 = 64_000_000_000;
        let per_worker = vec![total / 32; 32];
        let speedup = m.sequential_time(total) / m.multicore_time(&per_worker);
        assert!(
            (17.0..23.0).contains(&speedup),
            "multicore speedup {speedup:.1}"
        );
    }

    #[test]
    fn imbalanced_partitions_are_slower() {
        let m = CpuModel::ryzen_3950x();
        let balanced = vec![1_000_000u64; 8];
        let mut imbalanced = vec![500_000u64; 8];
        imbalanced[0] = 4_500_000;
        assert!(m.multicore_time(&imbalanced) > m.multicore_time(&balanced));
    }

    #[test]
    fn empty_multicore_is_zero() {
        assert_eq!(CpuModel::ryzen_3950x().multicore_time(&[]), 0.0);
    }

    #[test]
    fn derate_matches_papers_instruction_expansion() {
        // §6: 9 operations expand to ≈23 under SIMD divergence.
        assert!((OPS_PER_CELL as f64 * DIVERGENCE_DERATE - CYCLES_PER_STEP).abs() < 0.1);
    }
}
