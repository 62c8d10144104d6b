//! Property tests for the GPU simulator: warp primitive algebra,
//! occupancy monotonicity, and timing-model laws.

use fastz_gpu_sim::{
    ballot, occupancy, splat, time_kernel, time_stream_pipeline, BlockResources, CpuModel,
    DeviceSpec, KernelSpec, WarpTask,
};
use proptest::prelude::*;

fn tasks_strategy() -> impl Strategy<Value = Vec<WarpTask>> {
    proptest::collection::vec((1.0f64..1e6, 0.0f64..1e6), 1..100).prop_map(|v| {
        v.into_iter()
            .map(|(cycles, dram_bytes)| WarpTask { cycles, dram_bytes })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Ballot popcount equals the number of true lanes.
    #[test]
    fn ballot_popcount(mask in any::<u32>()) {
        let mut pred = splat(false);
        for (l, p) in pred.iter_mut().enumerate() {
            *p = mask & (1 << l) != 0;
        }
        prop_assert_eq!(ballot(&pred), mask);
        prop_assert_eq!(ballot(&pred).count_ones(), mask.count_ones());
    }

    /// Occupancy never increases when any resource demand grows.
    #[test]
    fn occupancy_is_antitone(
        warps in 1usize..16,
        regs in 8usize..128,
        shared in 0usize..32_768,
    ) {
        let dev = DeviceSpec::rtx3080_ampere();
        let base = BlockResources {
            warps_per_block: warps,
            regs_per_thread: regs,
            shared_bytes_per_block: shared,
        };
        let o0 = occupancy(&dev, &base);
        let more_regs = occupancy(&dev, &BlockResources { regs_per_thread: regs + 16, ..base });
        let more_shared = occupancy(&dev, &BlockResources { shared_bytes_per_block: shared + 4096, ..base });
        prop_assert!(more_regs.warps_per_sm <= o0.warps_per_sm);
        prop_assert!(more_shared.warps_per_sm <= o0.warps_per_sm);
    }

    /// Kernel time dominates both its compute and memory components, and
    /// adding tasks never makes the kernel faster.
    #[test]
    fn kernel_time_laws(tasks in tasks_strategy()) {
        let dev = DeviceSpec::rtx3080_ampere();
        let res = BlockResources::fastz_inspector();
        let t = time_kernel(&dev, &KernelSpec::new("k", tasks.clone(), res));
        prop_assert!(t.time_s >= t.compute_s);
        prop_assert!(t.time_s >= t.memory_s);
        prop_assert!(t.compute_s >= t.longest_task_s - 1e-12);

        let mut more = tasks.clone();
        more.push(WarpTask { cycles: 1e5, dram_bytes: 1e4 });
        let t2 = time_kernel(&dev, &KernelSpec::new("k", more, res));
        prop_assert!(t2.time_s >= t.time_s - 1e-12);
    }

    /// Multi-stream execution of a kernel set is never slower than
    /// single-stream, and both respect the longest-task floor.
    #[test]
    fn streams_never_hurt(tasks in tasks_strategy(), n_kernels in 1usize..6) {
        let dev = DeviceSpec::qv100_volta();
        let res = BlockResources::fastz_inspector();
        let kernels: Vec<KernelSpec> = (0..n_kernels)
            .map(|i| KernelSpec::new(format!("k{i}"), tasks.clone(), res))
            .collect();
        let single = time_stream_pipeline(&dev, &kernels, 1);
        let multi = time_stream_pipeline(&dev, &kernels, 32);
        prop_assert!(multi.time_s <= single.time_s + 1e-12);
        let floor = kernels[0].longest_task_cycles() / (dev.clock_ghz * 1e9);
        prop_assert!(multi.time_s + 1e-12 >= floor);
    }

    /// CPU model: multicore never beats perfect scaling and never loses
    /// to a single worker.
    #[test]
    fn multicore_bounds(cells in 1u64..10_000_000_000, workers in 1usize..32) {
        let m = CpuModel::ryzen_3950x();
        let per = vec![cells / workers as u64 + 1; workers];
        let seq = m.sequential_time(per.iter().sum());
        let par = m.multicore_time(&per);
        prop_assert!(par <= seq + 1e-12);
        prop_assert!(seq / par <= workers as f64 + 1e-9);
    }
}
