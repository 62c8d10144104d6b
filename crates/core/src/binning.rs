//! Alignment-length binning (paper §3.3 and Table 2).
//!
//! The executor groups surviving seed extensions into four size bins
//! (512 / 2048 / 8192 / 32768) and launches one kernel per bin, so that
//! long and short alignments never share a bulk-synchronous kernel.
//! Alignments of 16 bp or less never reach the executor at all (eager
//! traceback); Table 2 reports exactly this classification over the
//! benchmark seeds.
//!
//! Under the alignment service (`fastz-serve`) the same binning becomes
//! a *cross-request* scheduler: [`BinPacker`] merges request-tagged
//! executor tasks from concurrent requests into shared per-bin launches,
//! so traffic that would leave each request's bins ragged instead fills
//! them. Merging only re-groups *modeled kernel launches* — each
//! request's functional results and per-request timing are computed from
//! its own position-keyed work counters, so a request's report is
//! bit-identical whether it was served solo or co-batched.

use fastz_gpu_sim::{BlockResources, KernelSpec, WarpTask};

/// The eager-traceback boundary: alignments whose optimal cell lies
/// within a 16×16 window finish in the inspector.
pub const EAGER_BOUND: usize = 16;

/// Executor bin upper bounds (inclusive), paper §3.3.
pub const BIN_BOUNDS: [usize; 4] = [512, 2048, 8192, 32768];

/// Classification of one seed extension by its optimal-alignment extent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinClass {
    /// ≤ 16 bp: handled by eager traceback.
    Eager,
    /// Executor bin `0..=3` (≤512, ≤2048, ≤8192, ≤32768).
    Bin(usize),
    /// Larger than the largest bin (the paper's benchmarks never need
    /// this; ours keeps it explicit instead of silently clamping).
    Overflow,
}

/// Classifies an optimal-alignment extent (the larger of the two
/// sequence extents, per §3.3's "smallest bin in which the alignment is
/// contained").
pub fn classify(extent: usize) -> BinClass {
    if extent <= EAGER_BOUND {
        return BinClass::Eager;
    }
    for (idx, &bound) in BIN_BOUNDS.iter().enumerate() {
        if extent <= bound {
            return BinClass::Bin(idx);
        }
    }
    BinClass::Overflow
}

/// The matrix dimension the executor allocates for a bin (its upper
/// bound; precise per-bin allocation is the point of §3.1.3).
pub fn bin_allocation(class: BinClass) -> usize {
    match class {
        BinClass::Eager => EAGER_BOUND,
        BinClass::Bin(i) => BIN_BOUNDS[i],
        BinClass::Overflow => BIN_BOUNDS[BIN_BOUNDS.len() - 1] * 4, // §3.3: 4× scaling
    }
}

/// Table 2-style counts of seed extensions per class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BinCounts {
    /// Seeds finished by eager traceback (≤ 16 bp).
    pub eager: usize,
    /// Seeds per executor bin.
    pub bins: [usize; 4],
    /// Seeds exceeding the largest bin.
    pub overflow: usize,
}

impl BinCounts {
    /// Records one seed's classification.
    pub fn record(&mut self, class: BinClass) {
        match class {
            BinClass::Eager => self.eager += 1,
            BinClass::Bin(i) => self.bins[i] += 1,
            BinClass::Overflow => self.overflow += 1,
        }
    }

    /// Total seeds recorded.
    pub fn total(&self) -> usize {
        self.eager + self.bins.iter().sum::<usize>() + self.overflow
    }

    /// Fraction of seeds in the eager class (the paper's 75-80 %).
    pub fn eager_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.eager as f64 / self.total() as f64
        }
    }

    /// Emits one `fastz_bin_seeds_total{bin="…"}` counter per class
    /// (`eager`, each bound, `overflow`) — all six series always present
    /// so the exported set is stable across workloads.
    pub fn record_into<S: fastz_obs::MetricsSink>(&self, sink: &mut S) {
        sink.counter_add(&fastz_obs::names::bin("eager"), self.eager as u64);
        for (idx, &bound) in BIN_BOUNDS.iter().enumerate() {
            sink.counter_add(
                &fastz_obs::names::bin(&bound.to_string()),
                self.bins[idx] as u64,
            );
        }
        sink.counter_add(&fastz_obs::names::bin("overflow"), self.overflow as u64);
    }
}

// ---------------------------------------------------------------------------
// Cross-request bin packing (the service-side scheduler)
// ---------------------------------------------------------------------------

/// Number of executor bin slots (slot 0 = eager-sized problems run with
/// the eager flag off, then the four §3.3 bins, then overflow) — the
/// same slot space `FastZReport::executor_bin_slots` uses.
pub const BIN_SLOTS: usize = BIN_BOUNDS.len() + 2;

/// A merged cross-request launch schedule for one executor bin slot.
#[derive(Clone, Debug)]
pub struct MergedLaunch {
    /// Bin slot this kernel serves.
    pub slot: usize,
    /// The merged kernel (tasks from every contributing request, in
    /// arrival order).
    pub kernel: KernelSpec,
    /// Occupied fraction of the launch batch, in (0, 1].
    pub fill: f64,
}

/// Merges executor tasks from concurrent requests into shared per-bin
/// kernel launches of at most `batch` tasks each.
///
/// Tasks keep arrival order within a slot, so the schedule is a pure
/// function of the submission sequence — never of host threading. The
/// packer schedules *modeled* launches only: it moves no functional
/// work, so per-request results cannot be affected by who shared a bin.
#[derive(Clone, Debug)]
pub struct BinPacker {
    batch: usize,
    slots: [Vec<WarpTask>; BIN_SLOTS],
}

impl BinPacker {
    /// An empty packer with the given launch batch size (clamped ≥ 1).
    pub fn new(batch: usize) -> BinPacker {
        BinPacker {
            batch: batch.max(1),
            slots: Default::default(),
        }
    }

    /// Adds one task to bin `slot`. Out-of-range slots panic — the slot
    /// space is fixed by [`BIN_SLOTS`].
    fn push(&mut self, slot: usize, task: WarpTask) {
        self.slots[slot].push(task);
    }

    /// Adds every executor task of one request's report. `kernels` and
    /// `slots` are the report's parallel `executor_kernels` /
    /// `executor_bin_slots` vectors.
    pub fn push_report(&mut self, kernels: &[KernelSpec], slots: &[usize]) {
        debug_assert_eq!(kernels.len(), slots.len());
        for (kernel, &slot) in kernels.iter().zip(slots) {
            for &task in &kernel.tasks {
                self.push(slot, task);
            }
        }
    }

    /// Total tasks currently packed.
    pub fn len(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// True when no task has been packed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Emits the merged launch schedule: per slot, tasks are chunked
    /// into kernels of at most the batch size; every kernel carries its
    /// fill ratio. Consumes the packed tasks.
    pub fn launches(&mut self, resources: BlockResources) -> Vec<MergedLaunch> {
        let mut out = Vec::new();
        for (slot, tasks) in self.slots.iter_mut().enumerate() {
            if tasks.is_empty() {
                continue;
            }
            for (b, chunk) in tasks.chunks(self.batch).enumerate() {
                out.push(MergedLaunch {
                    slot,
                    kernel: KernelSpec::new(
                        format!("serve-bin{slot}-{b}"),
                        chunk.to_vec(),
                        resources,
                    ),
                    fill: chunk.len() as f64 / self.batch as f64,
                });
            }
            tasks.clear();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_boundaries() {
        assert_eq!(classify(0), BinClass::Eager);
        assert_eq!(classify(16), BinClass::Eager);
        assert_eq!(classify(17), BinClass::Bin(0));
        assert_eq!(classify(512), BinClass::Bin(0));
        assert_eq!(classify(513), BinClass::Bin(1));
        assert_eq!(classify(2048), BinClass::Bin(1));
        assert_eq!(classify(2049), BinClass::Bin(2));
        assert_eq!(classify(8192), BinClass::Bin(2));
        assert_eq!(classify(8193), BinClass::Bin(3));
        assert_eq!(classify(32768), BinClass::Bin(3));
        assert_eq!(classify(32769), BinClass::Overflow);
    }

    /// The warp and SIMD paths both pad work to 32-lane multiples.
    /// Classification happens on the raw optimal extent *before* any
    /// padding (`pipeline.rs` calls `classify(r.extent())`), and every
    /// executor bound is itself a multiple of the warp width — so even
    /// if a padded length were classified, an extent landing exactly on
    /// 512/2048/8192/32768 (or anywhere else past the eager window)
    /// could never cross a bin edge. Pinned here so a future bound
    /// change that breaks the alignment fails loudly. (The interpreter
    /// and SIMD backends classify identically by construction — they
    /// share this code and the pipeline's backend-invariance test
    /// compares `bin_counts` across backends directly.)
    #[test]
    fn warp_aligned_padding_never_changes_the_bin() {
        for &bound in &BIN_BOUNDS {
            assert_eq!(bound % 32, 0, "bound {bound} is not warp-aligned");
        }
        let pad32 = |e: usize| (e + 31) & !31;
        for extent in (EAGER_BOUND + 1)..=(BIN_BOUNDS[3] + 64) {
            assert_eq!(
                classify(pad32(extent)),
                classify(extent),
                "extent {extent} changes bin when padded to {}",
                pad32(extent)
            );
        }
    }

    /// Executor allocations are whole warps: the matrix dimension the
    /// bin reserves divides evenly into 32-lane strips, so the last
    /// strip of a bin-boundary problem is full, not ragged.
    #[test]
    fn executor_allocations_are_warp_aligned() {
        for i in 0..BIN_BOUNDS.len() {
            assert_eq!(bin_allocation(BinClass::Bin(i)) % 32, 0, "bin {i}");
        }
        assert_eq!(bin_allocation(BinClass::Overflow) % 32, 0);
    }

    #[test]
    fn bins_scale_by_4x() {
        // §3.3: bin boundaries use a 4× scaling factor.
        for w in BIN_BOUNDS.windows(2) {
            assert_eq!(w[1], w[0] * 4);
        }
        assert_eq!(bin_allocation(BinClass::Overflow), 32768 * 4);
    }

    #[test]
    fn allocation_covers_class() {
        for extent in [1, 16, 17, 100, 513, 5000, 9000, 32768] {
            let class = classify(extent);
            assert!(bin_allocation(class) >= extent, "extent {extent}");
        }
    }

    #[test]
    fn counts_partition_totality() {
        let mut c = BinCounts::default();
        for extent in 0..40_000 {
            c.record(classify(extent));
        }
        assert_eq!(c.total(), 40_000);
        assert_eq!(c.eager, 17);
        assert_eq!(c.bins[0], 512 - 16);
        assert_eq!(c.overflow, 40_000 - 32_769);
    }

    fn task(cycles: f64) -> WarpTask {
        WarpTask {
            cycles,
            dram_bytes: 0.0,
        }
    }

    #[test]
    fn packer_merges_requests_in_arrival_order() {
        let mut p = BinPacker::new(4);
        // Request 1: three bin-1 tasks; request 2: two bin-1, one bin-3.
        for k in 0..3 {
            p.push(1, task(k as f64));
        }
        for k in 0..2 {
            p.push(1, task(10.0 + k as f64));
        }
        p.push(3, task(99.0));
        assert_eq!(p.len(), 6);
        let launches = p.launches(BlockResources::fastz_executor());
        assert!(p.is_empty(), "launches drains the packer");
        // Bin 1: 5 tasks over batch 4 ⇒ two kernels (4 + 1); bin 3: one.
        assert_eq!(launches.len(), 3);
        let b1: Vec<_> = launches.iter().filter(|l| l.slot == 1).collect();
        assert_eq!(b1.len(), 2);
        assert_eq!(b1[0].kernel.tasks.len(), 4);
        assert!((b1[0].fill - 1.0).abs() < 1e-12);
        assert!((b1[1].fill - 0.25).abs() < 1e-12);
        // Tasks keep arrival order: request 1's three, then request 2's.
        let cycles: Vec<f64> = b1[0].kernel.tasks.iter().map(|t| t.cycles).collect();
        assert_eq!(cycles, vec![0.0, 1.0, 2.0, 10.0]);
        // Every packed task landed in exactly one launch.
        let total: usize = launches.iter().map(|l| l.kernel.tasks.len()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn packer_batch_is_clamped_and_empty_slots_skipped() {
        let mut p = BinPacker::new(0);
        p.push(0, task(1.0));
        let launches = p.launches(BlockResources::fastz_executor());
        assert_eq!(launches.len(), 1, "batch 0 clamps to 1");
        assert_eq!(launches[0].slot, 0);
        assert!((launches[0].fill - 1.0).abs() < 1e-12);
        assert!(BinPacker::new(8)
            .launches(BlockResources::fastz_executor())
            .is_empty());
    }

    #[test]
    fn eager_fraction_math() {
        let mut c = BinCounts::default();
        for _ in 0..80 {
            c.record(BinClass::Eager);
        }
        for _ in 0..20 {
            c.record(BinClass::Bin(0));
        }
        assert!((c.eager_fraction() - 0.8).abs() < 1e-12);
        assert_eq!(BinCounts::default().eager_fraction(), 0.0);
    }
}
