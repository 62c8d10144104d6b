//! The FastZ pipeline: inspector → eager traceback → length binning →
//! trimmed executor → splice (paper §3).
//!
//! The pipeline runs *functionally* on the GPU simulator's warp
//! primitives — it produces real alignments, verified against the scalar
//! LASTZ engines — while every warp task's measured work is priced into
//! the timing model (`gpu-sim`). The host-side functional simulation is
//! parallelized over CPU threads purely to make the simulation fast;
//! modeled GPU time is unaffected by host thread count.

use crate::ablation::OptFlags;
use crate::binning::{classify, BinClass, BinCounts, BIN_BOUNDS};
use crate::bitvec::{bitvec_extend_in, BitvecConfig, BitvecStats, ExtendBackend};
use crate::cost::price_task;
use crate::pool::{Arena, HostDispatch, HostPool};
use crate::resilient::{
    combine_fingerprint, workload_fingerprint, Checkpoint, ResilienceConfig, ResilienceReport,
    MAX_FALLBACK_RETRIES, MAX_PROBLEM_RETRIES,
};
use crate::view::BaseView;
use crate::warp_engine::{warp_extend_in, WarpConfig, WavefrontBackend};
use fastz_align::{push_op, Alignment, EditOp};
use fastz_genome::{fnv1a, Scoring, Sequence, FNV1A_BASIS, N_CODE};
use fastz_gpu_sim::fault::{self, scope, FaultKind, FaultSite};
use fastz_gpu_sim::roofline;
use fastz_gpu_sim::stream::{
    time_stream_pipeline_capped, time_stream_pipeline_resilient, PipelineTiming,
};
use fastz_gpu_sim::{
    BlockResources, DeviceSpec, KernelCounters, KernelSpec, PhaseTimeline, SharedMem, WarpCounters,
    WarpTask, WARP_SIZE,
};
use fastz_obs::{names, LogicalClock, MetricsSink, NoObs};
use fastz_seed::Anchor;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Host-side modeling constants for the "other" phase of Figure 8
/// (reading anchors and sequences, host↔device copies, bin sorting,
/// copying eager-surviving anchors for the executor).
mod host {
    /// Effective PCIe copy bandwidth.
    pub const PCIE_BW: f64 = 12e9;
    /// Per-seed host bookkeeping (reading anchor records, classification,
    /// bin sorting, copying eager-surviving anchors and results) —
    /// calibrated so the Figure 8 "other" component is a visible minority
    /// share as in the paper.
    pub const PER_SEED_S: f64 = 500e-9;
    /// Per-run fixed setup (context, allocations).
    pub const FIXED_S: f64 = 2e-4;
}

/// Warp tasks per modeled kernel launch: the inspector and every
/// executor bin split their task lists into launches of this size.
/// Launch count shapes modeled time, so this is fixed, not a knob.
const LAUNCH_BATCH: usize = 2048;

/// FastZ pipeline configuration.
#[derive(Clone, Debug)]
pub struct FastZConfig {
    /// Scoring scheme (shared with the CPU baselines).
    pub scoring: Scoring,
    /// Optimization flags (ablation axis).
    pub flags: OptFlags,
    /// Device to model.
    pub device: DeviceSpec,
    /// Cap on one-sided extension reach (matches the scalar drivers).
    pub max_extension: usize,
    /// Host threads for the functional simulation (0 = all available).
    /// Affects host wall-clock only: alignments, bin counts, and
    /// modeled GPU time are bit-identical for every value.
    pub sim_threads: usize,
    /// Lanes per strip in the warp engine, clamped to `1..=32`. The
    /// default is the full warp; width 1 runs the pipeline on the scalar
    /// engine, which the strip-width invariance property guarantees to
    /// produce identical alignments (the conformance metrics drill
    /// exercises exactly this).
    pub strip_width: usize,
    /// Host realization of the warp engine's per-step lane arithmetic
    /// (scalar interpreter or 32-wide host SIMD). Another wall-clock-only
    /// knob: alignments, bin counts, sanitizer findings, and modeled GPU
    /// time are bit-identical across backends, so the backend does not
    /// enter the checkpoint fingerprint.
    pub backend: WavefrontBackend,
    /// Attach a shadow sanitizer to every worker arena's scratchpad
    /// (initcheck, racecheck, bank-conflict analysis, warp lints).
    /// Off by default: the unattached path costs one null check per
    /// shared-memory access. Alignments, bin counts, and modeled GPU
    /// time are bit-identical either way — the sanitizer never touches
    /// the work counters.
    pub sanitize: bool,
    /// Extension algorithm. [`ExtendBackend::YDrop`] (the default) is
    /// the paper's affine-gap machinery; [`ExtendBackend::Bitvector`]
    /// swaps in the GenASM/Scrooge windowed edit-distance engine, which
    /// scores in the unit regime (`(i+j) − 3·ed`) and resolves every
    /// problem with a full traceback in the inspector phase (no
    /// executor residue). Unlike [`FastZConfig::backend`], this is a
    /// *semantic* switch — scores and alignments differ between
    /// algorithms, so it rides in the checkpoint fingerprint.
    pub extend_backend: ExtendBackend,
    /// Window geometry for the bitvector backend (ignored under y-drop).
    pub bitvec: BitvecConfig,
    /// Identity fingerprint of the persistent seed index the anchors
    /// came from (`ShardedSeedIndex::fingerprint`), or 0 when the
    /// workload was seeded in memory. Nonzero values fold into the
    /// checkpoint fingerprint so a resume can never silently cross
    /// index versions; 0 leaves historical fingerprints intact.
    pub index_fingerprint: u64,
}

impl FastZConfig {
    /// Full FastZ on the given device.
    pub fn new(scoring: Scoring, device: DeviceSpec) -> FastZConfig {
        FastZConfig {
            scoring,
            flags: OptFlags::fastz(),
            device,
            max_extension: 40_000,
            sim_threads: 0,
            strip_width: WARP_SIZE,
            backend: WavefrontBackend::default(),
            sanitize: false,
            extend_backend: ExtendBackend::default(),
            bitvec: BitvecConfig::default(),
            index_fingerprint: 0,
        }
    }
}

/// Aggregate pipeline statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FastZStats {
    /// Seed anchors processed.
    pub seeds: usize,
    /// One-sided extension problems (2 per seed).
    pub problems: usize,
    /// Problems finished by eager traceback in the inspector.
    pub eager_resolved: usize,
    /// Problems that required the executor.
    pub executor_problems: usize,
    /// Inspector work counters.
    pub inspector: KernelCounters,
    /// Executor work counters.
    pub executor: KernelCounters,
    /// Bitvector work-reduction counters (all zero under y-drop).
    pub bitvec: BitvecStats,
}

/// Result of a FastZ run.
#[derive(Clone, Debug)]
pub struct FastZReport {
    /// Alignments meeting the score threshold, deduplicated.
    pub alignments: Vec<Alignment>,
    /// Table 2 classification (per seed, by optimal extent).
    pub bin_counts: BinCounts,
    /// Figure 8 phase attribution of the modeled time.
    pub timeline: PhaseTimeline,
    /// Modeled end-to-end GPU time in seconds.
    pub modeled_time_s: f64,
    /// Aggregate statistics.
    pub stats: FastZStats,
    /// Wall-clock time of the host-side functional simulation.
    pub host_wall: Duration,
    /// Inspector kernel specifications (for re-timing on other devices).
    pub inspector_kernels: Vec<KernelSpec>,
    /// Executor kernel specifications, one batch per length bin.
    pub executor_kernels: Vec<KernelSpec>,
    /// Bin slot of each executor kernel, parallel to `executor_kernels`
    /// (slot 0 = eager-sized problems run with the flag off, then the
    /// four §3.3 bins, then overflow). The cross-request bin packer
    /// (`fastz-serve`) keys merged launches on this.
    pub executor_bin_slots: Vec<usize>,
    /// Modeled host-side "other" time (device-independent).
    pub other_s: f64,
    /// Worst-case per-problem score-matrix allocation in bytes when the
    /// cyclic register buffers are disabled (`None` when they are on):
    /// device memory divided by this caps inspector concurrency.
    pub inspector_alloc_bytes: Option<u64>,
    /// Worst-case per-problem executor allocation in bytes when executor
    /// trimming is disabled (`None` when trimming is on): without the
    /// inspector's length information the executor must allocate
    /// traceback (and, without cyclic buffers, scores) for the whole
    /// search space, capping its concurrency (paper §3.1.3: precise
    /// allocation "enables FastZ to pack many more seed extensions into
    /// one kernel").
    pub executor_alloc_bytes: Option<u64>,
    /// Fault accounting and recovery actions ([`ResilienceReport::default`]
    /// — all zeros — on a fault-free run without checkpointing).
    pub resilience: ResilienceReport,
    /// Merged sanitizer findings (`None` unless [`FastZConfig::sanitize`]
    /// was set). Sorted into canonical order, so the report is
    /// bit-identical across `sim_threads` and dispatch modes.
    pub sanitize: Option<fastz_gpu_sim::SanitizeReport>,
}

impl FastZReport {
    /// Re-prices this run's measured work on another device and stream
    /// count without re-running the functional simulation (the work
    /// counters are device-independent).
    pub fn retime(&self, device: &DeviceSpec, streams: usize) -> PhaseTimeline {
        let time = |kernels: &[KernelSpec], alloc_bytes| {
            time_stream_pipeline_capped(device, kernels, streams, memory_cap(device, alloc_bytes))
        };
        let insp = time(&self.inspector_kernels, self.inspector_alloc_bytes);
        let exec = time(&self.executor_kernels, self.executor_alloc_bytes);
        let mut timeline = PhaseTimeline::new();
        timeline.add("inspector", insp.time_s);
        timeline.add("executor", exec.time_s);
        timeline.add("other", self.other_s);
        timeline
    }
}

/// Outcome of one extension problem (inspector or executor side).
/// `pub(crate)` so the checkpoint layer (`resilient`) can persist it.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SideResult {
    pub(crate) score: i32,
    pub(crate) best_i: usize,
    pub(crate) best_j: usize,
    pub(crate) explored_rows: usize,
    pub(crate) explored_cols: usize,
    pub(crate) eager_ops: Option<Vec<EditOp>>,
    pub(crate) task: WarpTask,
    pub(crate) counters: fastz_gpu_sim::WarpCounters,
    pub(crate) bitvec: BitvecStats,
}

impl SideResult {
    /// Optimal extent (mirrors [`WarpExtension::extent`]) — the length
    /// that drives Table 2 binning and the seed-extent histogram.
    pub(crate) fn extent(&self) -> usize {
        self.best_i.max(self.best_j)
    }
}

/// Concurrent problems that device memory admits when each one holds
/// `alloc_bytes` (80% of device memory is usable); `None` when the
/// allocation does not bound concurrency.
fn memory_cap(device: &DeviceSpec, alloc_bytes: Option<u64>) -> Option<usize> {
    let usable = device.mem_gib as u64 * (1 << 30) * 8 / 10;
    alloc_bytes.map(|b| (usable / b.max(1)) as usize)
}

/// Prices one engine outcome into a [`SideResult`]. Both engines report
/// the optimum as `(score, best_i, best_j)` and the explored extents as
/// `(rows, cols)`; `ops` is the side's final edit script, when the
/// engine produced one.
fn side_result(
    (score, best_i, best_j): (i32, usize, usize),
    (explored_rows, explored_cols): (usize, usize),
    ops: Option<Vec<EditOp>>,
    counters: WarpCounters,
    bitvec: BitvecStats,
) -> SideResult {
    SideResult {
        score,
        best_i,
        best_j,
        explored_rows,
        explored_cols,
        eager_ops: ops,
        task: price_task(&counters),
        counters,
        bitvec,
    }
}

/// Host workers for the functional simulation: `cfg.sim_threads`, or
/// every available core when it is 0.
pub fn sim_threads(cfg: &FastZConfig) -> usize {
    if cfg.sim_threads > 0 {
        cfg.sim_threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
}

/// Runs the FastZ pipeline over `anchors` (fault-free, no checkpoint,
/// unobserved).
pub fn run_fastz(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    cfg: &FastZConfig,
) -> FastZReport {
    run_fastz_observed(
        target,
        query,
        anchors,
        seed_span,
        cfg,
        &ResilienceConfig::disabled(),
        &mut NoObs,
    )
}

/// Per-problem fault handling outcome (bit-flip ladder).
#[derive(Clone, Copy, Debug, Default)]
struct ProblemLog {
    flips: u64,
    retries: u64,
    fell_back: bool,
    skipped: bool,
    backoff_s: f64,
    wasted_s: f64,
}

/// Packs the optimization flags for the config word. Injective on its
/// own (three bools below `streams << 3`); [`config_identity`] folds
/// the whole value instead of OR-ing further bits on top, which is
/// what used to let `streams` collide with the strip-width bit range.
// fastz-lint: fingerprint(OptFlags)
fn flags_bits(flags: &OptFlags) -> u64 {
    let OptFlags {
        cyclic_buffers,
        eager_traceback,
        executor_trimming,
        streams,
    } = *flags;
    (cyclic_buffers as u64)
        | (eager_traceback as u64) << 1
        | (executor_trimming as u64) << 2
        | (streams as u64) << 3
}

/// The semantic-config word folded into the checkpoint fingerprint.
///
/// Every `FastZConfig` field is either folded here, covered by another
/// fingerprint input, or waived with a written reason — the exhaustive
/// destructure makes adding a field without deciding its identity fate
/// a compile error. Components are FNV-folded rather than bit-packed:
/// the old packed word let `streams << 3` reach the bit range
/// `strip_width << 8` occupied, and silently omitted `max_extension`
/// and the bitvector geometry from the identity entirely.
// fastz-lint: fingerprint(FastZConfig)
fn config_identity(cfg: &FastZConfig, strip_width: usize) -> u64 {
    let FastZConfig {
        scoring: _, // not fingerprinted: workload_fingerprint folds the scoring scheme itself
        flags,
        device, // shapes results only through the bitvector budget clamp, folded by bitvec_identity
        max_extension,
        sim_threads: _, // not fingerprinted: host parallelism is wall-clock only
        strip_width: _, // not fingerprinted: the declared width; the clamped one is folded instead
        backend: _,     // not fingerprinted: interpreter and SIMD are bit-identical by contract
        sanitize: _,    // not fingerprinted: the sanitizer never touches results
        extend_backend,
        bitvec,
        index_fingerprint: _, // not fingerprinted: combined into the workload word separately (0 is the identity)
    } = cfg;
    // A y-drop checkpoint holds affine scores and must not restore into
    // a bitvector run (and vice versa).
    let backend_bit = match extend_backend {
        ExtendBackend::YDrop => 0u64,
        ExtendBackend::Bitvector => 1u64,
    };
    [
        flags_bits(flags),
        strip_width as u64,
        backend_bit,
        *max_extension as u64,
        bitvec_identity(bitvec, device),
    ]
    .iter()
    .fold(FNV1A_BASIS, |w, v| fnv1a(w, &v.to_le_bytes()))
}

/// Identity of the bitvector geometry as it runs on `device`. A
/// semantic axis when the bitvector backend is active; folded
/// unconditionally so the config word is a total function of the
/// config, not itself config-dependent. The edit budget is folded as
/// the engine runs it: `bitvec_extend_in` clamps `k` to what the
/// device's shared memory holds, so one declared `k` runs a smaller
/// budget on a small-scratchpad device.
// fastz-lint: fingerprint(BitvecConfig)
fn bitvec_identity(bv: &BitvecConfig, device: &DeviceSpec) -> u64 {
    let BitvecConfig {
        window,
        overlap,
        k: _, // not fingerprinted: the declared budget; the device-clamped one is folded instead
        mutation,
    } = *bv;
    let k = bv.effective_k(SharedMem::for_device(device).capacity());
    [window as u64, overlap as u64, k as u64, mutation as u64]
        .iter()
        .fold(FNV1A_BASIS, |w, v| fnv1a(w, &v.to_le_bytes()))
}

/// [`run_fastz`] under a [`ResilienceConfig`] — fault injection probes,
/// the bit-flip retry/degradation ladder, watchdog-priced kernel
/// recovery, and batch-level checkpoint/resume — with a [`MetricsSink`]
/// threaded through the pipeline: semantic counters, per-problem
/// histograms, timing gauges, and a phase-scoped span timeline land in
/// `sink`. Pass [`NoObs`] for a resilient run nobody observes.
///
/// With [`NoObs`] the sink calls monomorphize to nothing and the span
/// layout work is skipped entirely (`S::ENABLED` gate), so the
/// unobserved pipeline is byte-for-byte the pre-observability machine
/// code. With a [`fastz_obs::Recorder`], everything exported derives
/// from the modeled clock and deterministic work counters — never from
/// wall time — so a fixed-seed run records a byte-identical report on
/// every invocation.
pub fn run_fastz_observed<S: MetricsSink>(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    cfg: &FastZConfig,
    rcfg: &ResilienceConfig,
    sink: &mut S,
) -> FastZReport {
    // One persistent worker set for the whole run: both phases dispatch
    // onto the same pool, and each worker's arena survives from the
    // inspector into the executor.
    std::thread::scope(|scope| {
        let pool = HostPool::new(
            scope,
            sim_threads(cfg),
            &cfg.device,
            HostDispatch::Stealing,
            cfg.sanitize,
        );
        run_fastz_in_pool(target, query, anchors, seed_span, cfg, rcfg, sink, &pool)
    })
}

/// The pipeline body, parameterized over an already-running [`HostPool`].
///
/// This is the entry point the alignment service (`fastz-serve`) uses to
/// run many requests on one persistent worker set: arenas survive across
/// requests exactly as they survive across phases, and because every
/// result derives from position-keyed work counters, a request's report —
/// alignments, bin counts, and the modeled GPU time's exact bits — is
/// identical whether its problems ran on a private pool or interleaved
/// with other requests' phases on a shared one.
///
/// The body is a driver over the phases of the private `Run`: inspect,
/// partition (eager traceback and length binning), execute, splice,
/// account, and — for observed runs — emit.
#[allow(clippy::too_many_arguments)]
pub fn run_fastz_in_pool<S: MetricsSink>(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    cfg: &FastZConfig,
    rcfg: &ResilienceConfig,
    sink: &mut S,
    pool: &HostPool<'_>,
) -> FastZReport {
    let wall_start = Instant::now();
    let run = Run::new(target, query, anchors, seed_span, cfg, rcfg);
    let mut ledger = run.load_checkpoint();
    let inspector = run.inspect(pool, &mut ledger, sink);
    let bins = run.partition(&inspector, &mut ledger, sink);
    let executed = run.execute(pool, &mut ledger, sink, &inspector, &bins);
    let alignments = run.splice(&inspector, &executed.results, &ledger.skipped);
    // Both phases have completed (`pool.run` blocks until workers drain
    // their arenas), so the merged sanitizer report is final here.
    let sanitize = pool.sanitize_report();
    let (mut report, timing) = run.account(&inspector, executed, ledger, alignments, sanitize);
    if S::ENABLED {
        run.emit(sink, pool, &report, &inspector, &timing);
    }
    report.host_wall = wall_start.elapsed();
    report
}

/// One pipeline run: its inputs and the values every phase derives from
/// them. The phases are methods, called in order by [`run_fastz_in_pool`].
struct Run<'a> {
    target: &'a Sequence,
    query: &'a Sequence,
    anchors: &'a [Anchor],
    seed_span: usize,
    cfg: &'a FastZConfig,
    rcfg: &'a ResilienceConfig,
    /// `cfg.strip_width` clamped to `1..=WARP_SIZE`.
    strip_width: usize,
    /// Modeled device clock in Hz.
    clock_hz: f64,
    /// One-sided extension problems: two per anchor, left side first.
    n_problems: usize,
    /// Engine configuration of every inspector problem.
    insp_cfg: WarpConfig,
    /// Anchors whose seed runs past either sequence: never extended
    /// (their sides run on empty slices) and never spliced.
    rejected: BTreeSet<usize>,
}

/// What a run accumulates across its phases.
struct Ledger {
    ckpt: Checkpoint,
    res: ResilienceReport,
    stats: FastZStats,
    bin_counts: BinCounts,
    /// Seeds with a side that exhausted the retry/fallback budget.
    skipped: BTreeSet<usize>,
}

/// A batch of problems that checkpoints as one unit.
#[derive(Clone, Copy)]
enum Stage {
    Inspector,
    /// One executor length bin, by slot.
    Bin(usize),
}

/// What the execute phase produces.
struct Executed {
    /// Executor result per problem (`None`: resolved in the inspector).
    results: Vec<Option<SideResult>>,
    kernels: Vec<KernelSpec>,
    /// Bin slot of each kernel, parallel to `kernels`.
    slots: Vec<usize>,
}

impl Ledger {
    /// Folds one problem's fault-ladder outcome into the report.
    fn absorb(&mut self, idx: usize, log: &ProblemLog) {
        let res = &mut self.res;
        res.injected.bit_flips += log.flips;
        res.detected.bit_flips += log.flips;
        res.retries += log.retries;
        res.backoff_s += log.backoff_s;
        res.overhead_s += log.wasted_s + log.backoff_s;
        if log.fell_back {
            res.fallbacks += 1;
        }
        if log.skipped {
            self.skipped.insert(idx / 2);
        }
    }

    /// The checkpointed results of `idxs`, when `stage` completed and
    /// every one of them was persisted; anything less re-runs.
    fn restore(&mut self, stage: Stage, idxs: &[usize]) -> Option<Vec<SideResult>> {
        let (done, saved) = match stage {
            Stage::Inspector => (self.ckpt.inspector_done, &self.ckpt.inspector),
            Stage::Bin(slot) => (self.ckpt.bins_done.contains(&slot), &self.ckpt.executor),
        };
        if !done || !idxs.iter().all(|idx| saved.contains_key(idx)) {
            return None;
        }
        self.res.restored_problems += idxs.len() as u64;
        Some(idxs.iter().map(|idx| saved[idx].clone()).collect())
    }

    /// Records `stage` as complete with `results` and saves the
    /// checkpoint to `path`.
    fn persist(&mut self, stage: Stage, idxs: &[usize], results: &[SideResult], path: &Path) {
        let saved = match stage {
            Stage::Inspector => {
                self.ckpt.inspector_done = true;
                &mut self.ckpt.inspector
            }
            Stage::Bin(slot) => {
                self.ckpt.bins_done.insert(slot);
                &mut self.ckpt.executor
            }
        };
        saved.extend(idxs.iter().copied().zip(results.iter().cloned()));
        // Best-effort persistence: a failed write degrades resume,
        // never the run itself.
        if self.ckpt.save(path).is_ok() {
            self.res.checkpoints_written += 1;
        }
    }
}

impl<'a> Run<'a> {
    fn new(
        target: &'a Sequence,
        query: &'a Sequence,
        anchors: &'a [Anchor],
        seed_span: usize,
        cfg: &'a FastZConfig,
        rcfg: &'a ResilienceConfig,
    ) -> Run<'a> {
        let strip_width = cfg.strip_width.clamp(1, WARP_SIZE);
        let inside = |pos: u32, len: usize| {
            (pos as usize)
                .checked_add(seed_span)
                .is_some_and(|end| end <= len)
        };
        let rejected = anchors
            .iter()
            .enumerate()
            .filter(|(_, a)| {
                !inside(a.target_pos, target.len()) || !inside(a.query_pos, query.len())
            })
            .map(|(idx, _)| idx)
            .collect();
        Run {
            target,
            query,
            anchors,
            seed_span,
            cfg,
            rcfg,
            strip_width,
            clock_hz: cfg.device.clock_ghz * 1e9,
            n_problems: anchors.len() * 2,
            insp_cfg: WarpConfig::inspector(&cfg.flags)
                .with_strip_width(strip_width)
                .with_backend(cfg.backend),
            rejected,
        }
    }

    /// Loads the checkpoint (if one is configured) and validates it
    /// against this workload.
    fn load_checkpoint(&self) -> Ledger {
        let (cfg, rcfg) = (self.cfg, self.rcfg);
        // The semantic config word ([`config_identity`]) rides in the
        // workload fingerprint: a checkpoint written at another strip
        // width, extension algorithm, extension cap, or bitvector geometry
        // holds another engine's work and must not be restored here.
        // The seed-index identity folds in last: anchors produced by a
        // persisted index version A must not resume a checkpoint written
        // under version B (combine with 0 is the identity, so in-memory
        // workloads keep their historical fingerprints).
        let fingerprint = combine_fingerprint(
            workload_fingerprint(
                self.target,
                self.query,
                self.anchors,
                self.seed_span,
                &cfg.scoring,
                config_identity(cfg, self.strip_width),
            ),
            cfg.index_fingerprint,
        );
        let mut ledger = Ledger {
            ckpt: Checkpoint::new(fingerprint),
            res: ResilienceReport::default(),
            stats: FastZStats {
                seeds: self.anchors.len(),
                problems: self.n_problems,
                ..FastZStats::default()
            },
            bin_counts: BinCounts::default(),
            skipped: BTreeSet::new(),
        };
        if let Some(path) = &rcfg.checkpoint {
            match Checkpoint::load(path) {
                Ok(Some(prev)) if prev.fingerprint == fingerprint => {
                    ledger.res.resumed = prev.inspector_done;
                    ledger.ckpt = prev;
                }
                Ok(Some(prev)) => {
                    // A foreign or stale checkpoint (different inputs/flags)
                    // is not trusted; record why and start from scratch.
                    ledger.res.checkpoints_rejected.push(format!(
                        "{}: fingerprint {:016x} does not match workload {:016x}",
                        path.display(),
                        prev.fingerprint,
                        fingerprint
                    ));
                }
                Ok(None) => {}
                Err(e) => {
                    // Torn/corrupt file (or an IO failure): reported, not
                    // silently ignored — the run proceeds from scratch and
                    // the next save atomically replaces the bad file.
                    ledger.res.checkpoints_rejected.push(e);
                }
            }
        }
        ledger
    }

    /// The (target, query) views of problem `idx`: even indices extend
    /// left of their anchor (the prefixes, read back to front in place),
    /// odd ones right. Both sides of a rejected anchor are empty.
    fn side(&self, idx: usize) -> (BaseView<'_>, BaseView<'_>) {
        if self.rejected.contains(&(idx / 2)) {
            return (BaseView::forward(&[]), BaseView::forward(&[]));
        }
        let tc = self.target.codes();
        let qc = self.query.codes();
        let anchor = self.anchors[idx / 2];
        let t0 = anchor.target_pos as usize;
        let q0 = anchor.query_pos as usize;
        let reach = self.cfg.max_extension;
        if idx.is_multiple_of(2) {
            let ts = t0.saturating_sub(reach);
            let qs = q0.saturating_sub(reach);
            (
                BaseView::reversed(&tc[ts..t0]),
                BaseView::reversed(&qc[qs..q0]),
            )
        } else {
            let span = self.seed_span;
            let te = tc.len().min(t0 + span + reach);
            let qe = qc.len().min(q0 + span + reach);
            (
                BaseView::forward(&tc[t0 + span..te]),
                BaseView::forward(&qc[q0 + span..qe]),
            )
        }
    }

    /// One extension problem under the resilience ladder.
    ///
    /// Attempts `0..MAX_PROBLEM_RETRIES` run the configured warp engine;
    /// a bit flip detected on each of those degrades the problem to the
    /// scalar y-drop path — the same engine at strip width 1 (one lane,
    /// one cell per step), whose results are identical by the strip-width
    /// invariance property — for `MAX_FALLBACK_RETRIES` more attempts.
    /// Exhausting the whole budget skips the problem with record. Each
    /// discarded attempt charges its task's serial time plus an exponential
    /// backoff into the modeled overhead; the clean attempt's result and
    /// counters are the ones kept.
    fn extend(
        &self,
        t: BaseView<'_>,
        q: BaseView<'_>,
        warp_cfg: &WarpConfig,
        shared: &mut SharedMem,
        tbm: &mut Vec<u8>,
        unit: u64,
    ) -> (SideResult, ProblemLog) {
        let (cfg, rcfg) = (self.cfg, self.rcfg);
        // One clean attempt of the configured algorithm. The bitvector
        // engine has no strip-width ladder — its deterministic re-run *is*
        // the degraded rung — so `scalar` only reshapes the y-drop path.
        let attempt =
            |shared: &mut SharedMem, tbm: &mut Vec<u8>, scalar: bool| match cfg.extend_backend {
                ExtendBackend::YDrop => {
                    let engine_cfg = if scalar {
                        warp_cfg.with_strip_width(1)
                    } else {
                        *warp_cfg
                    };
                    let e = warp_extend_in(t, q, &cfg.scoring, &engine_cfg, shared, tbm);
                    side_result(
                        (e.best_score, e.best_i, e.best_j),
                        (e.explored_rows, e.explored_cols),
                        e.ops.or(e.eager_ops),
                        e.counters,
                        BitvecStats::default(),
                    )
                }
                // The bitvector engine always emits a complete edit script.
                ExtendBackend::Bitvector => {
                    let e = bitvec_extend_in(t, q, &cfg.bitvec, shared);
                    side_result(
                        (e.best_score, e.best_i, e.best_j),
                        (e.explored_rows, e.explored_cols),
                        Some(e.ops),
                        e.counters,
                        e.stats,
                    )
                }
            };
        let mut log = ProblemLog::default();
        if rcfg.plan.is_none() {
            return (attempt(shared, tbm, false), log);
        }
        let site = FaultSite::new(0, scope::PROBLEM, unit);
        let budget = MAX_PROBLEM_RETRIES + MAX_FALLBACK_RETRIES;
        let mut attempt_no = 0u32;
        loop {
            let scalar = attempt_no >= MAX_PROBLEM_RETRIES;
            shared.clear();
            let r = attempt(shared, tbm, scalar);
            if !rcfg.plan.fires(FaultKind::BitFlip, site, attempt_no) {
                log.fell_back = scalar;
                return (r, log);
            }
            // ECC flagged a flipped score cell: discard the attempt, charge
            // its serial time plus backoff, and climb the ladder.
            log.flips += 1;
            log.wasted_s += r.task.cycles / self.clock_hz;
            log.backoff_s += fault::backoff_s(attempt_no);
            attempt_no += 1;
            if attempt_no >= budget {
                // Skip with record: the run keeps going without this seed
                // (its index lands in `ResilienceReport::skipped_seeds`);
                // the last attempt's result still feeds binning and timing.
                log.skipped = true;
                return (r, log);
            }
            log.retries += 1;
        }
    }

    /// Runs one checkpoint unit — the inspector phase or one executor
    /// bin. It is restored from the checkpoint when that holds all of it;
    /// otherwise `solve` runs each problem on `pool` and the results are
    /// checkpointed. Either way every result's work lands in the stage's
    /// counters and task-cycle histogram.
    fn restore_or_solve<S: MetricsSink>(
        &self,
        pool: &HostPool<'_>,
        ledger: &mut Ledger,
        sink: &mut S,
        stage: Stage,
        idxs: &[usize],
        solve: impl Fn(usize, &mut Arena) -> (SideResult, ProblemLog) + Sync,
    ) -> Vec<SideResult> {
        let results = match ledger.restore(stage, idxs) {
            Some(restored) => restored,
            None => {
                let outcomes = pool.run(idxs.len(), |k, arena| solve(idxs[k], arena));
                let results: Vec<SideResult> = idxs
                    .iter()
                    .zip(outcomes)
                    .map(|(&idx, (r, log))| {
                        ledger.absorb(idx, &log);
                        r
                    })
                    .collect();
                if let Some(path) = &self.rcfg.checkpoint {
                    ledger.persist(stage, idxs, &results, path);
                }
                results
            }
        };
        let stats = &mut ledger.stats;
        let (counters, hist) = match stage {
            Stage::Inspector => (&mut stats.inspector, names::TASK_CYCLES_INSPECTOR_HIST),
            Stage::Bin(_) => (&mut stats.executor, names::TASK_CYCLES_EXECUTOR_HIST),
        };
        for r in &results {
            counters.add_task(&r.counters);
            stats.bitvec.merge(&r.bitvec);
            sink.observe(hist, &names::TASK_CYCLES_BUCKETS, r.task.cycles);
        }
        results
    }

    /// Inspect phase: the lightweight inspector runs every problem, with
    /// eager traceback when enabled.
    fn inspect<S: MetricsSink>(
        &self,
        pool: &HostPool<'_>,
        ledger: &mut Ledger,
        sink: &mut S,
    ) -> Vec<SideResult> {
        let idxs: Vec<usize> = (0..self.n_problems).collect();
        self.restore_or_solve(pool, ledger, sink, Stage::Inspector, &idxs, |idx, arena| {
            arena.shared.sanitize_context("inspector", idx as u64);
            let (t, q) = self.side(idx);
            let (shared, scratch) = (&mut arena.shared, &mut arena.scratch);
            self.extend(t, q, &self.insp_cfg, shared, scratch, idx as u64)
        })
    }

    /// Whether a side finished in the inspector: eager traceback produced
    /// its edit script (y-drop, with the flag on and a ≤16×16 optimum),
    /// or the bitvector engine did, which tracebacks every problem in
    /// place whatever the flag. The partition and the `eager_traceback`
    /// span both count sides by this predicate.
    fn resolved_in_inspector(&self, r: &SideResult) -> bool {
        r.eager_ops.is_some()
            && (self.cfg.flags.eager_traceback
                || self.cfg.extend_backend == ExtendBackend::Bitvector)
    }

    /// The partition phase: Table 2 classifies each seed by its optimal
    /// extent; problems not resolved in the inspector go to the
    /// executor's length bins (§3.3), in problem order within a bin.
    fn partition<S: MetricsSink>(
        &self,
        inspector: &[SideResult],
        ledger: &mut Ledger,
        sink: &mut S,
    ) -> Vec<Vec<usize>> {
        for pair in inspector.chunks(2) {
            let extent = pair.iter().map(|r| r.extent()).max().unwrap_or(0);
            ledger.bin_counts.record(classify(extent));
            sink.observe(
                names::SEED_EXTENT_HIST,
                &names::SEED_EXTENT_BUCKETS,
                extent as f64,
            );
        }
        let stats = &mut ledger.stats;
        let mut bins: Vec<Vec<usize>> = vec![Vec::new(); BIN_BOUNDS.len() + 2];
        for (idx, r) in inspector.iter().enumerate() {
            if self.resolved_in_inspector(r) {
                stats.eager_resolved += 1;
                continue;
            }
            let slot = match classify(r.extent()) {
                BinClass::Eager => 0, // eager-sized but flag off → smallest bin
                BinClass::Bin(b) => b + 1,
                BinClass::Overflow => BIN_BOUNDS.len() + 1,
            };
            bins[slot].push(idx);
        }
        stats.executor_problems = self.n_problems - stats.eager_resolved;
        bins
    }

    /// Execute phase: each non-empty bin re-runs its problems with full
    /// traceback, trimmed to the optimum the inspector found, and becomes
    /// one kernel split into launch batches like the inspector's.
    fn execute<S: MetricsSink>(
        &self,
        pool: &HostPool<'_>,
        ledger: &mut Ledger,
        sink: &mut S,
        inspector: &[SideResult],
        bins: &[Vec<usize>],
    ) -> Executed {
        let flags = self.cfg.flags;
        let mut executed = Executed {
            results: vec![None; self.n_problems],
            kernels: Vec::new(),
            slots: Vec::new(),
        };
        for (slot, bin) in bins.iter().enumerate().filter(|(_, bin)| !bin.is_empty()) {
            let results =
                self.restore_or_solve(pool, ledger, sink, Stage::Bin(slot), bin, |idx, arena| {
                    arena.shared.sanitize_context("executor", idx as u64);
                    let insp = &inspector[idx];
                    let (t, q) = self.side(idx);
                    let mut exec_cfg = WarpConfig::executor(&flags, insp.best_i, insp.best_j)
                        .with_strip_width(self.strip_width)
                        .with_backend(self.cfg.backend);
                    if !flags.executor_trimming {
                        // Untrimmed executor recomputes the whole search space the
                        // inspector explored, with traceback everywhere (Fig 9
                        // base configuration).
                        exec_cfg.max_rows = insp.explored_rows;
                        exec_cfg.max_cols = insp.explored_cols;
                    }
                    // The arena's traceback buffer, leased by bin slot and
                    // accounted on the trimmed rectangle; the engine clears
                    // it and stores only the band it explores.
                    let rows = q.len().min(exec_cfg.max_rows);
                    let cols = t.len().min(exec_cfg.max_cols);
                    let tbm = arena.tb.lease(slot, rows.saturating_mul(cols));
                    // Executor problem sites live in the upper unit half-space
                    // so their fault schedule is independent of the inspector's.
                    let unit = (1u64 << 32) | idx as u64;
                    self.extend(t, q, &exec_cfg, &mut arena.shared, tbm, unit)
                });
            let tasks: Vec<WarpTask> = results.iter().map(|r| r.task).collect();
            for (&idx, r) in bin.iter().zip(results) {
                executed.results[idx] = Some(r);
            }
            for (b, chunk) in tasks.chunks(LAUNCH_BATCH).enumerate() {
                executed.kernels.push(KernelSpec::new(
                    format!("executor-bin{slot}-{b}"),
                    chunk.to_vec(),
                    BlockResources::fastz_executor(),
                ));
                executed.slots.push(slot);
            }
        }
        executed
    }

    /// Splice phase: joins each seed's two sides around it into one
    /// alignment and keeps those that reach the gapped threshold.
    fn splice(
        &self,
        inspector: &[SideResult],
        executor: &[Option<SideResult>],
        skipped: &BTreeSet<usize>,
    ) -> Vec<Alignment> {
        let tc = self.target.codes();
        let qc = self.query.codes();
        let span = self.seed_span;
        // A side's final ops come from eager traceback (inspector) when it
        // resolved there, otherwise from the executor's full traceback
        // (both are stored in `SideResult::eager_ops` by `side_result`).
        let side = |idx: usize| {
            let r = executor[idx].as_ref().unwrap_or(&inspector[idx]);
            let ops = r.eager_ops.as_deref();
            (r, ops.expect("unresolved side has no edit script"))
        };
        let mut alignments: Vec<Alignment> = Vec::new();
        for (a_idx, anchor) in self.anchors.iter().enumerate() {
            // A seed whose side exhausted the whole retry/fallback budget is
            // skipped with record rather than spliced from a suspect result;
            // a rejected anchor has no seed to splice.
            if skipped.contains(&a_idx) || self.rejected.contains(&a_idx) {
                continue;
            }
            let (left, left_ops) = side(a_idx * 2);
            let (right, right_ops) = side(a_idx * 2 + 1);
            let t0 = anchor.target_pos as usize;
            let q0 = anchor.query_pos as usize;
            // The seed must be scored in the same regime as the sides it
            // joins: substitution-matrix scores under y-drop, the unit
            // identity (match +2, mismatch −1: `(i+j) − 3·ed` over one
            // aligned pair) under the bitvector engine, where `N` matches
            // nothing.
            let seed_score: i32 = (0..span)
                .map(|k| {
                    let (tb, qb) = (tc[t0 + k], qc[q0 + k]);
                    match self.cfg.extend_backend {
                        ExtendBackend::YDrop => self.cfg.scoring.subst.score(tb, qb),
                        ExtendBackend::Bitvector if tb == qb && tb < N_CODE => 2,
                        ExtendBackend::Bitvector => -1,
                    }
                })
                .sum();

            let mut ops: Vec<EditOp> = Vec::new();
            for &op in left_ops.iter().rev() {
                push_op(&mut ops, op);
            }
            push_op(&mut ops, EditOp::Diag(span as u32));
            for &op in right_ops {
                push_op(&mut ops, op);
            }

            let alignment = Alignment {
                target_start: t0 - left.best_j,
                target_end: t0 + span + right.best_j,
                query_start: q0 - left.best_i,
                query_end: q0 + span + right.best_i,
                score: left.score + seed_score + right.score,
                ops,
            };
            if alignment.score >= self.cfg.scoring.gapped_threshold {
                alignments.push(alignment);
            }
        }
        fastz_align::dedupe_alignments(alignments)
    }

    /// Account phase: prices the measured work on the modeled device —
    /// inspector kernel batches, memory-capped stream timing under
    /// kernel-level faults, and the host-side "other" time — into the
    /// Figure 8 timeline, and assembles the report. Also returns the
    /// inspector and executor stream timing for the emit phase.
    fn account(
        &self,
        inspector: &[SideResult],
        executed: Executed,
        mut ledger: Ledger,
        alignments: Vec<Alignment>,
        sanitize: Option<fastz_gpu_sim::SanitizeReport>,
    ) -> (FastZReport, [PipelineTiming; 2]) {
        let cfg = self.cfg;
        let flags = cfg.flags;
        let inspector_kernels: Vec<KernelSpec> = inspector
            .chunks(LAUNCH_BATCH)
            .enumerate()
            .map(|(b, chunk)| {
                KernelSpec::new(
                    format!("inspector-{b}"),
                    chunk.iter().map(|r| r.task).collect(),
                    BlockResources::fastz_inspector(),
                )
            })
            .collect();

        // Without cyclic register buffers, the inspector cannot elide its
        // score matrices: each resident problem holds a worst-case banded
        // allocation (reachable rows × max extension × 12 B), and device
        // memory caps how many problems run concurrently (paper §3 — the
        // footprint reduction "enables more parallelism").
        let max_match = cfg.scoring.subst.max_score().max(1);
        let banded_rows = 32
            + ((cfg.scoring.ydrop + 32 * max_match).max(0) / cfg.scoring.gaps.extend.max(1))
                as usize;
        let inspector_alloc_bytes =
            (!flags.cyclic_buffers).then(|| (banded_rows * cfg.max_extension * 12) as u64);
        let executor_alloc_bytes = (!flags.executor_trimming).then(|| {
            let per_cell = 1 + if flags.cyclic_buffers { 0 } else { 12 };
            (banded_rows * cfg.max_extension * per_cell) as u64
        });
        let res = &mut ledger.res;
        let insp = self.time_kernels(
            &inspector_kernels,
            inspector_alloc_bytes,
            scope::INSPECTOR_KERNEL,
            res,
        );
        let exec = self.time_kernels(
            &executed.kernels,
            executor_alloc_bytes,
            scope::EXECUTOR_KERNEL,
            res,
        );
        res.skipped_seeds = ledger.skipped.iter().copied().collect();
        res.rejected_anchors = self.rejected.iter().copied().collect();
        let other_s = host::FIXED_S
            + (self.target.len() + self.query.len()) as f64 / host::PCIE_BW
            + self.anchors.len() as f64 * host::PER_SEED_S;

        let mut timeline = PhaseTimeline::new();
        timeline.add("inspector", insp.time_s);
        timeline.add("executor", exec.time_s);
        timeline.add("other", other_s);
        if res.overhead_s > 0.0 {
            // Fault-free runs keep the three-phase Figure 8 timeline exactly;
            // fault recovery shows up as its own phase.
            timeline.add("resilience", res.overhead_s);
        }
        let report = FastZReport {
            alignments,
            bin_counts: ledger.bin_counts,
            modeled_time_s: timeline.total(),
            timeline,
            stats: ledger.stats,
            host_wall: Duration::ZERO,
            inspector_kernels,
            executor_kernels: executed.kernels,
            executor_bin_slots: executed.slots,
            other_s,
            inspector_alloc_bytes,
            executor_alloc_bytes,
            resilience: ledger.res,
            sanitize,
        };
        (report, [insp, exec])
    }

    /// Models one phase's kernels on the run's device and streams, capped
    /// by device memory when each problem holds `alloc_bytes`, under the
    /// kernel-level faults the plan schedules at `site_scope`.
    fn time_kernels(
        &self,
        kernels: &[KernelSpec],
        alloc_bytes: Option<u64>,
        site_scope: u32,
        res: &mut ResilienceReport,
    ) -> PipelineTiming {
        let (cfg, rcfg) = (self.cfg, self.rcfg);
        let rt = time_stream_pipeline_resilient(
            &cfg.device,
            kernels,
            cfg.flags.streams,
            memory_cap(&cfg.device, alloc_bytes),
            &rcfg.plan,
            site_scope,
        );
        // Kernel-level faults: hangs are detected (watchdog + relaunch);
        // stalls and shared-memory pressure are tolerated in place.
        res.injected.merge(&rt.faults);
        res.detected.hangs += rt.faults.hangs;
        res.tolerated.stalls += rt.faults.stalls;
        res.tolerated.shmem_pressure += rt.faults.shmem_pressure;
        res.retries += rt.retries;
        res.backoff_s += rt.backoff_s;
        res.overhead_s += rt.overhead_s;
        rt.base
    }

    /// Emit phase, observed runs only. Everything emitted derives from
    /// deterministic work counters and the modeled clock — never wall
    /// time — so a fixed-seed run exports byte-identical metrics and
    /// spans on every invocation.
    fn emit<S: MetricsSink>(
        &self,
        sink: &mut S,
        pool: &HostPool<'_>,
        report: &FastZReport,
        inspector: &[SideResult],
        [insp_t, exec_t]: &[PipelineTiming; 2],
    ) {
        let cfg = self.cfg;
        let stats = &report.stats;
        sink.counter_add(names::SEEDS_TOTAL, stats.seeds as u64);
        sink.counter_add(names::PROBLEMS_TOTAL, stats.problems as u64);
        sink.counter_add(names::EAGER_RESOLVED_TOTAL, stats.eager_resolved as u64);
        sink.counter_add(
            names::EXECUTOR_PROBLEMS_TOTAL,
            stats.executor_problems as u64,
        );
        sink.counter_add(names::ALIGNMENTS_TOTAL, report.alignments.len() as u64);
        // Bitvector work-reduction counters, emitted on every observed
        // run — zeros under y-drop — so the exported series set never
        // depends on the configured backend.
        sink.counter_add(names::BITVEC_WINDOWS_TOTAL, stats.bitvec.windows);
        sink.counter_add(names::BITVEC_SENE_SKIPS_TOTAL, stats.bitvec.sene_skips);
        sink.counter_add(
            names::BITVEC_DENT_DISCARDS_TOTAL,
            stats.bitvec.dent_discards,
        );
        report.bin_counts.record_into(sink);
        stats.inspector.record_into(sink, "inspector");
        stats.executor.record_into(sink, "executor");
        report.resilience.record_into(sink);

        let eager_ratio = if stats.problems == 0 {
            0.0
        } else {
            stats.eager_resolved as f64 / stats.problems as f64
        };
        sink.gauge_set(names::EAGER_HIT_RATIO, eager_ratio);
        let mut work = stats.inspector.total;
        work.merge(&stats.executor.total);
        let moved = work.shared_bytes + work.global_bytes();
        let elision = if moved == 0 {
            0.0
        } else {
            work.shared_bytes as f64 / moved as f64
        };
        sink.gauge_set(names::GLOBAL_TRAFFIC_ELISION_RATIO, elision);
        for (phase, counters) in [
            ("inspector", &stats.inspector),
            ("executor", &stats.executor),
        ] {
            roofline::analyze(
                &cfg.device,
                counters.total.alu_ops,
                counters.total.global_bytes(),
            )
            .record_into(sink, phase);
        }
        insp_t.record_into(sink, "inspector");
        exec_t.record_into(sink, "executor");
        report.timeline.record_into(sink);
        sink.gauge_set(names::MODELED_TIME_SECONDS, report.timeline.total());

        // Host execution pool telemetry. Tasks, phases, and the arena
        // counters are deterministic at one worker (the golden workload
        // pins `sim_threads = 1`); steals and occupancy describe the
        // actual schedule.
        let ps = pool.stats();
        sink.gauge_set(names::POOL_WORKERS, ps.workers as f64);
        sink.counter_add(names::POOL_PHASES_TOTAL, ps.phases);
        sink.counter_add(names::POOL_TASKS_TOTAL, ps.tasks);
        sink.counter_add(names::POOL_STEALS_TOTAL, ps.steals);
        sink.gauge_set(names::POOL_OCCUPANCY_RATIO, ps.occupancy());
        sink.counter_add(names::ARENA_TB_HITS_TOTAL, ps.tb_hits);
        sink.counter_add(names::ARENA_TB_MISSES_TOTAL, ps.tb_misses);
        sink.gauge_set(
            names::SHARED_CAPACITY_BYTES,
            (cfg.device.shared_kib_per_sm * 1024) as f64,
        );

        // Sanitizer counters, emitted on every observed run — zeros
        // when the sanitizer is off — so the exported series set never
        // depends on configuration (same discipline as FaultCounters).
        let srep = report.sanitize.clone().unwrap_or_default();
        for kind in fastz_gpu_sim::FindingKind::ALL {
            sink.counter_add(&names::sanitize_kind(kind.name()), srep.count(kind));
        }
        sink.counter_add(names::SANITIZE_SHARED_READS_TOTAL, srep.shared_reads);
        sink.counter_add(names::SANITIZE_SHARED_WRITES_TOTAL, srep.shared_writes);
        sink.counter_add(names::SANITIZE_BARRIERS_TOTAL, srep.barriers);
        for ph in ["inspector", "executor"] {
            let b = srep.banks.get(ph).copied().unwrap_or_default();
            sink.counter_add(
                &names::phase(names::BANK_CONFLICTS_TOTAL, ph),
                b.conflict_events,
            );
            sink.counter_add(
                &names::phase(names::BANK_SERIALIZED_TOTAL, ph),
                b.serialized_extra,
            );
            sink.gauge_set(
                &names::phase(names::BANK_MAX_WAYS, ph),
                f64::from(b.max_ways),
            );
            roofline::record_bank_pressure(sink, ph, b.groups, b.serialized_extra);
        }
        self.emit_spans(sink, report, inspector, insp_t, exec_t);
    }

    /// Span timeline: phases laid back-to-back on the logical clock.
    /// The per-bin executor spans are an *attribution* view — each
    /// slot's kernels re-timed alone — because the multi-stream model
    /// pools all bins into one bag of tasks; their sum can therefore
    /// differ from the pooled executor phase time (the gauge keeps the
    /// pooled number).
    fn emit_spans<S: MetricsSink>(
        &self,
        sink: &mut S,
        report: &FastZReport,
        inspector: &[SideResult],
        insp_t: &PipelineTiming,
        exec_t: &PipelineTiming,
    ) {
        let device = &self.cfg.device;
        let mut clock = LogicalClock::new();
        let (s, d) = clock.advance(insp_t.time_s * 1e6);
        sink.span(names::SPAN_INSPECTOR, "gpu", s, d);
        // Folded from +0.0: an empty f64 `sum` is -0.0, which would
        // export as `-0`.
        let eager_cycles = inspector
            .iter()
            .filter(|r| self.resolved_in_inspector(r))
            .fold(0.0, |acc, r| acc + r.counters.scalar_ops as f64);
        let eager_us = (eager_cycles / self.clock_hz * 1e6).min(d);
        sink.span(names::SPAN_EAGER_TRACEBACK, "gpu", s, eager_us);
        // Slot 0 holds eager-sized problems run with the flag off — the
        // same kernel class as the smallest bin.
        let slot_bound = |slot: usize| -> Option<usize> {
            match slot {
                0 => Some(BIN_BOUNDS[0]),
                s if s <= BIN_BOUNDS.len() => Some(BIN_BOUNDS[s - 1]),
                _ => None,
            }
        };
        let exec_cap = memory_cap(device, report.executor_alloc_bytes);
        for bound in BIN_BOUNDS.iter().map(|&b| Some(b)).chain([None]) {
            let group: Vec<KernelSpec> = report
                .executor_kernels
                .iter()
                .zip(&report.executor_bin_slots)
                .filter(|&(_, &slot)| slot_bound(slot) == bound)
                .map(|(k, _)| k.clone())
                .collect();
            if group.is_empty() {
                continue;
            }
            let t = time_stream_pipeline_capped(device, &group, self.cfg.flags.streams, exec_cap);
            let (s, d) = clock.advance(t.time_s * 1e6);
            sink.span(names::executor_bin_span(bound), "gpu", s, d);
        }
        let (s, d) = clock.advance((insp_t.launch_s + exec_t.launch_s) * 1e6);
        sink.span(names::SPAN_STREAM_DISPATCH, "host", s, d);
        let (s, d) = clock.advance(report.other_s * 1e6);
        sink.span(names::SPAN_OTHER, "host", s, d);
        let overhead_s = report.resilience.overhead_s;
        if overhead_s > 0.0 {
            let (s, d) = clock.advance(overhead_s * 1e6);
            sink.span(names::SPAN_RESILIENT_RETRY, "resilience", s, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastz_align::{sequential_gapped, DriverConfig};
    use fastz_genome::evolve::{generate_pair, PairParams};
    use fastz_seed::{Workload, WorkloadParams};

    fn demo(seed: u64) -> (Sequence, Sequence, Vec<Anchor>, usize) {
        let pair = generate_pair(&PairParams {
            target_len: 12_000,
            query_len: 12_000,
            segments: 24,
            ..PairParams::small_demo("pl", seed)
        });
        let wl = Workload::build(
            &pair.target,
            &pair.query,
            &WorkloadParams {
                max_anchors: 300,
                ..WorkloadParams::default()
            },
        );
        let span = wl.shape.span();
        (pair.target, pair.query, wl.anchors, span)
    }

    fn config() -> FastZConfig {
        FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere())
    }

    #[test]
    fn pipeline_produces_valid_alignments() {
        let (t, q, anchors, span) = demo(101);
        let report = run_fastz(&t, &q, &anchors, span, &config());
        assert!(!report.alignments.is_empty());
        for a in &report.alignments {
            assert!(a.is_consistent(&t, &q), "{a}");
            assert_eq!(a.rescore(&t, &q, &config().scoring), a.score, "{a}");
        }
        assert_eq!(report.bin_counts.total(), anchors.len());
        assert!(report.modeled_time_s > 0.0);
        assert_eq!(report.timeline.entries().len(), 3);
    }

    #[test]
    fn sanitized_pipeline_is_clean_and_bit_identical() {
        // The full pipeline under the sanitizer: zero findings (the
        // engine's shared-memory choreography is correct), and the
        // functional results and modeled time are bit-identical to the
        // unsanitized run — the sanitizer observes, never perturbs.
        let (t, q, anchors, span) = demo(103);
        let base_cfg = config();
        let base = run_fastz(&t, &q, &anchors, span, &base_cfg);
        assert!(base.sanitize.is_none(), "off by default");

        let san_cfg = FastZConfig {
            sanitize: true,
            ..config()
        };
        let san = run_fastz(&t, &q, &anchors, span, &san_cfg);
        let rep = san
            .sanitize
            .as_ref()
            .expect("sanitize: true yields a report");
        assert!(rep.is_clean(), "findings: {:?}", rep.findings);
        assert!(rep.shared_writes > 0, "the eager window was exercised");
        assert!(rep.barriers > 0, "eager walks crossed the modeled barrier");
        assert_eq!(san.alignments, base.alignments);
        assert_eq!(san.bin_counts, base.bin_counts);
        assert_eq!(
            san.modeled_time_s.to_bits(),
            base.modeled_time_s.to_bits(),
            "sanitizer must not perturb modeled time"
        );
    }

    #[test]
    fn sanitized_report_is_invariant_across_sim_threads() {
        let (t, q, anchors, span) = demo(104);
        let run = |threads: usize| {
            let cfg = FastZConfig {
                sanitize: true,
                sim_threads: threads,
                ..config()
            };
            run_fastz(&t, &q, &anchors, span, &cfg)
                .sanitize
                .expect("report")
        };
        let reference = run(1);
        assert_eq!(reference, run(4));
        assert_eq!(reference, run(3));
    }

    #[test]
    fn fastz_matches_or_beats_sequential_lastz() {
        // The paper's §3.4 guarantee: identical or occasionally longer
        // alignments. Every sequential alignment must be covered by a
        // FastZ alignment with at least its score.
        let (t, q, anchors, span) = demo(102);
        let cfg = config();
        let seq_cfg = DriverConfig {
            work_reduction: false,
            ..DriverConfig::gapped(cfg.scoring.clone())
        };
        let seq = sequential_gapped(&t, &q, &anchors, span, &seq_cfg);
        let fz = run_fastz(&t, &q, &anchors, span, &cfg);
        assert!(!seq.alignments.is_empty());
        for a in &seq.alignments {
            let covered = fz.alignments.iter().any(|f| {
                f.target_start <= a.target_start
                    && f.target_end >= a.target_end
                    && f.query_start <= a.query_start
                    && f.query_end >= a.query_end
                    && f.score >= a.score
            });
            assert!(covered, "sequential alignment not covered: {a}");
        }
        // And the vast majority should be *identical*.
        let identical = seq
            .alignments
            .iter()
            .filter(|a| fz.alignments.contains(a))
            .count();
        assert!(
            identical as f64 / seq.alignments.len() as f64 > 0.9,
            "only {identical}/{} identical",
            seq.alignments.len()
        );
    }

    #[test]
    fn eager_traceback_resolves_most_problems() {
        // Tiny-homology-dominated pair (the realistic regime; the bench
        // catalog reproduces the paper's 75-80 % per-seed fraction).
        let pair = generate_pair(&PairParams {
            target_len: 15_000,
            query_len: 15_000,
            segments: 40,
            classes: vec![
                fastz_genome::HomologyClass {
                    name: "tiny",
                    len_range: (21, 34),
                    weight: 90.0,
                    rates: fastz_genome::MutationRates::IDENTITY,
                },
                fastz_genome::HomologyClass {
                    name: "small",
                    len_range: (35, 120),
                    weight: 10.0,
                    rates: fastz_genome::MutationRates::conserved(),
                },
            ],
            ..PairParams::small_demo("eg", 103)
        });
        let wl = Workload::build(&pair.target, &pair.query, &WorkloadParams::default());
        let report = run_fastz(
            &pair.target,
            &pair.query,
            &wl.anchors,
            wl.shape.span(),
            &config(),
        );
        let frac = report.stats.eager_resolved as f64 / report.stats.problems as f64;
        assert!(frac > 0.6, "eager fraction {frac:.2}");
        assert_eq!(
            report.stats.eager_resolved + report.stats.executor_problems,
            report.stats.problems
        );
    }

    #[test]
    fn ablation_configs_all_produce_same_alignments() {
        let (t, q, anchors, span) = demo(104);
        let mut reference: Option<Vec<Alignment>> = None;
        for (label, flags) in OptFlags::figure9_progression() {
            let cfg = FastZConfig { flags, ..config() };
            let report = run_fastz(&t, &q, &anchors, span, &cfg);
            match &reference {
                None => reference = Some(report.alignments),
                Some(r) => assert_eq!(r, &report.alignments, "config {label} changed results"),
            }
        }
    }

    #[test]
    fn ablation_staircase_is_monotone() {
        // Each added optimization must reduce modeled time; a single
        // stream must increase it (Figure 9).
        let (t, q, anchors, span) = demo(105);
        let time_of = |flags: OptFlags| {
            run_fastz(&t, &q, &anchors, span, &FastZConfig { flags, ..config() }).modeled_time_s
        };
        // At unit-test scale some steps are launch-overhead-dominated and
        // may tie; the strict staircase is asserted at benchmark scale by
        // the fig9 harness. Here: never slower, and strictly faster
        // end-to-end.
        let base = time_of(OptFlags::base());
        let cyclic = time_of(OptFlags::with_cyclic());
        let eager = time_of(OptFlags::with_eager());
        let fastz = time_of(OptFlags::fastz());
        let single = time_of(OptFlags::fastz_single_stream());
        assert!(cyclic <= base, "cyclic {cyclic} !<= base {base}");
        assert!(eager <= cyclic, "eager {eager} !<= cyclic {cyclic}");
        assert!(fastz <= eager, "fastz {fastz} !<= eager {eager}");
        assert!(single >= fastz, "single {single} !>= fastz {fastz}");
        assert!(fastz < base, "fastz {fastz} !< base {base}");
    }

    #[test]
    fn empty_anchor_list_is_fine() {
        let (t, q, _, span) = demo(106);
        let report = run_fastz(&t, &q, &[], span, &config());
        assert!(report.alignments.is_empty());
        assert_eq!(report.bin_counts.total(), 0);
    }

    #[test]
    fn shared_capacity_observes_the_device_spec() {
        // Regression for the hardcoded 96-KiB scratchpad: an RTX 3080
        // run must observe the device's full 128 KiB, and a Pascal run
        // its 96 KiB — derived from the spec, not a constant.
        let (t, q, anchors, span) = demo(107);
        let observe = |device: DeviceSpec| {
            let mut rec = fastz_obs::Recorder::new();
            let cfg = FastZConfig { device, ..config() };
            run_fastz_observed(
                &t,
                &q,
                &anchors,
                span,
                &cfg,
                &ResilienceConfig::disabled(),
                &mut rec,
            );
            rec.registry.gauge(names::SHARED_CAPACITY_BYTES).unwrap()
        };
        assert_eq!(observe(DeviceSpec::rtx3080_ampere()), (128 * 1024) as f64);
        assert_eq!(observe(DeviceSpec::titan_x_pascal()), (96 * 1024) as f64);
    }

    #[test]
    fn report_is_invariant_across_sim_threads() {
        // The pool's determinism contract at unit scale (the proptest
        // widens the corpus sweep): alignments, bin counts, and the
        // modeled time's exact bits never depend on worker count.
        let (t, q, anchors, span) = demo(108);
        let run_with = |threads: usize| {
            let cfg = FastZConfig {
                sim_threads: threads,
                ..config()
            };
            run_fastz(&t, &q, &anchors, span, &cfg)
        };
        let reference = run_with(1);
        for threads in [2, 7, 0] {
            let r = run_with(threads);
            assert_eq!(r.alignments, reference.alignments);
            assert_eq!(r.bin_counts, reference.bin_counts);
            assert_eq!(
                r.modeled_time_s.to_bits(),
                reference.modeled_time_s.to_bits(),
                "modeled time drifted at {threads} threads"
            );
        }
    }

    #[test]
    fn report_is_invariant_across_wavefront_backends() {
        // The SIMD backend's contract mirrors sim_threads: a pure
        // wall-clock knob. Everything observable in the report —
        // alignments, bin counts, per-kernel counter totals, and the
        // modeled time's exact bits — matches the interpreter, across
        // thread counts and strip widths.
        let (t, q, anchors, span) = demo(108);
        let reference = run_fastz(&t, &q, &anchors, span, &config());
        for threads in [1, 0] {
            for strip_width in [32usize, 5] {
                let cfg = FastZConfig {
                    backend: WavefrontBackend::Simd,
                    sim_threads: threads,
                    strip_width,
                    ..config()
                };
                let base = FastZConfig {
                    backend: WavefrontBackend::Interpreter,
                    ..cfg.clone()
                };
                let simd = run_fastz(&t, &q, &anchors, span, &cfg);
                let interp = run_fastz(&t, &q, &anchors, span, &base);
                assert_eq!(simd.alignments, interp.alignments);
                assert_eq!(simd.bin_counts, interp.bin_counts);
                let kern = |ks: &[KernelSpec]| -> Vec<(String, Vec<fastz_gpu_sim::WarpTask>)> {
                    ks.iter()
                        .map(|k| (k.name.clone(), k.tasks.clone()))
                        .collect()
                };
                assert_eq!(
                    kern(&simd.inspector_kernels),
                    kern(&interp.inspector_kernels)
                );
                assert_eq!(kern(&simd.executor_kernels), kern(&interp.executor_kernels));
                assert_eq!(
                    simd.modeled_time_s.to_bits(),
                    interp.modeled_time_s.to_bits(),
                    "modeled time drifted at {threads} threads / width {strip_width}"
                );
                if strip_width == 32 && threads == 1 {
                    assert_eq!(simd.alignments, reference.alignments);
                }
            }
        }
    }

    #[test]
    fn bitvector_backend_runs_the_pipeline_end_to_end() {
        let (t, q, anchors, span) = demo(110);
        let mut cfg = config();
        cfg.extend_backend = ExtendBackend::Bitvector;
        // Thresholds are regime-specific: in the unit regime a score of
        // 100 is ~50 well-aligned bases.
        cfg.scoring.gapped_threshold = 100;
        let report = run_fastz(&t, &q, &anchors, span, &cfg);
        assert!(!report.alignments.is_empty());
        // The bitvector engine tracebacks in place: no executor residue.
        assert_eq!(report.stats.executor_problems, 0);
        assert_eq!(report.stats.eager_resolved, report.stats.problems);
        assert!(report.stats.bitvec.windows > 0);
        let tc = t.codes();
        let qc = q.codes();
        for a in &report.alignments {
            assert!(a.is_consistent(&t, &q), "{a}");
            // Unit-score identity over the spliced script: +2 per match,
            // −1 per mismatch, −2 per gap base ((i+j) − 3·ed summed).
            let (mut ti, mut qi, mut unit) = (a.target_start, a.query_start, 0i32);
            for op in &a.ops {
                match *op {
                    EditOp::Diag(n) => {
                        for k in 0..n as usize {
                            unit += if tc[ti + k] == qc[qi + k] { 2 } else { -1 };
                        }
                        ti += n as usize;
                        qi += n as usize;
                    }
                    EditOp::GapQ(n) => {
                        ti += n as usize;
                        unit -= 2 * n as i32;
                    }
                    EditOp::GapT(n) => {
                        qi += n as usize;
                        unit -= 2 * n as i32;
                    }
                }
            }
            assert_eq!(unit, a.score, "{a}");
        }
        // Same determinism contract as y-drop: worker count never
        // reaches the results.
        for threads in [4, 3] {
            let run = run_fastz(
                &t,
                &q,
                &anchors,
                span,
                &FastZConfig {
                    sim_threads: threads,
                    ..cfg.clone()
                },
            );
            assert_eq!(run.alignments, report.alignments);
            assert_eq!(run.bin_counts, report.bin_counts);
            assert_eq!(
                run.modeled_time_s.to_bits(),
                report.modeled_time_s.to_bits()
            );
        }
    }

    #[test]
    fn bitvector_backend_is_sanitizer_clean() {
        let (t, q, anchors, span) = demo(111);
        let mut cfg = config();
        cfg.extend_backend = ExtendBackend::Bitvector;
        cfg.scoring.gapped_threshold = 100;
        cfg.sanitize = true;
        let report = run_fastz(&t, &q, &anchors, span, &cfg);
        let rep = report.sanitize.as_ref().expect("sanitize report");
        assert!(rep.is_clean(), "findings: {:?}", rep.findings);
        assert!(rep.shared_writes > 0, "bitvector rows hit the scratchpad");
        assert!(rep.barriers > 0, "DP/traceback stages are barrier-fenced");
    }

    #[test]
    fn pool_telemetry_reaches_the_sink() {
        let (t, q, anchors, span) = demo(109);
        let mut rec = fastz_obs::Recorder::new();
        let cfg = FastZConfig {
            sim_threads: 1,
            ..config()
        };
        run_fastz_observed(
            &t,
            &q,
            &anchors,
            span,
            &cfg,
            &ResilienceConfig::disabled(),
            &mut rec,
        );
        let reg = &rec.registry;
        assert_eq!(reg.gauge(names::POOL_WORKERS), Some(1.0));
        // Inspector + at least one executor bin.
        assert!(reg.counter(names::POOL_PHASES_TOTAL).unwrap() >= 2);
        // Every problem ran exactly once: inspector problems plus the
        // executor residue.
        let tasks = reg.counter(names::POOL_TASKS_TOTAL).unwrap();
        assert_eq!(
            tasks,
            (anchors.len() * 2) as u64 + reg.counter(names::EXECUTOR_PROBLEMS_TOTAL).unwrap()
        );
        assert_eq!(reg.counter(names::POOL_STEALS_TOTAL), Some(0));
        assert_eq!(reg.gauge(names::POOL_OCCUPANCY_RATIO), Some(1.0));
        // Executor bins reuse traceback buffers after the first lease.
        let hits = reg.counter(names::ARENA_TB_HITS_TOTAL).unwrap();
        let misses = reg.counter(names::ARENA_TB_MISSES_TOTAL).unwrap();
        assert_eq!(
            hits + misses,
            reg.counter(names::EXECUTOR_PROBLEMS_TOTAL).unwrap()
        );
        assert!(hits >= 1, "no arena reuse at all ({hits}/{misses})");
    }
}
