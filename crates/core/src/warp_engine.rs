//! The warp-parallel y-drop extension engine (FastZ's DP kernel body).
//!
//! One seed-extension side runs on one warp (paper §3.1.1). Columns of
//! the DP matrix are strip-mined 32 at a time; within a strip the
//! wavefront advances along anti-diagonals, lane ℓ owning column
//! `strip_base + ℓ + 1` and computing one row per step. Per-lane live
//! state is exactly the paper's three-diagonal **cyclic use-and-discard
//! register buffer** (§3.2): the S/I/D values of the lane's previous row
//! plus the S value of the row before that; horizontal and diagonal
//! dependencies arrive from lane ℓ−1 via warp shuffles. Only lane 31
//! writes its column's state to the strip-boundary spill buffer — the
//! 1/32 residual traffic of §3.2.
//!
//! Pruning uses a **provably LASTZ-superset threshold**: a cell `(i, j)`
//! may be pruned only against scores of cells that LASTZ's row-major
//! sweep would have completed before it — rows `< i`, or row `i` at
//! columns `< j`. Two sources satisfy that order: (a) the warp-wide
//! maxima of anti-diagonals at least 32 steps old (every lane of those
//! diagonals lies on a strictly smaller row than any current cell), and
//! (b) the per-row prefix maxima of all previous strips. Consequently
//! the engine explores a superset of sequential LASTZ's cells and
//! returns the same or an occasionally higher score (§3.4).

use crate::ablation::OptFlags;
use crate::wavefront_step::{
    first_lane_at, profile_select, reduce_max, step_interpreter, step_simd, target_profile, StepIn,
};
use fastz_align::score;
use fastz_align::trace::{CellScores, CellSink, NoTrace};
use fastz_align::ydrop::{tb, NEG_INF};
use fastz_align::{walk_traceback_with, EditOp};
use fastz_genome::Scoring;
use fastz_gpu_sim::sanitize::stage as san_stage;
use fastz_gpu_sim::{lanes32, shfl_up, splat, Lanes, SharedMem, WarpCounters, WARP_SIZE};
use std::sync::OnceLock;

/// Which host realization of the 32-lane wavefront executes each step.
///
/// Both backends run the identical step semantics (the kernels live in
/// [`crate::wavefront_step`]); every observable output — alignments, bin
/// counts, counters, sanitizer findings, modeled-GPU-time bits — is
/// bit-identical between them. The choice only affects host wall-clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WavefrontBackend {
    /// Scalar lane-by-lane interpretation: the reference semantics, kept
    /// as the differential oracle that tests and conformance select.
    Interpreter,
    /// 32-wide host-SIMD vectors via [`fastz_gpu_sim::lanes32`] (the
    /// production path).
    #[default]
    Simd,
}

/// Per-call configuration of the warp engine.
#[derive(Clone, Copy, Debug)]
pub struct WarpConfig {
    /// Keep the three-diagonal state in registers (true) or round-trip
    /// every lane's scores through global memory (false) — §3.2 / Fig 9.
    pub cyclic_buffers: bool,
    /// Eager-traceback window size (0 disables): a `W×W` packed traceback
    /// kept in shared memory; alignments that end inside it finish in the
    /// inspector (§3.1.2).
    pub eager_window: usize,
    /// Record a full packed traceback matrix and walk it (executor mode).
    pub record_traceback: bool,
    /// Row bound (query extent); `usize::MAX` = full search.
    pub max_rows: usize,
    /// Column bound (target extent); `usize::MAX` = full search.
    pub max_cols: usize,
    /// Lanes per strip, `1..=WARP_SIZE` (default [`WARP_SIZE`]). The
    /// result must not depend on this — it only changes how the matrix
    /// is strip-mined — which the conformance suite checks by sweeping
    /// widths.
    pub strip_width: usize,
    /// Host realization of the per-step lane arithmetic (interpreter or
    /// SIMD). The result must not depend on this either — both backends
    /// are bit-identical by contract.
    pub backend: WavefrontBackend,
}

impl WarpConfig {
    /// Inspector configuration under `flags`.
    pub fn inspector(flags: &OptFlags) -> WarpConfig {
        WarpConfig {
            cyclic_buffers: flags.cyclic_buffers,
            eager_window: if flags.eager_traceback { 16 } else { 0 },
            record_traceback: false,
            max_rows: usize::MAX,
            max_cols: usize::MAX,
            strip_width: WARP_SIZE,
            backend: WavefrontBackend::default(),
        }
    }

    /// Executor configuration under `flags`, trimmed to the inspector's
    /// optimal cell when trimming is enabled.
    pub fn executor(flags: &OptFlags, best_i: usize, best_j: usize) -> WarpConfig {
        let (max_rows, max_cols) = if flags.executor_trimming {
            (best_i, best_j)
        } else {
            (usize::MAX, usize::MAX)
        };
        WarpConfig {
            cyclic_buffers: flags.cyclic_buffers,
            eager_window: 0,
            record_traceback: true,
            max_rows,
            max_cols,
            strip_width: WARP_SIZE,
            backend: WavefrontBackend::default(),
        }
    }

    /// The same configuration with `width` lanes per strip.
    pub fn with_strip_width(self, width: usize) -> WarpConfig {
        WarpConfig {
            strip_width: width,
            ..self
        }
    }

    /// The same configuration running on `backend`.
    pub fn with_backend(self, backend: WavefrontBackend) -> WarpConfig {
        WarpConfig { backend, ..self }
    }
}

/// Result of one warp extension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarpExtension {
    /// Best score found (≥ 0).
    pub best_score: i32,
    /// Query bases consumed at the best cell.
    pub best_i: usize,
    /// Target bases consumed at the best cell.
    pub best_j: usize,
    /// Edit script recovered by eager traceback (inspector mode, only if
    /// the optimum fell inside the window).
    pub eager_ops: Option<Vec<EditOp>>,
    /// Edit script recovered from the full traceback (executor mode).
    pub ops: Option<Vec<EditOp>>,
    /// Work counters for the timing model.
    pub counters: WarpCounters,
    /// Maximum row (query extent) computed during the search.
    pub explored_rows: usize,
    /// Maximum column (target extent) computed during the search.
    pub explored_cols: usize,
}

impl WarpExtension {
    /// Optimal-alignment extent: the larger of the two sequence extents
    /// at the best cell. This is the length that drives §3.3 binning
    /// ("smallest bin in which the alignment is contained") and the
    /// seed-extent histogram.
    pub fn extent(&self) -> usize {
        self.best_i.max(self.best_j)
    }
}

/// Spill-buffer entry: boundary-column (S, I) for one row.
#[derive(Clone, Copy)]
struct Spill {
    s: i32,
    i: i32,
}

const DEAD: Spill = Spill {
    s: NEG_INF,
    i: NEG_INF,
};

/// Runs one warp extension of `query` against `target` (suffix slices in
/// the extension direction). `shared` models the block's shared memory;
/// the eager window lives there.
pub fn warp_extend(
    target: &[u8],
    query: &[u8],
    scoring: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
) -> WarpExtension {
    warp_extend_traced(target, query, scoring, cfg, shared, &mut NoTrace)
}

/// [`warp_extend`] with an externally owned traceback matrix buffer.
///
/// `tbm` is cleared and zero-resized to exactly the trimmed `m×n` cell
/// count before use (only in executor mode; non-recording calls never
/// touch it), so a buffer reused across problems — e.g. from a
/// [`crate::pool::Arena`] — produces bit-identical results to a fresh
/// allocation while skipping the per-problem allocation entirely.
pub fn warp_extend_in(
    target: &[u8],
    query: &[u8],
    scoring: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
    tbm: &mut Vec<u8>,
) -> WarpExtension {
    warp_extend_traced_in(target, query, scoring, cfg, shared, tbm, &mut NoTrace)
}

/// [`warp_extend`] that additionally reports every live cell to `sink`
/// (the conformance oracle's cell-for-cell hook; [`NoTrace`] compiles
/// the calls away on the production path).
pub fn warp_extend_traced<K: CellSink>(
    target: &[u8],
    query: &[u8],
    scoring: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
    sink: &mut K,
) -> WarpExtension {
    let mut tbm = Vec::new();
    warp_extend_traced_in(target, query, scoring, cfg, shared, &mut tbm, sink)
}

/// [`warp_extend_traced`] with an externally owned traceback buffer
/// (see [`warp_extend_in`]). Runs the engine body compiled for
/// [`SimdIsa::dispatched`].
pub fn warp_extend_traced_in<K: CellSink>(
    target: &[u8],
    query: &[u8],
    scoring: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
    tbm: &mut Vec<u8>,
    sink: &mut K,
) -> WarpExtension {
    extend_on(
        SimdIsa::dispatched(),
        target,
        query,
        scoring,
        cfg,
        shared,
        tbm,
        sink,
    )
}

/// Host instruction-set level an instantiation of the engine body is
/// compiled for.
///
/// The body is one `#[inline(always)]` generic, instantiated once per
/// level under `#[target_feature]`; [`SimdIsa::dispatched`] picks the
/// widest level the CPU supports, once per process. Every level runs the
/// same integer operations in the same order, so results are
/// bit-identical across levels — only the vector width the compiler may
/// use differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdIsa {
    /// The build's baseline target features (SSE2 on x86-64), and the
    /// only level on other architectures.
    Portable,
    /// x86-64 AVX2 (with BMI1/BMI2, LZCNT, POPCNT).
    Avx2,
    /// x86-64 AVX-512 F/BW/VL/DQ (with the AVX2-level extras).
    Avx512,
}

impl SimdIsa {
    /// Every level, narrowest first.
    pub const ALL: [SimdIsa; 3] = [SimdIsa::Portable, SimdIsa::Avx2, SimdIsa::Avx512];

    /// Short name (`portable`, `avx2`, `avx512`).
    pub fn name(self) -> &'static str {
        match self {
            SimdIsa::Portable => "portable",
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Avx512 => "avx512",
        }
    }

    /// Whether this CPU can run the level's instantiation. The feature
    /// lists match the `#[target_feature]` attributes of the
    /// instantiations below.
    pub fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = || {
                is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("bmi1")
                    && is_x86_feature_detected!("bmi2")
                    && is_x86_feature_detected!("lzcnt")
                    && is_x86_feature_detected!("popcnt")
            };
            match self {
                SimdIsa::Portable => true,
                SimdIsa::Avx2 => avx2(),
                SimdIsa::Avx512 => {
                    avx2()
                        && is_x86_feature_detected!("avx512f")
                        && is_x86_feature_detected!("avx512bw")
                        && is_x86_feature_detected!("avx512vl")
                        && is_x86_feature_detected!("avx512dq")
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == SimdIsa::Portable
        }
    }

    /// The widest supported level: detected on first use, then cached
    /// for the life of the process.
    pub fn dispatched() -> SimdIsa {
        static LEVEL: OnceLock<SimdIsa> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            SimdIsa::ALL
                .into_iter()
                .rev()
                .find(|isa| isa.supported())
                .unwrap_or(SimdIsa::Portable)
        })
    }

    /// Runs `kernel`'s body compiled for this level.
    ///
    /// # Panics
    ///
    /// When the CPU does not support the level (see
    /// [`SimdIsa::supported`]).
    pub(crate) fn run<K: IsaKernel>(self, kernel: K) -> K::Output {
        assert!(
            self.supported(),
            "{} is not supported on this CPU",
            self.name()
        );
        match self {
            SimdIsa::Portable => kernel.run(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `supported()` confirmed every feature the
            // instantiation enables.
            SimdIsa::Avx2 => unsafe { x86::run_avx2(kernel) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            SimdIsa::Avx512 => unsafe { x86::run_avx512(kernel) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdIsa::Avx2 | SimdIsa::Avx512 => unreachable!("rejected by supported()"),
        }
    }
}

/// A hot loop compiled once per [`SimdIsa`] level.
///
/// Implementations mark [`IsaKernel::run`] `#[inline(always)]`, so its
/// body is compiled into each `#[target_feature]` instantiation below
/// and the compiler may vectorize it at that level's width.
pub(crate) trait IsaKernel {
    type Output;

    /// The kernel body.
    fn run(self) -> Self::Output;
}

/// The `#[target_feature]` instantiations behind [`SimdIsa::run`]. The
/// feature lists match [`SimdIsa::supported`].
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::IsaKernel;

    /// # Safety
    ///
    /// The CPU must support every enabled feature
    /// (`SimdIsa::Avx2.supported()`).
    #[target_feature(enable = "avx2,bmi1,bmi2,lzcnt,popcnt")]
    pub(super) unsafe fn run_avx2<K: IsaKernel>(kernel: K) -> K::Output {
        kernel.run()
    }

    /// # Safety
    ///
    /// The CPU must support every enabled feature
    /// (`SimdIsa::Avx512.supported()`).
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512dq,avx2,bmi1,bmi2,lzcnt,popcnt")]
    pub(super) unsafe fn run_avx512<K: IsaKernel>(kernel: K) -> K::Output {
        kernel.run()
    }
}

/// The engine body's arguments, as one [`IsaKernel`].
struct Extend<'a, K> {
    target: &'a [u8],
    query: &'a [u8],
    scoring: &'a Scoring,
    cfg: &'a WarpConfig,
    shared: &'a mut SharedMem,
    tbm: &'a mut Vec<u8>,
    sink: &'a mut K,
}

impl<K: CellSink> IsaKernel for Extend<'_, K> {
    type Output = WarpExtension;

    #[inline(always)]
    fn run(self) -> WarpExtension {
        let Extend {
            target,
            query,
            scoring,
            cfg,
            shared,
            tbm,
            sink,
        } = self;
        extend_body(target, query, scoring, cfg, shared, tbm, sink)
    }
}

/// Runs the engine body instantiated for `isa`.
///
/// # Panics
///
/// When the CPU does not support `isa` (see [`SimdIsa::supported`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_on<K: CellSink>(
    isa: SimdIsa,
    target: &[u8],
    query: &[u8],
    scoring: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
    tbm: &mut Vec<u8>,
    sink: &mut K,
) -> WarpExtension {
    isa.run(Extend {
        target,
        query,
        scoring,
        cfg,
        shared,
        tbm,
        sink,
    })
}

/// The engine body, inlined into each [`SimdIsa`] instantiation.
#[inline(always)]
fn extend_body<K: CellSink>(
    target: &[u8],
    query: &[u8],
    scoring: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
    tbm: &mut Vec<u8>,
    sink: &mut K,
) -> WarpExtension {
    let so_se = scoring.gaps.open_score();
    let se = scoring.gaps.extend_score();
    let ydrop = scoring.ydrop;
    let n = target.len().min(cfg.max_cols);
    let m = query.len().min(cfg.max_rows);
    let w = cfg.eager_window;
    // The strip width defaults to the warp size; narrower strips model
    // partial warps and must produce identical results.
    let width = cfg.strip_width;
    assert!(
        (1..=WARP_SIZE).contains(&width),
        "strip_width {width} outside 1..={WARP_SIZE}"
    );

    let mut counters = WarpCounters::default();
    let mut best_score = 0i32;
    let (mut best_i, mut best_j) = (0usize, 0usize);

    // Racecheck accessor identity for the DP sweep (no-op unless a
    // sanitizer is attached to the scratchpad). The sanitizer never
    // touches `counters`, so modeled time is bit-identical either way.
    shared.sanitize_stage(san_stage::WAVEFRONT);
    let sanitizing = shared.sanitizer().is_some();

    if n == 0 || m == 0 {
        // Pure gap chains score negative; the origin is optimal.
        return WarpExtension {
            best_score: 0,
            best_i: 0,
            best_j: 0,
            eager_ops: (w > 0).then(Vec::new),
            ops: cfg.record_traceback.then(Vec::new),
            counters,
            explored_rows: 0,
            explored_cols: 0,
        };
    }

    // Row-0 boundary chain value at column j. Saturating-clamped gap
    // arithmetic: a chain long enough to overflow i32 must floor at the
    // NEG_INF sentinel, not wrap (crates/align score module docs).
    let r0 = |j: usize| -> i32 {
        if j == 0 {
            0
        } else {
            score::gap_chain(so_se, se, j as i32 - 1)
        }
    };

    // Sound per-strip row-reachability bound: entering a `width`-column
    // strip at row r, a path can gain at most `width` diagonal matches
    // before every further row costs a gap-extend, so live cells cannot
    // lie more than `width + (ydrop + width·max_match)/extend` rows below
    // any live entry row. This caps every row-indexed buffer at the
    // explored region instead of the full query suffix.
    let max_match = scoring.subst.max_score().max(0);
    let delta =
        width + ((ydrop + width as i32 * max_match).max(0) / scoring.gaps.extend.max(1)) as usize;

    // Executor traceback matrix (trimmed to m×n by construction). The
    // buffer is zeroed to exactly the cell count (a fresh allocation is
    // lazily paged by the OS — the same way a cudaMalloc'd bin
    // allocation costs nothing until written; a reused arena buffer
    // keeps its capacity); written bytes carry a marker bit so untouched
    // cells read back as unreachable.
    const TB_WRITTEN: u8 = 0x80;
    if cfg.record_traceback {
        let cells = m.checked_mul(n).expect("traceback matrix size overflow");
        assert!(
            cells <= 8 << 30,
            "executor traceback of {m}x{n} cells exceeds the model's allocation cap"
        );
        tbm.clear();
        tbm.resize(cells, 0);
    }

    // Spill buffer: boundary column state per row. Strip 0's boundary is
    // matrix column 0 (analytic gap chain).
    let mut row_cap = m.min(delta);
    let mut spill: Vec<Spill> = (0..=row_cap)
        .map(|i| {
            if i == 0 {
                Spill { s: 0, i: NEG_INF }
            } else {
                Spill {
                    s: score::gap_chain(so_se, se, i as i32 - 1),
                    i: NEG_INF,
                }
            }
        })
        .collect();
    // The next strip's boundary, filled by this strip's last lane; the
    // two buffers swap at every strip boundary.
    let mut next_spill: Vec<Spill> = Vec::new();

    // Per-row maxima of completed strips (LASTZ-order-safe threshold
    // source b), kept as prefix maxima over rows.
    let mut row_prefix_best: Vec<i32> = vec![NEG_INF; row_cap + 1];
    row_prefix_best[0] = 0; // the origin
    let mut row_max_strip: Vec<i32> = vec![NEG_INF; row_cap + 1];
    let mut explored_rows = 0usize;
    let mut explored_cols = 0usize;

    let mut strip_base = 0usize;
    loop {
        let lanes_valid = width.min(n - strip_base);
        debug_assert!(lanes_valid > 0);
        explored_cols = explored_cols.max(strip_base + lanes_valid);

        // Start the wavefront at the strip's live row window instead of
        // row 1: rows whose only inputs are dead spill entries and a
        // dead row-0 chain cannot hold live cells, so skipping them is
        // exact (a real kernel tracks this window the same way; without
        // it every strip of a long alignment would sweep from the top).
        //
        // Liveness here must be judged against the same order-safe
        // threshold sources as the in-strip check (module docs): the
        // row-prefix maxima of completed strips, never the global best,
        // which already contains cells from rows *below* the candidate —
        // rows a row-major scan has not reached yet. Using the global
        // best here pruned rows the scalar engines keep (caught by the
        // conformance suite's warp-superset invariant). `max_match`
        // covers the one diagonal gain a spill value contributes to the
        // row beneath it, whose prefix threshold may be higher.
        let entry_dead = |r: usize, s: i32, i: i32| -> bool {
            s.max(i) + max_match < row_prefix_best[r.min(row_cap)] - ydrop
        };
        let row0_alive = !entry_dead(1, r0(strip_base), NEG_INF);
        let row_base = if row0_alive {
            0
        } else {
            match spill
                .iter()
                .enumerate()
                .position(|(r, sp)| !entry_dead(r, sp.s, sp.i))
            {
                Some(first_live) => first_live.saturating_sub(1),
                None => break, // no live input anywhere: done
            }
        };

        // Per-lane cyclic register state, initialized to row `row_base`
        // (the row-0 boundary chain when starting at the top, dead
        // otherwise — cells of row `row_base` itself are dead or
        // boundary by construction).
        let mut s_cur: Lanes<i32> = splat(NEG_INF);
        let mut i_cur: Lanes<i32> = splat(NEG_INF);
        let mut d_cur: Lanes<i32> = splat(NEG_INF);
        let mut s_prev: Lanes<i32> = splat(NEG_INF);
        if row_base == 0 {
            for l in 0..lanes_valid {
                let j = strip_base + l + 1;
                s_cur[l] = r0(j);
                i_cur[l] = r0(j);
            }
        }

        row_max_strip.clear();
        row_max_strip.resize(row_cap + 1, NEG_INF);

        next_spill.clear();
        next_spill.resize(row_cap + 1, DEAD);
        if strip_base + width < n {
            let boundary = strip_base + width;
            next_spill[0] = Spill {
                s: r0(boundary),
                i: r0(boundary),
            };
        }

        // Lagged anti-diagonal maxima (threshold source a): ring of the
        // last `width` step maxima plus the running max of anything
        // older (a diagonal `width` steps old lies entirely on rows
        // strictly below every current cell). `ring_slot` is `t % width`.
        let mut diag_ring = [NEG_INF; WARP_SIZE];
        let mut ring_slot = 0usize;
        let mut lagged_best = NEG_INF;

        let mut strip_live = false;
        let mut last_live_t: i64 = -1;
        let mut spill_live_ptr = row_base + 1; // next spill row not yet known-dead

        let mut live_max_row = 0usize;

        // Shifted-vector gathers. Lane ℓ at step t+1 works on the row
        // lane ℓ−1 worked on at step t, so each row-indexed input enters
        // at lane 0 and moves up one lane per step: the query code of
        // the lane's row (resolved against the strip's target profile by
        // a select) and the row's prefix-best threshold source, which is
        // constant within a strip. Lanes that have not reached the
        // strip's first row hold fillers; they are inactive.
        let profile = target_profile(
            &scoring.subst,
            &target[strip_base..strip_base + lanes_valid],
        );
        let mut q_codes: Lanes<i32> = splat(0);
        let mut row_best: Lanes<i32> = splat(NEG_INF);

        // the last lane finishes row row_cap at t_max - 2
        let rows_avail = row_cap - row_base;
        let t_max = rows_avail + width;
        let mut t = 0usize;
        while t < t_max {
            let lane0_row = row_base + t + 1;
            // Shuffle in the left-neighbour values; lane 0 reads the
            // strip-boundary spill. The SIMD backend realizes the same
            // `__shfl_up_sync` as one whole-vector shift with edge-lane
            // injection (bit-identical; pinned by the lanes32 tests).
            let sp = |r: usize| spill.get(r).copied().unwrap_or(DEAD);
            let fill = sp(lane0_row);
            let fill_diag = sp(lane0_row - 1).s;
            let (s_left, i_left, s_diag_v) = match cfg.backend {
                WavefrontBackend::Interpreter => (
                    shfl_up(&s_cur, 1, fill.s),
                    shfl_up(&i_cur, 1, fill.i),
                    shfl_up(&s_prev, 1, fill_diag),
                ),
                WavefrontBackend::Simd => (
                    lanes32::shift_up1(&s_cur, fill.s),
                    lanes32::shift_up1(&i_cur, fill.i),
                    lanes32::shift_up1(&s_prev, fill_diag),
                ),
            };
            counters.shuffles += 3;
            // One bank-conflict access group per wavefront step.
            shared.sanitize_tick();

            // Contiguous active-lane window of this step: lane ℓ computes
            // row `lane0_row − ℓ`, so lanes above `hi` have not started
            // and lanes below `lo` have finished their column (the same
            // predicate the interpreter's per-lane guards used to check
            // one lane at a time).
            let lo = (t + 1).saturating_sub(rows_avail);
            let hi = t.min(lanes_valid - 1);

            // Lane 0 enters row `lane0_row`; past `row_cap` it is
            // inactive and takes fillers.
            let (q_in, best_in) = if lane0_row <= row_cap {
                (i32::from(query[lane0_row - 1]), row_prefix_best[lane0_row])
            } else {
                (0, NEG_INF)
            };
            q_codes = lanes32::shift_up1(&q_codes, q_in);
            row_best = lanes32::shift_up1(&row_best, best_in);
            // The substitution score of each lane's cell and the
            // LASTZ-order-safe pruning threshold (module docs).
            let subst_v = profile_select(&profile, &q_codes);
            let thresh_v = lanes32::add(
                &lanes32::max(&row_best, &splat(lagged_best)),
                &splat(-ydrop),
            );

            let step_in = StepIn {
                s_left: &s_left,
                i_left: &i_left,
                s_diag: &s_diag_v,
                s_cur: &s_cur,
                d_cur: &d_cur,
                subst: &subst_v,
                threshold: &thresh_v,
                so_se,
                se,
                lo,
                hi,
            };
            let out = match cfg.backend {
                WavefrontBackend::Interpreter => step_interpreter(&step_in),
                WavefrontBackend::Simd => step_simd(&step_in),
            };

            if sanitizing {
                if let Some(s) = shared.sanitizer() {
                    // Ballot-mask / active-lane consistency: a step may
                    // only activate lanes inside the strip's valid set.
                    let valid_mask = ((1u64 << lanes_valid) - 1) as u32;
                    s.check_ballot(out.active_mask, valid_mask);
                }
            }

            if out.active_mask == 0 {
                break;
            }
            let active_lanes = u64::from(out.active_mask.count_ones());
            // Rows decrease with lane index, so lane `lo` is deepest.
            explored_rows = explored_rows.max(lane0_row - lo);

            // Whole-warp bookkeeping over the step's outputs, shared by
            // both backends (which can therefore only diverge inside the
            // step kernels, pinned per step by the differential tests).
            // Dead and inactive lanes store NEG_INF, so the lane maximum
            // of `s_store` is the step's best live S.
            let step_max = reduce_max(&out.s_store);
            let live_this_step = out.live_mask != 0;
            if live_this_step {
                strip_live = true;
                // The lowest live lane sits on the deepest live row.
                live_max_row =
                    live_max_row.max(lane0_row - out.live_mask.trailing_zeros() as usize);
                if step_max > best_score {
                    // First lane of the maximum: the cell a lane-order
                    // scan with a strict `>` update would keep.
                    let l = first_lane_at(&out.s_store, step_max);
                    best_score = step_max;
                    best_i = lane0_row - l;
                    best_j = strip_base + l + 1;
                }
                let mut live = out.live_mask;
                while live != 0 {
                    let l = live.trailing_zeros() as usize;
                    live &= live - 1;
                    let (i_idx, j_idx) = (lane0_row - l, strip_base + l + 1);
                    debug_assert!(
                        out.s_store[l] > NEG_INF / 2,
                        "live cell ({i_idx},{j_idx}) carries a sentinel-derived S value {}",
                        out.s_store[l]
                    );
                    sink.record(
                        i_idx,
                        j_idx,
                        CellScores {
                            s: out.s_store[l],
                            i: out.i_store[l],
                            d: out.d_store[l],
                        },
                    );
                }
            }
            // Row maxima over the active lanes' rows (lane `lo` is on the
            // deepest); a dead lane's NEG_INF never raises one.
            for (row_max, &s) in row_max_strip[lane0_row - hi..=lane0_row - lo]
                .iter_mut()
                .rev()
                .zip(&out.s_store[lo..=hi])
            {
                *row_max = (*row_max).max(s);
            }

            // Traceback bytes (the kernel computes one for every active
            // lane; S_ORIGIN source when pruned).
            if cfg.record_traceback {
                for l in lo..=hi {
                    tbm[(lane0_row - l - 1) * n + (strip_base + l)] = out.tb[l] | TB_WRITTEN;
                }
                counters.global_written += active_lanes; // 1 B/cell, staged
                counters.shared_bytes += 2 * active_lanes; //   through shared
            }
            // Eager-window bytes, only on steps that reach the w×w window
            // (its lowest active column and shallowest active row).
            if w > 0 && strip_base + lo < w && lane0_row - hi <= w {
                for l in lo..=hi {
                    let (i_idx, j_idx) = (lane0_row - l, strip_base + l + 1);
                    if i_idx <= w && j_idx <= w {
                        shared.write_u8((i_idx - 1) * w + (j_idx - 1), out.tb[l]);
                        counters.shared_bytes += 1;
                    }
                }
            }

            // Cyclic register rotation: discard the oldest diagonal. The
            // active-lane select leaves finished and unstarted lanes'
            // registers untouched; with the whole warp active it is a
            // whole-vector rotation of the three-row buffer.
            let active = lanes32::range_mask(lo, hi);
            s_prev = lanes32::select(&active, &s_cur, &s_prev);
            s_cur = lanes32::select(&active, &out.s_store, &s_cur);
            i_cur = lanes32::select(&active, &out.i_store, &i_cur);
            d_cur = lanes32::select(&active, &out.d_store, &d_cur);

            // The last lane spills the strip boundary for the next strip.
            if strip_base + width < n && (lo..=hi).contains(&(width - 1)) {
                next_spill[lane0_row - (width - 1)] = Spill {
                    s: out.s_store[width - 1],
                    i: out.i_store[width - 1],
                };
            }

            counters.steps += 1;
            counters.cells += active_lanes;
            counters.alu_ops += 9 * width as u64;
            let any_dead = out.active_mask & !out.live_mask != 0;
            if any_dead && out.live_mask != 0 {
                counters.divergent_steps += 1;
                if let Some(s) = shared.sanitizer() {
                    s.note_divergent_step();
                }
            }
            if cfg.cyclic_buffers {
                // Only the boundary lane writes scores (12 B: S, I, D).
                if strip_base + width < n {
                    counters.global_written += 12;
                }
            } else {
                // Every active lane round-trips its 12 B of scores.
                counters.global_written += 12 * active_lanes;
            }

            // Update the lagged threshold source.
            lagged_best = lagged_best.max(diag_ring[ring_slot]);
            diag_ring[ring_slot] = step_max;
            ring_slot += 1;
            if ring_slot == width {
                ring_slot = 0;
            }

            if live_this_step {
                last_live_t = t as i64;
            } else if t as i64 - last_live_t >= width as i64 {
                // A full diagonal window has been dead; if no live spill
                // input remains ahead of lane 0, nothing downstream can
                // revive. Judged with the same order-safe entry threshold
                // as the strip-start window scan.
                let spill_rows = spill.len() - 1;
                while spill_live_ptr <= spill_rows
                    && (spill_live_ptr <= lane0_row
                        || entry_dead(
                            spill_live_ptr,
                            spill[spill_live_ptr].s,
                            spill[spill_live_ptr].i,
                        ))
                {
                    spill_live_ptr += 1;
                }
                if spill_live_ptr > spill_rows {
                    break;
                }
            }
            t += 1;
        }

        if !strip_live {
            break;
        }

        // Fold this strip's row maxima into the prefix-best array.
        let mut running = NEG_INF;
        for i in 0..=row_cap {
            running = running.max(row_max_strip[i]);
            row_prefix_best[i] = row_prefix_best[i].max(running).max(if i > 0 {
                row_prefix_best[i - 1]
            } else {
                NEG_INF
            });
        }

        // Grow the row cap for the next strip from this strip's deepest
        // live row (see the reachability bound above); rows beyond the
        // old cap inherit the prefix maximum.
        let new_cap = m.min(live_max_row + delta);
        if new_cap > row_cap {
            let tail = row_prefix_best[row_cap];
            row_prefix_best.resize(new_cap + 1, tail);
        }
        row_cap = new_cap;

        strip_base += width;
        if strip_base >= n {
            break;
        }
        // The boundary spill is consumed by the same warp on the very next
        // strip, so the reload hits L2 — like the paper's §6 accounting we
        // charge only the 12 B/step write side to DRAM.
        std::mem::swap(&mut spill, &mut next_spill);
    }

    // Eager traceback: finish in the inspector if the optimum fits the
    // shared-memory window.
    let eager_ops = if w > 0 && best_i <= w && best_j <= w {
        // The CUDA kernel separates the wavefront writes from the
        // in-window walk with __syncthreads(); model that barrier so
        // the racecheck knows these reads cannot race the DP sweep.
        shared.sanitize_barrier();
        shared.sanitize_stage(san_stage::EAGER_TRACEBACK);
        let get = |i: usize, j: usize| -> u8 {
            if i == 0 && j == 0 {
                tb::S_ORIGIN
            } else if i == 0 {
                tb::S_FROM_I | if j > 1 { tb::I_EXTEND } else { 0 }
            } else if j == 0 {
                tb::S_FROM_D | if i > 1 { tb::D_EXTEND } else { 0 }
            } else {
                // The walk is a single scalar lane: each read is its
                // own access group, never a bank conflict.
                shared.sanitize_tick();
                shared.read_u8((i - 1) * w + (j - 1))
            }
        };
        let ops = walk_traceback_with(get, best_i, best_j);
        counters.scalar_ops += ops.iter().map(|o| o.len() as u64).sum::<u64>();
        Some(ops)
    } else {
        None
    };

    // Executor traceback walk (single lane; inter-seed parallelism only).
    let ops = if cfg.record_traceback {
        let get = |i: usize, j: usize| -> u8 {
            if i == 0 && j == 0 {
                tb::S_ORIGIN
            } else if i == 0 {
                tb::S_FROM_I | if j > 1 { tb::I_EXTEND } else { 0 }
            } else if j == 0 {
                tb::S_FROM_D | if i > 1 { tb::D_EXTEND } else { 0 }
            } else {
                let b = tbm[(i - 1) * n + (j - 1)];
                if b & TB_WRITTEN == 0 {
                    tb::S_ORIGIN
                } else {
                    b & 0x0F
                }
            }
        };
        let ops = walk_traceback_with(get, best_i, best_j);
        let walked: u64 = ops.iter().map(|o| o.len() as u64).sum();
        counters.scalar_ops += walked;
        counters.global_read += walked; // 1 B read per traceback step
        Some(ops)
    } else {
        None
    };

    WarpExtension {
        best_score,
        best_i,
        best_j,
        eager_ops,
        ops,
        counters,
        explored_rows,
        explored_cols,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastz_align::ydrop::{ydrop_extend, PruneMode};
    use fastz_genome::evolve::random_codes;
    use fastz_genome::{GapPenalties, Scoring, Sequence, SubstMatrix, N_CODE};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn codes(s: &[u8]) -> Vec<u8> {
        Sequence::from_ascii("x", s).unwrap().codes().to_vec()
    }

    fn scoring() -> Scoring {
        Scoring {
            subst: SubstMatrix::match_mismatch(10, -15),
            gaps: GapPenalties::new(30, 5),
            ydrop: 120,
            xdrop: 40,
            hsp_threshold: 50,
            gapped_threshold: 50,
        }
    }

    fn inspector_cfg() -> WarpConfig {
        WarpConfig::inspector(&OptFlags::fastz())
    }

    fn run(t: &[u8], q: &[u8], cfg: &WarpConfig) -> WarpExtension {
        // Sized from the modeled device, not a hardcoded byte count.
        let mut shared = SharedMem::for_device(&fastz_gpu_sim::DeviceSpec::rtx3080_ampere());
        warp_extend(t, q, &scoring(), cfg, &mut shared)
    }

    #[test]
    fn reused_traceback_buffer_matches_fresh_allocation() {
        // An arena-reused (dirty, over-capacity) buffer must be invisible
        // to the DP: identical score, optimum, and edit script.
        let sc = scoring();
        let mut rng = SmallRng::seed_from_u64(21);
        let t = random_codes(250, 0.5, &mut rng);
        let mut q = t.clone();
        q.splice(100..104, []);
        let insp = run(&t, &q, &inspector_cfg());
        let exec_cfg = WarpConfig::executor(&OptFlags::fastz(), insp.best_i, insp.best_j);
        let fresh = run(&t, &q, &exec_cfg);
        let mut shared = SharedMem::for_device(&fastz_gpu_sim::DeviceSpec::rtx3080_ampere());
        let mut dirty = vec![0xFFu8; 1 << 20];
        let reused = warp_extend_in(&t, &q, &sc, &exec_cfg, &mut shared, &mut dirty);
        assert_eq!(reused.best_score, fresh.best_score);
        assert_eq!((reused.best_i, reused.best_j), (fresh.best_i, fresh.best_j));
        assert_eq!(reused.ops, fresh.ops);
        assert_eq!(reused.counters, fresh.counters);
    }

    #[test]
    fn empty_inputs_return_origin() {
        let r = run(&[], &[], &inspector_cfg());
        assert_eq!(r.best_score, 0);
        assert_eq!(r.eager_ops.as_deref(), Some(&[][..]));
    }

    #[test]
    fn perfect_match_within_one_strip() {
        let t = codes(b"ACGTACGTAC");
        let r = run(&t, &t, &inspector_cfg());
        assert_eq!(r.best_score, 100);
        assert_eq!((r.best_i, r.best_j), (10, 10));
        assert_eq!(r.eager_ops.unwrap(), vec![EditOp::Diag(10)]);
    }

    #[test]
    fn perfect_match_across_many_strips() {
        let t: Vec<u8> = random_codes(500, 0.5, &mut SmallRng::seed_from_u64(1));
        let r = run(&t, &t, &inspector_cfg());
        assert_eq!(r.best_score, 5000);
        assert_eq!((r.best_i, r.best_j), (500, 500));
        // Too long for the eager window.
        assert!(r.eager_ops.is_none());
    }

    #[test]
    fn matches_exact_engine_on_clean_homology() {
        let sc = scoring();
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let t = random_codes(300, 0.45, &mut rng);
            // Query: noisy copy with one small indel.
            let mut q = t.clone();
            for b in q.iter_mut() {
                if rng.gen_bool(0.05) {
                    *b = (*b + 1 + rng.gen_range(0..3)) % 4;
                }
            }
            let cut = rng.gen_range(50..250);
            q.splice(cut..cut + 2, []);
            let exact = ydrop_extend(&t, &q, &sc, PruneMode::Exact, false);
            let warp = run(&t, &q, &inspector_cfg());
            assert!(
                warp.best_score >= exact.best_score,
                "seed {seed}: warp {} < exact {}",
                warp.best_score,
                exact.best_score
            );
        }
    }

    #[test]
    fn equality_with_exact_engine_is_the_common_case() {
        let sc = scoring();
        let mut equal = 0;
        let total = 50;
        for seed in 0..total {
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            let t = random_codes(200, 0.5, &mut rng);
            let mut q = t.clone();
            for b in q.iter_mut() {
                if rng.gen_bool(0.08) {
                    *b = (*b + 1 + rng.gen_range(0..3)) % 4;
                }
            }
            let exact = ydrop_extend(&t, &q, &sc, PruneMode::Exact, false);
            let warp = run(&t, &q, &inspector_cfg());
            assert!(warp.best_score >= exact.best_score, "seed {seed}");
            if warp.best_score == exact.best_score {
                equal += 1;
            }
        }
        assert!(
            equal as f64 / total as f64 > 0.9,
            "only {equal}/{total} matched the exact engine"
        );
    }

    #[test]
    fn executor_traceback_rescores_to_best() {
        let sc = scoring();
        let mut rng = SmallRng::seed_from_u64(7);
        let t = random_codes(180, 0.5, &mut rng);
        let mut q = t.clone();
        q.splice(60..63, []); // 3-bp deletion
        let insp = run(&t, &q, &inspector_cfg());
        let exec_cfg = WarpConfig::executor(&OptFlags::fastz(), insp.best_i, insp.best_j);
        let exec = run(&t, &q, &exec_cfg);
        assert_eq!(
            exec.best_score, insp.best_score,
            "trimming changed the optimum"
        );
        assert_eq!((exec.best_i, exec.best_j), (insp.best_i, insp.best_j));
        assert_eq!(rescore(&exec, &t, &q, &sc), exec.best_score);
    }

    /// Re-scores an executor's edit script from the sequences, checking
    /// that it ends at the reported optimum.
    fn rescore(exec: &WarpExtension, t: &[u8], q: &[u8], sc: &Scoring) -> i32 {
        let (mut ti, mut qi, mut score) = (0usize, 0usize, 0i32);
        for op in exec.ops.as_ref().expect("executor edit script") {
            match *op {
                EditOp::Diag(k) => {
                    for _ in 0..k {
                        score += sc.subst.score(t[ti], q[qi]);
                        ti += 1;
                        qi += 1;
                    }
                }
                EditOp::GapQ(k) => {
                    score -= sc.gaps.gap_cost(k as usize);
                    ti += k as usize;
                }
                EditOp::GapT(k) => {
                    score -= sc.gaps.gap_cost(k as usize);
                    qi += k as usize;
                }
            }
        }
        assert_eq!((ti, qi), (exec.best_j, exec.best_i));
        score
    }

    #[test]
    fn eager_window_only_fires_for_short_alignments() {
        // 8-bp homology then garbage: optimum at (8, 8) fits the window.
        let mut t = codes(b"ACGTACGT");
        let mut q = t.clone();
        t.extend(codes(&[b'C'; 100]));
        q.extend(codes(&[b'G'; 100]));
        let r = run(&t, &q, &inspector_cfg());
        assert_eq!(r.best_score, 80);
        assert_eq!(r.eager_ops.unwrap(), vec![EditOp::Diag(8)]);

        // 20-bp homology: outside the 16×16 window.
        let mut t = codes(&b"ACGT".repeat(5));
        let mut q = t.clone();
        t.extend(codes(&[b'C'; 100]));
        q.extend(codes(&[b'G'; 100]));
        let r = run(&t, &q, &inspector_cfg());
        assert_eq!(r.best_score, 200);
        assert!(r.eager_ops.is_none());
    }

    #[test]
    fn cyclic_buffers_cut_score_traffic_but_not_results() {
        let mut rng = SmallRng::seed_from_u64(9);
        let t = random_codes(400, 0.5, &mut rng);
        let with = run(&t, &t, &inspector_cfg());
        let without_cfg = WarpConfig {
            cyclic_buffers: false,
            ..inspector_cfg()
        };
        let without = run(&t, &t, &without_cfg);
        assert_eq!(with.best_score, without.best_score);
        assert_eq!(with.counters.cells, without.counters.cells);
        assert!(
            without.counters.global_written > 20 * with.counters.global_written,
            "cyclic {} vs naive {}",
            with.counters.global_written,
            without.counters.global_written
        );
    }

    #[test]
    fn ydrop_terminates_search_in_garbage() {
        let mut rng = SmallRng::seed_from_u64(11);
        let t = random_codes(4000, 0.5, &mut rng);
        let q = random_codes(4000, 0.5, &mut rng);
        let r = run(&t, &q, &inspector_cfg());
        assert!(
            r.counters.cells < 3_000_000,
            "explored {} cells of unrelated sequence",
            r.counters.cells
        );
    }

    #[test]
    fn trimmed_executor_computes_fewer_cells() {
        // Short homology inside long junk: the inspector searches far, the
        // trimmed executor recomputes only the optimal rectangle.
        let mut t = codes(&b"ACGT".repeat(10));
        let mut q = t.clone();
        let mut rng = SmallRng::seed_from_u64(13);
        t.extend(random_codes(2000, 0.5, &mut rng));
        q.extend(random_codes(2000, 0.5, &mut rng));
        let insp = run(&t, &q, &inspector_cfg());
        // The optimum is the planted 40-bp homology, give or take a few
        // coincidental tail matches (the tails are random data).
        assert!(
            insp.best_i >= 40 && insp.best_i < 60 && insp.best_j >= 40 && insp.best_j < 60,
            "optimum ({}, {}) far from the planted homology",
            insp.best_i,
            insp.best_j
        );
        let trimmed = run(
            &t,
            &q,
            &WarpConfig::executor(&OptFlags::fastz(), insp.best_i, insp.best_j),
        );
        let untrimmed = run(
            &t,
            &q,
            &WarpConfig::executor(&OptFlags::with_eager(), insp.best_i, insp.best_j),
        );
        assert_eq!(trimmed.best_score, untrimmed.best_score);
        assert!(
            trimmed.counters.cells * 4 < untrimmed.counters.cells,
            "trimmed {} vs untrimmed {}",
            trimmed.counters.cells,
            untrimmed.counters.cells
        );
    }

    #[test]
    fn counters_account_steps_and_cells() {
        let t = codes(b"ACGTACGTACGTACGTACGT");
        let r = run(&t, &t, &inspector_cfg());
        assert!(r.counters.steps > 0);
        assert!(r.counters.cells >= 20);
        assert_eq!(r.counters.alu_ops, r.counters.steps * 9 * 32);
        assert!(r.counters.shuffles >= 3 * r.counters.steps);
    }

    /// One differential case: a pair plus the row/column trims its
    /// inspector runs under.
    struct Case {
        label: String,
        t: Vec<u8>,
        q: Vec<u8>,
        max_rows: usize,
        max_cols: usize,
    }

    fn case(label: impl Into<String>, t: Vec<u8>, q: Vec<u8>) -> Case {
        Case {
            label: label.into(),
            t,
            q,
            max_rows: usize::MAX,
            max_cols: usize::MAX,
        }
    }

    /// A copy of `t` with ~6% substitutions.
    fn mutate(t: &[u8], rng: &mut SmallRng) -> Vec<u8> {
        t.iter()
            .map(|&b| {
                if rng.gen_bool(0.06) {
                    (b + 1 + rng.gen_range(0..3)) % 4
                } else {
                    b
                }
            })
            .collect()
    }

    fn differential_corpus() -> Vec<Case> {
        let mut rng = SmallRng::seed_from_u64(0x15A);
        let mut cases = Vec::new();
        // Random homologous pairs with one small indel.
        for k in 0..6 {
            let t = random_codes(rng.gen_range(60..180), 0.5, &mut rng);
            let mut q = mutate(&t, &mut rng);
            let cut = rng.gen_range(10..q.len() - 10);
            q.splice(cut..cut + 2, []);
            cases.push(case(format!("random {k}"), t, q));
        }
        // Longer homologous pairs: many strips at every width.
        for len in [260usize, 300] {
            let t = random_codes(len, 0.5, &mut rng);
            let mut q = mutate(&t, &mut rng);
            let cut = rng.gen_range(40..len - 60);
            q.splice(cut..cut + 2, []);
            cases.push(case(format!("random {len} bp"), t, q));
        }
        // Unrelated random pairs (the y-drop stops early).
        for k in 0..2 {
            let t = random_codes(120, 0.5, &mut rng);
            let q = random_codes(120, 0.5, &mut rng);
            cases.push(case(format!("unrelated {k}"), t, q));
        }
        // Deletions and insertions next to 8- and 32-lane strip
        // boundaries, in either sequence.
        for pos in [7usize, 8, 9, 31, 32, 33, 63, 64, 65] {
            let t = random_codes(100, 0.5, &mut rng);
            let mut q = t.clone();
            q.splice(pos..pos + 3, []);
            cases.push(case(format!("deletion at {pos}"), t.clone(), q.clone()));
            cases.push(case(format!("insertion at {pos}"), q, t));
        }
        // Shorter than one strip.
        for len in [1usize, 2, 5, 17, 31] {
            let t = random_codes(len, 0.5, &mut rng);
            let q = mutate(&t, &mut rng);
            cases.push(case(format!("short {len}"), t.clone(), q));
            let other = random_codes(len + 3, 0.5, &mut rng);
            cases.push(case(format!("short {len} vs {}", len + 3), t, other));
        }
        // All-N runs: inside a homology, and a sequence of only N.
        let t = random_codes(110, 0.5, &mut rng);
        let mut q = t.clone();
        q[40..70].fill(N_CODE);
        cases.push(case("N run in query", t.clone(), q.clone()));
        cases.push(case("N run in target", q, t.clone()));
        cases.push(case("all-N query", t.clone(), vec![N_CODE; 90]));
        cases.push(case("all-N both", vec![N_CODE; 40], vec![N_CODE; 40]));
        // Row and column trims cutting through a strip.
        let q = mutate(&t, &mut rng);
        for (max_rows, max_cols) in [(50, usize::MAX), (usize::MAX, 45), (33, 20), (1, 64)] {
            cases.push(Case {
                max_rows,
                max_cols,
                ..case(format!("trim {max_rows}x{max_cols}"), t.clone(), q.clone())
            });
        }
        cases
    }

    /// Runs `cfg` on the body compiled for `isa`, tracing every live cell.
    fn traced_on(
        isa: SimdIsa,
        c: &Case,
        sc: &Scoring,
        cfg: &WarpConfig,
    ) -> (WarpExtension, fastz_align::DenseTrace) {
        let mut shared = SharedMem::for_device(&fastz_gpu_sim::DeviceSpec::rtx3080_ampere());
        let mut trace = fastz_align::DenseTrace::default();
        let ext = extend_on(
            isa,
            &c.t,
            &c.q,
            sc,
            cfg,
            &mut shared,
            &mut Vec::new(),
            &mut trace,
        );
        (ext, trace)
    }

    #[test]
    fn every_isa_body_matches_the_interpreter() {
        // The engine's hard contract: neither the backend nor the ISA
        // level of the compiled body may change anything observable.
        // Each body the host can run executes the SIMD backend and is
        // compared with the interpreter on the portable body: the whole
        // WarpExtension (optimum, edit scripts, counters, extents) and
        // every traced cell, in inspector and trimmed-executor mode.
        // The asymmetric matrix catches a transposed target profile.
        let asymmetric = Scoring {
            subst: SubstMatrix::from_acgt(
                [
                    [12, -9, -3, -17],
                    [-6, 10, -14, -2],
                    [-1, -13, 11, -8],
                    [-15, -4, -7, 9],
                ],
                -40,
            ),
            ..scoring()
        };
        let isas: Vec<SimdIsa> = SimdIsa::ALL
            .into_iter()
            .filter(|isa| {
                let ok = isa.supported();
                if !ok {
                    eprintln!(
                        "ISA differential: {} skipped (not supported on this CPU)",
                        isa.name()
                    );
                }
                ok
            })
            .collect();
        let oracle = WavefrontBackend::Interpreter;
        let simd = WavefrontBackend::Simd;
        for sc in [scoring(), asymmetric] {
            for c in &differential_corpus() {
                for width in [1usize, 2, 7, 8, 31, 32] {
                    let icfg = WarpConfig {
                        max_rows: c.max_rows,
                        max_cols: c.max_cols,
                        ..inspector_cfg().with_strip_width(width)
                    };
                    let want = traced_on(SimdIsa::Portable, c, &sc, &icfg.with_backend(oracle));
                    let ecfg =
                        WarpConfig::executor(&OptFlags::fastz(), want.0.best_i, want.0.best_j)
                            .with_strip_width(width);
                    let want_exec =
                        traced_on(SimdIsa::Portable, c, &sc, &ecfg.with_backend(oracle));
                    // Both sides share the substitution gather, so check
                    // it against the sequences directly too.
                    assert_eq!(
                        rescore(&want_exec.0, &c.t, &c.q, &sc),
                        want_exec.0.best_score
                    );
                    for &isa in &isas {
                        let ctx = format!("{} / {} / width {width}", isa.name(), c.label);
                        let got = traced_on(isa, c, &sc, &icfg.with_backend(simd));
                        assert_eq!(got.0, want.0, "{ctx} (inspector)");
                        assert_eq!(got.1.cells, want.1.cells, "{ctx} (inspector cells)");
                        let got = traced_on(isa, c, &sc, &ecfg.with_backend(simd));
                        assert_eq!(got.0, want_exec.0, "{ctx} (executor)");
                        assert_eq!(got.1.cells, want_exec.1.cells, "{ctx} (executor cells)");
                    }
                }
            }
        }
        let ran: Vec<&str> = isas.iter().map(|isa| isa.name()).collect();
        eprintln!("ISA differential: compared {ran:?} against the interpreter");
        assert!(isas.contains(&SimdIsa::Portable));
    }

    #[test]
    fn dispatch_picks_the_widest_supported_level() {
        let isa = SimdIsa::dispatched();
        assert!(isa.supported());
        let wider = SimdIsa::ALL.iter().skip_while(|&&l| l != isa).skip(1);
        for &level in wider {
            assert!(
                !level.supported(),
                "{} is supported but {} was chosen",
                level.name(),
                isa.name()
            );
        }
        assert_eq!(SimdIsa::dispatched(), isa, "the choice is cached");
    }
}
