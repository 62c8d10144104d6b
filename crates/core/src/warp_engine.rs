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
use crate::lanes::{IsaKernel, LaneVec, SubstTable};
use crate::wavefront_step::{first_lane_at, step_lanes, LaneIn, LaneOut};
use fastz_align::score;
use fastz_align::trace::{CellScores, CellSink, NoTrace};
use fastz_align::ydrop::{tb, NEG_INF};
use fastz_align::{walk_traceback_with, EditOp};
use fastz_genome::{Scoring, N_CODE};
use fastz_gpu_sim::sanitize::stage as san_stage;
use fastz_gpu_sim::{SharedMem, WarpCounters, WARP_SIZE};

pub use crate::lanes::SimdIsa;

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
    /// The vector step on the lane type of the [`SimdIsa`] level the
    /// body runs at (the production path).
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
    /// Record the packed traceback of every executed step and walk it
    /// (executor mode).
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

/// One strip boundary's spill column: row `r` holds the boundary
/// column's (S, I) at row `r`. A strip's last lane writes one
/// contiguous run of rows, so apart from row 0 (the row-0 chain) only
/// the `written` rows can hold anything but [`DEAD`]. Resetting and
/// scanning the column walk those rows, not every row up to the cap.
struct SpillCol {
    rows: Vec<Spill>,
    /// Rows `written.0..=written.1` (none when `.0 > .1`).
    written: (usize, usize),
}

impl SpillCol {
    /// Readies the column for the next strip: `len` rows, row 0 `top`,
    /// every other row [`DEAD`].
    fn reset(&mut self, len: usize, top: Spill) {
        let (lo, hi) = self.written;
        for sp in self.rows.iter_mut().take(hi + 1).skip(lo) {
            *sp = DEAD;
        }
        self.rows.resize(len, DEAD);
        if let Some(sp) = self.rows.first_mut() {
            *sp = top;
        }
        self.written = (1, 0);
    }

    /// The entry of row `r` (`DEAD` past the column).
    #[inline(always)]
    fn get(&self, r: usize) -> Spill {
        self.rows.get(r).copied().unwrap_or(DEAD)
    }

    /// The first row at or after `from` whose entry `dead` judges live.
    ///
    /// `dead(r, DEAD)` must hold at every row after the first row ≥ 1
    /// where it holds (the engine's entry test compares with the row's
    /// prefix maximum, which never falls with the row), so a run of
    /// `DEAD` rows is live only if its first row is.
    #[inline(always)]
    fn first_live(&self, from: usize, dead: impl Fn(usize, Spill) -> bool) -> Option<usize> {
        let (lo, hi) = self.written;
        let mut r = from;
        while let Some(&sp) = self.rows.get(r) {
            if r == 0 || (lo..=hi).contains(&r) {
                if !dead(r, sp) {
                    return Some(r);
                }
                r += 1;
            } else if !dead(r, DEAD) {
                return Some(r);
            } else if r < lo {
                r = lo;
            } else {
                break;
            }
        }
        None
    }
}

/// The largest eager window whose bytes an unsanitized sweep stages
/// locally; its offsets fit a `u8`.
const STAGED_WINDOW: usize = 16;

/// The eager-window bytes of an unsanitized sweep, in the order the
/// sweep produced them, written to shared memory after it.
///
/// A sweep computes each cell once, so the `w × w ≤ 256` window cells
/// fill at most every slot.
struct WindowStage {
    cells: [(u8, u8); STAGED_WINDOW * STAGED_WINDOW],
    len: usize,
}

impl WindowStage {
    fn new() -> Self {
        WindowStage {
            cells: [(0, 0); STAGED_WINDOW * STAGED_WINDOW],
            len: 0,
        }
    }

    /// Stages `byte` for window offset `offset` (`< 256`).
    #[inline(always)]
    fn push(&mut self, offset: usize, byte: u8) {
        if let Some(cell) = self.cells.get_mut(self.len) {
            *cell = (offset as u8, byte);
            self.len += 1;
        }
    }

    /// Writes the staged bytes to `shared`, in staging order.
    fn flush(&self, shared: &mut SharedMem) {
        for &(offset, byte) in self.cells.iter().take(self.len) {
            shared.write_u8(usize::from(offset), byte);
        }
    }
}

/// Per-row maxima of one strip, carried with the rows through the lanes.
///
/// Lane ℓ works on row `lane0_row − ℓ`, the row lane ℓ−1 worked on one
/// step earlier, so shifting an accumulator up one lane per step keeps
/// each row's running maximum on the lane that works on it:
/// `acc = max(shift_up1(acc, NEG_INF), s_store)`. The strip's last valid
/// lane finishes one row per step, written out then; the rows still in
/// flight when the strip loop exits are flushed once. Dead and inactive
/// lanes store `NEG_INF`, which never raises a maximum.
struct RowMaxima<V> {
    acc: V,
    /// The strip's last valid lane.
    last: usize,
    /// Lane 0's row at the last folded step (0 before the first).
    lane0_row: usize,
}

impl<V: LaneVec> RowMaxima<V> {
    #[inline(always)]
    fn new(lanes_valid: usize) -> Self {
        RowMaxima {
            acc: V::splat(NEG_INF),
            last: lanes_valid - 1,
            lane0_row: 0,
        }
    }

    /// Folds in one step's stores (lane 0 on row `lane0_row`) and writes
    /// the row the last lane finished.
    #[inline(always)]
    fn push(&mut self, s_store: V, lane0_row: usize, row_max: &mut [i32]) {
        self.acc = self.acc.shift_up1(NEG_INF).max(s_store);
        self.lane0_row = lane0_row;
        if let Some(r) = lane0_row.checked_sub(self.last) {
            row_max[r] = self.acc.lane(self.last);
        }
    }

    /// Writes the rows still in flight (lanes below the last) to
    /// `row_max`; rows past its end hold only inactive lanes. No row is
    /// both pushed and flushed, so every row from the strip's first
    /// pushed one to its last computed one is written, and `row_max`
    /// needs no reset between strips.
    #[inline(always)]
    fn flush(&self, row_max: &mut [i32]) {
        for l in 0..self.last {
            let row = self.lane0_row.checked_sub(l);
            if let Some(m) = row.and_then(|r| row_max.get_mut(r)) {
                *m = self.acc.lane(l);
            }
        }
    }
}

/// Marker bit of a recorded traceback byte: a cell whose byte lacks it
/// was never computed and reads back as `S_ORIGIN`.
const TB_WRITTEN: u8 = 0x80;

/// The executor's traceback, stored step-major over the explored band.
///
/// Each executed (strip, step) appends one contiguous `width`-byte chunk
/// — the host form of the kernel's coalesced per-anti-diagonal store —
/// holding the step's traceback bytes with [`TB_WRITTEN`] set on the
/// active lanes and 0 on the others. Each strip records the row lane 0
/// started from and its first chunk, so lane `l` of step `t` in strip
/// `s` holds cell `(row_base_s + t + 1 − l, s·width + l + 1)`. Storage
/// grows with the steps explored, never with the bounding rectangle.
struct TbBand<'a> {
    bytes: &'a mut Vec<u8>,
    width: usize,
    /// Per strip: (row_base, first chunk).
    strips: Vec<(usize, usize)>,
}

impl<'a> TbBand<'a> {
    /// An empty band over `bytes` (cleared, never zero-filled).
    fn new(bytes: &'a mut Vec<u8>, width: usize) -> Self {
        bytes.clear();
        TbBand {
            bytes,
            width,
            strips: Vec::new(),
        }
    }

    /// Opens the next strip, whose lane 0 starts below row `row_base`.
    fn begin_strip(&mut self, row_base: usize) {
        let first = self.bytes.len() / self.width;
        self.strips.push((row_base, first));
    }

    /// Appends one step's chunk: lanes `lo..=hi` carry `tb` and the
    /// written marker, the others 0.
    #[inline(always)]
    fn push_step(&mut self, tb: &[u8; WARP_SIZE], lo: usize, hi: usize) {
        let mut chunk = [0u8; WARP_SIZE];
        for (l, (c, &b)) in chunk.iter_mut().zip(tb).enumerate() {
            *c = if (lo..=hi).contains(&l) {
                b | TB_WRITTEN
            } else {
                0
            };
        }
        self.bytes
            .extend_from_slice(chunk.get(..self.width).unwrap_or(&chunk));
    }

    /// The traceback byte of cell `(i, j)`, `i, j ≥ 1`: its low nibble
    /// when recorded, `S_ORIGIN` for a cell outside the recorded strips
    /// and steps or never written.
    fn lookup(&self, i: usize, j: usize) -> u8 {
        let col = j.wrapping_sub(1);
        let (s, l) = (col / self.width, col % self.width);
        let Some(&(row_base, first)) = self.strips.get(s) else {
            return tb::S_ORIGIN;
        };
        // Lane `l` reaches row `i` at step `i + l − row_base − 1`; rows at
        // or above `row_base` were never computed in this strip.
        let Some(t) = (i + l).checked_sub(row_base + 1) else {
            return tb::S_ORIGIN;
        };
        let chunks = self.bytes.len() / self.width;
        // bound: `get` yields None past the last strip, whose steps end
        // at the last chunk.
        let end = self.strips.get(s + 1).map_or(chunks, |&(_, f)| f);
        if first + t >= end {
            return tb::S_ORIGIN;
        }
        // bound: first + t < end ≤ chunks, and l < width, so the offset
        // lies inside the recorded chunks.
        match self.bytes.get((first + t) * self.width + l) {
            Some(&b) if b & TB_WRITTEN != 0 => b & 0x0F,
            _ => tb::S_ORIGIN,
        }
    }
}

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

/// [`warp_extend`] with an externally owned traceback buffer.
///
/// In executor mode `tbm` is cleared and then holds the step-major band
/// of traceback bytes: one `strip_width`-byte chunk per executed step,
/// so its length is at most `strip_width × counters.steps` whatever the
/// trimmed rectangle's size. Non-recording calls never touch it. A
/// buffer reused across problems — e.g. from a [`crate::pool::Arena`] —
/// produces bit-identical results to a fresh allocation while keeping
/// its capacity.
pub fn warp_extend_in(
    target: &[u8],
    query: &[u8],
    scoring: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
    tbm: &mut Vec<u8>,
) -> WarpExtension {
    warp_extend_traced_on(
        SimdIsa::dispatched(),
        target,
        query,
        scoring,
        cfg,
        shared,
        tbm,
        &mut NoTrace,
    )
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
    warp_extend_traced_on(
        SimdIsa::dispatched(),
        target,
        query,
        scoring,
        cfg,
        shared,
        &mut tbm,
        sink,
    )
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
    fn run<V: LaneVec>(self) -> WarpExtension {
        use WavefrontBackend::{Interpreter, Simd};
        // The backend, the traceback band and the shared-memory hooks
        // are compile-time choices of the body, not per-step branches:
        // each step's outputs then stay in registers, and no call sits
        // in the step path of the production (unsanitized inspector)
        // body. The interpreter always runs the hooked body, so the
        // oracle writes the eager window the direct way; a window too
        // large to stage does too.
        let hooked = self.shared.sanitizer().is_some() || self.cfg.eager_window > STAGED_WINDOW;
        match (self.cfg.backend, self.cfg.record_traceback, hooked) {
            (Interpreter, false, _) => extend_body::<V, K, true, false, true>(self),
            (Interpreter, true, _) => extend_body::<V, K, true, true, true>(self),
            (Simd, false, false) => extend_body::<V, K, false, false, false>(self),
            (Simd, false, true) => extend_body::<V, K, false, false, true>(self),
            (Simd, true, false) => extend_body::<V, K, false, true, false>(self),
            (Simd, true, true) => extend_body::<V, K, false, true, true>(self),
        }
    }
}

/// [`warp_extend_traced`] with an externally owned traceback buffer
/// (see [`warp_extend_in`]), on the body instantiated for `isa`.
/// Production runs [`SimdIsa::dispatched`]; the per-level differential
/// tests pass each supported level.
///
/// # Panics
///
/// When the CPU does not support `isa` (see [`SimdIsa::supported`]).
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn warp_extend_traced_on<K: CellSink>(
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

/// The engine body, inlined into each [`SimdIsa`] instantiation with that
/// level's lane type `V`. Three compile-time switches pick what the step
/// loop contains:
///
/// * `INTERPRETED` runs each step through
///   [`step_interpreter`](crate::wavefront_step::step_interpreter)
///   instead of the vector step ([`WavefrontBackend`]);
/// * `RECORD` appends each step's traceback bytes to the executor band
///   (`cfg.record_traceback`);
/// * `HOOKED` runs the shared-memory hooks inside the step: the
///   sanitizer's access-group tick, ballot check and divergence note,
///   and direct eager-window writes. Without it the window bytes are
///   staged locally and written after the sweep, in the same order, so
///   the scratchpad ends identical.
#[inline(always)]
fn extend_body<
    V: LaneVec,
    K: CellSink,
    const INTERPRETED: bool,
    const RECORD: bool,
    const HOOKED: bool,
>(
    args: Extend<'_, K>,
) -> WarpExtension {
    let Extend {
        target,
        query,
        scoring,
        cfg,
        shared,
        tbm,
        sink,
    } = args;
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

    // Executor traceback: one chunk per executed step, in `tbm`. Every
    // use filters on `RECORD`: the band's own calls hide from the
    // compiler that a non-recording body's band stays `None`.
    let mut band = RECORD.then(|| TbBand::new(tbm, width));
    // Eager-window bytes of an unhooked sweep.
    let mut stage = WindowStage::new();

    // Spill buffer: boundary column state per row. Strip 0's boundary is
    // matrix column 0 (analytic gap chain), every row written.
    let mut row_cap = m.min(delta);
    let mut spill = SpillCol {
        rows: (0..=row_cap)
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
            .collect(),
        written: (1, row_cap),
    };
    // The next strip's boundary, filled by this strip's last lane; the
    // two buffers swap at every strip boundary.
    let mut next_spill = SpillCol {
        rows: Vec::new(),
        written: (1, 0),
    };

    // Per-row maxima of completed strips (LASTZ-order-safe threshold
    // source b), kept as prefix maxima over rows. After the first strip
    // they never fall with the row (row 0 holds the origin until then,
    // every other row NEG_INF).
    let mut row_prefix_best: Vec<i32> = vec![NEG_INF; row_cap + 1];
    row_prefix_best[0] = 0; // the origin
    let mut row_max_strip: Vec<i32> = vec![NEG_INF; row_cap + 1];
    let mut explored_rows = 0usize;
    let mut explored_cols = 0usize;

    // The substitution matrix in the lane types' lookup form. Query codes
    // above N read as N, as the lookups' target side does.
    let subst_table = SubstTable::new(&scoring.subst);

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
        let entry_dead = |r: usize, sp: Spill| -> bool {
            sp.s.max(sp.i) + max_match < row_prefix_best[r.min(row_cap)] - ydrop
        };
        let row0_alive = !entry_dead(
            1,
            Spill {
                s: r0(strip_base),
                i: NEG_INF,
            },
        );
        let row_base = if row0_alive {
            0
        } else {
            match spill.first_live(0, entry_dead) {
                Some(first_live) => first_live.saturating_sub(1),
                None => break, // no live input anywhere: done
            }
        };
        if let Some(band) = band.as_mut().filter(|_| RECORD) {
            band.begin_strip(row_base);
        }

        // Per-lane cyclic register state, initialized to row `row_base`
        // (the row-0 boundary chain when starting at the top, dead
        // otherwise — cells of row `row_base` itself are dead or
        // boundary by construction).
        let mut s_cur = V::splat(NEG_INF);
        if row_base == 0 {
            let mut chain = [NEG_INF; WARP_SIZE];
            for (l, s) in chain.iter_mut().enumerate().take(lanes_valid) {
                *s = r0(strip_base + l + 1);
            }
            s_cur = V::load(&chain);
        }
        let mut i_cur = s_cur;
        let mut d_cur = V::splat(NEG_INF);
        let mut s_prev = V::splat(NEG_INF);

        // Every row the strip computes is written before the fold reads
        // it (`RowMaxima::flush`), so the buffer only grows with the cap.
        row_max_strip.resize(row_cap + 1, NEG_INF);
        let mut row_maxima = RowMaxima::<V>::new(lanes_valid);

        let spills_next = strip_base + width < n;
        let top = if spills_next {
            let boundary = strip_base + width;
            Spill {
                s: r0(boundary),
                i: r0(boundary),
            }
        } else {
            DEAD
        };
        next_spill.reset(row_cap + 1, top);

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
        // the lane's row (scored against the lane's target base by the
        // lane type's substitution lookup) and the row's prefix-best
        // threshold source, which is constant within a strip. Lanes that
        // have not reached the strip's first row hold fillers; they are
        // inactive.
        let profile = V::subst_profile(&subst_table, &target[strip_base..strip_base + lanes_valid]);
        let mut q_codes = V::splat(0);
        let mut row_best = V::splat(NEG_INF);

        // the last lane finishes row row_cap at t_max - 2
        let rows_avail = row_cap - row_base;
        let t_max = rows_avail + width;
        let mut t = 0usize;
        while t < t_max {
            let lane0_row = row_base + t + 1;
            // Shuffle in the left-neighbour values; lane 0 reads the
            // strip-boundary spill. `__shfl_up_sync` is one whole-vector
            // lane shift with edge-lane injection (pinned to the scalar
            // warp model by the lanes32 and lane-type tests).
            let fill = spill.get(lane0_row);
            let fill_diag = spill.get(lane0_row - 1).s;
            counters.shuffles += 3;
            if HOOKED {
                // One bank-conflict access group per wavefront step.
                shared.sanitize_tick();
            }

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
                (
                    i32::from(query[lane0_row - 1].min(N_CODE)),
                    row_prefix_best[lane0_row],
                )
            } else {
                (0, NEG_INF)
            };
            q_codes = q_codes.shift_up1(q_in);
            row_best = row_best.shift_up1(best_in);

            let step_in = LaneIn {
                s_left: s_cur.shift_up1(fill.s),
                i_left: i_cur.shift_up1(fill.i),
                s_diag: s_prev.shift_up1(fill_diag),
                s_cur,
                d_cur,
                // The substitution score of each lane's cell and the
                // LASTZ-order-safe pruning threshold (module docs).
                subst: V::subst(&profile, q_codes),
                threshold: row_best.max(V::splat(lagged_best)).add(V::splat(-ydrop)),
                so_se,
                se,
                lo,
                hi,
            };
            let out = if INTERPRETED {
                LaneOut::interpreted(&step_in)
            } else {
                step_lanes(&step_in)
            };

            if HOOKED {
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
            let step_max = out.s_store.reduce_max();
            let live_this_step = out.live_mask != 0;
            if live_this_step {
                strip_live = true;
                // The lowest live lane sits on the deepest live row.
                live_max_row =
                    live_max_row.max(lane0_row - out.live_mask.trailing_zeros() as usize);
                if step_max > best_score {
                    // First lane of the maximum: the cell a lane-order
                    // scan with a strict `>` update would keep.
                    let l = first_lane_at(out.s_store, step_max);
                    best_score = step_max;
                    best_i = lane0_row - l;
                    best_j = strip_base + l + 1;
                }
                let mut live = if K::RECORDS { out.live_mask } else { 0 };
                while live != 0 {
                    let l = live.trailing_zeros() as usize;
                    live &= live - 1;
                    let (i_idx, j_idx) = (lane0_row - l, strip_base + l + 1);
                    let s = out.s_store.lane(l);
                    debug_assert!(
                        s > NEG_INF / 2,
                        "live cell ({i_idx},{j_idx}) carries a sentinel-derived S value {s}"
                    );
                    sink.record(
                        i_idx,
                        j_idx,
                        CellScores {
                            s,
                            i: out.i_store.lane(l),
                            d: out.d_store.lane(l),
                        },
                    );
                }
            }
            row_maxima.push(out.s_store, lane0_row, &mut row_max_strip);

            // Traceback bytes (the kernel computes one for every active
            // lane; S_ORIGIN source when pruned), packed only on steps
            // that write them: executor steps, and steps that reach the
            // w×w eager window (its lowest active column and shallowest
            // active row).
            let in_window = w > 0 && strip_base + lo < w && lane0_row - hi <= w;
            if RECORD || in_window {
                let tb_bytes = out.tb();
                if let Some(band) = band.as_mut().filter(|_| RECORD) {
                    band.push_step(&tb_bytes, lo, hi);
                    counters.global_written += active_lanes; // 1 B/cell, staged
                    counters.shared_bytes += 2 * active_lanes; //   through shared
                }
                if let Some(bytes) = tb_bytes.get(lo..=hi).filter(|_| in_window) {
                    for (l, &b) in (lo..).zip(bytes) {
                        let (i_idx, j_idx) = (lane0_row - l, strip_base + l + 1);
                        if i_idx <= w && j_idx <= w {
                            let offset = (i_idx - 1) * w + (j_idx - 1);
                            if HOOKED {
                                shared.write_u8(offset, b);
                            } else {
                                stage.push(offset, b);
                            }
                            counters.shared_bytes += 1;
                        }
                    }
                }
            }

            // Cyclic register rotation: discard the oldest diagonal. The
            // active-lane select leaves finished and unstarted lanes'
            // registers untouched; with the whole warp active it is a
            // whole-vector rotation of the three-row buffer.
            let active = V::range_mask(lo, hi);
            s_prev = V::select(active, s_cur, s_prev);
            s_cur = V::select(active, out.s_store, s_cur);
            i_cur = V::select(active, out.i_store, i_cur);
            d_cur = V::select(active, out.d_store, d_cur);

            // The last lane spills the strip boundary for the next strip,
            // one row per step from row `row_base + 1` on.
            if spills_next && (lo..=hi).contains(&(width - 1)) {
                let r = lane0_row - (width - 1);
                next_spill.rows[r] = Spill {
                    s: out.s_store.lane(width - 1),
                    i: out.i_store.lane(width - 1),
                };
                next_spill.written = (row_base + 1, r);
            }

            counters.steps += 1;
            counters.cells += active_lanes;
            counters.alu_ops += 9 * width as u64;
            let any_dead = out.active_mask & !out.live_mask != 0;
            if any_dead && out.live_mask != 0 {
                counters.divergent_steps += 1;
                if HOOKED {
                    if let Some(s) = shared.sanitizer() {
                        s.note_divergent_step();
                    }
                }
            }
            if cfg.cyclic_buffers {
                // Only the boundary lane writes scores (12 B: S, I, D).
                if spills_next {
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
                match spill.first_live(spill_live_ptr.max(lane0_row + 1), entry_dead) {
                    Some(r) => spill_live_ptr = r,
                    None => break,
                }
            }
            t += 1;
        }

        row_maxima.flush(&mut row_max_strip);

        if !strip_live {
            break;
        }

        // Fold this strip's row maxima into the prefix-best array. Rows
        // above the strip's first row hold no maxima and, once the
        // prefix is monotone, stay as they are; past the last computed
        // row the fold only carries `running` down, so it stops at the
        // first row already at or above both `running` and the row
        // before it. The first strip's fold walks from row 1.
        let first_row = if strip_base == 0 { 1 } else { row_base + 1 };
        let last_row = row_maxima.lane0_row.min(row_cap);
        let mut running = NEG_INF;
        for i in first_row..=row_cap {
            if i <= last_row {
                running = running.max(row_max_strip[i]);
            }
            let folded = row_prefix_best[i].max(running).max(row_prefix_best[i - 1]);
            if i > last_row && folded == row_prefix_best[i] {
                break;
            }
            row_prefix_best[i] = folded;
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

    if !HOOKED {
        stage.flush(shared);
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
    let ops = if let Some(band) = band {
        let get = |i: usize, j: usize| -> u8 {
            if i == 0 && j == 0 {
                tb::S_ORIGIN
            } else if i == 0 {
                tb::S_FROM_I | if j > 1 { tb::I_EXTEND } else { 0 }
            } else if j == 0 {
                tb::S_FROM_D | if i > 1 { tb::D_EXTEND } else { 0 }
            } else {
                band.lookup(i, j)
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
    fn traceback_band_maps_cells_to_strip_step_lane() {
        // Width 3: strip 0 from row 0 with two steps, strip 1 (columns
        // 4..=6) from row 5 with one step, whose lanes 1 and 2 are not
        // active. Each byte encodes its own (step, lane).
        let mut bytes = vec![0xFF; 64];
        let mut band = TbBand::new(&mut bytes, 3);
        let step = |t: u8| -> [u8; WARP_SIZE] {
            let mut tb = [0u8; WARP_SIZE];
            for (l, b) in tb.iter_mut().enumerate() {
                *b = (t * 4 + l as u8) & 0x0F;
            }
            tb
        };
        band.begin_strip(0);
        band.push_step(&step(0), 0, 0);
        band.push_step(&step(1), 0, 1);
        band.begin_strip(5);
        band.push_step(&step(2), 0, 0);
        assert_eq!(band.bytes.len(), 3 * 3, "one width-byte chunk per step");
        // Lane l of step t holds cell (row_base + t + 1 - l, strip·3 + l + 1).
        assert_eq!(band.lookup(1, 1), 0); // step 0, lane 0
        assert_eq!(band.lookup(2, 1), 4); // step 1, lane 0
        assert_eq!(band.lookup(1, 2), 5); // step 1, lane 1
        assert_eq!(band.lookup(6, 4), 8); // strip 1, step 0, lane 0
        for (i, j) in [
            (3, 1),  // past strip 0's last step
            (5, 4),  // strip 1's row_base: above its first row
            (5, 5),  // strip 1, step 0, lane 1: recorded but inactive
            (7, 4),  // past the band's last step
            (6, 7),  // no strip 2
            (1, 40), // far past the strips
        ] {
            assert_eq!(band.lookup(i, j), tb::S_ORIGIN, "cell ({i}, {j})");
        }
    }

    #[test]
    fn spill_scan_matches_a_scan_of_every_row() {
        // Columns of 12 rows: row 0 and a written run hold values, the
        // rest DEAD. The entry test is dead below a threshold that never
        // falls with the row, as the engine's prefix maxima; a low
        // threshold makes DEAD rows live too.
        let mut rng = SmallRng::seed_from_u64(17);
        for case in 0..400 {
            let len = 12;
            let (lo, hi) = match case % 4 {
                0 => (1, 0),
                _ => {
                    let lo = rng.gen_range(1..len);
                    (lo, rng.gen_range(lo..len))
                }
            };
            let mut col = SpillCol {
                rows: vec![DEAD; len],
                written: (lo, hi),
            };
            for r in (lo..=hi).chain([0]) {
                if rng.gen_bool(0.7) {
                    col.rows[r] = Spill {
                        s: rng.gen_range(-50..50),
                        i: rng.gen_range(-50..50),
                    };
                }
            }
            let mut threshold = vec![0i32; len];
            let mut t = if case % 3 == 0 { NEG_INF } else { -60 };
            for th in &mut threshold {
                t += rng.gen_range(0..2) * rng.gen_range(0..40);
                *th = t;
            }
            let dead = |r: usize, sp: Spill| sp.s.max(sp.i) < threshold[r];
            for from in 0..=len {
                let want = (from..len).find(|&r| !dead(r, col.rows[r]));
                assert_eq!(col.first_live(from, dead), want, "case {case} from {from}");
            }
        }
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
        let ext = warp_extend_traced_on(
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

    /// One synthetic strip through [`RowMaxima`] on lane type `V`,
    /// stepped like the engine's strip loop: it stops when no lane is
    /// active, or after step `stop` (the dead-window exit). Returns the
    /// accumulator's row maxima and the per-lane scan's.
    struct RowMaxStrip {
        width: usize,
        lanes_valid: usize,
        row_base: usize,
        row_cap: usize,
        stop: Option<usize>,
        seed: u64,
    }

    impl IsaKernel for RowMaxStrip {
        type Output = (Vec<i32>, Vec<i32>);

        #[inline(always)]
        fn run<V: LaneVec>(self) -> (Vec<i32>, Vec<i32>) {
            let mut rng = SmallRng::seed_from_u64(self.seed);
            let mut got = vec![NEG_INF; self.row_cap + 1];
            let mut want = got.clone();
            let mut acc = RowMaxima::<V>::new(self.lanes_valid);
            let rows_avail = self.row_cap - self.row_base;
            for t in 0..rows_avail + self.width {
                let lane0_row = self.row_base + t + 1;
                let (lo, hi) = (
                    (t + 1).saturating_sub(rows_avail),
                    t.min(self.lanes_valid - 1),
                );
                if lo > hi {
                    break; // no active lane
                }
                // Dead and inactive lanes store NEG_INF.
                let mut s_store = [NEG_INF; WARP_SIZE];
                for s in &mut s_store[lo..=hi] {
                    if rng.gen_bool(0.8) {
                        *s = rng.gen_range(-40..40);
                    }
                }
                acc.push(V::load(&s_store), lane0_row, &mut got);
                for (l, &s) in s_store.iter().enumerate().take(hi + 1).skip(lo) {
                    want[lane0_row - l] = want[lane0_row - l].max(s);
                }
                if Some(t) == self.stop {
                    break; // dead window, no live spill ahead
                }
            }
            acc.flush(&mut got);
            (got, want)
        }
    }

    #[test]
    fn row_max_accumulator_matches_the_per_lane_scan() {
        let mut seed = 0;
        for isa in SimdIsa::ALL.into_iter().filter(|isa| isa.supported()) {
            for width in [1usize, 2, 7, 31, 32] {
                // A full strip and a partial last strip.
                for lanes_valid in [width, width.div_ceil(2)] {
                    for (row_base, row_cap) in [(0, 0), (0, 1), (0, 40), (6, 9), (3, 90)] {
                        let steps = row_cap - row_base + width;
                        for stop in [
                            None,
                            Some(0),
                            Some(steps / 3),
                            Some(steps.saturating_sub(2)),
                        ] {
                            seed += 1;
                            let case = RowMaxStrip {
                                width,
                                lanes_valid,
                                row_base,
                                row_cap,
                                stop,
                                seed,
                            };
                            let (got, want) = isa.run(case);
                            assert_eq!(
                                got,
                                want,
                                "{} width {width} lanes {lanes_valid} rows {row_base}..={row_cap} \
                                 stop {stop:?}",
                                isa.name()
                            );
                        }
                    }
                }
            }
        }
    }
}
