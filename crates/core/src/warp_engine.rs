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
//!
//! Each strip picks its lane width on the host: the production inspector
//! body sweeps a strip on 16-bit lanes when an exact bound proves its
//! scores fit (`narrow_floor` and the ceiling test in `extend_body`), and
//! on 32-bit lanes otherwise. Everything that crosses a strip boundary
//! is `i32`, so results do not depend on the choice; modeled GPU time
//! does not either (the paper's kernel keeps 32-bit registers).

use crate::ablation::OptFlags;
use crate::lanes::{IsaKernel, LaneVec, SubstTable};
use crate::view::BaseView;
use crate::wavefront_step::{first_lane_at, step_lanes, LaneIn, LaneOut};
use fastz_align::score;
use fastz_align::trace::{CellScores, CellSink, NoTrace};
use fastz_align::ydrop::{tb, NEG_INF};
use fastz_align::{walk_traceback_with, EditOp};
use fastz_genome::{Scoring, N_CODE};
use fastz_gpu_sim::sanitize::stage as san_stage;
use fastz_gpu_sim::{lanes32, SharedMem, WarpCounters, WARP_SIZE};
use std::cell::Cell;

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
/// Each executed (strip, step) stores one contiguous `width`-byte chunk
/// — the host form of the kernel's coalesced per-anti-diagonal store —
/// holding the step's traceback bytes with [`TB_WRITTEN`] set on the
/// active lanes and 0 on the others. Each strip records the row lane 0
/// started from and its first chunk, so lane `l` of step `t` in strip
/// `s` holds cell `(row_base_s + t + 1 − l, s·width + l + 1)`. Storage
/// grows with the steps explored, never with the bounding rectangle.
///
/// A strip sizes the buffer once for every step it may run, so storing
/// a step is a fixed-size write at the next chunk's offset (no call in
/// the step loop); the strip's end trims the buffer to the chunks it
/// stored.
struct TbBand<'a> {
    bytes: &'a mut Vec<u8>,
    width: usize,
    /// Chunks stored so far.
    chunks: usize,
    /// Per strip: (row_base, first chunk).
    strips: Vec<(usize, usize)>,
}

impl<'a> TbBand<'a> {
    /// An empty band over `bytes` (cleared; each strip zero-fills only
    /// the steps it may run).
    fn new(bytes: &'a mut Vec<u8>, width: usize) -> Self {
        bytes.clear();
        TbBand {
            bytes,
            width,
            chunks: 0,
            strips: Vec::new(),
        }
    }

    /// Opens the next strip, whose lane 0 starts below row `row_base`
    /// and which runs at most `steps` steps: room for one chunk per
    /// step, plus the slack a whole-warp store of the last chunk writes
    /// past it.
    fn begin_strip(&mut self, row_base: usize, steps: usize) {
        self.strips.push((row_base, self.chunks));
        let len = (self.chunks + steps) * self.width + WARP_SIZE;
        if len > self.bytes.capacity() {
            // Double the chunks stored, not the capacity the last
            // strip's slack inflated: the capacity appending one chunk
            // per step would reach.
            let stored = self.bytes.len();
            self.bytes.reserve_exact(len.max(2 * stored) - stored);
        }
        self.bytes.resize(len, 0);
    }

    /// Stores one step's chunk: lanes `lo..=hi` carry `tb` and the
    /// written marker, the others 0. The store writes a whole warp's
    /// bytes; those past `width` land in the next chunk's slot, which
    /// the next step overwrites or the strip's end trims.
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
        // bound: `begin_strip` sized the buffer for every step of the
        // strip plus a whole warp past the last chunk, so the slot is
        // always there.
        let slot = self.bytes.get_mut(self.chunks * self.width..);
        if let Some(dst) = slot.and_then(|s| s.first_chunk_mut::<WARP_SIZE>()) {
            *dst = chunk;
        }
        self.chunks += 1;
    }

    /// Closes the strip: trims the buffer to the chunks stored.
    fn end_strip(&mut self) {
        self.bytes.truncate(self.chunks * self.width);
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
        // bound: `get` yields None past the last strip, whose steps end
        // at the last chunk.
        let end = self.strips.get(s + 1).map_or(self.chunks, |&(_, f)| f);
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

/// Runs one warp extension of `query` against `target` (bases in the
/// extension direction: slices, or [`BaseView`]s, through which the
/// pipeline passes a left side's prefixes reversed and in place) on
/// the body [`SimdIsa::dispatched`] picks. `shared` models the block's
/// shared memory; the eager window lives there. The engine reads the
/// target only to gather each strip's (at most [`WARP_SIZE`]) bases for
/// its substitution profile, and one query base per step.
///
/// In executor mode `tbm` is cleared and then holds the step-major band
/// of traceback bytes: one `strip_width`-byte chunk per executed step,
/// so its length is at most `strip_width × counters.steps` whatever the
/// trimmed rectangle's size. Non-recording calls never touch it. A
/// buffer reused across problems — e.g. from a [`crate::pool::Arena`] —
/// produces bit-identical results to a fresh allocation while keeping
/// its capacity.
pub fn warp_extend_in<'t, 'q>(
    target: impl Into<BaseView<'t>>,
    query: impl Into<BaseView<'q>>,
    scoring: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
    tbm: &mut Vec<u8>,
) -> WarpExtension {
    warp_extend_on(
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

/// The engine body's arguments.
struct Extend<'a, K> {
    target: BaseView<'a>,
    query: BaseView<'a>,
    scoring: &'a Scoring,
    cfg: &'a WarpConfig,
    shared: &'a mut SharedMem,
    tbm: &'a mut Vec<u8>,
    sink: &'a mut K,
}

/// One variant of the engine body (its compile-time switches, see
/// [`extend_body`]) as an [`IsaKernel`], so each variant is its own
/// `#[target_feature]` instantiation per level.
struct Body<'a, K, const INTERPRETED: bool, const RECORD: bool, const HOOKED: bool>(Extend<'a, K>);

impl<K: CellSink, const INTERPRETED: bool, const RECORD: bool, const HOOKED: bool> IsaKernel
    for Body<'_, K, INTERPRETED, RECORD, HOOKED>
{
    type Output = WarpExtension;

    #[inline(always)]
    fn run<V: LaneVec>(self) -> WarpExtension {
        extend_body::<V, K, INTERPRETED, RECORD, HOOKED>(self.0)
    }
}

/// [`warp_extend_in`] on the body instantiated for `isa`, reporting
/// every live cell to `sink`: the per-level differential tests pass each
/// supported level, and the conformance oracle's cell-for-cell check
/// passes a recording sink ([`NoTrace`] compiles the calls away).
///
/// # Panics
///
/// When the CPU does not support `isa` (see [`SimdIsa::supported`]).
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn warp_extend_on<'t, 'q, K: CellSink>(
    isa: SimdIsa,
    target: impl Into<BaseView<'t>>,
    query: impl Into<BaseView<'q>>,
    scoring: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
    tbm: &mut Vec<u8>,
    sink: &mut K,
) -> WarpExtension {
    use WavefrontBackend::{Interpreter, Simd};
    // The backend, the traceback band and the shared-memory hooks are
    // compile-time choices of the body, not per-step branches: each
    // step's outputs then stay in registers, and no call sits in the
    // step path of the production (unsanitized inspector) body. The
    // interpreter always runs the hooked body, so the oracle writes the
    // eager window the direct way; a window too large to stage does too.
    let hooked = shared.sanitizer().is_some() || cfg.eager_window > STAGED_WINDOW;
    let args = Extend {
        target: target.into(),
        query: query.into(),
        scoring,
        cfg,
        shared,
        tbm,
        sink,
    };
    match (cfg.backend, cfg.record_traceback, hooked) {
        (Interpreter, false, _) => isa.run(Body::<K, true, false, true>(args)),
        (Interpreter, true, _) => isa.run(Body::<K, true, true, true>(args)),
        (Simd, false, false) => isa.run(Body::<K, false, false, false>(args)),
        (Simd, false, true) => isa.run(Body::<K, false, false, true>(args)),
        (Simd, true, false) => isa.run(Body::<K, false, true, false>(args)),
        (Simd, true, true) => isa.run(Body::<K, false, true, true>(args)),
    }
}

/// The row-0 boundary chain's value at column `j`. Saturating-clamped
/// gap arithmetic: a chain long enough to overflow i32 must floor at the
/// NEG_INF sentinel, not wrap (crates/align score module docs).
#[inline(always)]
fn row0(so_se: i32, se: i32, j: usize) -> i32 {
    if j == 0 {
        0
    } else {
        score::gap_chain(so_se, se, j as i32 - 1)
    }
}

/// The strip-entry liveness test over the row-prefix maxima of the
/// completed strips (rows `0..=row_cap`).
///
/// Liveness must be judged against the same order-safe threshold
/// sources as the in-strip check (module docs): the row-prefix maxima
/// of completed strips, never the global best, which already contains
/// cells from rows *below* the candidate — rows a row-major scan has
/// not reached yet. Using the global best here pruned rows the scalar
/// engines keep (caught by the conformance suite's warp-superset
/// invariant). `max_match` covers the one diagonal gain a spill value
/// contributes to the row beneath it, whose prefix threshold may be
/// higher.
#[derive(Clone, Copy)]
struct EntryTest<'p> {
    prefix: &'p [i32],
    ydrop: i32,
    max_match: i32,
}

impl EntryTest<'_> {
    /// Whether spill entry `sp` of row `r` can seed no live cell.
    #[inline(always)]
    fn dead(self, r: usize, sp: Spill) -> bool {
        // Rows past the cap read the cap's prefix maximum.
        let best = self.prefix.get(r).or(self.prefix.last()).copied();
        sp.s.max(sp.i) + self.max_match < best.unwrap_or(NEG_INF) - self.ydrop
    }
}

/// Headroom the 16-bit ceiling test keeps below `i16::MAX` on top of the
/// exact bound (see [`narrow_floor`]).
const NARROW_MARGIN: i32 = 256;

/// The lowest real score — one not derived from the `NEG_INF` sentinel —
/// that any step of an extension reads, when that score and every sum a
/// step forms from it stay above the 16-bit sentinel band
/// `i16::MIN..=i16::MIN + max(max_subst, 0)`; `None` when the scoring
/// admits no 16-bit strip.
///
/// The real scores a step reads are live S values, the I/D values of
/// live cells and spill entries (each at least a real S plus `so_se`),
/// the boundary gap chains and the pruning thresholds.
/// * In strips ≥ 1 every active row's prefix best is ≥ 0 (the origin),
///   so live S ≥ threshold ≥ −ydrop.
/// * Strip 0 runs before any row-prefix best exists. Until the lagged
///   diagonal source fills (`width` steps) it prunes nothing, and each
///   of those cells scores at least the two gap chains through it,
///   ≥ 2·so_se + width·se. After that the lagged best includes cell
///   (1, 1) ≥ 2·so_se, so live S ≥ 2·so_se − ydrop. Its boundary column
///   is the gap chain down to the initial row cap.
/// * A later strip that starts at row 0 reads the row-0 chain at its
///   columns; the strip loop checks that against the floor per strip.
///
/// With every real operand ≥ the floor and each step adding at most one
/// of `so_se + se` (an I/D extension of an opened gap), `se`, `so_se`, a
/// substitution score or `−ydrop`, no real value saturates and every
/// real value stays above every sentinel-derived one, so each compare
/// decides as in i32. Compares between two sentinel-derived values can
/// differ, but only on cells that are dead in both widths, where they
/// pick nothing observable: the extend flags agree (both gaps are
/// sentinel, `ext ≥ open` holds in both) and the S source is masked by
/// `S_ORIGIN`. That leans on the engine's invariant that no live cell
/// carries a sentinel-derived S (the `debug_assert!` in the strip loop):
/// under a sentinel threshold a sentinel-derived S would be live in i32
/// and saturate differently in i16.
fn narrow_floor(
    so_se: i32,
    se: i32,
    ydrop: i32,
    width: usize,
    row_cap: usize,
    (min_subst, max_subst): (i32, i32),
) -> Option<i32> {
    let two_open = score::add_clamped(so_se, so_se);
    let floor = [
        -ydrop,
        row0(so_se, se, row_cap),
        score::gap_chain(two_open, se, width as i32),
        score::add_clamped(two_open, -ydrop),
    ]
    .into_iter()
    .min()
    .unwrap_or(NEG_INF);
    let lowest_addend = score::add_clamped(so_se, se).min(min_subst);
    let band_top = i32::from(i16::MIN) + max_subst.max(0);
    (score::add_clamped(floor, lowest_addend) > band_top).then_some(floor)
}

/// Strips swept at each lane width, counted per thread on the host only
/// (not part of [`WarpCounters`] or any fingerprinted result).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StripWidths {
    /// Strips swept on the 16-bit lane type.
    pub narrow: u64,
    /// Strips swept on the 32-bit lane type.
    pub wide: u64,
}

thread_local! {
    static STRIP_WIDTHS: Cell<StripWidths> = const {
        Cell::new(StripWidths { narrow: 0, wide: 0 })
    };
}

/// This thread's running [`StripWidths`] since it started: the tests'
/// and benches' view of which lane width the engine picked.
#[doc(hidden)]
pub fn strip_widths() -> StripWidths {
    STRIP_WIDTHS.with(Cell::get)
}

/// One extension's inputs, scoring constants and every piece of state
/// that outlives a strip. The lane registers are not here: each strip
/// starts them afresh, which is what lets each strip pick its own lane
/// type.
struct Sweep<'a, K> {
    target: BaseView<'a>,
    query: BaseView<'a>,
    subst_table: SubstTable,
    so_se: i32,
    se: i32,
    ydrop: i32,
    max_match: i32,
    width: usize,
    /// The eager window's side (0: none).
    w: usize,
    cyclic_buffers: bool,
    shared: &'a mut SharedMem,
    sink: &'a mut K,
    /// Executor traceback: one chunk per executed step, in the caller's
    /// buffer. Every use filters on `RECORD`: the band's own calls hide
    /// from the compiler that a non-recording body's band stays `None`.
    band: Option<TbBand<'a>>,
    /// Eager-window bytes of an unhooked sweep.
    stage: WindowStage,
    counters: WarpCounters,
    best_score: i32,
    best_i: usize,
    best_j: usize,
    explored_rows: usize,
    /// This strip's boundary column, and the next strip's, which this
    /// strip's last lane fills; the two swap at every strip boundary.
    spill: SpillCol,
    next_spill: SpillCol,
    /// Per-row maxima of completed strips (LASTZ-order-safe threshold
    /// source b), kept as prefix maxima over rows. After the first strip
    /// they never fall with the row (row 0 holds the origin until then,
    /// every other row NEG_INF).
    row_prefix_best: Vec<i32>,
    /// The current strip's row maxima (`RowMaxima::push`/`flush`).
    row_max_strip: Vec<i32>,
    /// Rows past this cannot hold live cells (the reachability bound).
    row_cap: usize,
}

/// Where a strip starts, fixed before its step loop.
#[derive(Clone, Copy)]
struct Strip {
    /// Columns before the strip's lane 0.
    base: usize,
    lanes_valid: usize,
    /// The row above lane 0's first row.
    row_base: usize,
    /// Whether a strip follows, for which the last lane spills.
    spills_next: bool,
}

/// What a strip's step loop reports back.
struct StripEnd {
    /// Whether any cell of the strip survived pruning.
    live: bool,
    /// The deepest row holding a live cell.
    live_max_row: usize,
    /// Lane 0's row at the strip's last folded step.
    last_row: usize,
}

/// The engine body, inlined into each [`SimdIsa`] instantiation with that
/// level's lane type `V`. Three compile-time switches pick what the step
/// loop contains:
///
/// * `INTERPRETED` runs each step through
///   [`step_interpreter`](crate::wavefront_step::step_interpreter)
///   instead of the vector step ([`WavefrontBackend`]);
/// * `RECORD` stores each step's traceback bytes in the executor band
///   (`cfg.record_traceback`);
/// * `HOOKED` runs the shared-memory hooks inside the step: the
///   sanitizer's access-group tick, ballot check and divergence note,
///   and direct eager-window writes. Without it the window bytes are
///   staged locally and written after the sweep, in the same order, so
///   the scratchpad ends identical.
///
/// The strip loop here picks each strip's lane type: the body's
/// production instance (vector step, no band, no hooks, no cell sink)
/// sweeps a strip on `V::Narrow`, the level's 16-bit lanes, when
/// [`narrow_floor`] admits the scoring and the strip's best-at-entry
/// passes the ceiling test; every other strip, and every strip of the
/// other instances, runs on `V`.
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
            counters: WarpCounters::default(),
            explored_rows: 0,
            explored_cols: 0,
        };
    }

    // Sound per-strip row-reachability bound: entering a `width`-column
    // strip at row r, a path can gain at most `width` diagonal matches
    // before every further row costs a gap-extend, so live cells cannot
    // lie more than `width + (ydrop + width·max_match)/extend` rows below
    // any live entry row. This caps every row-indexed buffer at the
    // explored region instead of the full query suffix.
    let max_match = scoring.subst.max_score().max(0);
    let delta =
        width + ((ydrop + width as i32 * max_match).max(0) / scoring.gaps.extend.max(1)) as usize;
    let row_cap = m.min(delta);

    // The substitution matrix in the lane types' lookup form. Query codes
    // above N read as N, as the lookups' target side does.
    let subst_table = SubstTable::new(&scoring.subst);

    // 16-bit strips: the same bound that caps the rows caps the scores.
    // A path gains at most `width` diagonal matches inside a strip, and
    // every value entering it (spill S/I, the row-0 chain) is at most the
    // best score so far, so no cell of a strip exceeds its best at entry
    // plus `width·max_subst`.
    let (min_subst, max_subst) = subst_table.range();
    let floor = if INTERPRETED || RECORD || HOOKED || K::RECORDS {
        None
    } else {
        narrow_floor(so_se, se, ydrop, width, row_cap, (min_subst, max_subst))
    };
    let ceiling = i32::from(i16::MAX) - width as i32 * max_subst.max(0) - NARROW_MARGIN;

    // Spill buffer: boundary column state per row. Strip 0's boundary is
    // matrix column 0 (analytic gap chain), every row written.
    let spill = SpillCol {
        rows: (0..=row_cap)
            .map(|i| Spill {
                s: row0(so_se, se, i),
                i: NEG_INF,
            })
            .collect(),
        written: (1, row_cap),
    };
    let mut row_prefix_best = vec![NEG_INF; row_cap + 1];
    row_prefix_best[0] = 0; // the origin
    let mut st = Sweep {
        target,
        query,
        subst_table,
        so_se,
        se,
        ydrop,
        max_match,
        width,
        w,
        cyclic_buffers: cfg.cyclic_buffers,
        shared,
        sink,
        band: RECORD.then(|| TbBand::new(tbm, width)),
        stage: WindowStage::new(),
        counters: WarpCounters::default(),
        best_score: 0,
        best_i: 0,
        best_j: 0,
        explored_rows: 0,
        spill,
        next_spill: SpillCol {
            rows: Vec::new(),
            written: (1, 0),
        },
        row_prefix_best,
        row_max_strip: vec![NEG_INF; row_cap + 1],
        row_cap,
    };
    let mut explored_cols = 0usize;
    let mut strips = StripWidths::default();

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
        let entry = EntryTest {
            prefix: &st.row_prefix_best[..=st.row_cap],
            ydrop,
            max_match,
        };
        let row0_alive = !entry.dead(
            1,
            Spill {
                s: row0(so_se, se, strip_base),
                i: NEG_INF,
            },
        );
        let row_base = if row0_alive {
            0
        } else {
            match st.spill.first_live(0, |r, sp| entry.dead(r, sp)) {
                Some(first_live) => first_live.saturating_sub(1),
                None => break, // no live input anywhere: done
            }
        };

        // Every row the strip computes is written before the fold reads
        // it (`RowMaxima::flush`), so the buffer only grows with the cap.
        st.row_max_strip.resize(st.row_cap + 1, NEG_INF);
        let spills_next = strip_base + width < n;
        let top = if spills_next {
            let boundary = row0(so_se, se, strip_base + width);
            Spill {
                s: boundary,
                i: boundary,
            }
        } else {
            DEAD
        };
        st.next_spill.reset(st.row_cap + 1, top);

        let strip = Strip {
            base: strip_base,
            lanes_valid,
            row_base,
            spills_next,
        };
        // A strip that starts at row 0 reads the row-0 chain, which falls
        // with the column; its lowest value must clear the floor too.
        let narrow = floor.is_some_and(|floor| {
            st.best_score <= ceiling
                && (row_base > 0 || row0(so_se, se, strip_base + lanes_valid) >= floor)
        });
        let end = if narrow {
            strips.narrow += 1;
            sweep_strip::<V::Narrow, K, INTERPRETED, RECORD, HOOKED>(&mut st, strip)
        } else {
            strips.wide += 1;
            sweep_strip::<V, K, INTERPRETED, RECORD, HOOKED>(&mut st, strip)
        };
        if !end.live {
            break;
        }

        // Fold this strip's row maxima into the prefix-best array. Rows
        // above the strip's first row hold no maxima and, once the
        // prefix is monotone, stay as they are; past the last computed
        // row the fold only carries `running` down, so it stops at the
        // first row already at or above both `running` and the row
        // before it. The first strip's fold walks from row 1.
        let row_cap = st.row_cap;
        let first_row = if strip_base == 0 { 1 } else { row_base + 1 };
        let last_row = end.last_row.min(row_cap);
        let mut running = NEG_INF;
        for i in first_row..=row_cap {
            if i <= last_row {
                running = running.max(st.row_max_strip[i]);
            }
            let prefix = &mut st.row_prefix_best;
            let folded = prefix[i].max(running).max(prefix[i - 1]);
            if i > last_row && folded == prefix[i] {
                break;
            }
            prefix[i] = folded;
        }

        // Grow the row cap for the next strip from this strip's deepest
        // live row (see the reachability bound above); rows beyond the
        // old cap inherit the prefix maximum.
        let new_cap = m.min(end.live_max_row + delta);
        if new_cap > row_cap {
            let tail = st.row_prefix_best[row_cap];
            st.row_prefix_best.resize(new_cap + 1, tail);
        }
        st.row_cap = new_cap;

        strip_base += width;
        if strip_base >= n {
            break;
        }
        // The boundary spill is consumed by the same warp on the very next
        // strip, so the reload hits L2 — like the paper's §6 accounting we
        // charge only the 12 B/step write side to DRAM.
        std::mem::swap(&mut st.spill, &mut st.next_spill);
    }
    STRIP_WIDTHS.with(|c| {
        let seen = c.get();
        c.set(StripWidths {
            narrow: seen.narrow + strips.narrow,
            wide: seen.wide + strips.wide,
        });
    });

    let Sweep {
        shared,
        band,
        stage,
        mut counters,
        best_score,
        best_i,
        best_j,
        explored_rows,
        ..
    } = st;
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

/// The active lanes of steps `0..steps` of a strip, step `t` activating
/// lanes `(t + 1).saturating_sub(rows_avail)..=t.min(lanes_valid − 1)`:
/// the sum of those window sizes, in closed form.
fn active_cells(steps: usize, lanes_valid: usize, rows_avail: usize) -> u64 {
    let tri = |k: usize| (k * (k + 1) / 2) as u64;
    // Σ min(t, L) over t < steps, L = lanes_valid − 1.
    let last = lanes_valid - 1;
    let his = if steps <= last + 1 {
        tri(steps.saturating_sub(1))
    } else {
        tri(last) + ((steps - last - 1) * last) as u64
    };
    // Σ max(0, t + 1 − rows_avail) over t < steps.
    let los = tri(steps.saturating_sub(rows_avail));
    steps as u64 + his - los
}

/// How a step leaves the strip's step loop.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StepEnd {
    /// The step ran; the next one follows.
    Next,
    /// No lane was active, so the step did not run: the strip is done.
    Idle,
    /// The step ran, and nothing downstream of it can revive (a full
    /// diagonal window dead, no live spill input ahead): the strip is
    /// done.
    Done,
}

/// One strip's step-loop state on lane type `V` (see [`sweep_strip`]):
/// the strip's inputs, its lane registers and the bookkeeping its steps
/// fold, which [`sweep_strip`] writes back to the [`Sweep`] at the end.
struct StripSweep<'r, 'a, V: LaneVec, K> {
    query: BaseView<'a>,
    spill: &'r SpillCol,
    next_spill: &'r mut SpillCol,
    row_prefix_best: &'r [i32],
    row_max_strip: &'r mut Vec<i32>,
    shared: &'r mut SharedMem,
    sink: &'r mut K,
    band: &'r mut Option<TbBand<'a>>,
    stage: &'r mut WindowStage,
    entry: EntryTest<'r>,
    profile: V::Subst,
    so_se: i32,
    se: i32,
    ydrop: i32,
    width: usize,
    w: usize,
    strip_base: usize,
    row_base: usize,
    lanes_valid: usize,
    rows_avail: usize,
    row_cap: usize,
    spills_next: bool,
    /// Only strips left of the eager window's last column can write it.
    window_strip: bool,
    /// Every lane of the strip, as a mask and as a ballot.
    all_lanes: (V::Mask, u32),

    // Per-lane cyclic register state: the S/I/D values of the lane's
    // previous row plus the S of the row before that.
    s_cur: V,
    i_cur: V,
    d_cur: V,
    s_prev: V,
    // Shifted-vector gathers. Lane ℓ at step t+1 works on the row lane
    // ℓ−1 worked on at step t, so each row-indexed input enters at lane
    // 0 and moves up one lane per step: the query code of the lane's
    // row (scored against the lane's target base by the lane type's
    // substitution lookup) and the row's prefix-best threshold source,
    // which is constant within a strip. Lanes that have not reached the
    // strip's first row hold fillers; they are inactive.
    q_codes: V,
    /// The row-prefix threshold source less `ydrop`.
    row_th: V,
    /// `lagged_best − ydrop`, re-splatted only when it rises: both
    /// threshold sources arrive less `ydrop` (`max(a, b) − y =
    /// max(a − y, b − y)`).
    lagged_th: V,
    row_maxima: RowMaxima<V>,
    /// The spill entry lane 0's diagonal neighbour reads: the row above
    /// this step's, which the previous step read as its left neighbour.
    fill_diag: i32,

    // Lagged anti-diagonal maxima (threshold source a): a ring of the
    // last `width` step maxima (the caller's array, indexed by
    // `ring_slot`, which is `t % width`: a dynamically indexed array
    // would keep this whole struct in memory) plus the running max of
    // anything older (a diagonal `width` steps old lies entirely on rows
    // strictly below every current cell).
    ring_slot: usize,
    lagged_best: i32,

    last_live_t: i64,
    /// The next spill row not yet known dead.
    spill_live_ptr: usize,
    live_max_row: usize,
    best: i32,
    best_at: (usize, usize),
    divergent: u64,
    window_bytes: u64,
}

impl<V: LaneVec, K: CellSink> StripSweep<'_, '_, V, K> {
    /// Step `t` of the strip, for [`extend_body`]'s compile-time
    /// switches. `STEADY` is the body for steps in the strip's steady
    /// stretch (see [`sweep_strip`]): every lane active, lane 0 inside
    /// the row cap, no eager-window cell; it skips the arithmetic those
    /// facts make constant.
    #[inline(always)]
    fn step<const STEADY: bool, const INTERPRETED: bool, const RECORD: bool, const HOOKED: bool>(
        &mut self,
        diag_ring: &mut [i32; WARP_SIZE],
        t: usize,
    ) -> StepEnd {
        let (width, w, strip_base) = (self.width, self.w, self.strip_base);
        let lane0_row = self.row_base + t + 1;
        // Shuffle in the left-neighbour values; lane 0 reads the
        // strip-boundary spill. `__shfl_up_sync` is one whole-vector
        // lane shift with edge-lane injection (pinned to the scalar
        // warp model by the lanes32 and lane-type tests).
        let fill = self.spill.get(lane0_row);
        if HOOKED {
            // One bank-conflict access group per wavefront step.
            self.shared.sanitize_tick();
        }

        // Contiguous active-lane window of this step: lane ℓ computes
        // row `lane0_row − ℓ`, so lanes above `hi` have not started and
        // lanes below `lo` have finished their column (the same
        // predicate the interpreter's per-lane guards used to check one
        // lane at a time).
        let (lo, hi, active, active_bits) = if STEADY {
            (0, width - 1, self.all_lanes.0, self.all_lanes.1)
        } else {
            let lo = (t + 1).saturating_sub(self.rows_avail);
            let hi = t.min(self.lanes_valid - 1);
            (lo, hi, V::range_mask(lo, hi), lanes32::range_bits(lo, hi))
        };

        // Lane 0 enters row `lane0_row`; past `row_cap` it is inactive
        // and takes fillers.
        let q_row = self.query.get(lane0_row.wrapping_sub(1));
        let (q_in, best_in) = match (q_row, self.row_prefix_best.get(lane0_row)) {
            (Some(q), Some(&best)) if STEADY || lane0_row <= self.row_cap => {
                (i32::from(q.min(N_CODE)), best)
            }
            _ => (0, NEG_INF),
        };
        self.q_codes = self.q_codes.shift_up1(q_in);
        self.row_th = self.row_th.shift_up1(best_in - self.ydrop);

        let step_in = LaneIn {
            s_left: self.s_cur.shift_up1(fill.s),
            i_left: self.i_cur.shift_up1(fill.i),
            s_diag: self.s_prev.shift_up1(self.fill_diag),
            s_cur: self.s_cur,
            d_cur: self.d_cur,
            // The substitution score of each lane's cell and the
            // LASTZ-order-safe pruning threshold (module docs).
            subst: V::subst(&self.profile, self.q_codes),
            threshold: self.row_th.max(self.lagged_th),
            so_se: self.so_se,
            se: self.se,
            lo,
            hi,
            active,
            active_bits,
        };
        let out = if INTERPRETED {
            LaneOut::interpreted(&step_in)
        } else {
            step_lanes(&step_in)
        };
        self.fill_diag = fill.s;

        if HOOKED {
            if let Some(s) = self.shared.sanitizer() {
                // Ballot-mask / active-lane consistency: a step may only
                // activate lanes inside the strip's valid set.
                let valid_mask = ((1u64 << self.lanes_valid) - 1) as u32;
                s.check_ballot(out.active_mask, valid_mask);
            }
        }

        if out.active_mask == 0 {
            return StepEnd::Idle;
        }

        // Whole-warp bookkeeping over the step's outputs, shared by both
        // backends (which can therefore only diverge inside the step
        // kernels, pinned per step by the differential tests). Dead and
        // inactive lanes store NEG_INF, so the lane maximum of `s_store`
        // is the step's best live S.
        let step_max = out.s_store.reduce_max();
        let live_this_step = out.live_mask != 0;
        if live_this_step {
            // The lowest live lane sits on the deepest live row.
            let deepest = lane0_row - out.live_mask.trailing_zeros() as usize;
            self.live_max_row = self.live_max_row.max(deepest);
            if step_max > self.best {
                // First lane of the maximum: the cell a lane-order scan
                // with a strict `>` update would keep.
                let l = first_lane_at(out.s_store, step_max);
                self.best = step_max;
                self.best_at = (lane0_row - l, strip_base + l + 1);
            }
            let mut live = if K::RECORDS { out.live_mask } else { 0 };
            while live != 0 {
                let l = live.trailing_zeros() as usize;
                live &= live - 1;
                let (i_idx, j_idx) = (lane0_row - l, strip_base + l + 1);
                let s = out.s_store.lane(l);
                // The invariant the 16-bit strips rely on too
                // (`narrow_floor`).
                debug_assert!(
                    s > NEG_INF / 2,
                    "live cell ({i_idx},{j_idx}) carries a sentinel-derived S value {s}"
                );
                self.sink.record(
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
        self.row_maxima
            .push(out.s_store, lane0_row, self.row_max_strip);

        // Traceback bytes (the kernel computes one for every active
        // lane; S_ORIGIN source when pruned), packed only on steps that
        // write them: executor steps, and steps that reach the w×w eager
        // window (its lowest active column and shallowest active row).
        let in_window = !STEADY && self.window_strip && strip_base + lo < w && lane0_row - hi <= w;
        if RECORD || in_window {
            let tb_bytes = out.tb();
            if let Some(band) = self.band.as_mut().filter(|_| RECORD) {
                band.push_step(&tb_bytes, lo, hi);
            }
            if let Some(bytes) = tb_bytes.get(lo..=hi).filter(|_| in_window) {
                for (l, &b) in (lo..).zip(bytes) {
                    let (i_idx, j_idx) = (lane0_row - l, strip_base + l + 1);
                    if i_idx <= w && j_idx <= w {
                        let offset = (i_idx - 1) * w + (j_idx - 1);
                        if HOOKED {
                            self.shared.write_u8(offset, b);
                        } else {
                            self.stage.push(offset, b);
                        }
                        self.window_bytes += 1;
                    }
                }
            }
        }

        // Cyclic register rotation: discard the oldest diagonal. The
        // active-lane select leaves finished and unstarted lanes'
        // registers untouched; with the whole warp active it is a
        // whole-vector rotation of the three-row buffer.
        self.s_prev = V::select(active, self.s_cur, self.s_prev);
        self.s_cur = V::select(active, out.s_store, self.s_cur);
        self.i_cur = V::select(active, out.i_store, self.i_cur);
        self.d_cur = V::select(active, out.d_store, self.d_cur);

        // The last lane spills the strip boundary for the next strip,
        // one row per step from row `row_base + 1` on.
        if self.spills_next && (STEADY || (lo..=hi).contains(&(width - 1))) {
            let r = lane0_row - (width - 1);
            if let Some(sp) = self.next_spill.rows.get_mut(r) {
                *sp = Spill {
                    s: out.s_store.lane(width - 1),
                    i: out.i_store.lane(width - 1),
                };
            }
        }

        let any_dead = out.active_mask & !out.live_mask != 0;
        if any_dead && live_this_step {
            self.divergent += 1;
            if HOOKED {
                if let Some(s) = self.shared.sanitizer() {
                    s.note_divergent_step();
                }
            }
        }

        // Update the lagged threshold source.
        let slot = &mut diag_ring[self.ring_slot % WARP_SIZE];
        if *slot > self.lagged_best {
            self.lagged_best = *slot;
            self.lagged_th = V::splat(*slot - self.ydrop);
        }
        *slot = step_max;
        self.ring_slot += 1;
        if self.ring_slot == width {
            self.ring_slot = 0;
        }

        if live_this_step {
            self.last_live_t = t as i64;
        } else if t as i64 - self.last_live_t >= width as i64 {
            // A full diagonal window has been dead; if no live spill
            // input remains ahead of lane 0, nothing downstream can
            // revive. Judged with the same order-safe entry threshold as
            // the strip-start window scan.
            let entry = self.entry;
            let from = self.spill_live_ptr.max(lane0_row + 1);
            match self.spill.first_live(from, |r, sp| entry.dead(r, sp)) {
                Some(r) => self.spill_live_ptr = r,
                None => return StepEnd::Done,
            }
        }
        StepEnd::Next
    }
}

/// One strip of the wavefront sweep on lane type `V`: from the strip's
/// entry row window to its last live step, for [`extend_body`]'s
/// compile-time switches. Everything that crosses a strip boundary is
/// `i32` state in `st`; the lane registers live and die here, so `V`
/// may be the level's 16-bit type for one strip and its 32-bit type for
/// the next.
///
/// Most steps of a long strip lie in its steady stretch: every lane
/// active (a full strip, past its first `width − 1` steps), lane 0 still
/// inside the row cap (before step `rows_avail`), and no eager-window
/// cell. The vector bodies run that stretch as its own loop on the
/// step body that knows it, the other steps on the general one.
#[inline(always)]
fn sweep_strip<
    V: LaneVec,
    K: CellSink,
    const INTERPRETED: bool,
    const RECORD: bool,
    const HOOKED: bool,
>(
    st: &mut Sweep<'_, K>,
    strip: Strip,
) -> StripEnd {
    let Sweep {
        target,
        query,
        ref subst_table,
        so_se,
        se,
        ydrop,
        max_match,
        width,
        w,
        cyclic_buffers,
        ref mut shared,
        ref mut sink,
        ref mut band,
        ref mut stage,
        ref mut counters,
        ref mut best_score,
        ref mut best_i,
        ref mut best_j,
        ref mut explored_rows,
        ref spill,
        ref mut next_spill,
        ref row_prefix_best,
        ref mut row_max_strip,
        row_cap,
    } = *st;
    let Strip {
        base: strip_base,
        lanes_valid,
        row_base,
        spills_next,
    } = strip;

    // The last lane finishes row `row_cap` at step `t_max − 2`.
    let rows_avail = row_cap - row_base;
    let t_max = rows_avail + width;
    if let Some(band) = band.as_mut().filter(|_| RECORD) {
        band.begin_strip(row_base, t_max);
    }

    // The lane registers start at row `row_base`: the row-0 boundary
    // chain when starting at the top, dead otherwise (cells of row
    // `row_base` itself are dead or boundary by construction).
    let mut s_cur = V::splat(NEG_INF);
    if row_base == 0 {
        let mut chain = [NEG_INF; WARP_SIZE];
        for (l, s) in chain.iter_mut().enumerate().take(lanes_valid) {
            *s = row0(so_se, se, strip_base + l + 1);
        }
        s_cur = V::load(&chain);
    }
    // The strip loop only opens strips with `strip_base < n ≤
    // target.len()` and `lanes_valid = width.min(n − strip_base)`, so the
    // window lies inside the view and the buffer.
    let mut strip_bases = [0u8; WARP_SIZE];
    let strip_target = target.window(strip_base, lanes_valid, &mut strip_bases);
    let window_strip = w > 0 && strip_base < w;
    let mut sw = StripSweep::<V, K> {
        query,
        spill,
        next_spill,
        row_prefix_best,
        row_max_strip,
        shared,
        sink,
        band,
        stage,
        entry: EntryTest {
            prefix: row_prefix_best.get(..=row_cap).unwrap_or(row_prefix_best),
            ydrop,
            max_match,
        },
        profile: V::subst_profile(subst_table, strip_target.unwrap_or_default()),
        so_se,
        se,
        ydrop,
        width,
        w,
        strip_base,
        row_base,
        lanes_valid,
        rows_avail,
        row_cap,
        spills_next,
        window_strip,
        all_lanes: (
            V::range_mask(0, lanes_valid - 1),
            lanes32::range_bits(0, lanes_valid - 1),
        ),
        s_cur,
        i_cur: s_cur,
        d_cur: V::splat(NEG_INF),
        s_prev: V::splat(NEG_INF),
        q_codes: V::splat(0),
        // No threshold source yet: the sentinel less `ydrop`, as a lane
        // add (saturating in the 16-bit types).
        row_th: V::splat(NEG_INF).add(V::splat(-ydrop)),
        lagged_th: V::splat(NEG_INF).add(V::splat(-ydrop)),
        row_maxima: RowMaxima::new(lanes_valid),
        fill_diag: spill.get(row_base).s,
        ring_slot: 0,
        lagged_best: NEG_INF,
        last_live_t: -1,
        spill_live_ptr: row_base + 1,
        live_max_row: 0,
        best: *best_score,
        best_at: (*best_i, *best_j),
        divergent: 0,
        window_bytes: 0,
    };

    // The steady stretch (see above): steps `steady_from..rows_avail`.
    let steady = !INTERPRETED && !HOOKED && lanes_valid == width;
    let steady_from = if window_strip {
        // Lane `width − 1` is on row `row_base + t + 2 − width`, past the
        // window once that row is.
        (w + width - 1).saturating_sub(row_base).max(width - 1)
    } else {
        width - 1
    };
    let mut diag_ring = [NEG_INF; WARP_SIZE];
    let mut t = 0usize;
    let mut end = StepEnd::Next;
    while t < t_max && end == StepEnd::Next {
        if steady && (steady_from..rows_avail).contains(&t) {
            while t < rows_avail {
                end = sw.step::<true, INTERPRETED, RECORD, HOOKED>(&mut diag_ring, t);
                if end != StepEnd::Next {
                    break;
                }
                t += 1;
            }
        } else {
            end = sw.step::<false, INTERPRETED, RECORD, HOOKED>(&mut diag_ring, t);
            if end == StepEnd::Next {
                t += 1;
            }
        }
    }
    // Steps `0..steps` ran and each activated lanes `lo..=hi`; an idle
    // step still shuffled.
    let (steps, idle_steps) = match end {
        StepEnd::Next => (t, 0),
        StepEnd::Idle => (t, 1),
        StepEnd::Done => (t + 1, 0),
    };
    let cells = active_cells(steps, lanes_valid, rows_avail);
    let StripSweep {
        next_spill,
        row_max_strip,
        band,
        row_maxima,
        last_live_t,
        live_max_row,
        best,
        best_at,
        divergent,
        window_bytes,
        ..
    } = sw;
    // The last lane (every lane is valid when a strip follows) spilled
    // one row per step from step `width − 1` through the last step whose
    // window still reached it, `rows_avail + width − 2`.
    if spills_next && steps >= width {
        let last_spill = (steps - 1).min(rows_avail + width - 2);
        next_spill.written = (row_base + 1, row_base + last_spill + 2 - width);
    }
    row_maxima.flush(row_max_strip);
    if let Some(band) = band.as_mut().filter(|_| RECORD) {
        band.end_strip();
    }

    *best_score = best;
    (*best_i, *best_j) = best_at;
    // Lane `lo` is the deepest active lane, on row `row_base + min(t + 1,
    // rows_avail)` at step `t`: the last step reaches the deepest row.
    if steps > 0 {
        *explored_rows = (*explored_rows).max(row_base + steps.min(rows_avail));
    }
    let (steps, idle_steps) = (steps as u64, idle_steps as u64);
    counters.shuffles += 3 * (steps + idle_steps);
    counters.steps += steps;
    counters.cells += cells;
    counters.alu_ops += 9 * width as u64 * steps;
    counters.divergent_steps += divergent;
    counters.shared_bytes += window_bytes;
    if RECORD {
        // One traceback byte per cell, staged through shared memory.
        counters.global_written += cells;
        counters.shared_bytes += 2 * cells;
    }
    counters.global_written += if !cyclic_buffers {
        // Every active lane round-trips its 12 B of scores.
        12 * cells
    } else if spills_next {
        // Only the boundary lane writes scores (12 B: S, I, D).
        12 * steps
    } else {
        0
    };
    StripEnd {
        live: last_live_t >= 0,
        live_max_row,
        last_row: row_maxima.lane0_row,
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
        warp_extend_in(t, q, &scoring(), cfg, &mut shared, &mut Vec::new())
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
        let reused = warp_extend_in(&t[..], &q[..], &sc, &exec_cfg, &mut shared, &mut dirty);
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
        band.begin_strip(0, 4);
        band.push_step(&step(0), 0, 0);
        band.push_step(&step(1), 0, 1);
        band.end_strip();
        band.begin_strip(5, 4);
        band.push_step(&step(2), 0, 0);
        band.end_strip();
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
        let ext = warp_extend_on(
            isa,
            &c.t[..],
            &c.q[..],
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
    fn no_strip_scores_past_its_best_at_entry_plus_a_match_per_lane() {
        // The 16-bit ceiling test's premise: every live S of a strip is
        // at most the best score of the strips before it (0 for strip 0)
        // plus `width` times the largest substitution score.
        let sc = scoring();
        let (_, max_subst) = SubstTable::new(&sc.subst).range();
        let mut strips_checked = 0;
        for c in &differential_corpus() {
            for width in [1usize, 2, 7, 8, 31, 32] {
                let cfg = WarpConfig {
                    max_rows: c.max_rows,
                    max_cols: c.max_cols,
                    ..inspector_cfg().with_strip_width(width)
                };
                let (_, trace) = traced_on(SimdIsa::Portable, c, &sc, &cfg);
                let mut strip_max: Vec<i32> = Vec::new();
                for (&(_, j), cell) in &trace.cells {
                    let s = (j - 1) / width;
                    if strip_max.len() <= s {
                        strip_max.resize(s + 1, NEG_INF);
                    }
                    strip_max[s] = strip_max[s].max(cell.s);
                }
                let mut best = 0;
                for (s, &m) in strip_max.iter().enumerate() {
                    assert!(
                        m <= best + width as i32 * max_subst.max(0),
                        "{} / width {width} / strip {s}: {m} past {best} + {width}·{max_subst}",
                        c.label
                    );
                    best = best.max(m);
                    strips_checked += 1;
                }
            }
        }
        assert!(strips_checked > 1000, "{strips_checked} strips");
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
