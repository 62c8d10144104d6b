//! GenASM/Scrooge-style bitvector extension backend.
//!
//! This is a *second algorithm*, not a fourth implementation of affine
//! y-drop: windowed Bitap/GenASM edit-distance DP over 64-bit dead
//! masks, with Scrooge-flavored work reductions and a traceback that
//! reconstructs a concrete edit script. It exists for two reasons:
//!
//! * a short-read / high-divergence workload where affine gap modeling
//!   is overkill and unit-cost edit distance is the natural regime;
//! * a genuinely independent implementation the conformance suite can
//!   differential-test *across algorithms* — see
//!   `fastz-conformance::crossalg` for the exact agreement contract.
//!
//! # Representation
//!
//! Each window holds up to 64 pattern (query) rows in one `u64` per
//! edit budget `d`: bit `b` of `R[d]` is **1 when pattern prefix
//! `b+1` is dead at column `j`** (edit distance > `d`), 0 when alive.
//! The dead-mask convention makes the Myers-style column step four
//! AND/shift operations per budget row, and makes "entirely negative"
//! literally the all-ones word. Aliveness is monotone in `d`
//! (`alive(R[d]) ⊆ alive(R[d+1])`), so checking `R[k]` for all-dead
//! covers every budget.
//!
//! # Scoring regime
//!
//! The backend scores in the **unit-cost regime**: a cell reached with
//! `ed` unit edits at pattern extent `i` / text extent `j` scores
//! `(i + j) − 3·ed` (match +2, edit −1 relative to a match at either
//! end — equivalently match +2, mismatch −1, gap base −2). This is
//! exactly the affine scheme `match=2, mismatch=−1, gaps=(open 0,
//! extend 2)`, which is where the cross-algorithm agreement contract
//! lives: on that scheme, affine y-drop (with pruning disabled) and
//! this engine must find the same optimum.
//!
//! # SENE and DENT
//!
//! Scrooge's reductions, realized against this storage scheme:
//!
//! * **SENE — skip entirely-negative windows.** A column whose `R[k]`
//!   is all-dead can never revive (an all-dead column forces `j > k`,
//!   which kills the prefix-0 escape row; see the proof in DESIGN.md),
//!   so the sweep stops early and the remaining columns are skipped;
//!   a window with no live end-bit candidate at all stops the whole
//!   extension. Both are counted in [`BitvecStats::sene_skips`].
//! * **DENT — discard entirely-negative traceback rows.** Aliveness is
//!   monotone in `d`, so a column's all-dead rows are a prefix of
//!   budgets. The sweep records that prefix's length per column and
//!   stores only the rows above it, in one bulk write; the traceback
//!   walk reads a row inside the prefix as all-dead. Lossless by
//!   construction (the walk only ever queries alive bits), and counted
//!   in [`BitvecStats::dent_discards`].
//!
//! # The live band
//!
//! The dead prefix also bounds the work. Row `d` stays all-dead at
//! column `j` when rows `d` and `d − 1` were all-dead at `j − 1`, row
//! `d − 1` is all-dead at `j`, and `j > d + 1`, so column `j` starts
//! its sweep at `min(lo[j − 1], j − 1)` with `!0` as the row below the
//! start (`band_start`). Every row the sweep skips is one DENT would
//! have discarded, so results, counters and the stored rows are the
//! same as a sweep over every budget.

use crate::view::BaseView;
use fastz_align::{push_op, score, EditOp};
use fastz_genome::N_CODE;
use fastz_gpu_sim::sanitize::stage as san_stage;
use fastz_gpu_sim::{SharedMem, WarpCounters};

/// Which extension algorithm runs the one-sided problems.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExtendBackend {
    /// Affine-gap y-drop on the warp wavefront engine (the default).
    #[default]
    YDrop,
    /// GenASM/Scrooge-style bitvector edit alignment (unit-cost regime).
    Bitvector,
}

impl ExtendBackend {
    /// Stable name for fingerprints and reports.
    pub fn name(self) -> &'static str {
        match self {
            ExtendBackend::YDrop => "ydrop",
            ExtendBackend::Bitvector => "bitvector",
        }
    }
}

/// Planted bitvector bugs for the cross-algorithm mutation corpus.
///
/// Everything except `None` deliberately mis-implements one detail the
/// conformance drill must catch. The production path never sets these;
/// the variants exist so `crates/conformance/tests/bitvec_mutation.rs`
/// can prove the oracle has teeth.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BitvecMutation {
    /// The faithful engine.
    #[default]
    None,
    /// Window commit advances the text base one short on every
    /// non-final window.
    WindowEdgeOffByOne,
    /// The match-term shift-in bit tests `j <= d` instead of
    /// `j - 1 > d`.
    WrongShiftInBit,
    /// SENE's all-dead test reads the budget-0 row instead of the
    /// budget-k row, truncating live extensions.
    SeneSkipsLive,
    /// DENT discards any row whose *top* window bit is dead, dropping
    /// rows that still carry live low bits a real traceback needs.
    DentDropsReal,
    /// Candidate scores wrap through `i32::MIN` instead of saturating
    /// through [`score::add_clamped`].
    SaturatingWrap,
    /// The pattern bitmask is built with bit `wlen-1-b` for pattern
    /// position `b` (reversed window).
    ReversedPatternMask,
}

impl BitvecMutation {
    /// Every planted bug, for corpus iteration.
    #[doc(hidden)]
    pub const ALL: [BitvecMutation; 6] = [
        BitvecMutation::WindowEdgeOffByOne,
        BitvecMutation::WrongShiftInBit,
        BitvecMutation::SeneSkipsLive,
        BitvecMutation::DentDropsReal,
        BitvecMutation::SaturatingWrap,
        BitvecMutation::ReversedPatternMask,
    ];

    /// Provenance label for divergence reports.
    #[doc(hidden)]
    pub fn name(self) -> &'static str {
        match self {
            BitvecMutation::None => "none",
            BitvecMutation::WindowEdgeOffByOne => "window_edge_off_by_one",
            BitvecMutation::WrongShiftInBit => "wrong_shift_in_bit",
            BitvecMutation::SeneSkipsLive => "sene_skips_live",
            BitvecMutation::DentDropsReal => "dent_drops_real",
            BitvecMutation::SaturatingWrap => "saturating_wrap",
            BitvecMutation::ReversedPatternMask => "reversed_pattern_mask",
        }
    }
}

/// Bitvector engine tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitvecConfig {
    /// Pattern rows per window (1..=64).
    pub window: usize,
    /// Rows re-examined by the next window (< `window`).
    pub overlap: usize,
    /// Edit budget per window (1..=63).
    pub k: usize,
    /// Planted bug selector (test seam; `None` in production).
    #[doc(hidden)]
    pub mutation: BitvecMutation,
}

impl Default for BitvecConfig {
    fn default() -> BitvecConfig {
        BitvecConfig {
            window: 64,
            overlap: 16,
            k: 31,
            mutation: BitvecMutation::None,
        }
    }
}

impl BitvecConfig {
    /// Panics on geometry the bit-parallel step cannot represent.
    pub fn validate(&self) {
        assert!(
            (1..=64).contains(&self.window),
            "bitvec window {} outside 1..=64",
            self.window
        );
        assert!(
            self.overlap < self.window,
            "bitvec overlap {} must be < window {}",
            self.overlap,
            self.window
        );
        assert!(
            (1..=63).contains(&self.k),
            "bitvec edit budget {} outside 1..=63",
            self.k
        );
    }

    /// Largest edit budget whose traceback store fits `capacity` bytes
    /// of shared memory at this window size.
    pub(crate) fn effective_k(&self, capacity: usize) -> usize {
        let mut k = self.k;
        while k > 1 && (self.window + k + 1) * (k + 1) * 8 > capacity {
            k -= 1;
        }
        k
    }
}

/// Work reduction counters for one extension.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BitvecStats {
    /// Windows processed.
    pub windows: u64,
    /// SENE events: columns skipped after an all-dead column, plus
    /// windows abandoned with no live end-bit candidate.
    pub sene_skips: u64,
    /// DENT events: all-dead traceback rows never written.
    pub dent_discards: u64,
}

impl BitvecStats {
    /// Accumulates another extension's counters.
    pub fn merge(&mut self, other: &BitvecStats) {
        self.windows += other.windows;
        self.sene_skips += other.sene_skips;
        self.dent_discards += other.dent_discards;
    }
}

/// Result of one one-sided bitvector extension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitvecExtension {
    /// Best unit-regime score found (≥ 0; `(i + j) − 3·ed`).
    pub best_score: i32,
    /// Query (pattern) bases consumed at the best cell.
    pub best_i: usize,
    /// Target (text) bases consumed at the best cell.
    pub best_j: usize,
    /// Unit edits on the returned script (exact for the script;
    /// equals the true edit distance of `(best_i, best_j)` whenever
    /// the best cell fell in the first window).
    pub edit_distance: u32,
    /// Edit script from the origin to the best cell.
    pub ops: Vec<EditOp>,
    /// SENE/DENT accounting.
    pub stats: BitvecStats,
    /// Work counters for the timing model.
    pub counters: WarpCounters,
    /// Maximum pattern row touched.
    pub explored_rows: usize,
    /// Maximum text column touched.
    pub explored_cols: usize,
}

impl BitvecExtension {
    fn origin() -> BitvecExtension {
        BitvecExtension {
            best_score: 0,
            best_i: 0,
            best_j: 0,
            edit_distance: 0,
            ops: Vec::new(),
            stats: BitvecStats::default(),
            counters: WarpCounters::default(),
            explored_rows: 0,
            explored_cols: 0,
        }
    }
}

// Internal unit-step codes used before run-length encoding.
const U_MATCH: u8 = 0;
const U_SUB: u8 = 1;
/// Consumes text only (target base against a gap in the query).
const U_INS: u8 = 2;
/// Consumes pattern only (query base against a gap in the target).
const U_DEL: u8 = 3;

fn units_to_ops<'a>(units: impl IntoIterator<Item = &'a u8>) -> Vec<EditOp> {
    let mut ops = Vec::new();
    for &u in units {
        let op = match u {
            U_MATCH | U_SUB => EditOp::Diag(1),
            U_INS => EditOp::GapQ(1),
            _ => EditOp::GapT(1),
        };
        push_op(&mut ops, op);
    }
    ops
}

/// [`bitvec_extend_in`] with a private scratchpad (tests, one-shots).
pub fn bitvec_extend(text: &[u8], pattern: &[u8], cfg: &BitvecConfig) -> BitvecExtension {
    let mut shared = SharedMem::new((cfg.window + cfg.k + 1) * (cfg.k + 1) * 8);
    bitvec_extend_in(text, pattern, cfg, &mut shared)
}

/// Text columns one window can sweep: `0..=wlen + k`, with `wlen ≤ 64`
/// and `k ≤ 63`.
const MAX_COLS: usize = 64 + 63 + 1;

/// One-sided windowed bitvector extension from the origin.
///
/// `pattern` is the query side (rows), `text` the target side
/// (columns); both are already oriented. Traceback rows live in
/// `shared` under the same sanitizer hooks as the wavefront kernels,
/// and the work counters price through `price_task` unchanged.
pub fn bitvec_extend_in(
    text: &[u8],
    pattern: &[u8],
    cfg: &BitvecConfig,
    shared: &mut SharedMem,
) -> BitvecExtension {
    bitvec_extend_view(
        BaseView::forward(text),
        BaseView::forward(pattern),
        cfg,
        shared,
    )
}

/// [`bitvec_extend_in`] over base views: the pipeline passes a left
/// side's prefixes as reversed views, read in place. The sweep reads
/// one pattern window per window, one text base per column, and the
/// bases its traceback walk compares.
///
/// `N` matches nothing, as the y-drop engine scores it: a pattern `N`
/// sets no match bit, a text `N` reads the all-mismatch mask, and the
/// walk never takes a diagonal through it as a match.
pub fn bitvec_extend_view(
    text: BaseView<'_>,
    pattern: BaseView<'_>,
    cfg: &BitvecConfig,
    shared: &mut SharedMem,
) -> BitvecExtension {
    cfg.validate();
    let m = pattern.len();
    let n = text.len();
    let mu = cfg.mutation;
    let mut out = BitvecExtension::origin();
    shared.sanitize_stage(san_stage::BITVECTOR);
    if m == 0 || n == 0 {
        return out;
    }
    let k = cfg.effective_k(shared.capacity());
    let kp1 = k + 1;
    // The live-band start relies on the faithful shift-in bits and the
    // faithful discard rule; the planted bugs that break either sweep
    // every budget row.
    let full_sweep = matches!(
        mu,
        BitvecMutation::WrongShiftInBit | BitvecMutation::DentDropsReal
    );

    // Committed path state: the greedy window chain from the origin.
    let mut pbase = 0usize;
    let mut tbase = 0usize;
    let mut ed_acc = 0u32;
    let mut committed: Vec<u8> = Vec::new();
    // The best cell's script: how much of `committed` precedes it, and
    // its window's unit steps in `best_units`. Encoded once, after the
    // last window. Both walks write into buffers reused for the whole
    // extension.
    let mut best_prefix: Option<usize> = None;
    let mut best_units: Vec<u8> = Vec::new();
    let mut end_units: Vec<u8> = Vec::new();

    // The two columns of the recurrence; each column step swaps the
    // references, not the arrays.
    let mut cols = ([0u64; 64], [0u64; 64]);
    let (mut cur, mut new) = (&mut cols.0, &mut cols.1);
    // Per column of the current window: its dead-prefix length, the
    // rows DENT discarded (reused across windows; entries past the
    // swept columns are stale and never read).
    let mut lo = [0u8; MAX_COLS];

    while pbase < m {
        let wlen = cfg.window.min(m - pbase);
        let tlen = (wlen + k).min(n - tbase);
        if tlen == 0 {
            // Text exhausted: pattern-only deletions can never improve
            // the unit score, so the extension ends here.
            break;
        }
        out.stats.windows += 1;
        let last = pbase + wlen == m;
        out.explored_rows = out.explored_rows.max(pbase + wlen);

        let pm = pattern_masks(pattern, pbase, wlen, mu);
        out.counters.global_read += (wlen + tlen) as u64;

        let window_mask: u64 = if wlen == 64 { !0 } else { (1u64 << wlen) - 1 };
        let beyond = !window_mask;
        let ebit = 1u64 << (wlen - 1);
        // DENT discards a row when these bits are all dead.
        let dent_mask = if mu == BitvecMutation::DentDropsReal {
            ebit
        } else {
            window_mask
        };
        shared.reserve((tlen + 1) * kp1 * 8);

        // Column 0: prefix i costs i deletions, so bit b is dead at
        // budget d iff b >= d.
        for (d, slot) in cur.iter_mut().enumerate().take(kp1) {
            *slot = ((!0u64) << d) | beyond;
        }
        lo[0] = store_column(shared, &mut out, cur, 0, kp1, 0, dent_mask);
        shared.sanitize_tick();

        // Best candidate found inside this window (window coordinates).
        let mut wbest: Option<(usize, usize, usize)> = None;
        // Cheapest live end-bit cell seen so far: (column, budget).
        let mut end_hit: Option<(usize, usize)> = None;
        scan_column(
            cur,
            0,
            kp1,
            window_mask,
            0,
            pbase,
            wlen,
            tbase,
            ed_acc,
            mu,
            &mut out,
            &mut wbest,
        );
        if let Some(d) = (0..kp1).find(|&d| cur[d] & ebit == 0) {
            end_hit = Some((0, d));
        }

        let mut cols_done = tlen;
        for j in 1..=tlen {
            out.counters.steps += 1;
            out.counters.cells += (kp1 * wlen) as u64;
            out.counters.alu_ops += (kp1 * 6) as u64;
            let pmv = text_mask(&pm, text.get(tbase + j - 1));
            let start = if full_sweep {
                0
            } else {
                band_start(usize::from(lo[j - 1]), j) // bound: 1 <= j <= tlen < MAX_COLS
            };
            column_step(
                cur,
                new,
                start,
                kp1,
                j,
                pmv,
                beyond,
                mu == BitvecMutation::WrongShiftInBit,
            );
            lo[j] = store_column(shared, &mut out, new, start, kp1, j, dent_mask);
            scan_column(
                new,
                start,
                kp1,
                window_mask,
                j,
                pbase,
                wlen,
                tbase,
                ed_acc,
                mu,
                &mut out,
                &mut wbest,
            );
            if let Some(d) = (start..kp1).find(|&d| new[d] & ebit == 0) {
                match end_hit {
                    Some((_, bd)) if d > bd => {}
                    // `j` ascends, so `d <= bd` prefers the latest
                    // column among the cheapest end cells.
                    _ => end_hit = Some((j, d)),
                }
            }
            std::mem::swap(&mut cur, &mut new);
            shared.sanitize_tick();
            // SENE: an all-dead column at the full budget can never
            // revive (it forces j > k, closing the prefix-0 escape row).
            // A probe row below the start was skipped as all-dead.
            let probe = if mu == BitvecMutation::SeneSkipsLive {
                0
            } else {
                k
            };
            if probe < start || (cur[probe] & window_mask) == window_mask {
                out.stats.sene_skips += (tlen - j) as u64;
                cols_done = j;
                break;
            }
        }
        out.explored_cols = out.explored_cols.max(tbase + cols_done);

        // Row store and walk are distinct accessor identities with a
        // barrier between them, exactly like wavefront → eager traceback.
        shared.sanitize_barrier();
        shared.sanitize_stage(san_stage::BITVECTOR_TRACEBACK);

        if let Some((bw, jw, dw)) = wbest {
            traceback(
                shared,
                &lo,
                kp1,
                text,
                pattern,
                pbase,
                tbase,
                bw,
                jw,
                dw,
                &mut out.counters,
                &mut best_units,
            );
            let gi = pbase + bw + 1;
            let gj = tbase + jw;
            out.best_score = candidate_score(gi, gj, ed_acc + dw as u32, mu);
            out.best_i = gi;
            out.best_j = gj;
            out.edit_distance = ed_acc + dw as u32;
            best_prefix = Some(committed.len());
        }

        let Some((je, de)) = end_hit else {
            // No prefix of this window survives the budget anywhere:
            // the whole remaining extension is entirely negative.
            out.stats.sene_skips += 1;
            break;
        };
        traceback(
            shared,
            &lo,
            kp1,
            text,
            pattern,
            pbase,
            tbase,
            wlen - 1,
            je,
            de,
            &mut out.counters,
            &mut end_units,
        );
        let keep = if last { wlen } else { wlen - cfg.overlap };
        let mut consumed_p = 0usize;
        let mut consumed_t = 0usize;
        let mut edits = 0u32;
        let mut cut = end_units.len();
        for (idx, &u) in end_units.iter().enumerate() {
            if consumed_p == keep {
                cut = idx;
                break;
            }
            match u {
                U_MATCH => {
                    consumed_p += 1;
                    consumed_t += 1;
                }
                U_SUB => {
                    consumed_p += 1;
                    consumed_t += 1;
                    edits += 1;
                }
                U_INS => {
                    consumed_t += 1;
                    edits += 1;
                }
                _ => {
                    consumed_p += 1;
                    edits += 1;
                }
            }
        }
        committed.extend_from_slice(&end_units[..cut]);
        pbase += keep;
        let advance = if mu == BitvecMutation::WindowEdgeOffByOne && !last {
            consumed_t.saturating_sub(1)
        } else {
            consumed_t
        };
        tbase += advance;
        ed_acc += edits;
        if last {
            break;
        }
        shared.sanitize_barrier();
        shared.sanitize_stage(san_stage::BITVECTOR);
    }
    if let Some(len) = best_prefix {
        // bound: `len` was `committed.len()` when recorded, and
        // `committed` only grows.
        out.ops = units_to_ops(committed[..len].iter().chain(&best_units));
    }
    out
}

/// Pattern mismatch masks of the window of `wlen` rows from `pbase`:
/// bit `b` of `pm[c]` is 1 iff pattern base `pbase + b` does not match
/// text code `c`. `N` matches nothing: a pattern `N` sets no match bit,
/// and `pm[N_CODE]` is all ones.
fn pattern_masks(pattern: BaseView<'_>, pbase: usize, wlen: usize, mu: BitvecMutation) -> [u64; 5] {
    let mut mat = [0u64; 4];
    for b in 0..wlen {
        let bit = if mu == BitvecMutation::ReversedPatternMask {
            wlen - 1 - b
        } else {
            b
        };
        // A code past `T` (an `N`) has no slot, so sets no bit.
        if let Some(slot) = pattern
            .get(pbase + b)
            .and_then(|pc| mat.get_mut(usize::from(pc)))
        {
            *slot |= 1u64 << bit;
        }
    }
    [!mat[0], !mat[1], !mat[2], !mat[3], !0]
}

/// The window's mismatch mask for one text base: `N`, any code past
/// it, and a base past the text all mismatch every row.
#[inline(always)]
fn text_mask(pm: &[u64; 5], code: Option<u8>) -> u64 {
    code.and_then(|c| pm.get(usize::from(c)).copied())
        .unwrap_or(!0)
}

/// First budget row column `j` must compute, given the dead-prefix
/// length `lo_prev` of column `j − 1`.
///
/// Row `d` is all-dead at column `j` whenever rows `d` and `d − 1` were
/// all-dead at `j − 1`, row `d − 1` is all-dead at `j`, and `j > d + 1`
/// (so the prefix-0 shift-in bits are 1): every term of the recurrence
/// is then all ones. By induction on `d`, every row below
/// `min(lo_prev, j − 1)` is all-dead, and the row below the start reads
/// as `!0`.
#[inline(always)]
fn band_start(lo_prev: usize, j: usize) -> usize {
    lo_prev.min(j - 1)
}

/// One column of the dead-mask recurrence: rows `start..kp1` of column
/// `j ≥ 1` into `new`, from column `j − 1` in `cur`.
///
/// Rows below `start` must be all-dead in both columns (see
/// [`band_start`]); they are neither read nor written, and the row
/// below the start enters the budget chain as `!0`. With `start = 0`
/// that seed makes row 0 the match term alone, as the recurrence has
/// it. `wrong_shift` plants the `WrongShiftInBit` bug.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn column_step(
    cur: &[u64; 64],
    new: &mut [u64; 64],
    start: usize,
    kp1: usize,
    j: usize,
    pmv: u64,
    beyond: u64,
    wrong_shift: bool,
) {
    // R[d − 1] at columns j − 1 and j, carried down the budget chain.
    let mut up_cur = !0u64;
    let mut up_new = !0u64;
    // bound: start <= kp1 <= 64 (band_start caps it at a dead-prefix
    // length, at most kp1).
    let rows = cur[start..kp1].iter().zip(&mut new[start..kp1]);
    for (d, (&c, slot)) in (start..).zip(rows) {
        // Shift-in bits encode the analytic prefix-0 row: prefix 0 at
        // column j' is dead at budget d' iff j' > d'.
        let si_m = if wrong_shift { j <= d } else { j - 1 > d };
        let m_term = (c << 1) | u64::from(si_m) | pmv;
        let s_term = (up_cur << 1) | u64::from(j > d);
        let d_term = (up_new << 1) | u64::from(j >= d);
        let val = (m_term & s_term & up_cur & d_term) | beyond;
        *slot = val;
        up_cur = c;
        up_new = val;
    }
}

/// Length of the prefix of rows `0..kp1` whose `dent_mask` bits are
/// all dead, given that rows below `start` are all-dead.
fn dead_prefix(rows: &[u64; 64], start: usize, kp1: usize, dent_mask: u64) -> usize {
    // bound: start <= kp1 <= 64, as in `column_step`.
    let band = &rows[start..kp1];
    start
        + band
            .iter()
            .take_while(|&&r| r & dent_mask == dent_mask)
            .count()
}

/// Stores column `j`'s live rows into the shared traceback store and
/// returns its dead-prefix length.
///
/// Aliveness is monotone in the budget, so a column's discardable rows
/// (all of `dent_mask` dead) are a prefix; rows below `start` are
/// all-dead already. DENT counts the prefix and stores rows
/// `lo..kp1` with one bulk write at their row slots `j·(k+1) + d`.
fn store_column(
    shared: &mut SharedMem,
    out: &mut BitvecExtension,
    rows: &[u64; 64],
    start: usize,
    kp1: usize,
    j: usize,
    dent_mask: u64,
) -> u8 {
    let lo = dead_prefix(rows, start, kp1, dent_mask);
    // bound: lo <= kp1 <= 64.
    let live = &rows[lo..kp1];
    out.stats.dent_discards += lo as u64;
    out.counters.shared_bytes += 8 * live.len() as u64;
    shared.write_u64s((j * kp1 + lo) * 8, live);
    lo as u8
}

/// Unit-regime candidate score at global cell `(gi, gj)` with `ed` edits.
fn candidate_score(gi: usize, gj: usize, ed: u32, mu: BitvecMutation) -> i32 {
    if mu == BitvecMutation::SaturatingWrap {
        // Planted bug: raw arithmetic that wraps through i32::MIN.
        (i32::MIN + (gi + gj) as i32).wrapping_sub(3 * ed as i32)
    } else {
        score::add_clamped((gi + gj) as i32, -3 * (ed as i32))
    }
}

/// Scans one column's dead-mask rows for newly-alive cells and folds
/// the best-scoring one into the window candidate.
///
/// A cell that is alive at budget `d` but dead at `d-1` has exact
/// window edit distance `d`; among newly-alive bits of one `(j, d)`
/// the top bit dominates (the unit score grows with the pattern
/// extent), so one `leading_zeros` per budget row suffices. Rows below
/// `start` are all-dead and hold no such cell.
///
/// No cell of row `d` scores above the window's last row at that
/// budget, `(pbase + wlen) + (tbase + j) − 3·(ed_acc + d)`, which falls
/// as `d` grows; the scan stops at the first row where that cannot beat
/// the best score.
#[allow(clippy::too_many_arguments)]
fn scan_column(
    rows: &[u64; 64],
    start: usize,
    kp1: usize,
    window_mask: u64,
    j: usize,
    pbase: usize,
    wlen: usize,
    tbase: usize,
    ed_acc: u32,
    mu: BitvecMutation,
    out: &mut BitvecExtension,
    wbest: &mut Option<(usize, usize, usize)>,
) {
    // The window's last row at this column with none of this window's
    // edits: row `d` can score at most `reach − 3·d`.
    let reach = (pbase + wlen + tbase + j) as i64 - 3 * i64::from(ed_acc);
    // R[d − 1]; all-dead below the start.
    let mut up = !0u64;
    // bound: start <= kp1 <= 64, as in `column_step`.
    for (d, &row) in (start..).zip(&rows[start..kp1]) {
        if reach - 3 * d as i64 <= i64::from(out.best_score) {
            break;
        }
        let fresh = !row & up & window_mask;
        up = row;
        if fresh == 0 {
            continue;
        }
        let b = 63 - fresh.leading_zeros() as usize;
        let sc = candidate_score(pbase + b + 1, tbase + j, ed_acc + d as u32, mu);
        if sc > out.best_score {
            // Stage the coordinates; the window's traceback runs once,
            // after its rows are stored.
            out.best_score = sc;
            *wbest = Some((b, j, d));
        }
    }
}

/// Reads stored row `d` of column `j`; rows in the column's dead
/// prefix were never stored and read as all-dead.
fn tb_row(
    shared: &SharedMem,
    lo: &[u8; MAX_COLS],
    kp1: usize,
    j: usize,
    d: usize,
    counters: &mut WarpCounters,
) -> u64 {
    // bound: the walk starts at a swept column and only moves left,
    // so j <= tlen < MAX_COLS.
    if d < usize::from(lo[j]) {
        return !0u64;
    }
    counters.shared_bytes += 8;
    shared.read_u64((j * kp1 + d) * 8)
}

/// Walks the stored rows from window cell `(b0, j0, d0)` back to the
/// window origin and leaves forward-ordered unit steps in `units`.
///
/// Step priority is diagonal match, substitution, insertion (text
/// gap), deletion (pattern gap); `b = -1` is the analytic prefix-0 row
/// (alive iff `j <= d`). A match needs equal bases below `N`. On the
/// faithful engine the aliveness checks always find a predecessor; the
/// forced fallback steps only trigger under planted mutations and
/// produce scripts the self-consistency checks reject.
#[allow(clippy::too_many_arguments)]
fn traceback(
    shared: &SharedMem,
    lo: &[u8; MAX_COLS],
    kp1: usize,
    text: BaseView<'_>,
    pattern: BaseView<'_>,
    pbase: usize,
    tbase: usize,
    b0: usize,
    j0: usize,
    d0: usize,
    counters: &mut WarpCounters,
    units: &mut Vec<u8>,
) {
    units.clear();
    let mut b = b0 as isize;
    let mut j = j0;
    let mut d = d0;
    let alive = |b: isize, j: usize, d: usize, counters: &mut WarpCounters| -> bool {
        if b < 0 {
            return j <= d;
        }
        tb_row(shared, lo, kp1, j, d, counters) & (1u64 << b) == 0
    };
    while b >= 0 {
        counters.scalar_ops += 1;
        shared.sanitize_tick();
        // Rows lie inside the window (0 <= b < wlen), and the `j >= 1`
        // guard keeps the text base inside it (j <= tlen).
        let pb = pattern.get(pbase + b as usize).filter(|&c| c < N_CODE);
        if j >= 1
            && pb.is_some()
            && text.get(tbase + j - 1) == pb
            && alive(b - 1, j - 1, d, counters)
        {
            units.push(U_MATCH);
            b -= 1;
            j -= 1;
        } else if d >= 1 && j >= 1 && alive(b - 1, j - 1, d - 1, counters) {
            units.push(U_SUB);
            b -= 1;
            j -= 1;
            d -= 1;
        } else if d >= 1 && j >= 1 && alive(b, j - 1, d - 1, counters) {
            units.push(U_INS);
            j -= 1;
            d -= 1;
        } else if d >= 1 && alive(b - 1, j, d - 1, counters) {
            units.push(U_DEL);
            b -= 1;
            d -= 1;
        } else if j >= 1 {
            units.push(U_INS);
            j -= 1;
            d = d.saturating_sub(1);
        } else {
            units.push(U_DEL);
            b -= 1;
            d = d.saturating_sub(1);
        }
    }
    // Prefix 0 at column j: the path opened with j text insertions.
    units.extend(std::iter::repeat_n(U_INS, j));
    counters.scalar_ops += j as u64;
    units.reverse();
}

/// Dead masks of a single bitvector window, swept by the engine's
/// column step, exposed for the per-window differential proptest
/// (`tests/bitvec_step.rs`).
#[doc(hidden)]
pub struct WindowMasks {
    /// One flat `(text.len() + 1) × (k + 1)` buffer: column `j` holds
    /// the `k + 1` dead masks `R[d]` at `j * (k + 1) + d`. Rows below
    /// a column's start were skipped by the sweep and read `!0`.
    pub masks: Vec<u64>,
    /// The first row the sweep computed in each column.
    pub starts: Vec<usize>,
}

/// Sweeps one window holding all of `pattern` (`pattern.len() <= 64`)
/// over every column of `text` at budget `k`, exactly as
/// [`bitvec_extend_in`] sweeps a window: the same column step and the
/// same live-band start.
#[doc(hidden)]
pub fn window_masks(text: &[u8], pattern: &[u8], k: usize) -> WindowMasks {
    let wlen = pattern.len();
    assert!((1..=64).contains(&wlen) && (1..=63).contains(&k));
    let window_mask: u64 = if wlen == 64 { !0 } else { (1u64 << wlen) - 1 };
    let beyond = !window_mask;
    let pm = pattern_masks(BaseView::forward(pattern), 0, wlen, BitvecMutation::None);
    let kp1 = k + 1;
    let mut masks = vec![!0u64; (text.len() + 1) * kp1];
    let mut starts = vec![0usize; text.len() + 1];
    let mut cols = ([0u64; 64], [0u64; 64]);
    let (mut cur, mut new) = (&mut cols.0, &mut cols.1);
    for (d, r) in cur.iter_mut().enumerate().take(kp1) {
        *r = ((!0u64) << d) | beyond;
    }
    // bound: kp1 <= 64, and column 0's `kp1` masks open the buffer.
    masks[..kp1].copy_from_slice(&cur[..kp1]);
    let mut lo = dead_prefix(cur, 0, kp1, window_mask);
    for (j, &t) in (1..).zip(text) {
        let pmv = text_mask(&pm, Some(t));
        let start = band_start(lo, j);
        column_step(cur, new, start, kp1, j, pmv, beyond, false);
        lo = dead_prefix(new, start, kp1, window_mask);
        // bound: j <= text.len() and start <= kp1, so both ranges lie
        // inside column j's `kp1` masks, and j < starts.len().
        masks[j * kp1 + start..(j + 1) * kp1].copy_from_slice(&new[start..kp1]);
        starts[j] = start;
        std::mem::swap(&mut cur, &mut new);
    }
    WindowMasks { masks, starts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastz_align::ydrop::NEG_INF;

    fn codes(s: &str) -> Vec<u8> {
        s.bytes()
            .map(|b| match b {
                b'A' => 0,
                b'C' => 1,
                b'G' => 2,
                _ => 3,
            })
            .collect()
    }

    fn ops_extent(ops: &[EditOp]) -> (usize, usize) {
        let (mut i, mut j) = (0usize, 0usize);
        for op in ops {
            match *op {
                EditOp::Diag(n) => {
                    i += n as usize;
                    j += n as usize;
                }
                EditOp::GapQ(n) => j += n as usize,
                EditOp::GapT(n) => i += n as usize,
            }
        }
        (i, j)
    }

    fn script_edits(text: &[u8], pattern: &[u8], ops: &[EditOp]) -> u32 {
        let (mut i, mut j, mut ed) = (0usize, 0usize, 0u32);
        for op in ops {
            match *op {
                EditOp::Diag(n) => {
                    for _ in 0..n {
                        if pattern[i] >= N_CODE || pattern[i] != text[j] {
                            ed += 1;
                        }
                        i += 1;
                        j += 1;
                    }
                }
                EditOp::GapQ(n) => {
                    j += n as usize;
                    ed += n;
                }
                EditOp::GapT(n) => {
                    i += n as usize;
                    ed += n;
                }
            }
        }
        ed
    }

    #[test]
    fn identical_sequences_score_two_per_base() {
        let t = codes("ACGTACGTACGT");
        let r = bitvec_extend(&t, &t, &BitvecConfig::default());
        assert_eq!(r.best_score, 2 * t.len() as i32);
        assert_eq!((r.best_i, r.best_j), (t.len(), t.len()));
        assert_eq!(r.edit_distance, 0);
        assert_eq!(ops_extent(&r.ops), (t.len(), t.len()));
    }

    #[test]
    fn single_substitution_costs_three() {
        let t = codes("ACGTACGTAC");
        let mut q = t.clone();
        q[4] ^= 1;
        let r = bitvec_extend(&t, &q, &BitvecConfig::default());
        assert_eq!(r.best_score, 2 * t.len() as i32 - 3);
        assert_eq!(r.edit_distance, 1);
        assert_eq!(script_edits(&t, &q, &r.ops), 1);
    }

    #[test]
    fn script_is_self_consistent_across_windows() {
        // Long enough for several windows, with scattered edits.
        let mut t = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.push(((state >> 33) & 3) as u8);
        }
        let mut q = t.clone();
        for i in (13..390).step_by(37) {
            q[i] ^= 2;
        }
        let r = bitvec_extend(&t, &q, &BitvecConfig::default());
        assert_eq!(ops_extent(&r.ops), (r.best_i, r.best_j));
        assert_eq!(script_edits(&t, &q, &r.ops), r.edit_distance);
        assert_eq!(
            r.best_score,
            score::add_clamped((r.best_i + r.best_j) as i32, -3 * r.edit_distance as i32)
        );
        assert!(r.stats.windows > 1);
    }

    #[test]
    fn n_matches_nothing_on_either_side() {
        let mut t = codes("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT");
        t[10..13].fill(N_CODE);
        let r = bitvec_extend(&t, &t, &BitvecConfig::default());
        // Each of the three `N`–`N` pairs costs an edit: 2·40 − 3·3.
        assert_eq!(r.best_score, 2 * 40 - 9);
        assert_eq!(r.edit_distance, 3);
        assert_eq!(script_edits(&t, &t, &r.ops), 3);
        // `N` against `N`, and `N` against `A` (which `code & 3` once
        // read as a match), find nothing to extend.
        let n = vec![N_CODE; 50];
        let a = codes(&"A".repeat(50));
        for (text, pattern) in [(&n, &n), (&n, &a), (&a, &n)] {
            let r = bitvec_extend(text, pattern, &BitvecConfig::default());
            assert_eq!((r.best_score, r.best_i, r.best_j), (0, 0, 0));
        }
    }

    #[test]
    fn garbage_pair_stops_early_with_sene_skips() {
        let t = codes("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA");
        let q = codes("TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT");
        let cfg = BitvecConfig {
            k: 4,
            ..BitvecConfig::default()
        };
        let r = bitvec_extend(&t, &q, &cfg);
        assert_eq!(r.best_score, 0);
        assert!(r.stats.sene_skips > 0, "all-dead columns must be skipped");
    }

    #[test]
    fn dent_discards_are_lossless_here() {
        let t = codes("ACGTACGTACGTACGTACGTACGT");
        let mut q = t.clone();
        q[3] ^= 1;
        q[17] ^= 2;
        let tight = BitvecConfig {
            k: 3,
            ..BitvecConfig::default()
        };
        let r = bitvec_extend(&t, &q, &tight);
        assert!(r.stats.dent_discards > 0, "tight budgets must discard rows");
        assert_eq!(script_edits(&t, &q, &r.ops), r.edit_distance);
        assert_eq!(ops_extent(&r.ops), (r.best_i, r.best_j));
    }

    #[test]
    fn clamped_scores_never_wrap_near_i32_min() {
        // An absurd edit count through add_clamped floors at NEG_INF
        // instead of wrapping positive like the planted mutation does.
        let clean = candidate_score(1, 1, u32::MAX / 8, BitvecMutation::None);
        assert_eq!(clean, NEG_INF);
        let wrapped = candidate_score(1, 1, u32::MAX / 8, BitvecMutation::SaturatingWrap);
        assert!(wrapped != clean);
    }
}
