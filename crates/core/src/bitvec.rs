//! GenASM/Scrooge-style bitvector extension backend.
//!
//! This is a *second algorithm*, not a fourth implementation of affine
//! y-drop: windowed Bitap/GenASM edit-distance DP over 64-bit dead
//! masks, with Scrooge-flavored work reductions and a traceback that
//! reconstructs a concrete edit script. It exists for three reasons
//! (ROADMAP item 5):
//!
//! * a cheap reject rung for the alignment service ([`prefilter_anchors`]
//!   upper-bounds the y-drop score an anchor could possibly reach and
//!   drops anchors that provably cannot clear `gapped_threshold`);
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
//! * **DENT — discard entirely-negative traceback rows.** All-dead
//!   rows are never written to the shared-memory traceback store; the
//!   traceback walk treats an absent row as all-dead. Lossless by
//!   construction (the walk only ever queries alive bits), and counted
//!   in [`BitvecStats::dent_discards`].

use fastz_align::{push_op, score, EditOp};
use fastz_genome::{Scoring, Sequence};
use fastz_gpu_sim::sanitize::stage as san_stage;
use fastz_gpu_sim::{SharedMem, WarpCounters};
use fastz_seed::Anchor;

use crate::warp_engine::{IsaKernel, SimdIsa};

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
    fn effective_k(&self, capacity: usize) -> usize {
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

fn units_to_ops(units: &[u8]) -> Vec<EditOp> {
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

/// One-sided windowed bitvector extension from the origin.
///
/// `pattern` is the query side (rows), `text` the target side
/// (columns); both are already oriented (the pipeline passes reversed
/// slices for the left side exactly as it does for the warp engine).
/// Traceback rows live in `shared` under the same sanitizer hooks as
/// the wavefront kernels, and the work counters price through
/// `price_task` unchanged.
pub fn bitvec_extend_in(
    text: &[u8],
    pattern: &[u8],
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

    // Committed path state: the greedy window chain from the origin.
    let mut pbase = 0usize;
    let mut tbase = 0usize;
    let mut ed_acc = 0u32;
    let mut committed: Vec<u8> = Vec::new();

    let mut cur = vec![0u64; kp1];
    let mut new = vec![0u64; kp1];

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

        // Pattern mismatch masks: pm[c] bit b = 1 iff pattern[b] != c.
        let mut mat = [0u64; 4];
        // bound: pbase + wlen <= m == pattern.len() — wlen is clamped
        // to the remaining pattern when the window is cut.
        for (b, &pc) in pattern[pbase..pbase + wlen].iter().enumerate() {
            let bit = if mu == BitvecMutation::ReversedPatternMask {
                wlen - 1 - b
            } else {
                b
            };
            mat[(pc & 3) as usize] |= 1u64 << bit;
        }
        let pm = [!mat[0], !mat[1], !mat[2], !mat[3]];
        out.counters.global_read += (wlen + tlen) as u64;

        let window_mask: u64 = if wlen == 64 { !0 } else { (1u64 << wlen) - 1 };
        let beyond = !window_mask;
        let ebit = 1u64 << (wlen - 1);
        let rows_total = (tlen + 1) * kp1;
        shared.reserve(rows_total * 8);
        // Host-side presence bitmap for DENT: the traceback never reads
        // a row that was discarded (the sanitizer's initcheck would —
        // correctly — flag such a read).
        let mut written = vec![false; rows_total];

        // Column 0: prefix i costs i deletions, so bit b is dead at
        // budget d iff b >= d.
        for (d, slot) in cur.iter_mut().enumerate() {
            *slot = ((!0u64) << d) | beyond;
        }
        for (d, &row) in cur.iter().enumerate() {
            store_row(
                shared,
                &mut written,
                &mut out,
                kp1,
                0,
                d,
                row,
                window_mask,
                ebit,
                mu,
            );
        }
        shared.sanitize_tick();

        // Best candidate found inside this window (window coordinates).
        let mut wbest: Option<(usize, usize, usize)> = None;
        // Cheapest live end-bit cell seen so far: (column, budget).
        let mut end_hit: Option<(usize, usize)> = None;
        scan_column(
            &cur,
            kp1,
            window_mask,
            0,
            pbase,
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
            // bound: tbase + tlen <= text.len() and 1 <= j <= tlen;
            // `& 3` caps the pm index at 3.
            let pmv = pm[(text[tbase + j - 1] & 3) as usize];
            for d in 0..kp1 {
                // Shift-in bits encode the analytic prefix-0 row:
                // prefix 0 at column j' is dead at budget d' iff j' > d'.
                let si_m = if mu == BitvecMutation::WrongShiftInBit {
                    u64::from(j <= d)
                } else {
                    u64::from(j - 1 > d)
                };
                let m_term = ((cur[d] << 1) | si_m) | pmv;
                let mut val = if d == 0 {
                    m_term
                } else {
                    let s_term = (cur[d - 1] << 1) | u64::from(j - 1 > d - 1); // bound: d >= 1 in this arm, d < kp1 == cur.len()
                    let i_term = cur[d - 1]; // bound: as above
                    let d_term = (new[d - 1] << 1) | u64::from(j > d - 1); // bound: d >= 1, d < kp1 == new.len()
                    m_term & s_term & i_term & d_term
                };
                val |= beyond;
                new[d] = val;
                store_row(
                    shared,
                    &mut written,
                    &mut out,
                    kp1,
                    j,
                    d,
                    val,
                    window_mask,
                    ebit,
                    mu,
                );
            }
            scan_column(
                &new,
                kp1,
                window_mask,
                j,
                pbase,
                tbase,
                ed_acc,
                mu,
                &mut out,
                &mut wbest,
            );
            if let Some(d) = (0..kp1).find(|&d| new[d] & ebit == 0) {
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
            let dead_probe = if mu == BitvecMutation::SeneSkipsLive {
                cur[0]
            } else {
                cur[k]
            };
            if (dead_probe & window_mask) == window_mask {
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
            let units = traceback(
                shared,
                &written,
                kp1,
                text,
                pattern,
                pbase,
                tbase,
                bw,
                jw,
                dw,
                &mut out.counters,
            );
            let gi = pbase + bw + 1;
            let gj = tbase + jw;
            out.best_score = candidate_score(gi, gj, ed_acc + dw as u32, mu);
            out.best_i = gi;
            out.best_j = gj;
            out.edit_distance = ed_acc + dw as u32;
            out.ops = units_to_ops(&committed);
            for op in units_to_ops(&units) {
                push_op(&mut out.ops, op);
            }
        }

        let Some((je, de)) = end_hit else {
            // No prefix of this window survives the budget anywhere:
            // the whole remaining extension is entirely negative.
            out.stats.sene_skips += 1;
            break;
        };
        let units = traceback(
            shared,
            &written,
            kp1,
            text,
            pattern,
            pbase,
            tbase,
            wlen - 1,
            je,
            de,
            &mut out.counters,
        );
        let keep = if last { wlen } else { wlen - cfg.overlap };
        let mut consumed_p = 0usize;
        let mut consumed_t = 0usize;
        let mut edits = 0u32;
        let mut cut = units.len();
        for (idx, &u) in units.iter().enumerate() {
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
        committed.extend_from_slice(&units[..cut]);
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
    out
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
/// extent), so one `leading_zeros` per budget row suffices.
#[allow(clippy::too_many_arguments)]
fn scan_column(
    rows: &[u64],
    kp1: usize,
    window_mask: u64,
    j: usize,
    pbase: usize,
    tbase: usize,
    ed_acc: u32,
    mu: BitvecMutation,
    out: &mut BitvecExtension,
    wbest: &mut Option<(usize, usize, usize)>,
) {
    for d in 0..kp1 {
        let fresh = (!rows[d]) & (if d == 0 { !0u64 } else { rows[d - 1] }) & window_mask; // bound: d >= 1 in this arm, d < kp1 == rows.len()
        if fresh == 0 {
            continue;
        }
        let b = 63 - fresh.leading_zeros() as usize;
        let sc = candidate_score(pbase + b + 1, tbase + j, ed_acc + d as u32, mu);
        if sc > out.best_score {
            // Stage the coordinates; the ops snapshot happens once per
            // window, after the rows are stored.
            out.best_score = sc;
            *wbest = Some((b, j, d));
        }
    }
}

/// Writes one dead-mask row into the shared traceback store unless
/// DENT discards it.
#[allow(clippy::too_many_arguments)]
fn store_row(
    shared: &mut SharedMem,
    written: &mut [bool],
    out: &mut BitvecExtension,
    kp1: usize,
    j: usize,
    d: usize,
    value: u64,
    window_mask: u64,
    ebit: u64,
    mu: BitvecMutation,
) {
    let discard = if mu == BitvecMutation::DentDropsReal {
        value & ebit != 0
    } else {
        (value & window_mask) == window_mask
    };
    if discard {
        out.stats.dent_discards += 1;
        return;
    }
    let idx = j * kp1 + d;
    shared.write_u32(idx * 8, value as u32);
    shared.write_u32(idx * 8 + 4, (value >> 32) as u32);
    written[idx] = true;
    out.counters.shared_bytes += 8;
}

fn tb_row(
    shared: &SharedMem,
    written: &[bool],
    kp1: usize,
    j: usize,
    d: usize,
    counters: &mut WarpCounters,
) -> u64 {
    let idx = j * kp1 + d;
    if !written[idx] {
        // DENT discarded this row: it was entirely dead.
        return !0u64;
    }
    counters.shared_bytes += 8;
    let lo = shared.read_u32(idx * 8) as u64;
    let hi = shared.read_u32(idx * 8 + 4) as u64;
    lo | (hi << 32)
}

/// Walks the stored rows from window cell `(b0, j0, d0)` back to the
/// window origin and returns forward-ordered unit steps.
///
/// Step priority is diagonal match, substitution, insertion (text
/// gap), deletion (pattern gap); `b = -1` is the analytic prefix-0 row
/// (alive iff `j <= d`). On the faithful engine the aliveness checks
/// always find a predecessor; the forced fallback steps only trigger
/// under planted mutations and produce scripts the self-consistency
/// checks reject.
#[allow(clippy::too_many_arguments)]
fn traceback(
    shared: &SharedMem,
    written: &[bool],
    kp1: usize,
    text: &[u8],
    pattern: &[u8],
    pbase: usize,
    tbase: usize,
    b0: usize,
    j0: usize,
    d0: usize,
    counters: &mut WarpCounters,
) -> Vec<u8> {
    let mut units = Vec::new();
    let mut b = b0 as isize;
    let mut j = j0;
    let mut d = d0;
    let alive = |b: isize, j: usize, d: usize, counters: &mut WarpCounters| -> bool {
        if b < 0 {
            return j <= d;
        }
        tb_row(shared, written, kp1, j, d, counters) & (1u64 << b) == 0
    };
    while b >= 0 {
        counters.scalar_ops += 1;
        shared.sanitize_tick();
        let pb = pattern[pbase + b as usize] & 3; // bound: 0 <= b < wlen and pbase + wlen <= pattern.len()
                                                  // bound: the `j >= 1` guard keeps tbase + j - 1 inside the
                                                  // window's text slice (tbase + tlen <= text.len(), j <= tlen).
        if j >= 1 && (text[tbase + j - 1] & 3) == pb && alive(b - 1, j - 1, d, counters) {
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
    units
}

/// Dead-mask rows of a single bitvector window, exposed for the
/// per-window differential proptest (`tests/bitvec_step.rs`).
///
/// Returns, for each column `j in 0..=text.len()`, the `k+1` dead
/// masks `R[d]` over a window holding all of `pattern`
/// (`pattern.len() <= 64`).
#[doc(hidden)]
pub fn window_masks(text: &[u8], pattern: &[u8], k: usize) -> Vec<Vec<u64>> {
    let wlen = pattern.len();
    assert!((1..=64).contains(&wlen) && (1..=63).contains(&k));
    let window_mask: u64 = if wlen == 64 { !0 } else { (1u64 << wlen) - 1 };
    let beyond = !window_mask;
    let mut mat = [0u64; 4];
    for (b, &pc) in pattern.iter().enumerate() {
        mat[(pc & 3) as usize] |= 1u64 << b;
    }
    let pm = [!mat[0], !mat[1], !mat[2], !mat[3]];
    let mut cols = Vec::with_capacity(text.len() + 1);
    let mut cur: Vec<u64> = (0..=k).map(|d| ((!0u64) << d) | beyond).collect();
    cols.push(cur.clone());
    for j in 1..=text.len() {
        // bound: 1 <= j <= text.len(); `& 3` caps the pm index at 3.
        let pmv = pm[(text[j - 1] & 3) as usize];
        let mut new = vec![0u64; k + 1];
        for d in 0..=k {
            let m_term = ((cur[d] << 1) | u64::from(j - 1 > d)) | pmv;
            let mut val = if d == 0 {
                m_term
            } else {
                let s_term = (cur[d - 1] << 1) | u64::from(j - 1 > d - 1); // bound: d >= 1 in this arm, d <= k == cur.len() - 1
                let d_term = (new[d - 1] << 1) | u64::from(j > d - 1); // bound: d >= 1, d <= k == new.len() - 1
                m_term & s_term & cur[d - 1] & d_term // bound: as above
            };
            val |= beyond;
            new[d] = val;
        }
        cols.push(new.clone());
        cur = new;
    }
    cols
}

// ---------------------------------------------------------------------------
// Service pre-filter: a sound cheap-reject rung ahead of full y-drop.
// ---------------------------------------------------------------------------

/// Geometry of the anchor reject probe.
///
/// The probe is *conclusive* — able to reject — only when its
/// rectangle covers the whole flank, i.e. `rows`/`cols` ≥ the
/// pipeline's `max_extension`. On longer flanks the frontier tail
/// grows by the best substitution score per unprobed row, so the bound
/// never closes and every anchor is (soundly) kept; services that want
/// the rung to bite should size the probe past their extension cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefilterConfig {
    /// Pattern rows probed per side.
    pub rows: usize,
    /// Text columns probed per side.
    pub cols: usize,
    /// Edit budget of the bitvector quick-accept tier (≤ 63).
    pub k: usize,
}

impl Default for PrefilterConfig {
    fn default() -> PrefilterConfig {
        PrefilterConfig {
            rows: 256,
            cols: 256,
            k: 24,
        }
    }
}

/// Upper-bounds the y-drop score one side could contribute, or `None`
/// when the probe cannot bound it (the anchor must then be kept).
///
/// Two tiers:
///
/// 1. **Bitvector quick-accept.** One GenASM window over the side's
///    first `min(rows, 64)` pattern rows: if the window's end bit goes
///    alive anywhere within the edit budget, the flank is homologous
///    enough that rejecting is hopeless — return `None` immediately.
///    On production (mostly-homologous) anchor sets this bit-parallel
///    tier answers almost every probe; only anchors it abandons via
///    SENE fall through to tier 2.
/// 2. **Exact mini-DP with a frontier tail.** A pruning-free Gotoh
///    pass over the `P×C` probe rectangle gives exact cell scores.
///    When the probe covers the whole flank (the default config is
///    sized past `max_extension`, so it usually does) the bound is the
///    exact side optimum — on random flanks the gapped optimum hovers
///    near zero rather than drifting, which is precisely why hopeless
///    anchors are rejectable at all. Cells past the probed columns are
///    bounded by the column-`C` frontier: every path to `(i, j > C)`
///    crosses `(i', C)` once with prefix ≤ `S(i', C)` and suffix ≤
///    `Mm·(i − i')` (each aligned pair consumes one pattern row and
///    scores at most the best substitution entry; gap steps score
///    ≤ 0). A row whose exact max *and* frontier tail both fall below
///    `−ydrop` is pruned in full by the engine — y-drop's running best
///    never drops below the origin's 0 — so the engine never explores
///    past it and the side's best is the max bound over the rows above
///    the cut. No cut inside the probe and pattern rows left over ⇒
///    unbounded, keep the anchor.
fn side_upper_bound(
    text: &[u8],
    pattern: &[u8],
    scoring: &Scoring,
    cfg: &PrefilterConfig,
) -> Option<i64> {
    side_upper_bound_on(SimdIsa::dispatched(), text, pattern, scoring, cfg)
}

/// [`side_upper_bound`] with the mini-DP compiled for `isa`.
fn side_upper_bound_on(
    isa: SimdIsa,
    text: &[u8],
    pattern: &[u8],
    scoring: &Scoring,
    cfg: &PrefilterConfig,
) -> Option<i64> {
    let p = pattern.len().min(cfg.rows.max(1));
    if p == 0 {
        return Some(0);
    }
    let cc = text.len().min(cfg.cols);

    // Tier 1: bitvector quick-accept.
    let w = p.min(64);
    let k = cfg.k.clamp(1, 63);
    let bt = &text[..text.len().min(w + k)];
    let masks = window_masks(bt, &pattern[..w], k);
    let ebit = 1u64 << (w - 1);
    if masks.iter().any(|rows| rows[k] & ebit == 0) {
        return None;
    }

    // Tier 2: exact affine mini-DP over the probe rectangle.
    let osc = scoring.gaps.open_score();
    let esc = scoring.gaps.extend_score();
    let mut mm = i64::MIN;
    let mut step = i64::from(osc).abs().max(i64::from(esc).abs());
    for a in 0..5u8 {
        for b in 0..5u8 {
            let sub = i64::from(scoring.subst.score(a, b));
            mm = mm.max(sub);
            step = step.max(sub.abs());
        }
    }
    // Every cell score is a path score of at most `p + cc` steps (plus
    // one flush row and the padding columns), each within ±`step`; the
    // running-maximum terms stay within four times that. Past i32's
    // safe range keep the anchor (always sound) rather than widen the
    // rows.
    let padded = cc.div_ceil(PROBE_LANES) * PROBE_LANES;
    if 4 * (p + padded + 2) as i64 * step >= i64::from(NEG_I32).abs() {
        return None;
    }
    isa.run(MiniDp {
        text,
        pattern,
        p,
        cc,
        scoring,
        mm,
    })
}

/// Tier 2 of [`side_upper_bound`] over the first `p` pattern rows and
/// `cc` text columns, as one [`IsaKernel`].
struct MiniDp<'a> {
    text: &'a [u8],
    pattern: &'a [u8],
    p: usize,
    cc: usize,
    scoring: &'a Scoring,
    /// The best substitution score.
    mm: i64,
}

impl IsaKernel for MiniDp<'_> {
    type Output = Option<i64>;

    #[inline(always)]
    fn run(self) -> Option<i64> {
        let MiniDp {
            text,
            pattern,
            p,
            cc,
            scoring,
            mm,
        } = self;
        let ydrop = i64::from(scoring.ydrop);
        let tail_live = cc < text.len();
        let mut rows = ProbeRows::new(text, cc, scoring);
        // Each step finishes row i and starts row i + 1 (a flush past
        // the last probed row); the first step finishes row 0.
        let (_, s_cc) = rows.step(1, pattern[0]);
        // Frontier recurrence: f(i) = max(f(i-1) + Mm, S(i, C)).
        let mut frontier = i64::from(s_cc);
        let mut side = 0i64;
        let mut cut = false;
        for i in 1..=p {
            let next = pattern[..p].get(i).copied().unwrap_or(0);
            let (row_max, s_cc) = rows.step(i + 1, next);
            frontier = (frontier + mm).max(i64::from(s_cc));
            let bound = if tail_live {
                row_max.max(frontier)
            } else {
                row_max
            };
            side = side.max(bound);
            if bound < -ydrop {
                cut = true;
                break;
            }
        }
        if cut || p == pattern.len() {
            Some(side.max(0))
        } else {
            None
        }
    }
}

/// "Minus infinity" of the probe rows: far below any reachable score
/// (the magnitude guard in [`side_upper_bound`]) and far from wrapping.
const NEG_I32: i32 = i32::MIN / 4;

/// Column lanes of the probe rows' striped layout.
const PROBE_LANES: usize = 16;

/// One vector of the striped layout: lane `l` of vector `t` holds
/// column `l·seg + t + 1`.
type Stripe = [i32; PROBE_LANES];

/// Whole-stripe operations, one simple loop each so they compile to
/// vector instructions.
mod lanes {
    use super::Stripe;

    #[inline(always)]
    pub fn add(a: Stripe, b: Stripe) -> Stripe {
        std::array::from_fn(|l| a[l] + b[l])
    }

    #[inline(always)]
    pub fn sub(a: Stripe, b: Stripe) -> Stripe {
        std::array::from_fn(|l| a[l] - b[l])
    }

    #[inline(always)]
    pub fn max(a: Stripe, b: Stripe) -> Stripe {
        std::array::from_fn(|l| a[l].max(b[l]))
    }

    #[inline(always)]
    pub fn min(a: Stripe, b: Stripe) -> Stripe {
        std::array::from_fn(|l| a[l].min(b[l]))
    }
}

/// Row-by-row Gotoh DP of the pre-filter probe, vectorized across
/// columns.
///
/// Per row `i`, with `S = max(M, Ix, Iy)`, `H = max(M, Iy)` and
/// `g = max(open, extend)`:
///
/// * `M(j) = S(i-1, j-1) + sub(j)` and `Iy(j) = max(S(i-1, j) + open,
///   Iy(i-1, j) + extend)` read only the previous row.
/// * The horizontal gap state is the only dependence along the row.
///   Substituting `S(j-1) = max(H(j-1), Ix(j-1))` into
///   `Ix(j) = max(S(j-1) + open, Ix(j-1) + extend)` gives
///   `Ix(j) = max(H(j-1) + open, Ix(j-1) + g)`, which unrolls to
///   `Ix(j) = open + (j-1)·g + max_{k<j} (H(k) − k·g)`: one running
///   maximum.
///
/// The columns are striped (Farrar's layout): the row splits into
/// [`PROBE_LANES`] contiguous segments of `seg` columns, one per lane,
/// so walking the stripes `t = 0..seg` advances every segment at once.
/// A row is stored unfinished, as `H` plus each segment's exclusive
/// running maximum of `H(k) − k·g`, and a carry per lane (the running
/// maximum of the segments before it, from `H(0)`). One [`Self::step`]
/// walks the stripes once: it finishes row `i` (`S = max(H, Ix)`, the
/// row maximum) and from it starts row `i + 1`, so every value is read
/// and written once per row, and the running maximum threads a
/// recurrence through the walk that keeps it a lane-parallel loop.
///
/// All of it is an exact integer rewrite of the one-pass recurrence, so
/// every cell score is identical to it. Columns past `cc` (padding of
/// the last segments) follow the same recurrence on a zero substitution
/// score; they come after every real column, so no real cell reads
/// them, and the row maximum masks them out.
struct ProbeRows {
    /// `H` of the unfinished row, columns `1..`, striped.
    h: Vec<Stripe>,
    /// Per-segment exclusive running maximum of `H(k) − k·g`.
    pre: Vec<Stripe>,
    /// Per-lane carry into `pre`.
    carry: Stripe,
    /// `Iy` of the unfinished row.
    iy: Vec<Stripe>,
    /// `S` (= `H`) of the unfinished row at column 0.
    col0: i32,
    /// `j·g` per column.
    ramp: Vec<Stripe>,
    /// `i32::MAX` on real columns (`j ≤ cc`), [`NEG_I32`] on padding:
    /// the row maximum takes `min(S, cap)`.
    cap: Vec<Stripe>,
    /// `sub(text[j-1], c)` per column, code `c`'s stripes at
    /// `c·seg..(c+1)·seg`.
    profile: Vec<Stripe>,
    /// Stripe and lane of column `cc`.
    last: (usize, usize),
    seg: usize,
    open: i32,
    extend: i32,
    /// `open − g`: `Ix(j) = max_{k<j}(H(k) − k·g) + j·g + shift`.
    shift: i32,
}

impl ProbeRows {
    /// Row 0 of the probe over the first `cc` text columns, unfinished.
    #[inline(always)]
    fn new(text: &[u8], cc: usize, scoring: &Scoring) -> ProbeRows {
        let open = scoring.gaps.open_score();
        let extend = scoring.gaps.extend_score();
        let gap = open.max(extend);
        let seg = cc.div_ceil(PROBE_LANES);
        // Column `j ≥ 1` of stripe `t`, lane `l`.
        let stripes = |f: &dyn Fn(usize) -> i32| -> Vec<Stripe> {
            (0..seg)
                .map(|t| std::array::from_fn(|l| f(l * seg + t + 1)))
                .collect()
        };
        let mut profile = Vec::with_capacity(5 * seg);
        for c in 0..5u8 {
            let sub = |j: usize| {
                text[..cc]
                    .get(j - 1)
                    .map_or(0, |&t| scoring.subst.score(t, c))
            };
            profile.extend(stripes(&sub));
        }
        // Row 0 has no horizontal gaps: S = H and the running maxima
        // sit at minus infinity.
        ProbeRows {
            h: stripes(&|j| open + extend * (j as i32 - 1)),
            pre: vec![[NEG_I32; PROBE_LANES]; seg],
            carry: [NEG_I32; PROBE_LANES],
            iy: vec![[NEG_I32; PROBE_LANES]; seg],
            col0: 0,
            ramp: stripes(&|j| j as i32 * gap),
            cap: stripes(&|j| if j <= cc { i32::MAX } else { NEG_I32 }),
            profile,
            last: match cc {
                0 => (0, 0),
                _ => ((cc - 1) % seg, (cc - 1) / seg),
            },
            seg,
            open,
            extend,
            shift: open - gap,
        }
    }

    /// Finishes the stored row `i − 1`, starts row `i` (pattern code
    /// `code`) from it, and returns the finished row's maximum over
    /// columns `1..=cc` (`i64::MIN / 4` when there are none) and its
    /// `S` at column `cc`.
    #[inline(always)]
    fn step(&mut self, i: usize, code: u8) -> (i64, i32) {
        let ProbeRows {
            h,
            pre,
            carry,
            iy,
            col0,
            ramp,
            cap,
            profile,
            last,
            seg,
            open,
            extend,
            shift,
        } = self;
        let (seg, open, extend) = (*seg, *open, *extend);
        let (shift_v, open_v, extend_v) = (
            [*shift; PROBE_LANES],
            [open; PROBE_LANES],
            [extend; PROBE_LANES],
        );
        let col0_prev = *col0;
        *col0 = open + extend * (i as i32 - 1);
        if seg == 0 {
            return (i64::MIN / 4, col0_prev);
        }
        // S of the finished row from its stored form.
        let finish = |h: Stripe, pre: Stripe, ramp: Stripe| {
            lanes::max(
                h,
                lanes::add(lanes::add(lanes::max(pre, *carry), ramp), shift_v),
            )
        };
        let (t_cc, l_cc) = *last;
        let s_cc = finish(h[t_cc], pre[t_cc], ramp[t_cc])[l_cc];
        // The diagonal of a segment's first column is the previous
        // segment's last one: the last stripe shifted up one lane,
        // column 0 entering lane 0.
        let tail = finish(h[seg - 1], pre[seg - 1], ramp[seg - 1]);
        let mut diag: Stripe =
            std::array::from_fn(|l| if l == 0 { col0_prev } else { tail[l - 1] });
        // `code` is a sequence code (< 5) and the profile holds five
        // codes' `seg` stripes. Every stripe array is cut to `seg`, so
        // the loop indexes in bounds.
        let sub = &profile[code as usize * seg..(code as usize + 1) * seg];
        let (h, pre, iy) = (&mut h[..seg], &mut pre[..seg], &mut iy[..seg]);
        let (ramp, cap) = (&ramp[..seg], &cap[..seg]);
        let mut best = [NEG_I32; PROBE_LANES];
        let mut run = [NEG_I32; PROBE_LANES];
        for t in 0..seg {
            let up = finish(h[t], pre[t], ramp[t]);
            best = lanes::max(best, lanes::min(up, cap[t]));
            let y = lanes::max(lanes::add(up, open_v), lanes::add(iy[t], extend_v));
            let h_t = lanes::max(lanes::add(diag, sub[t]), y);
            iy[t] = y;
            h[t] = h_t;
            pre[t] = run;
            run = lanes::max(run, lanes::sub(h_t, ramp[t]));
            diag = up;
        }
        // Carry the segment totals across lanes, from H(0).
        carry[0] = *col0;
        for l in 1..PROBE_LANES {
            carry[l] = carry[l - 1].max(run[l - 1]);
        }
        let row_max = best.into_iter().fold(NEG_I32, i32::max);
        (i64::from(row_max), s_cc)
    }
}

/// Applies the bitvector cheap-reject rung to a request's anchors.
///
/// Returns the anchors that might still clear `gapped_threshold` and
/// the number rejected. Soundness contract (drilled by
/// `crates/serve/tests/bitvec_prefilter.rs`): an anchor is rejected
/// only when the sum of both sides' provable score upper bounds and
/// the exact seed score is strictly below the threshold — so the set
/// of alignments the pipeline emits is bit-identical with the rung on
/// or off. The probe runs host-side (it is a pre-screen, not a kernel)
/// and is not priced into modeled GPU time.
pub fn prefilter_anchors(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    scoring: &Scoring,
    max_extension: usize,
    cfg: &PrefilterConfig,
) -> (Vec<Anchor>, usize) {
    let tc = target.codes();
    let qc = query.codes();
    let mut kept = Vec::with_capacity(anchors.len());
    let mut rejected = 0usize;
    let mut rev_t = Vec::new();
    let mut rev_q = Vec::new();
    for &a in anchors {
        let t0 = a.target_pos as usize;
        let q0 = a.query_pos as usize;
        let mut seed = 0i64;
        for s in 0..seed_span {
            seed += i64::from(scoring.subst.score(tc[t0 + s], qc[q0 + s]));
        }
        let ts = t0.saturating_sub(max_extension);
        let qs = q0.saturating_sub(max_extension);
        rev_t.clear();
        rev_q.clear();
        rev_t.extend(tc[ts..t0].iter().rev());
        rev_q.extend(qc[qs..q0].iter().rev());
        let left = side_upper_bound(&rev_t, &rev_q, scoring, cfg);
        let te = tc.len().min(t0 + seed_span + max_extension);
        let qe = qc.len().min(q0 + seed_span + max_extension);
        let right = side_upper_bound(
            &tc[t0 + seed_span..te],
            &qc[q0 + seed_span..qe],
            scoring,
            cfg,
        );
        let reject = match (left, right) {
            (Some(l), Some(r)) => l + seed + r < i64::from(scoring.gapped_threshold),
            _ => false,
        };
        if reject {
            rejected += 1;
        } else {
            kept.push(a);
        }
    }
    (kept, rejected)
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
                        if pattern[i] & 3 != text[j] & 3 {
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

    /// The probe's first form: one pass per row over i64 cells, the
    /// Gotoh recurrence exactly as written in `side_upper_bound`'s docs.
    fn side_upper_bound_one_pass(
        text: &[u8],
        pattern: &[u8],
        scoring: &Scoring,
        cfg: &PrefilterConfig,
    ) -> Option<i64> {
        let p = pattern.len().min(cfg.rows.max(1));
        if p == 0 {
            return Some(0);
        }
        let cc = text.len().min(cfg.cols);
        let w = p.min(64);
        let k = cfg.k.clamp(1, 63);
        let masks = window_masks(&text[..text.len().min(w + k)], &pattern[..w], k);
        if masks.iter().any(|rows| rows[k] & (1u64 << (w - 1)) == 0) {
            return None;
        }
        let neg = i64::MIN / 4;
        let osc = i64::from(scoring.gaps.open_score());
        let esc = i64::from(scoring.gaps.extend_score());
        let mut mm = i64::MIN;
        for a in 0..5u8 {
            for b in 0..5u8 {
                mm = mm.max(i64::from(scoring.subst.score(a, b)));
            }
        }
        let width = cc + 1;
        let mut s_prev: Vec<i64> = (0..width as i64)
            .map(|j| if j == 0 { 0 } else { osc + esc * (j - 1) })
            .collect();
        let mut iy_prev = vec![neg; width];
        let tail_live = cc < text.len();
        let mut frontier = s_prev[cc];
        let mut side = 0i64;
        let mut cut = false;
        let mut s_row = vec![0i64; width];
        let mut iy_row = vec![neg; width];
        for i in 1..=p {
            let mut ix = neg;
            s_row[0] = osc + esc * (i as i64 - 1);
            iy_row[0] = s_row[0];
            let mut row_max = neg;
            for j in 1..=cc {
                let sub = i64::from(scoring.subst.score(text[j - 1], pattern[i - 1]));
                ix = (s_row[j - 1] + osc).max(ix + esc);
                let iy = (s_prev[j] + osc).max(iy_prev[j] + esc);
                let s = (s_prev[j - 1] + sub).max(ix).max(iy);
                s_row[j] = s;
                iy_row[j] = iy;
                row_max = row_max.max(s);
            }
            frontier = (frontier + mm).max(s_row[cc]);
            let bound = if tail_live {
                row_max.max(frontier)
            } else {
                row_max
            };
            side = side.max(bound);
            std::mem::swap(&mut s_prev, &mut s_row);
            std::mem::swap(&mut iy_prev, &mut iy_row);
            if bound < -i64::from(scoring.ydrop) {
                cut = true;
                break;
            }
        }
        (cut || p == pattern.len()).then_some(side.max(0))
    }

    #[test]
    fn striped_probe_matches_the_one_pass_recurrence() {
        use fastz_genome::evolve::random_codes;
        use fastz_genome::{GapPenalties, SubstMatrix};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Open cheaper than extend makes max(open, extend) = open, the
        // other branch of the horizontal-gap rewrite.
        let odd = Scoring {
            subst: SubstMatrix::from_acgt(
                [
                    [7, -5, -2, -9],
                    [-3, 6, -8, -1],
                    [-4, -6, 8, -2],
                    [-7, -1, -3, 5],
                ],
                -20,
            ),
            gaps: GapPenalties {
                open: -3,
                extend: 4,
            },
            ..Scoring::bench_scaled()
        };
        let isas: Vec<SimdIsa> = SimdIsa::ALL
            .into_iter()
            .filter(|isa| {
                let ok = isa.supported();
                if !ok {
                    eprintln!("probe differential: {} skipped (not supported)", isa.name());
                }
                ok
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(0xB0B);
        // Verdicts seen: kept (None), bounded at 0, bounded above 0.
        let mut verdicts = [0usize; 3];
        for sc in [Scoring::bench_scaled(), odd] {
            for trial in 0..200 {
                let len = rng.gen_range(0..300);
                let text = random_codes(len, 0.5, &mut rng);
                let mut pattern = random_codes(rng.gen_range(1..300), 0.5, &mut rng);
                if trial % 4 == 0 {
                    // Partly homologous, with an N run.
                    let n = pattern.len().min(text.len());
                    pattern[..n].copy_from_slice(&text[..n]);
                    pattern[n / 3..n / 2].fill(fastz_genome::N_CODE);
                }
                // Column counts on and off the lane multiple, and 0.
                let cfg = PrefilterConfig {
                    rows: [1, 17, 64, 256][trial % 4],
                    cols: [0, 9, 100, 256, 33][(trial / 4) % 5],
                    k: [1, 8, 24][trial % 3],
                };
                let want = side_upper_bound_one_pass(&text, &pattern, &sc, &cfg);
                for &isa in &isas {
                    let got = side_upper_bound_on(isa, &text, &pattern, &sc, &cfg);
                    let shape = format!("{len} x {}", pattern.len());
                    assert_eq!(
                        got,
                        want,
                        "{} trial {trial}: {shape} under {cfg:?}",
                        isa.name()
                    );
                }
                verdicts[want.map_or(0, |b| 1 + usize::from(b > 0))] += 1;
            }
        }
        eprintln!("probe differential verdicts (kept, 0, >0): {verdicts:?}");
        assert!(verdicts.iter().all(|&n| n >= 10), "{verdicts:?}");
    }

    #[test]
    fn probe_keeps_the_anchor_when_scores_could_overflow_i32() {
        let mut sc = Scoring::bench_scaled();
        sc.subst = fastz_genome::SubstMatrix::from_acgt([[1 << 24, -1, -1, -1]; 4], -1);
        let text = vec![1u8; 40];
        let pattern = vec![2u8; 40];
        let cfg = PrefilterConfig {
            k: 1,
            ..PrefilterConfig::default()
        };
        assert!(side_upper_bound_one_pass(&text, &pattern, &sc, &cfg).is_some());
        assert_eq!(side_upper_bound(&text, &pattern, &sc, &cfg), None);
    }

    #[test]
    fn prefilter_keeps_everything_at_permissive_thresholds() {
        let t = Sequence::from_codes("t", codes("ACGTACGTACGTACGTACGTACGT"));
        let q = Sequence::from_codes("q", codes("ACGTACGTACGTACGTACGTACGT"));
        let anchors = vec![Anchor {
            target_pos: 4,
            query_pos: 4,
        }];
        let scoring = Scoring::bench_scaled();
        let (kept, rejected) = prefilter_anchors(
            &t,
            &q,
            &anchors,
            8,
            &scoring,
            64,
            &PrefilterConfig::default(),
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(rejected, 0);
    }

    #[test]
    fn prefilter_rejects_hopeless_garbage_under_raised_threshold() {
        let mut tv = Vec::new();
        let mut qv = Vec::new();
        let mut state = 0x2545f4914f6cdd1du64;
        for i in 0..512 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            tv.push(((state >> 29) & 3) as u8);
            qv.push(((state >> 45).wrapping_add(i) & 3) as u8);
        }
        // Identical seed so the anchor itself is plausible.
        let span = 12;
        let (seed_t, seed_q) = (&tv[240..240 + span], &mut qv[240..240 + span]);
        seed_q.copy_from_slice(seed_t);
        let t = Sequence::from_codes("t", tv);
        let q = Sequence::from_codes("q", qv);
        let anchors = vec![Anchor {
            target_pos: 240,
            query_pos: 240,
        }];
        // A 12-base HOXD70 seed alone scores ~1150, so the rejection has
        // to come from the flank bounds: random flanks drift at roughly
        // -44/row, so both probe sides hit a provably dead row well
        // inside the default 96-row probe and contribute only their
        // small positive prefix bounds.
        let mut scoring = Scoring::bench_scaled();
        scoring.gapped_threshold = 2500;
        let (kept, rejected) = prefilter_anchors(
            &t,
            &q,
            &anchors,
            span,
            &scoring,
            200,
            &PrefilterConfig::default(),
        );
        assert_eq!(kept.len(), 0, "random flanks cannot reach 2500");
        assert_eq!(rejected, 1);
    }
}
