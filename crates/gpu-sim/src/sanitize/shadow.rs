//! The recording sanitizer: shadow map, phase-epoch hazard tracking,
//! bank-conflict grouping, and warp lints.
//!
//! State lives behind a `RefCell` because the scratchpad is read
//! through `&self` closures (`walk_traceback_with` takes an `Fn`), so
//! the sanitizer must mutate its shadow through interior mutability.
//! All methods take `&self` and never touch `WarpCounters`, keeping
//! modeled GPU time bit-identical with the sanitizer attached.

use std::cell::RefCell;

use super::report::{Finding, FindingKind, SanitizeReport};
use crate::warp::WARP_SIZE;

/// Shared-memory banks on the modeled device: 32 banks of 4-byte words,
/// `bank = (offset / 4) % 32`, successive words in successive banks.
pub const N_BANKS: usize = 32;

/// Divergence nesting deeper than this is diagnosed: a warp's
/// reconvergence stack cannot usefully nest beyond one level per lane.
pub const MAX_DIVERGENCE_DEPTH: u32 = 32;

/// Canonical kernel-stage names used by the warp engine.
pub mod stage {
    /// Strip-mined anti-diagonal DP sweep (paper §3.1.4).
    pub const WAVEFRONT: &str = "wavefront";
    /// In-shared-memory eager traceback walk (paper §3.1.2).
    pub const EAGER_TRACEBACK: &str = "eager_traceback";
    /// GenASM-style bitvector edit-distance column sweep.
    pub const BITVECTOR: &str = "bitvector";
    /// Bitvector traceback walk over the stored dead-mask rows.
    pub const BITVECTOR_TRACEBACK: &str = "bitvector_traceback";
}

/// Static seam mirroring the `MetricsSink`/`NoObs` pattern: generic
/// kernels can be written against `S: Sanitizer` and instantiated with
/// [`NoSanitize`] for provably zero-cost builds.
pub trait Sanitizer {
    /// Whether this sanitizer records anything at all. `false` lets
    /// call sites compile the instrumentation out entirely.
    const ENABLED: bool;

    /// Observes a shared-memory read of `len` bytes at `offset` with
    /// the current reservation `extent`.
    #[inline(always)]
    fn on_read(&self, offset: usize, len: usize, extent: usize) {
        let _ = (offset, len, extent);
    }

    /// Observes a shared-memory write of `len` bytes at `offset`.
    #[inline(always)]
    fn on_write(&self, offset: usize, len: usize) {
        let _ = (offset, len);
    }

    /// Observes a scratchpad `clear()` (generation bump).
    #[inline(always)]
    fn on_clear(&self) {}

    /// Observes a synchronization barrier between kernel stages.
    #[inline(always)]
    fn barrier(&self) {}

    /// Marks a warp-step boundary for bank-conflict grouping.
    #[inline(always)]
    fn tick(&self) {}
}

/// The zero-cost default: every hook is an empty `#[inline(always)]`
/// body the optimizer deletes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoSanitize;

impl Sanitizer for NoSanitize {
    const ENABLED: bool = false;
}

/// Per-byte shadow record. Generation/sync pairs are compared against
/// the current epoch, so `clear()` invalidates the whole map in O(1) by
/// bumping the generation instead of rewriting the shadow.
#[derive(Clone, Copy, Default)]
struct ByteShadow {
    wgen: u32,
    wsync: u32,
    rgen: u32,
    rsync: u32,
    wstage: u8,
    rstage: u8,
}

struct ShadowInner {
    shadow: Vec<ByteShadow>,
    /// Current generation; starts at 1 so a default shadow byte
    /// (gen 0) always reads as never-touched.
    generation: u32,
    /// Barrier counter within the current generation.
    sync: u32,
    phase: &'static str,
    stage: &'static str,
    stage_id: u8,
    stages: Vec<&'static str>,
    problem: u64,
    /// Warp-step counter driving bank-conflict grouping.
    step: u64,
    /// Step the currently open access group belongs to.
    group_step: u64,
    /// Word indices accessed in the open group.
    group: Vec<usize>,
    divergence_depth: u32,
    report: SanitizeReport,
}

/// The recording sanitizer.
///
/// Attach one to a `SharedMem` via `SharedMem::attach_sanitizer`; every
/// subsequent access is checked and accumulated into a
/// [`SanitizeReport`] drained with `SharedMem::take_sanitize_report`.
#[derive(Debug)]
pub struct ShadowSanitizer {
    inner: RefCell<ShadowInner>,
}

impl std::fmt::Debug for ShadowInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowInner")
            .field("generation", &self.generation)
            .field("sync", &self.sync)
            .field("phase", &self.phase)
            .field("stage", &self.stage)
            .field("problem", &self.problem)
            .field("findings", &self.report.total_findings())
            .finish()
    }
}

impl Clone for ShadowSanitizer {
    fn clone(&self) -> ShadowSanitizer {
        // Cloning a scratchpad clones an *empty* sanitizer attachment:
        // shadow state describes one arena's access history and must
        // not leak into a copy.
        ShadowSanitizer::new()
    }
}

impl Default for ShadowSanitizer {
    fn default() -> ShadowSanitizer {
        ShadowSanitizer::new()
    }
}

impl ShadowSanitizer {
    /// Creates a sanitizer with an empty shadow map.
    #[must_use]
    pub fn new() -> ShadowSanitizer {
        ShadowSanitizer {
            inner: RefCell::new(ShadowInner {
                shadow: Vec::new(),
                generation: 1,
                sync: 0,
                phase: "",
                stage: "",
                stage_id: 0,
                stages: vec![""],
                problem: 0,
                step: 0,
                group_step: 0,
                group: Vec::with_capacity(WARP_SIZE),
                divergence_depth: 0,
                report: SanitizeReport::default(),
            }),
        }
    }

    /// Sets pipeline-phase provenance (e.g. `"inspector"`, problem 17).
    pub fn set_context(&self, phase: &'static str, problem: u64) {
        let mut g = self.inner.borrow_mut();
        g.phase = phase;
        g.problem = problem;
    }

    /// Sets the kernel stage used as the racecheck accessor identity.
    pub fn set_stage(&self, name: &'static str) {
        let mut g = self.inner.borrow_mut();
        g.stage = name;
        g.stage_id = match g.stages.iter().position(|s| *s == name) {
            Some(i) => i as u8,
            None => {
                g.stages.push(name);
                (g.stages.len() - 1) as u8
            }
        };
    }

    /// Validates a ballot mask against the active-lane set: any bit
    /// asserted outside `active` is a [`FindingKind::BallotInactiveLane`].
    pub fn check_ballot(&self, mask: u32, active: u32) {
        let stray = mask & !active;
        if stray != 0 {
            let mut g = self.inner.borrow_mut();
            let detail = format!(
                "ballot mask {mask:#010x} asserts inactive lanes {stray:#010x} \
                 (active set {active:#010x})"
            );
            record(&mut g, FindingKind::BallotInactiveLane, 0, detail);
        }
    }

    /// Enters a divergent region with `paths` live branch paths.
    /// Nesting past [`MAX_DIVERGENCE_DEPTH`] is diagnosed once per
    /// crossing.
    pub fn divergence_push(&self, paths: u32) {
        if paths <= 1 {
            return;
        }
        let mut g = self.inner.borrow_mut();
        g.divergence_depth += 1;
        let depth = g.divergence_depth;
        g.report.max_divergence_depth = g.report.max_divergence_depth.max(depth);
        if depth == MAX_DIVERGENCE_DEPTH + 1 {
            let detail = format!(
                "warp divergence nested {depth} deep (limit {MAX_DIVERGENCE_DEPTH}): \
                 reconvergence stack exhausted"
            );
            record(&mut g, FindingKind::DivergenceDepth, 0, detail);
        }
    }

    /// Leaves a divergent region opened with the same `paths` value.
    pub fn divergence_pop(&self, paths: u32) {
        if paths <= 1 {
            return;
        }
        let mut g = self.inner.borrow_mut();
        g.divergence_depth = g.divergence_depth.saturating_sub(1);
    }

    /// Records one flat divergent warp step (its lanes split across two
    /// control paths): push + pop with depth tracking.
    pub fn note_divergent_step(&self) {
        self.divergence_push(2);
        self.divergence_pop(2);
    }

    /// Drains the accumulated report, resetting epoch state so the
    /// sanitizer can keep observing the same scratchpad.
    pub fn take_report(&self) -> SanitizeReport {
        let mut g = self.inner.borrow_mut();
        flush_group(&mut g);
        std::mem::take(&mut g.report)
    }

    /// Read-only snapshot of the accumulated report.
    #[must_use]
    pub fn report(&self) -> SanitizeReport {
        let mut g = self.inner.borrow_mut();
        flush_group(&mut g);
        g.report.clone()
    }
}

impl Sanitizer for ShadowSanitizer {
    const ENABLED: bool = true;

    fn on_read(&self, offset: usize, len: usize, extent: usize) {
        let mut g = self.inner.borrow_mut();
        g.report.shared_reads += 1;
        if offset.saturating_add(len) > extent {
            let detail = format!(
                "read of {len} B at offset {offset} crosses reservation extent {extent} \
                 (bytes past the extent read as zero)"
            );
            record(&mut g, FindingKind::OobRead, offset, detail);
        } else {
            grow_shadow(&mut g, offset + len);
            let (generation, sync, stage_id) = (g.generation, g.sync, g.stage_id);
            for byte in offset..offset + len {
                let b = g.shadow[byte];
                if b.wgen != generation {
                    // The epoch counter is arena-local bookkeeping: in a
                    // pooled run it depends on which worker's arena served
                    // the problem, so it must stay out of the finding text
                    // (merged reports are compared across worker counts).
                    let detail = format!(
                        "read of reserved byte {byte} never written since the last clear()"
                    );
                    record(&mut g, FindingKind::UninitRead, byte, detail);
                } else if b.wsync == sync && b.wstage != stage_id {
                    let writer = g.stages[b.wstage as usize];
                    let detail = format!(
                        "stage `{}` read byte {byte} written by stage `{writer}` with no \
                         intervening barrier (RAW hazard)",
                        g.stage
                    );
                    record(&mut g, FindingKind::RawHazard, byte, detail);
                }
                let s = &mut g.shadow[byte];
                s.rgen = generation;
                s.rsync = sync;
                s.rstage = stage_id;
            }
        }
        note_bank_access(&mut g, offset, len);
    }

    fn on_write(&self, offset: usize, len: usize) {
        let mut g = self.inner.borrow_mut();
        g.report.shared_writes += 1;
        grow_shadow(&mut g, offset + len);
        let (generation, sync, stage_id) = (g.generation, g.sync, g.stage_id);
        for byte in offset..offset + len {
            let b = g.shadow[byte];
            if b.rgen == generation && b.rsync == sync && b.rstage != stage_id {
                let reader = g.stages[b.rstage as usize];
                let detail = format!(
                    "stage `{}` overwrote byte {byte} read by stage `{reader}` with no \
                     intervening barrier (WAR hazard)",
                    g.stage
                );
                record(&mut g, FindingKind::WarHazard, byte, detail);
            }
            let s = &mut g.shadow[byte];
            s.wgen = generation;
            s.wsync = sync;
            s.wstage = stage_id;
        }
        note_bank_access(&mut g, offset, len);
    }

    fn on_clear(&self) {
        let mut g = self.inner.borrow_mut();
        flush_group(&mut g);
        g.generation += 1;
        g.sync = 0;
        g.report.clears += 1;
    }

    fn barrier(&self) {
        let mut g = self.inner.borrow_mut();
        flush_group(&mut g);
        g.sync += 1;
        g.report.barriers += 1;
    }

    fn tick(&self) {
        let mut g = self.inner.borrow_mut();
        g.step += 1;
    }
}

fn grow_shadow(g: &mut ShadowInner, upto: usize) {
    if upto > g.shadow.len() {
        g.shadow.resize(upto, ByteShadow::default());
    }
}

fn record(g: &mut ShadowInner, kind: FindingKind, offset: usize, detail: String) {
    let finding = Finding {
        kind,
        offset,
        phase: g.phase,
        stage: g.stage,
        problem: g.problem,
        detail,
    };
    g.report.record(finding);
}

/// Adds the 4-byte words covered by `[offset, offset + len)` to the
/// current warp-step access group, flushing the previous group first if
/// the step counter has moved on.
fn note_bank_access(g: &mut ShadowInner, offset: usize, len: usize) {
    if g.step != g.group_step {
        flush_group(g);
        g.group_step = g.step;
    }
    let first = offset / 4;
    // Saturating: a read near `usize::MAX` is out of reservation and
    // reads as zero; its word range must not overflow.
    let last = offset.saturating_add(len.max(1) - 1) / 4;
    for word in first..=last {
        g.group.push(word);
    }
}

/// Closes the open access group: deduplicates words (same-word access
/// is a broadcast, never a conflict), counts distinct words per bank,
/// and accumulates the phase's [`BankStats`]. A fully serialized
/// 32-way conflict is promoted to a finding.
fn flush_group(g: &mut ShadowInner) {
    if g.group.is_empty() {
        return;
    }
    let mut words = std::mem::take(&mut g.group);
    words.sort_unstable();
    words.dedup();

    let mut per_bank = [0u32; N_BANKS];
    for word in &words {
        per_bank[word % N_BANKS] += 1;
    }
    let max_ways = per_bank.iter().copied().max().unwrap_or(0);
    let extra: u64 = per_bank
        .iter()
        .map(|&n| u64::from(n.saturating_sub(1)))
        .sum();

    let phase = g.phase;
    let stats = g.report.banks.entry(phase).or_default();
    stats.groups += 1;
    if max_ways > 1 {
        stats.conflict_events += 1;
        stats.serialized_extra += extra;
    }
    stats.max_ways = stats.max_ways.max(max_ways);

    if max_ways as usize >= N_BANKS {
        let bank = per_bank.iter().position(|&n| n == max_ways).unwrap_or(0);
        let offset = words
            .iter()
            .find(|w| *w % N_BANKS == bank)
            .copied()
            .unwrap_or(0)
            * 4;
        let detail = format!(
            "{max_ways}-way shared-memory bank conflict on bank {bank}: the access group \
             fully serializes ({} extra passes)",
            max_ways - 1
        );
        record(g, FindingKind::BankConflict, offset, detail);
    }

    words.clear();
    g.group = words;
}
