//! Resilient dispatch: retry policy, degradation ladder, and
//! checkpoint/resume for the FastZ pipeline.
//!
//! The pipeline (`run_fastz` and its siblings) is hardened against the
//! fault classes the simulator can inject (`fastz_gpu_sim::fault`):
//!
//! * **Kernel hangs** — a per-kernel watchdog deadline (derived from the
//!   kernel's expected time, which scales with its length bin) detects
//!   the hang; the kernel is relaunched after an exponential backoff.
//! * **Transient bit flips** — ECC detects the corrupt extension result;
//!   the attempt is discarded and the problem retried. After two
//!   consecutive faults (`MAX_PROBLEM_RETRIES`) the problem **degrades**
//!   from the 32-lane warp engine to the scalar y-drop path (the same
//!   engine at strip width 1 — one lane computing one cell per step),
//!   whose results are provably identical (the strip-width-invariance
//!   property). If faults persist for four more attempts
//!   (`MAX_FALLBACK_RETRIES`), the seed is **skipped with record** —
//!   dropped from the output and listed in
//!   [`ResilienceReport::skipped_seeds`] — rather than poisoning the run.
//! * **Stream stalls / shared-memory pressure** — absorbed as modeled
//!   latency, counted as tolerated.
//! * **Device loss** — probed by the alignment service (`fastz-serve`)
//!   once per request: the request re-runs wholesale on a replacement
//!   device, charged as a second service time and counted in
//!   [`ResilienceReport::devices_lost`]. The pipeline itself runs on one
//!   device and never loses it.
//!
//! Invariant (checked by the conformance drill and a property test):
//! under any fault schedule the final deduped alignment set is
//! bit-identical to a fault-free run, and
//! `injected == detected + tolerated` fault accounting holds.
//!
//! **Checkpoint/resume**: with [`ResilienceConfig::checkpoint`] set, the
//! pipeline persists per-problem results after the inspector phase and
//! after every completed executor bin, so a killed run restarts from the
//! last completed bin instead of from scratch. The checkpoint is keyed
//! by a workload fingerprint; a stale or foreign checkpoint is ignored.
//!
//! **Interplay with the host execution pool** (`crate::pool`): resilient
//! problems run on the pool's work-stealing workers like any other task.
//! Every fault decision — the injection schedule, the retry ladder, the
//! degrade-to-scalar fallback, skip-with-record — is keyed by the
//! problem's *index* (its deterministic fault-site id), never by the
//! worker that happens to claim it, so retries and fallbacks land
//! identically for every `sim_threads` value and dispatch mode. Per-try
//! scratch lives in the claiming worker's [`crate::pool::Arena`]; a
//! retry reuses the same worker's buffers.

use crate::bitvec::BitvecStats;
use crate::pipeline::SideResult;
use fastz_align::EditOp;
use fastz_genome::{fnv1a, Scoring, Sequence, FNV1A_BASIS};
use fastz_gpu_sim::{FaultCounters, FaultPlan, WarpCounters, WarpTask};
use fastz_seed::Anchor;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::PathBuf;

/// Bit-flip retry budget on the warp rung of the ladder; the next
/// attempt degrades to the scalar (strip-width-1) path.
pub(crate) const MAX_PROBLEM_RETRIES: u32 = 2;
/// Retry budget on the scalar rung; exhausting it skips the seed with
/// record.
pub(crate) const MAX_FALLBACK_RETRIES: u32 = 4;

/// Resilient-dispatch configuration.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// The fault schedule to run under ([`FaultPlan::none`] disables
    /// every injection probe — the fault-free fast path).
    pub plan: FaultPlan,
    /// Checkpoint file; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
}

impl ResilienceConfig {
    /// Resilience off: no fault probes, no checkpointing, zero overhead.
    pub fn disabled() -> ResilienceConfig {
        ResilienceConfig::with_plan(FaultPlan::none())
    }

    /// Fault injection under `plan`, without checkpointing.
    pub fn with_plan(plan: FaultPlan) -> ResilienceConfig {
        ResilienceConfig {
            plan,
            checkpoint: None,
        }
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig::disabled()
    }
}

/// Structured account of everything the resilient dispatcher saw and did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResilienceReport {
    /// Every fault the plan injected.
    pub injected: FaultCounters,
    /// Faults that forced a retry, fallback, or re-run (hangs, bit
    /// flips, device losses).
    pub detected: FaultCounters,
    /// Faults absorbed in place without retrying (stalls, pressure).
    pub tolerated: FaultCounters,
    /// Kernel relaunches plus problem re-runs.
    pub retries: u64,
    /// Problems degraded from the warp engine to the scalar path.
    pub fallbacks: u64,
    /// Seeds dropped by the skip-with-record rung (anchor indices).
    pub skipped_seeds: Vec<usize>,
    /// Anchors whose seed (`pos + seed_span`) runs past the target or
    /// the query (anchor indices): rejected before any extension, never
    /// aligned.
    pub rejected_anchors: Vec<usize>,
    /// Anchors re-run on a replacement after a device loss.
    pub redispatched_anchors: usize,
    /// Devices lost during the run.
    pub devices_lost: usize,
    /// Total backoff latency in modeled seconds.
    pub backoff_s: f64,
    /// Total modeled time added by fault handling.
    pub overhead_s: f64,
    /// Checkpoint files written.
    pub checkpoints_written: u64,
    /// Problems restored from a checkpoint instead of recomputed.
    pub restored_problems: u64,
    /// Whether the run resumed from an existing checkpoint.
    pub resumed: bool,
    /// Checkpoints found on disk but **not** trusted, with the reason:
    /// torn/truncated files (bad header, missing end marker, corrupt
    /// records) and foreign fingerprints land here instead of being
    /// silently ignored. The run always proceeds from scratch.
    pub checkpoints_rejected: Vec<String>,
}

impl ResilienceReport {
    /// Accounting invariant: every injected fault is either detected
    /// (and recovered from) or tolerated in place.
    pub fn accounts_for_all_faults(&self) -> bool {
        self.injected == self.detected.plus(&self.tolerated)
    }

    /// Merges another report (the service sums its requests' reports).
    pub fn merge(&mut self, other: &ResilienceReport) {
        self.injected.merge(&other.injected);
        self.detected.merge(&other.detected);
        self.tolerated.merge(&other.tolerated);
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
        self.skipped_seeds
            .extend(other.skipped_seeds.iter().copied());
        self.rejected_anchors
            .extend(other.rejected_anchors.iter().copied());
        self.redispatched_anchors += other.redispatched_anchors;
        self.devices_lost += other.devices_lost;
        self.backoff_s += other.backoff_s;
        self.overhead_s += other.overhead_s;
        self.checkpoints_written += other.checkpoints_written;
        self.restored_problems += other.restored_problems;
        self.resumed |= other.resumed;
        self.checkpoints_rejected
            .extend(other.checkpoints_rejected.iter().cloned());
    }

    /// One-line human summary (CLI `--stats`).
    pub fn summary(&self) -> String {
        format!(
            "faults {} (hang {}, flip {}, stall {}, shmem {}, dev-loss {}); \
             retries {}, fallbacks {}, skipped {}, redispatched {}, \
             overhead {:.4} s",
            self.injected.total(),
            self.injected.hangs,
            self.injected.bit_flips,
            self.injected.stalls,
            self.injected.shmem_pressure,
            self.injected.device_losses,
            self.retries,
            self.fallbacks,
            self.skipped_seeds.len(),
            self.redispatched_anchors,
            self.overhead_s,
        )
    }

    /// Emits the full fault-accounting picture into `sink`: per-kind
    /// `fastz_faults_total{class,kind}` counters for all three classes
    /// (so `injected == detected + tolerated` can be asserted through
    /// the registry) plus the recovery-action counters.
    pub fn record_into<S: fastz_obs::MetricsSink>(&self, sink: &mut S) {
        use fastz_obs::names;
        self.injected.record_into(sink, "injected");
        self.detected.record_into(sink, "detected");
        self.tolerated.record_into(sink, "tolerated");
        sink.counter_add(names::RETRIES_TOTAL, self.retries);
        sink.counter_add(names::FALLBACKS_TOTAL, self.fallbacks);
        sink.counter_add(names::SKIPPED_SEEDS_TOTAL, self.skipped_seeds.len() as u64);
        sink.counter_add(names::CHECKPOINTS_WRITTEN_TOTAL, self.checkpoints_written);
        sink.counter_add(
            names::CHECKPOINTS_REJECTED_TOTAL,
            self.checkpoints_rejected.len() as u64,
        );
        sink.counter_add(names::RESTORED_PROBLEMS_TOTAL, self.restored_problems);
        sink.counter_add(
            names::REDISPATCHED_ANCHORS_TOTAL,
            self.redispatched_anchors as u64,
        );
        sink.counter_add(names::DEVICES_LOST_TOTAL, self.devices_lost as u64);
    }
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

/// Fingerprint of a pipeline workload: a checkpoint only resumes a run
/// whose inputs and configuration hash to the same value.
pub fn workload_fingerprint(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    scoring: &Scoring,
    flags_bits: u64,
) -> u64 {
    let mut h = FNV1A_BASIS;
    h = fnv1a(h, &(target.len() as u64).to_le_bytes());
    h = fnv1a(h, &(query.len() as u64).to_le_bytes());
    // Sequence content sample: full hashing of chromosome-scale inputs
    // would dominate startup; 4 KiB from each end catches truncation and
    // off-by-one edits, and the anchor list pins the seed layout.
    let sample = |s: &Sequence, h: u64| {
        let c = s.codes();
        let k = c.len().min(4096);
        fnv1a(fnv1a(h, &c[..k]), &c[c.len() - k..])
    };
    h = sample(target, h);
    h = sample(query, h);
    for a in anchors {
        h = fnv1a(h, &a.target_pos.to_le_bytes());
        h = fnv1a(h, &a.query_pos.to_le_bytes());
    }
    h = fnv1a(h, &(seed_span as u64).to_le_bytes());
    h = fnv1a(h, &scoring.ydrop.to_le_bytes());
    h = fnv1a(h, &scoring.gapped_threshold.to_le_bytes());
    h = fnv1a(h, &scoring.gaps.open.to_le_bytes());
    h = fnv1a(h, &scoring.gaps.extend.to_le_bytes());
    h = fnv1a(h, &scoring.subst.max_score().to_le_bytes());
    h = fnv1a(h, &flags_bits.to_le_bytes());
    h
}

/// Folds an extra identity word (e.g. the persistent seed index
/// fingerprint) into a workload fingerprint. Folding zero is the
/// identity, so runs without the extra artifact keep their historical
/// fingerprints — old checkpoints stay resumable.
pub fn combine_fingerprint(fp: u64, extra: u64) -> u64 {
    if extra == 0 {
        fp
    } else {
        fnv1a(fp, &extra.to_le_bytes())
    }
}

/// A pipeline checkpoint: per-problem inspector results and per-bin
/// executor results, persisted after the inspector phase and after each
/// completed executor bin.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// The workload fingerprint this checkpoint belongs to.
    pub fingerprint: u64,
    /// Inspector results by problem index.
    pub(crate) inspector: BTreeMap<usize, SideResult>,
    /// Set once every inspector problem is recorded.
    pub inspector_done: bool,
    /// Executor results by problem index.
    pub(crate) executor: BTreeMap<usize, SideResult>,
    /// Executor bin slots whose every problem is recorded.
    pub bins_done: BTreeSet<usize>,
}

impl Checkpoint {
    /// An empty checkpoint for `fingerprint`.
    pub fn new(fingerprint: u64) -> Checkpoint {
        Checkpoint {
            fingerprint,
            ..Checkpoint::default()
        }
    }

    /// Drops executor state beyond the first `n` completed bins —
    /// recreating the on-disk state of a run killed mid-executor (ops
    /// tooling and the resume tests use this).
    pub fn retain_bins(&mut self, n: usize) {
        let keep: BTreeSet<usize> = self.bins_done.iter().copied().take(n).collect();
        self.bins_done = keep;
        // Without per-bin membership stored here, executor entries of
        // dropped bins are simply discarded along with every entry not
        // re-derivable: the pipeline re-runs any problem whose bin lacks
        // a done marker, so over-dropping is safe, under-dropping is not.
        if self.bins_done.is_empty() {
            self.executor.clear();
        }
    }

    /// Serializes to the checkpoint text format (v2).
    ///
    /// v2 ends with an `end <inspector> <executor> <bins-done>` trailer
    /// carrying the record counts. A file truncated at any point — even
    /// cleanly at a line boundary, which v1 could not detect — fails to
    /// parse instead of silently resuming from partial state.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(64 * (self.inspector.len() + self.executor.len()) + 64);
        out.push_str("fastz-checkpoint v2\n");
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        for (&idx, r) in &self.inspector {
            out.push_str(&encode_side('I', idx, r));
        }
        if self.inspector_done {
            out.push_str("inspector-done\n");
        }
        for (&idx, r) in &self.executor {
            out.push_str(&encode_side('E', idx, r));
        }
        for &slot in &self.bins_done {
            out.push_str(&format!("bin-done {slot}\n"));
        }
        out.push_str(&format!(
            "end {} {} {}\n",
            self.inspector.len(),
            self.executor.len(),
            self.bins_done.len()
        ));
        out
    }

    /// Parses the checkpoint text format. Rejects torn files: the `end`
    /// trailer must be present, must be the last line, and its record
    /// counts must match what was actually parsed.
    pub fn from_text(text: &str) -> Result<Checkpoint, String> {
        let mut lines = text.lines();
        if lines.next() != Some("fastz-checkpoint v2") {
            return Err("not a fastz checkpoint (bad header)".into());
        }
        let fp_line = lines.next().ok_or("missing fingerprint")?;
        let fp = fp_line
            .strip_prefix("fingerprint ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("bad fingerprint line")?;
        let mut ckpt = Checkpoint::new(fp);
        let mut sealed = false;
        for line in lines {
            if sealed {
                return Err("data after end trailer".into());
            }
            if line.is_empty() {
                continue;
            }
            if line == "inspector-done" {
                ckpt.inspector_done = true;
            } else if let Some(slot) = line.strip_prefix("bin-done ") {
                ckpt.bins_done
                    .insert(slot.parse().map_err(|_| "bad bin-done line")?);
            } else if let Some(rest) = line.strip_prefix("I ") {
                let (idx, r) = decode_side(rest)?;
                ckpt.inspector.insert(idx, r);
            } else if let Some(rest) = line.strip_prefix("E ") {
                let (idx, r) = decode_side(rest)?;
                ckpt.executor.insert(idx, r);
            } else if let Some(counts) = line.strip_prefix("end ") {
                let want: Vec<usize> = counts
                    .split_ascii_whitespace()
                    .map(|c| c.parse().map_err(|_| format!("bad end trailer: {line}")))
                    .collect::<Result<_, String>>()?;
                let got = [
                    ckpt.inspector.len(),
                    ckpt.executor.len(),
                    ckpt.bins_done.len(),
                ];
                if want != got {
                    return Err(format!(
                        "end trailer counts {want:?} do not match records {got:?}"
                    ));
                }
                sealed = true;
            } else {
                return Err(format!("unrecognized checkpoint line: {line}"));
            }
        }
        if !sealed {
            return Err("truncated checkpoint (missing end trailer)".into());
        }
        Ok(ckpt)
    }

    /// Writes the checkpoint crash-consistently
    /// ([`fastz_genome::durable::write_atomic`]): a crash at any point
    /// leaves either the old checkpoint or the new one, never a torn file
    /// under the real name.
    pub fn save(&self, path: &std::path::Path) -> io::Result<()> {
        fastz_genome::durable::write_atomic(path, self.to_text().as_bytes())
    }

    /// Loads a checkpoint; `Ok(None)` when the file does not exist.
    /// Every error — IO or parse — names the offending path so rejection
    /// reports stay actionable.
    pub fn load(path: &std::path::Path) -> Result<Option<Checkpoint>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        Checkpoint::from_text(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Exact round-trip text encoding for `f64` (hex bit pattern).
fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f64_unhex(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 field {s}"))
}

/// Encodes an edit script as `D<k>`/`Q<k>`/`T<k>` runs; `.` is the empty
/// script, `-` the absent one.
pub fn encode_ops(ops: Option<&[EditOp]>) -> String {
    match ops {
        None => "-".into(),
        Some([]) => ".".into(),
        Some(ops) => {
            let mut s = String::with_capacity(ops.len() * 4);
            for op in ops {
                match *op {
                    EditOp::Diag(k) => s.push_str(&format!("D{k}")),
                    EditOp::GapQ(k) => s.push_str(&format!("Q{k}")),
                    EditOp::GapT(k) => s.push_str(&format!("T{k}")),
                }
            }
            s
        }
    }
}

/// Inverse of [`encode_ops`].
pub fn decode_ops(s: &str) -> Result<Option<Vec<EditOp>>, String> {
    match s {
        "-" => Ok(None),
        "." => Ok(Some(Vec::new())),
        _ => {
            let mut ops = Vec::new();
            let mut chars = s.chars().peekable();
            while let Some(kind) = chars.next() {
                let mut n = 0u32;
                while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(d))
                        .ok_or_else(|| format!("op run overflow in {s}"))?;
                    chars.next();
                }
                let op = match kind {
                    'D' => EditOp::Diag(n),
                    'Q' => EditOp::GapQ(n),
                    'T' => EditOp::GapT(n),
                    other => return Err(format!("bad op kind {other} in {s}")),
                };
                ops.push(op);
            }
            Ok(Some(ops))
        }
    }
}

fn encode_side(tag: char, idx: usize, r: &SideResult) -> String {
    let c = &r.counters;
    format!(
        "{tag} {idx} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
        r.score,
        r.best_i,
        r.best_j,
        r.explored_rows,
        r.explored_cols,
        f64_hex(r.task.cycles),
        f64_hex(r.task.dram_bytes),
        c.steps,
        c.cells,
        c.alu_ops,
        c.divergent_steps,
        c.global_read,
        c.global_written,
        c.shared_bytes,
        c.shuffles,
        c.scalar_ops,
        r.bitvec.windows,
        r.bitvec.sene_skips,
        r.bitvec.dent_discards,
        encode_ops(r.eager_ops.as_deref()),
    )
}

fn decode_side(rest: &str) -> Result<(usize, SideResult), String> {
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    if f.len() != 21 {
        return Err(format!("checkpoint record has {} fields, want 21", f.len()));
    }
    let num = |i: usize| -> Result<u64, String> {
        f[i].parse().map_err(|_| format!("bad field {}", f[i]))
    };
    let idx = num(0)? as usize;
    let r = SideResult {
        score: f[1].parse().map_err(|_| format!("bad score {}", f[1]))?,
        best_i: num(2)? as usize,
        best_j: num(3)? as usize,
        explored_rows: num(4)? as usize,
        explored_cols: num(5)? as usize,
        task: WarpTask {
            cycles: f64_unhex(f[6])?,
            dram_bytes: f64_unhex(f[7])?,
        },
        counters: WarpCounters {
            steps: num(8)?,
            cells: num(9)?,
            alu_ops: num(10)?,
            divergent_steps: num(11)?,
            global_read: num(12)?,
            global_written: num(13)?,
            shared_bytes: num(14)?,
            shuffles: num(15)?,
            scalar_ops: num(16)?,
        },
        bitvec: BitvecStats {
            windows: num(17)?,
            sene_skips: num(18)?,
            dent_discards: num(19)?,
        },
        eager_ops: decode_ops(f[20])?,
    };
    Ok((idx, r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(score: i32) -> SideResult {
        SideResult {
            score,
            best_i: 3,
            best_j: 4,
            explored_rows: 10,
            explored_cols: 12,
            eager_ops: Some(vec![EditOp::Diag(3), EditOp::GapQ(1), EditOp::Diag(2)]),
            task: WarpTask {
                cycles: 1234.5,
                dram_bytes: 6.25,
            },
            counters: WarpCounters {
                steps: 1,
                cells: 2,
                alu_ops: 3,
                divergent_steps: 4,
                global_read: 5,
                global_written: 6,
                shared_bytes: 7,
                shuffles: 8,
                scalar_ops: 9,
            },
            bitvec: BitvecStats {
                windows: 2,
                sene_skips: 1,
                dent_discards: 5,
            },
        }
    }

    #[test]
    fn ops_encoding_round_trips() {
        for ops in [
            None,
            Some(vec![]),
            Some(vec![EditOp::Diag(12), EditOp::GapT(3), EditOp::GapQ(400)]),
        ] {
            let text = encode_ops(ops.as_deref());
            assert_eq!(decode_ops(&text).unwrap(), ops);
        }
        assert!(decode_ops("X3").is_err());
    }

    #[test]
    fn checkpoint_round_trips_through_text_and_disk() {
        let mut ckpt = Checkpoint::new(0xdead_beef_0123_4567);
        ckpt.inspector.insert(0, side(10));
        ckpt.inspector.insert(5, side(-3));
        ckpt.inspector_done = true;
        ckpt.executor.insert(
            5,
            SideResult {
                eager_ops: None,
                ..side(77)
            },
        );
        ckpt.bins_done.insert(2);
        ckpt.bins_done.insert(4);

        let parsed = Checkpoint::from_text(&ckpt.to_text()).unwrap();
        assert_eq!(parsed, ckpt);

        let dir = std::env::temp_dir().join("fastz-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round-trip.ckpt");
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap().unwrap();
        assert_eq!(loaded, ckpt);
        std::fs::remove_file(&path).unwrap();

        assert_eq!(Checkpoint::load(&dir.join("missing.ckpt")).unwrap(), None);
        assert!(Checkpoint::from_text("garbage").is_err());
    }

    #[test]
    fn truncated_checkpoints_are_detected_and_reported() {
        let mut ckpt = Checkpoint::new(0x1234);
        ckpt.inspector.insert(0, side(1));
        ckpt.inspector.insert(1, side(2));
        ckpt.inspector_done = true;
        ckpt.executor.insert(0, side(3));
        ckpt.bins_done.insert(1);
        let full = ckpt.to_text();
        assert!(full.ends_with("end 2 1 1\n"), "trailer carries counts");

        // Truncation cleanly at a line boundary (the case v1 accepted).
        let lines: Vec<&str> = full.lines().collect();
        for keep in 0..lines.len() {
            let partial = lines[..keep]
                .iter()
                .map(|l| format!("{l}\n"))
                .collect::<String>();
            assert!(
                Checkpoint::from_text(&partial).is_err(),
                "prefix of {keep} lines must be rejected"
            );
        }
        // Truncation mid-line.
        assert!(Checkpoint::from_text(&full[..full.len() - 3]).is_err());
        // Trailing garbage after the seal.
        assert!(Checkpoint::from_text(&format!("{full}bin-done 9\n")).is_err());
        // Counts that disagree with the records.
        let forged = full.replace("end 2 1 1", "end 2 1 2");
        assert!(Checkpoint::from_text(&forged)
            .unwrap_err()
            .contains("do not match"));

        // `load` names the path, so rejection reports are actionable.
        let dir = std::env::temp_dir().join("fastz-ckpt-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.ckpt");
        std::fs::write(&path, &full[..full.len() - 12]).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.contains("torn.ckpt"), "error names the file: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_uses_same_directory_temp_and_replaces_atomically() {
        let dir = std::env::temp_dir().join("fastz-ckpt-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.ckpt");
        let old = Checkpoint::new(1);
        old.save(&path).unwrap();
        let new = Checkpoint::new(2);
        new.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().unwrap().fingerprint, 2);
        assert!(
            !dir.join("atomic.ckpt.tmp").exists(),
            "temp file renamed away"
        );
        std::fs::remove_file(&path).unwrap();
        assert!(Checkpoint::new(3).save(std::path::Path::new("/")).is_err());
    }

    #[test]
    fn retain_bins_drops_later_executor_state() {
        let mut ckpt = Checkpoint::new(1);
        ckpt.inspector_done = true;
        ckpt.executor.insert(1, side(5));
        ckpt.bins_done.extend([1, 3, 5]);
        let mut partial = ckpt.clone();
        partial.retain_bins(1);
        assert_eq!(partial.bins_done.iter().copied().collect::<Vec<_>>(), [1]);
        partial.retain_bins(0);
        assert!(partial.bins_done.is_empty());
        assert!(
            partial.executor.is_empty(),
            "no bins done ⇒ no entries kept"
        );
        assert!(partial.inspector_done, "inspector state survives");
    }

    #[test]
    fn fingerprints_distinguish_workloads() {
        use fastz_genome::evolve::{generate_pair, PairParams};
        let pair = generate_pair(&PairParams::small_demo("fp", 1));
        let anchors = vec![Anchor {
            target_pos: 10,
            query_pos: 20,
        }];
        let sc = Scoring::bench_scaled();
        let a = workload_fingerprint(&pair.target, &pair.query, &anchors, 19, &sc, 0b111);
        let b = workload_fingerprint(&pair.target, &pair.query, &anchors, 19, &sc, 0b011);
        let c = workload_fingerprint(&pair.target, &pair.query, &anchors, 20, &sc, 0b111);
        let a2 = workload_fingerprint(&pair.target, &pair.query, &anchors, 19, &sc, 0b111);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn report_accounting_invariant() {
        let mut r = ResilienceReport::default();
        r.injected.hangs = 3;
        r.injected.stalls = 2;
        r.detected.hangs = 3;
        r.tolerated.stalls = 2;
        assert!(r.accounts_for_all_faults());
        r.injected.bit_flips = 1;
        assert!(!r.accounts_for_all_faults());
        let mut merged = ResilienceReport::default();
        merged.merge(&r);
        merged.merge(&r);
        assert_eq!(merged.injected.hangs, 6);
        assert!(merged.summary().contains("hang 6"));
    }
}
