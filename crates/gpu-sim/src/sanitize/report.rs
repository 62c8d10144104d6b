//! Findings and the aggregated [`SanitizeReport`].
//!
//! A finding is one diagnosed violation with full provenance: what
//! happened (kind), where in the scratchpad (byte offset), which
//! pipeline phase and kernel stage were executing, and which problem
//! index the worker was processing. Reports merge associatively so
//! per-worker arenas can be drained into one pool-level report in any
//! order and still produce deterministic output after [`SanitizeReport::sort`].

use fastz_obs::export::json_escape;
use std::collections::BTreeMap;
use std::fmt;

/// The classes of violation the sanitizer diagnoses.
///
/// The first three mirror NVIDIA `compute-sanitizer` tools: `UninitRead`
/// is the `initcheck` class, `OobRead` the `memcheck` class, and the two
/// hazard kinds the `racecheck` classes. The remaining kinds are
/// warp-model lints with no single-tool analog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FindingKind {
    /// Read of a reserved byte never written since the last `clear()`.
    UninitRead,
    /// Read beyond the current reservation extent.
    OobRead,
    /// Read of data written by a different kernel stage with no
    /// intervening barrier (read-after-write hazard).
    RawHazard,
    /// Write over data read by a different kernel stage with no
    /// intervening barrier (write-after-read hazard).
    WarHazard,
    /// Fully serialized shared-memory access group: 32 distinct words
    /// mapping to one bank in a single warp step.
    BankConflict,
    /// Ballot mask asserting a lane outside the active-lane set.
    BallotInactiveLane,
    /// Warp divergence nesting deeper than the reconvergence-stack bound.
    DivergenceDepth,
}

impl FindingKind {
    /// Every kind, in stable report order.
    pub const ALL: [FindingKind; 7] = [
        FindingKind::UninitRead,
        FindingKind::OobRead,
        FindingKind::RawHazard,
        FindingKind::WarHazard,
        FindingKind::BankConflict,
        FindingKind::BallotInactiveLane,
        FindingKind::DivergenceDepth,
    ];

    /// Stable wire name, used as the `kind` label on exported counters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::UninitRead => "uninit_read",
            FindingKind::OobRead => "oob_read",
            FindingKind::RawHazard => "raw_hazard",
            FindingKind::WarHazard => "war_hazard",
            FindingKind::BankConflict => "bank_conflict",
            FindingKind::BallotInactiveLane => "ballot_inactive_lane",
            FindingKind::DivergenceDepth => "divergence_depth",
        }
    }

    fn index(self) -> usize {
        FindingKind::ALL
            .iter()
            .position(|k| *k == self)
            .unwrap_or(0)
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnosed violation with provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Violation class.
    pub kind: FindingKind,
    /// Byte offset into the scratchpad (0 for non-memory lints).
    pub offset: usize,
    /// Pipeline phase (`inspector` / `executor`) set via
    /// `SharedMem::sanitize_context`.
    pub phase: &'static str,
    /// Kernel stage (`wavefront` / `eager_traceback` / toy-kernel name).
    pub stage: &'static str,
    /// Problem index the worker was processing.
    pub problem: u64,
    /// Human-readable description of the specific violation.
    pub detail: String,
}

/// Per-phase shared-memory bank pressure counters.
///
/// These are performance counters, not findings: real hardware
/// serializes an n-way conflict into n passes without any error, so the
/// sanitizer only promotes the degenerate fully-serialized 32-way case
/// to a [`FindingKind::BankConflict`] finding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Warp-step access groups observed.
    pub groups: u64,
    /// Groups with at least one multi-word bank collision.
    pub conflict_events: u64,
    /// Total extra serialized passes, Σ over banks of (words − 1).
    pub serialized_extra: u64,
    /// Worst n-way conflict seen.
    pub max_ways: u32,
}

impl BankStats {
    fn merge(&mut self, other: &BankStats) {
        self.groups += other.groups;
        self.conflict_events += other.conflict_events;
        self.serialized_extra += other.serialized_extra;
        self.max_ways = self.max_ways.max(other.max_ways);
    }
}

/// Detailed findings kept per kind; beyond this only counts accumulate.
pub const FINDINGS_PER_KIND_CAP: usize = 16;

/// Aggregated sanitizer output for a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SanitizeReport {
    counts: [u64; FindingKind::ALL.len()],
    /// Detailed findings (capped at [`FINDINGS_PER_KIND_CAP`] per kind).
    pub findings: Vec<Finding>,
    /// Findings dropped once the per-kind detail cap was reached
    /// (their counts are still reflected in `count`).
    pub truncated: u64,
    /// Bank pressure keyed by pipeline phase.
    pub banks: BTreeMap<&'static str, BankStats>,
    /// Shared-memory read accesses observed.
    pub shared_reads: u64,
    /// Shared-memory write accesses observed.
    pub shared_writes: u64,
    /// Sanitizer barriers observed.
    pub barriers: u64,
    /// Scratchpad generation bumps (`clear()` calls) observed.
    pub clears: u64,
    /// Deepest warp-divergence nesting observed.
    pub max_divergence_depth: u32,
}

impl SanitizeReport {
    /// Records a finding, enforcing the per-kind detail cap.
    pub fn record(&mut self, finding: Finding) {
        let idx = finding.kind.index();
        self.counts[idx] += 1;
        let kept = self
            .findings
            .iter()
            .filter(|f| f.kind == finding.kind)
            .count();
        if kept < FINDINGS_PER_KIND_CAP {
            self.findings.push(finding);
        } else {
            self.truncated += 1;
        }
    }

    /// Number of violations of `kind` (including truncated ones).
    #[must_use]
    pub fn count(&self, kind: FindingKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total violations across every kind.
    #[must_use]
    pub fn total_findings(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True when no violations were diagnosed (bank pressure counters
    /// may still be non-zero; they are not findings).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_findings() == 0
    }

    /// Folds `other` into `self`. Merging is associative and
    /// commutative up to finding order; call [`SanitizeReport::sort`]
    /// after the last merge for deterministic output.
    pub fn merge(&mut self, other: &SanitizeReport) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += *src;
        }
        for f in &other.findings {
            let kept = self.findings.iter().filter(|g| g.kind == f.kind).count();
            if kept < FINDINGS_PER_KIND_CAP {
                self.findings.push(f.clone());
            } else {
                self.truncated += 1;
            }
        }
        self.truncated += other.truncated;
        for (phase, stats) in &other.banks {
            self.banks.entry(phase).or_default().merge(stats);
        }
        self.shared_reads += other.shared_reads;
        self.shared_writes += other.shared_writes;
        self.barriers += other.barriers;
        self.clears += other.clears;
        self.max_divergence_depth = self.max_divergence_depth.max(other.max_divergence_depth);
    }

    /// Sorts findings into the canonical order (problem, phase, stage,
    /// kind, offset, detail) so reports merged from workers in arrival
    /// order compare byte-identical across thread counts.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.problem, a.phase, a.stage, a.kind, a.offset, &a.detail)
                .cmp(&(b.problem, b.phase, b.stage, b.kind, b.offset, &b.detail))
        });
    }

    /// Serializes the report as JSON (hand-rolled; the workspace has no
    /// serde dependency). Output is deterministic after
    /// [`SanitizeReport::sort`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counts\": {");
        for (i, kind) in FindingKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", kind.name(), self.count(*kind)));
        }
        out.push_str("\n  },\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"kind\": \"{}\", \"offset\": {}, \"phase\": ",
                f.kind.name(),
                f.offset
            ));
            json_escape(&mut out, f.phase);
            out.push_str(", \"stage\": ");
            json_escape(&mut out, f.stage);
            out.push_str(&format!(", \"problem\": {}, \"detail\": ", f.problem));
            json_escape(&mut out, &f.detail);
            out.push('}');
        }
        out.push_str(&format!(
            "\n  ],\n  \"truncated\": {},\n  \"banks\": {{",
            self.truncated
        ));
        for (i, (phase, b)) in self.banks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{phase}\": {{\"groups\": {}, \"conflict_events\": {}, \
                 \"serialized_extra\": {}, \"max_ways\": {}}}",
                b.groups, b.conflict_events, b.serialized_extra, b.max_ways
            ));
        }
        out.push_str(&format!(
            "\n  }},\n  \"shared_reads\": {},\n  \"shared_writes\": {},\n  \
             \"barriers\": {},\n  \"clears\": {},\n  \"max_divergence_depth\": {}\n}}\n",
            self.shared_reads,
            self.shared_writes,
            self.barriers,
            self.clears,
            self.max_divergence_depth
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(kind: FindingKind, problem: u64, offset: usize) -> Finding {
        Finding {
            kind,
            offset,
            phase: "inspector",
            stage: "wavefront",
            problem,
            detail: format!("test finding at {offset}"),
        }
    }

    #[test]
    fn counts_and_cleanliness() {
        let mut r = SanitizeReport::default();
        assert!(r.is_clean());
        r.record(finding(FindingKind::UninitRead, 0, 4));
        assert_eq!(r.count(FindingKind::UninitRead), 1);
        assert_eq!(r.total_findings(), 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn detail_cap_truncates_but_keeps_counting() {
        let mut r = SanitizeReport::default();
        for i in 0..(FINDINGS_PER_KIND_CAP + 5) {
            r.record(finding(FindingKind::OobRead, 0, i));
        }
        assert_eq!(
            r.count(FindingKind::OobRead),
            (FINDINGS_PER_KIND_CAP + 5) as u64
        );
        assert_eq!(r.findings.len(), FINDINGS_PER_KIND_CAP);
        assert_eq!(r.truncated, 5);
    }

    #[test]
    fn merge_is_order_insensitive_after_sort() {
        let mut a = SanitizeReport::default();
        a.record(finding(FindingKind::RawHazard, 2, 8));
        a.shared_reads = 10;
        let mut b = SanitizeReport::default();
        b.record(finding(FindingKind::UninitRead, 1, 0));
        b.shared_writes = 3;

        let mut ab = a.clone();
        ab.merge(&b);
        ab.sort();
        let mut ba = b.clone();
        ba.merge(&a);
        ba.sort();
        assert_eq!(ab, ba);
        assert_eq!(ab.total_findings(), 2);
        assert_eq!(ab.shared_reads, 10);
        assert_eq!(ab.shared_writes, 3);
    }

    #[test]
    fn json_export_round_trips_key_fields() {
        let mut r = SanitizeReport::default();
        r.record(finding(FindingKind::BankConflict, 9, 128));
        r.banks.insert(
            "inspector",
            BankStats {
                groups: 7,
                conflict_events: 1,
                serialized_extra: 31,
                max_ways: 32,
            },
        );
        let json = r.to_json();
        assert!(json.contains("\"bank_conflict\": 1"));
        assert!(json.contains("\"problem\": 9"));
        assert!(json.contains("\"serialized_extra\": 31"));
        assert!(json.contains("\"max_ways\": 32"));
    }
}
