//! Divergence records and the hand-rolled JSON report (the workspace is
//! built offline with no serde; the writer below emits the small, flat
//! schema the CLI documents).

use fastz_obs::export::json_escape;
use std::fmt::Write as _;

use crate::corpus::Category;

/// The first cell at which two engines disagree, with both values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellDiff {
    /// Query bases consumed.
    pub i: usize,
    /// Target bases consumed.
    pub j: usize,
    /// Value on the left-hand engine (`i64::MIN` encodes "cell absent").
    pub lhs: i64,
    /// Value on the right-hand engine.
    pub rhs: i64,
}

/// Marker for "the cell is not live in this engine" inside a
/// [`CellDiff`].
pub const ABSENT: i64 = i64::MIN;

/// One invariant violation found by the suite.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Corpus family of the offending case.
    pub category: Category,
    /// Replay seed: `make_case(category, seed)` rebuilds the pair.
    pub seed: u64,
    /// Which invariant failed (stable kebab-case identifier).
    pub invariant: &'static str,
    /// The engine pair (or engine vs oracle) that disagreed.
    pub engines: &'static str,
    /// Human-readable description with the observed values.
    pub message: String,
    /// First divergent cell in LASTZ (row-major) completion order, when
    /// cell-level data was available.
    pub first_divergent_cell: Option<CellDiff>,
}

/// Suite totals plus every divergence.
#[derive(Clone, Debug, Default)]
pub struct SuiteReport {
    /// Fuzz pairs requested.
    pub pairs: usize,
    /// Master seed.
    pub seed: u64,
    /// Cases actually run (fuzz + fixed families + pipeline).
    pub cases: usize,
    /// Individual invariant checks evaluated.
    pub checks: usize,
    /// All violations.
    pub divergences: Vec<Divergence>,
}

impl SuiteReport {
    /// True when every check passed.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

fn push_cell(out: &mut String, cell: &CellDiff) {
    let _ = write!(out, "{{\"i\":{},\"j\":{},", cell.i, cell.j);
    out.push_str("\"lhs\":");
    if cell.lhs == ABSENT {
        out.push_str("null");
    } else {
        let _ = write!(out, "{}", cell.lhs);
    }
    out.push_str(",\"rhs\":");
    if cell.rhs == ABSENT {
        out.push_str("null");
    } else {
        let _ = write!(out, "{}", cell.rhs);
    }
    out.push('}');
}

/// Serializes the report (`null` cell values mean "not live in that
/// engine").
pub fn to_json(report: &SuiteReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = write!(
        out,
        "  \"tool\": \"fastz-conformance\",\n  \"pairs\": {},\n  \"seed\": {},\n  \"cases\": {},\n  \"checks\": {},\n  \"divergence_count\": {},\n",
        report.pairs,
        report.seed,
        report.cases,
        report.checks,
        report.divergences.len()
    );
    out.push_str("  \"divergences\": [\n");
    for (idx, d) in report.divergences.iter().enumerate() {
        out.push_str("    {");
        out.push_str("\"category\": ");
        json_escape(&mut out, d.category.name());
        let _ = write!(out, ", \"replay_seed\": {}", d.seed);
        out.push_str(", \"invariant\": ");
        json_escape(&mut out, d.invariant);
        out.push_str(", \"engines\": ");
        json_escape(&mut out, d.engines);
        out.push_str(", \"message\": ");
        json_escape(&mut out, &d.message);
        out.push_str(", \"first_divergent_cell\": ");
        match &d.first_divergent_cell {
            Some(cell) => push_cell(&mut out, cell),
            None => out.push_str("null"),
        }
        out.push('}');
        if idx + 1 < report.divergences.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_nests() {
        let report = SuiteReport {
            pairs: 2,
            seed: 42,
            cases: 3,
            checks: 9,
            divergences: vec![Divergence {
                category: Category::Garbage,
                seed: 7,
                invariant: "warp-matches-conservative",
                engines: "warp vs scalar-conservative",
                message: "score 10 != 20 \"quoted\"".into(),
                first_divergent_cell: Some(CellDiff {
                    i: 3,
                    j: 4,
                    lhs: 10,
                    rhs: ABSENT,
                }),
            }],
        };
        let json = to_json(&report);
        assert!(json.contains("\"divergence_count\": 1"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(
            json.contains("\"first_divergent_cell\": {\"i\":3,\"j\":4,\"lhs\":10,\"rhs\":null}")
        );
    }

    #[test]
    fn clean_report_has_empty_array() {
        let report = SuiteReport {
            pairs: 1,
            seed: 1,
            cases: 1,
            checks: 4,
            divergences: vec![],
        };
        let json = to_json(&report);
        assert!(json.contains("\"divergences\": [\n  ]"));
        assert!(report.is_clean());
    }
}
