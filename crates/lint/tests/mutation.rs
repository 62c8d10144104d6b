//! Planted-violation mutation corpus.
//!
//! Each rule gets at least one fixture carrying exactly the bug class
//! it encodes; the suite asserts the rule fires on it (with its id and
//! provenance) and stays silent on a clean twin. This is the lint
//! analog of the conformance oracle: a rule that cannot catch its own
//! planted violation is a dead gate.

use fastz_lint::report::LintReport;
use fastz_lint::{run, Workspace};

fn lint(files: &[(&str, &str)]) -> LintReport {
    run(&Workspace::from_sources(
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect(),
    ))
}

/// Asserts the report holds exactly one finding, under `rule`, with a
/// provenance naming the historical bug class (`prov_tag`).
fn assert_single(rep: &LintReport, rule: &str, prov_tag: &str) {
    assert_eq!(
        rep.findings.len(),
        1,
        "expected one {rule} finding, got {:#?}",
        rep.findings
    );
    let f = &rep.findings[0];
    assert_eq!(f.rule, rule);
    assert!(
        f.provenance.contains(prov_tag),
        "provenance {:?} does not name {prov_tag:?}",
        f.provenance
    );
}

// ---------------------------------------------------------------------------
// Clean corpus: one in-scope file per rule, all idiomatic — zero findings.
// ---------------------------------------------------------------------------

#[test]
fn clean_corpus_is_silent() {
    let rep = lint(&[
        (
            "crates/align/src/driver.rs",
            "pub fn splice(score: i32, bonus: i32) -> i32 {\n    \
             score::add_clamped(score, bonus)\n}\n",
        ),
        (
            "crates/core/src/wavefront_step.rs",
            "pub fn probe(v: &[i32], i: usize) -> i32 {\n    \
             // bound: callers hold i + 1 < v.len() (strip invariant)\n    \
             v[i + 1]\n}\n",
        ),
        (
            "crates/obs/src/sink.rs",
            "use std::collections::BTreeMap;\n\
             pub fn series() -> BTreeMap<String, u64> {\n    BTreeMap::new()\n}\n",
        ),
        (
            "crates/core/src/rank.rs",
            "pub fn best(xs: &[f64]) -> f64 {\n    \
             xs.iter().copied().fold(f64::NEG_INFINITY, |a, b| \
             if b.total_cmp(&a).is_gt() { b } else { a })\n}\n",
        ),
        (
            "crates/core/src/cfgid.rs",
            "pub struct Geometry { pub window: usize, pub overlap: usize }\n\
             // fastz-lint: fingerprint(Geometry)\n\
             pub fn identity(g: &Geometry) -> u64 {\n    \
             let Geometry { window, overlap } = g;\n    \
             (*window as u64) ^ ((*overlap as u64) << 32)\n}\n",
        ),
    ]);
    assert!(
        rep.findings.is_empty(),
        "clean corpus produced findings: {:#?}",
        rep.findings
    );
    assert!(rep.suppressions.is_empty());
    assert_eq!(rep.files_scanned, 5);
}

// ---------------------------------------------------------------------------
// One planted violation per rule.
// ---------------------------------------------------------------------------

#[test]
fn catches_partial_cmp_on_floats() {
    let rep = lint(&[(
        "crates/core/src/rank.rs",
        "pub fn best(xs: &[f64]) -> f64 {\n    let mut best = xs[0];\n    \
         for &x in xs {\n        \
         if x.partial_cmp(&best) == Some(std::cmp::Ordering::Greater) { best = x; }\n    \
         }\n    best\n}\n",
    )]);
    assert_single(&rep, "float-total-order", "PR 4");
}

#[test]
fn catches_raw_score_arithmetic_in_scope() {
    let rep = lint(&[(
        "crates/align/src/driver.rs",
        "pub fn splice(score: i32, bonus: i32) -> i32 {\n    score + bonus\n}\n",
    )]);
    assert_single(&rep, "clamped-score-arith", "PR 1");
    assert_eq!(rep.findings[0].line, 2);
}

#[test]
fn score_arithmetic_out_of_scope_is_not_flagged() {
    // Same token stream, but the path opts out of the score-arith scope.
    let rep = lint(&[(
        "crates/genome/src/stats.rs",
        "pub fn splice(score: i32, bonus: i32) -> i32 {\n    score + bonus\n}\n",
    )]);
    assert!(rep.findings.is_empty(), "{:#?}", rep.findings);
}

#[test]
fn catches_rogue_metric_literal() {
    let rep = lint(&[(
        "crates/core/src/emit.rs",
        "pub fn name() -> &'static str {\n    \"fastz_rogue_total\"\n}\n",
    )]);
    assert_single(&rep, "metric-name-registry", "PR 3");
    assert!(rep.findings[0].message.contains("fastz_rogue_total"));
}

#[test]
fn catches_registry_slice_drift() {
    // A declared name missing from ALL (both are emitted elsewhere, so
    // only the registry-slice check should fire).
    let rep = lint(&[
        (
            "crates/obs/src/names.rs",
            "pub const A_TOTAL: &str = \"fastz_a_total\";\n\
             pub const B_TOTAL: &str = \"fastz_b_total\";\n\
             pub const ALL: &[&str] = &[A_TOTAL];\n",
        ),
        (
            "crates/core/src/emit.rs",
            "use crate::names::{A_TOTAL, B_TOTAL};\n\
             pub fn both() -> (&'static str, &'static str) {\n    (A_TOTAL, B_TOTAL)\n}\n",
        ),
    ]);
    assert_single(&rep, "metric-name-registry", "PR 3");
    assert!(
        rep.findings[0].message.contains("B_TOTAL"),
        "{:?}",
        rep.findings[0].message
    );
}

#[test]
fn catches_rest_pattern_in_fingerprint_destructure() {
    let rep = lint(&[(
        "crates/core/src/cfgid.rs",
        "pub struct Geometry { pub window: usize, pub overlap: usize }\n\
         // fastz-lint: fingerprint(Geometry)\n\
         pub fn identity(g: &Geometry) -> u64 {\n    \
         let Geometry { window, .. } = g;\n    *window as u64\n}\n",
    )]);
    assert_single(&rep, "fingerprint-exhaustive", "PR 3/PR 9");
    assert!(rep.findings[0].message.contains(".."));
}

#[test]
fn catches_discard_without_waiver_note() {
    let rep = lint(&[(
        "crates/core/src/cfgid.rs",
        "pub struct Geometry { pub window: usize, pub overlap: usize }\n\
         // fastz-lint: fingerprint(Geometry)\n\
         pub fn identity(g: &Geometry) -> u64 {\n    \
         let Geometry { window, overlap: _ } = g;\n    *window as u64\n}\n",
    )]);
    assert_single(&rep, "fingerprint-exhaustive", "PR 3/PR 9");
    assert!(rep.findings[0].message.contains("overlap"));
}

#[test]
fn catches_required_type_without_witness() {
    let rep = lint(&[(
        "crates/core/src/config.rs",
        "pub struct OptFlags { pub streams: usize }\n",
    )]);
    assert_single(&rep, "fingerprint-exhaustive", "PR 3/PR 9");
    assert!(rep.findings[0].message.contains("OptFlags"));
}

#[test]
fn catches_hashmap_in_determinism_scope() {
    let rep = lint(&[(
        "crates/obs/src/sink.rs",
        "use std::collections::HashMap;\n\
         pub fn series() -> usize {\n    HashMap::<u32, u32>::new().len()\n}\n",
    )]);
    assert_eq!(rep.findings.len(), 2, "{:#?}", rep.findings); // use + call site
    for f in &rep.findings {
        assert_eq!(f.rule, "determinism");
        assert!(f.provenance.contains("bit-identity"));
    }
}

#[test]
fn catches_unwrap_and_unnoted_index_in_kernel() {
    let rep = lint(&[(
        "crates/core/src/wavefront_step.rs",
        "pub fn probe(v: &[i32], i: usize) -> i32 {\n    \
         let x = v[i + 1];\n    \
         x.checked_add(1).unwrap()\n}\n",
    )]);
    assert_eq!(rep.findings.len(), 2, "{:#?}", rep.findings);
    let rules: Vec<_> = rep.findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, ["kernel-no-panic", "kernel-no-panic"]);
    assert!(rep.findings.iter().any(|f| f.message.contains("unwrap")));
    assert!(rep
        .findings
        .iter()
        .all(|f| f.provenance.contains("kernel contract")));
}

#[test]
fn traceback_band_store_is_kernel_scoped() {
    // The band store's push and lookup are in scope; the engine's host
    // driver code in the same file is not.
    let engine = |note: &str| {
        format!(
            "impl TbBand {{\n    \
             fn lookup(&self, t: usize, l: usize) -> u8 {{\n        \
             {note}\n        \
             self.bytes[t * self.width + l]\n    }}\n    \
             fn push_step(&mut self, tb: &[u8]) {{\n        \
             self.bytes.extend_from_slice(tb.get(..self.width).unwrap());\n    }}\n}}\n\
             fn extend_body(v: &[u8], i: usize) -> u8 {{\n    \
             v[i + 1] + v.first().copied().unwrap()\n}}\n"
        )
    };
    let rep = lint(&[("crates/core/src/warp_engine.rs", &engine(""))]);
    assert_eq!(rep.findings.len(), 2, "{:#?}", rep.findings);
    assert!(rep.findings.iter().all(|f| f.rule == "kernel-no-panic"));
    assert!(rep.findings[0].message.contains("bound:"));
    assert!(rep.findings[1].message.contains("unwrap"));

    let noted = engine("// bound: t < chunks and l < width");
    let rep = lint(&[("crates/core/src/warp_engine.rs", &noted)]);
    assert_eq!(rep.findings.len(), 1, "{:#?}", rep.findings);
    assert!(rep.findings[0].message.contains("unwrap"));
}

#[test]
fn strip_sweep_is_kernel_scoped() {
    // The strip sweep and its step body run on either lane width and
    // are in scope; the per-extension driver in the same file is not.
    let engine = |note: &str| {
        format!(
            "fn sweep_strip(rows: &[i32], t: usize) -> i32 {{\n    \
             {note}\n    \
             rows[t + 1]\n}}\n\
             impl StripSweep {{\n    \
             fn step(&mut self, t: usize) -> i32 {{\n        \
             self.spill.get(t).copied().unwrap()\n    }}\n}}\n\
             fn extend_body(v: &[u8], i: usize) -> u8 {{\n    \
             v[i + 1] + v.first().copied().unwrap()\n}}\n"
        )
    };
    let rep = lint(&[("crates/core/src/warp_engine.rs", &engine(""))]);
    assert_eq!(rep.findings.len(), 2, "{:#?}", rep.findings);
    assert!(rep.findings.iter().all(|f| f.rule == "kernel-no-panic"));
    assert!(rep.findings[0].message.contains("bound:"));
    assert!(rep.findings[1].message.contains("unwrap"));

    let noted = engine("// bound: t < rows_avail and rows holds row_cap + 1 rows");
    let rep = lint(&[("crates/core/src/warp_engine.rs", &noted)]);
    assert_eq!(rep.findings.len(), 1, "{:#?}", rep.findings);
    assert!(rep.findings[0].message.contains("unwrap"));
}

#[test]
fn sixteen_bit_lane_types_are_kernel_and_score_scoped() {
    // Every fn of the 16-bit lane types' file is a step-kernel op, and
    // its score arithmetic must saturate or clamp like the engine's.
    let lanes = "impl LaneVec for Portable16 {\n    \
                 fn lane(self, l: usize) -> i32 {\n        \
                 widen(self.0.get(l).copied().expect(\"lane\"))\n    }\n}\n\
                 fn tie(score: i32, bonus: i32) -> i32 {\n    score + bonus\n}\n";
    let rep = lint(&[("crates/core/src/lanes16.rs", lanes)]);
    let mut rules: Vec<&str> = rep.findings.iter().map(|f| f.rule.as_str()).collect();
    rules.sort_unstable();
    assert_eq!(
        rules,
        ["clamped-score-arith", "kernel-no-panic"],
        "{:#?}",
        rep.findings
    );

    let clean = "impl LaneVec for Portable16 {\n    \
                 fn lane(self, l: usize) -> i32 {\n        \
                 widen(self.0[l])\n    }\n}\n\
                 fn tie(score: i16, bonus: i16) -> i16 {\n    score.saturating_add(bonus)\n}\n";
    let rep = lint(&[("crates/core/src/lanes16.rs", clean)]);
    assert!(rep.findings.is_empty(), "{:#?}", rep.findings);
}

#[test]
fn bitvec_column_step_and_store_are_kernel_scoped() {
    // The column step and the column store are in scope; the host-side
    // script conversion in the same file is not.
    let bitvec = |note: &str| {
        format!(
            "fn column_step(cur: &[u64; 64], new: &mut [u64; 64], d: usize) {{\n    \
             {note}\n    \
             new[d] = cur[d - 1] << 1;\n}}\n\
             fn store_column(rows: &[u64; 64], lo: usize) -> u64 {{\n    \
             rows.get(lo).copied().expect(\"stored row\")\n}}\n\
             fn units_to_ops(v: &[i64], i: usize) -> i64 {{\n    \
             v[i + 1] + v.first().copied().unwrap()\n}}\n"
        )
    };
    let rep = lint(&[("crates/core/src/bitvec.rs", &bitvec(""))]);
    assert_eq!(rep.findings.len(), 2, "{:#?}", rep.findings);
    assert!(rep.findings.iter().all(|f| f.rule == "kernel-no-panic"));
    assert!(rep.findings[0].message.contains("bound:"));
    assert!(rep.findings[1].message.contains("expect"));

    let noted = bitvec("// bound: 1 <= d < kp1 <= 64");
    let rep = lint(&[("crates/core/src/bitvec.rs", &noted)]);
    assert_eq!(rep.findings.len(), 1, "{:#?}", rep.findings);
    assert!(rep.findings[0].message.contains("expect"));
}

#[test]
fn bitvec_view_sweep_and_base_view_are_kernel_scoped() {
    // The entry that holds the sweep and the text-column mask lookup
    // are in scope in the engine's file.
    let bitvec = "fn bitvec_extend_in(pm: &[u64; 5], j: usize) -> u64 {\n    \
                  pm[j - 1]\n}\n\
                  fn text_mask(pm: &[u64; 5], code: Option<u8>) -> u64 {\n    \
                  pm[usize::from(code.unwrap())]\n}\n";
    let rep = lint(&[("crates/core/src/bitvec.rs", bitvec)]);
    assert_eq!(rep.findings.len(), 2, "{:#?}", rep.findings);
    assert!(rep.findings.iter().all(|f| f.rule == "kernel-no-panic"));
    assert!(rep.findings[0].message.contains("bound:"));
    assert!(rep.findings[1].message.contains("unwrap"));

    // Every fn of the view's file is in scope; its tests are not.
    let view = |note: &str| {
        format!(
            "impl BaseView<'_> {{\n    \
             fn get(self, i: usize) -> Option<u8> {{\n        \
             {note}\n        \
             Some(self.codes[self.codes.len() - 1 - i])\n    }}\n\
             fn window(self, start: usize) -> u8 {{\n        \
             self.codes.get(start).copied().expect(\"base\")\n    }}\n}}\n\
             #[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{\n        \
             let v = [1u8];\n        assert_eq!(v[1 - 1], v.first().copied().unwrap());\n    }}\n}}\n"
        )
    };
    let rep = lint(&[("crates/core/src/view.rs", &view(""))]);
    assert_eq!(rep.findings.len(), 2, "{:#?}", rep.findings);
    assert!(rep.findings.iter().all(|f| f.rule == "kernel-no-panic"));
    assert!(rep.findings[0].message.contains("bound:"));
    assert!(rep.findings[1].message.contains("expect"));
    let rep = lint(&[(
        "crates/core/src/view.rs",
        &view("// bound: i < codes.len()"),
    )]);
    assert_eq!(rep.findings.len(), 1, "{:#?}", rep.findings);
}

// ---------------------------------------------------------------------------
// Suppression accounting.
// ---------------------------------------------------------------------------

#[test]
fn trailing_suppression_absorbs_and_is_accounted() {
    let rep = lint(&[(
        "crates/align/src/driver.rs",
        "pub fn splice(score: i32, bonus: i32) -> i32 {\n    \
         score + bonus // fastz-lint: allow(clamped-score-arith, fixture: operands proven in range)\n}\n",
    )]);
    assert!(rep.findings.is_empty(), "{:#?}", rep.findings);
    assert_eq!(rep.suppressions.len(), 1);
    let s = &rep.suppressions[0];
    assert_eq!(s.rule, "clamped-score-arith");
    assert_eq!(s.reason, "fixture: operands proven in range");
    assert_eq!(s.line, 2);
}

#[test]
fn suppression_without_reason_is_a_hygiene_finding() {
    let rep = lint(&[(
        "crates/align/src/driver.rs",
        "pub fn splice(score: i32, bonus: i32) -> i32 {\n    \
         score + bonus // fastz-lint: allow(clamped-score-arith)\n}\n",
    )]);
    // The violation is absorbed, but the reasonless directive is itself
    // a finding — suppression is accounted, never free.
    assert_single(&rep, "suppression-hygiene", "written reason");
    assert!(rep.findings[0].message.contains("no written reason"));
    assert_eq!(rep.suppressions.len(), 1);
}

#[test]
fn suppression_of_unknown_rule_is_a_hygiene_finding() {
    let rep = lint(&[(
        "crates/core/src/misc.rs",
        "pub fn f() -> i32 {\n    1 // fastz-lint: allow(no-such-rule, because)\n}\n",
    )]);
    assert_single(&rep, "suppression-hygiene", "known rule");
    assert!(rep.findings[0].message.contains("no-such-rule"));
}

#[test]
fn unused_suppression_is_a_hygiene_finding() {
    let rep = lint(&[(
        "crates/core/src/misc.rs",
        "// fastz-lint: allow(float-total-order, nothing here needs this)\n\
         pub fn f() -> i32 {\n    1\n}\n",
    )]);
    assert_single(&rep, "suppression-hygiene", "match a live finding");
    assert!(rep.findings[0].message.contains("matches no finding"));
}

#[test]
fn standalone_suppression_covers_its_paragraph_only() {
    let rep = lint(&[(
        "crates/align/src/driver.rs",
        "pub fn splice(score: i32, bonus: i32) -> i32 {\n    \
         // fastz-lint: allow(clamped-score-arith, fixture: paragraph scope)\n    \
         let a = score + bonus;\n    let b = a + score;\n\n    \
         b + score\n}\n",
    )]);
    // The two adds inside the paragraph are absorbed (one accounted
    // suppression); the add after the blank line is not.
    assert_eq!(rep.suppressions.len(), 1);
    assert_single(&rep, "clamped-score-arith", "PR 1");
    assert_eq!(rep.findings[0].line, 6);
}

// ---------------------------------------------------------------------------
// Determinism of the report itself.
// ---------------------------------------------------------------------------

#[test]
fn report_json_is_byte_identical_across_runs() {
    let corpus: Vec<(&str, &str)> = vec![
        (
            "crates/align/src/driver.rs",
            "pub fn splice(score: i32, bonus: i32) -> i32 {\n    score + bonus\n}\n",
        ),
        (
            "crates/obs/src/sink.rs",
            "use std::collections::HashMap;\npub fn f() -> usize {\n    \
             HashMap::<u32, u32>::new().len()\n}\n",
        ),
        (
            "crates/core/src/rank.rs",
            "pub fn cmp(a: f64, b: f64) -> bool {\n    \
             a.partial_cmp(&b).is_some()\n}\n",
        ),
    ];
    let first = lint(&corpus).to_json();
    let second = lint(&corpus).to_json();
    assert_eq!(first, second);
    assert!(first.contains("\"tool\": \"fastz-lint\""));
}
