//! Registry-slice correspondence tests.
//!
//! `names::ALL` and the partition slices are the static half of the
//! zero-emission discipline: `fastz-lint` holds `ALL` in one-to-one
//! correspondence with the declared consts, and this suite holds the
//! slices to the runtime truth — the golden fixture's base-series set
//! for `PIPELINE`, and the disjoint-union identity for `ALL`.

use fastz_obs::names;
use std::collections::BTreeSet;

/// Base series names (`{label}` fan-out stripped) in the golden
/// metrics fixture. Every `"fastz_...` quoted string in the fixture is
/// a series key, so a raw scan is exact.
fn golden_base_series() -> BTreeSet<String> {
    let raw = include_str!("golden/metrics.json");
    let mut out = BTreeSet::new();
    let mut rest = raw;
    while let Some(pos) = rest.find("\"fastz_") {
        let tail = &rest[pos + 1..];
        let end = tail.find('"').expect("unterminated series name");
        let base = tail[..end].split('{').next().unwrap();
        out.insert(base.to_string());
        rest = &tail[end..];
    }
    out
}

#[test]
fn pipeline_partition_matches_golden_fixture() {
    let fixture = golden_base_series();
    assert!(!fixture.is_empty(), "fixture scan found no series");
    // The two task-cycle consts carry their phase label in the const
    // value, so the partition collapses to base names for comparison.
    let declared: BTreeSet<String> = names::PIPELINE
        .iter()
        .map(|n| n.split('{').next().unwrap().to_string())
        .collect();
    let missing: Vec<_> = fixture.difference(&declared).collect();
    let extra: Vec<_> = declared.difference(&fixture).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "names::PIPELINE and the golden fixture disagree\n  \
         in fixture but not PIPELINE: {missing:?}\n  \
         in PIPELINE but not fixture: {extra:?}"
    );
}

#[test]
fn all_is_the_disjoint_union_of_the_partitions() {
    let mut union: BTreeSet<&str> = BTreeSet::new();
    let mut total = 0usize;
    for part in [names::PIPELINE, names::SERVICE] {
        total += part.len();
        union.extend(part.iter().copied());
    }
    assert_eq!(total, union.len(), "partitions overlap");
    let all: BTreeSet<&str> = names::ALL.iter().copied().collect();
    assert_eq!(all.len(), names::ALL.len(), "names::ALL has duplicates");
    assert_eq!(all, union, "ALL != PIPELINE ∪ SERVICE");
}

#[test]
fn every_registered_name_carries_the_prefix() {
    for n in names::ALL {
        assert!(n.starts_with("fastz_"), "unprefixed series name {n:?}");
    }
}
