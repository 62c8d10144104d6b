//! Golden-snapshot suite for the observability exporters.
//!
//! A fixed-seed pipeline workload is run through `run_fastz_observed`
//! and each exporter's output is compared **byte for byte** against the
//! checked-in fixtures under `tests/golden/`. Every quantity in the
//! exports derives from deterministic work counters on the logical
//! clock — never wall time — so the comparison is exact.
//!
//! Regenerating the fixtures after an intentional wire-format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p fastz-obs --test golden
//! ```
//!
//! then review the fixture diff like any other code change.

use fastz_core::{run_fastz_observed, ExtendBackend, FastZConfig, OptFlags, ResilienceConfig};
use fastz_genome::evolve::{default_classes, generate_pair, PairParams};
use fastz_genome::{GapPenalties, Scoring, SubstMatrix};
use fastz_gpu_sim::DeviceSpec;
use fastz_obs::{export, Recorder};
use fastz_seed::{Workload, WorkloadParams};

use std::path::PathBuf;

const GOLDEN_SEED: u64 = 7;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// One fixed workload: small enough to stay fast in debug builds, big
/// enough to populate several bins and both pipeline phases.
fn run_golden_workload() -> Recorder {
    run_golden_workload_with(|_| {})
}

/// [`run_golden_workload`] with `tweak` applied to the configuration.
fn run_golden_workload_with(tweak: impl FnOnce(&mut FastZConfig)) -> Recorder {
    let scoring = Scoring {
        subst: SubstMatrix::match_mismatch(10, -15),
        gaps: GapPenalties::new(30, 5),
        ydrop: 120,
        xdrop: 40,
        hsp_threshold: 50,
        gapped_threshold: 50,
    };
    let pair = generate_pair(&PairParams {
        label: "golden".to_string(),
        target_len: 12_000,
        query_len: 12_000,
        segments: 24,
        classes: default_classes(),
        gc: 0.42,
        rng_seed: GOLDEN_SEED,
    });
    let wl = Workload::build(
        &pair.target,
        &pair.query,
        &WorkloadParams {
            max_anchors: 120,
            ..WorkloadParams::default()
        },
    );
    let mut cfg = FastZConfig::new(scoring, DeviceSpec::rtx3080_ampere());
    cfg.flags = OptFlags::fastz();
    cfg.sim_threads = 1;
    tweak(&mut cfg);
    let rcfg = ResilienceConfig::disabled();
    let mut rec = Recorder::new();
    run_fastz_observed(
        &pair.target,
        &pair.query,
        &wl.anchors,
        wl.shape.span(),
        &cfg,
        &rcfg,
        &mut rec,
    );
    rec
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        // Find the first divergent line for a readable failure.
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a);
        match mismatch {
            Some((idx, (e, a))) => panic!(
                "{name} diverges from golden fixture at line {}:\n  golden: {e}\n  actual: {a}\n\
                 run with UPDATE_GOLDEN=1 to regenerate after an intentional change",
                idx + 1
            ),
            None => panic!(
                "{name} diverges from golden fixture in length only \
                 (golden {} bytes, actual {} bytes)",
                expected.len(),
                actual.len()
            ),
        }
    }
}

#[test]
fn json_report_matches_golden() {
    let rec = run_golden_workload();
    check_golden("metrics.json", &export::json_report(&rec));
}

#[test]
fn prometheus_matches_golden() {
    let rec = run_golden_workload();
    check_golden("metrics.prom", &export::prometheus(&rec.registry));
}

#[test]
fn chrome_trace_matches_golden() {
    let rec = run_golden_workload();
    check_golden("trace.json", &export::chrome_trace(&rec.timeline));
}

/// Two back-to-back invocations of the same seed must produce
/// byte-identical exports — the acceptance test for the
/// logical-clock design (no wall time anywhere in the export path).
#[test]
fn exports_are_byte_identical_across_invocations() {
    let a = run_golden_workload();
    let b = run_golden_workload();
    assert_eq!(
        export::json_report(&a),
        export::json_report(&b),
        "JSON report differs across identical invocations"
    );
    assert_eq!(
        export::prometheus(&a.registry),
        export::prometheus(&b.registry),
        "Prometheus export differs across identical invocations"
    );
    assert_eq!(
        export::chrome_trace(&a.timeline),
        export::chrome_trace(&b.timeline),
        "Chrome trace differs across identical invocations"
    );
}

/// The bitvector engine resolves every side by its own traceback, so the
/// eager-traceback flag cannot change what it reports: the partition and
/// the `eager_traceback` span must agree on which sides resolved early.
#[test]
fn bitvector_report_ignores_the_eager_flag() {
    let run = |eager: bool| {
        run_golden_workload_with(|cfg| {
            cfg.extend_backend = ExtendBackend::Bitvector;
            cfg.flags.eager_traceback = eager;
        })
    };
    let (on, off) = (
        export::json_report(&run(true)),
        export::json_report(&run(false)),
    );
    for report in [&on, &off] {
        assert!(
            !report.contains("\"dur_us\": -"),
            "negative span in {report}"
        );
    }
    assert_eq!(on, off);
}

/// With eager traceback off nothing resolves in the inspector, and the
/// empty `eager_traceback` span exports as `0`, not `-0`.
#[test]
fn empty_eager_span_is_not_negative_zero() {
    let rec = run_golden_workload_with(|cfg| cfg.flags.eager_traceback = false);
    let report = export::json_report(&rec);
    assert!(
        report.contains(
            "{\"name\": \"eager_traceback\", \"cat\": \"gpu\", \"start_us\": 0, \"dur_us\": 0}"
        ),
        "{report}"
    );
}
