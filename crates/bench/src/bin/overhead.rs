//! Zero-cost gate for the pipeline's optional layers: observability,
//! resilience and the sanitizer.
//!
//! The gated arms are the same code. `run_fastz` *is*
//! `run_fastz_observed` with `ResilienceConfig::disabled()` and the
//! [`NoObs`] sink, and the sanitizer is off in the shared config. The
//! gate (`off` within 1% of `plain`, best-of-N host wall time) therefore
//! proves only that the plain entry point adds no wrapper cost; on a
//! shared 2-vCPU host its 1% bound sits inside the run-to-run spread of
//! identical code. The other arms show what each layer costs when it is
//! on; they are not gated.
//!
//! Six arms over one seeded Figure 2 workload:
//!
//! * `plain`       — `run_fastz`;
//! * `off`         — `run_fastz_observed` with resilience disabled and
//!   `NoObs` (gated against `plain`);
//! * `recorder`    — the same with a full [`Recorder`] (registry,
//!   timeline, per-bin span attribution);
//! * `sanitize-on` — `run_fastz` with the shadow-memory sanitizer, which
//!   must report clean and observe shared-memory traffic;
//! * `checkpoint`  — resilience disabled but checkpointing to a fresh
//!   file every run (fingerprint + per-bin persistence cost);
//! * `drill`       — the seeded fault drill plan (hangs, bit flips,
//!   stalls, shmem pressure) with full recovery.
//!
//! Every arm but `drill` must return bit-identical modeled time and
//! identical alignments; only `sanitize-on` may carry a sanitizer report.

use std::cell::Cell;

use fastz_bench::gate::{best_of, within, Arm};
use fastz_bench::{HarnessOpts, PairWorkload, Table};
use fastz_core::{run_fastz, run_fastz_observed, FastZConfig, FastZReport, ResilienceConfig};
use fastz_genome::{within_genus_pairs, Scoring};
use fastz_gpu_sim::{DeviceSpec, FaultPlan};
use fastz_obs::{NoObs, Recorder};

const REPS: usize = 5;
const GATE: f64 = 0.01;
const DRILL_SEED: u64 = 7;
const ARMS: [&str; 6] = [
    "plain",
    "off",
    "recorder",
    "sanitize-on",
    "checkpoint",
    "drill",
];

fn main() {
    let opts = HarnessOpts::from_env();
    let dev = DeviceSpec::rtx3080_ampere();
    let pair = within_genus_pairs()
        .into_iter()
        .find(|p| opts.selects(p.label))
        .expect("no pair selected");
    println!(
        "Zero-cost overhead on {} (scale 1/{}, drill seed {DRILL_SEED})\n",
        pair.label, opts.scale.divisor
    );
    let wl = PairWorkload::build(&pair, &opts);
    let cfg = FastZConfig::new(Scoring::bench_scaled(), dev);
    let cfg_on = FastZConfig {
        sanitize: true,
        ..cfg.clone()
    };
    println!(
        "workload: {} anchors over {} + {} bp\n",
        wl.anchors.len(),
        wl.target.len(),
        wl.query.len()
    );

    let disabled = ResilienceConfig::disabled();
    let ckpt_path = std::env::temp_dir().join("fastz-overhead-bench.ckpt");
    let _ = std::fs::remove_file(&ckpt_path);
    let checkpoint_cfg = ResilienceConfig {
        checkpoint: Some(ckpt_path.clone()),
        ..ResilienceConfig::disabled()
    };
    let drill_cfg = ResilienceConfig::with_plan(FaultPlan::from_seed(DRILL_SEED));
    let (t, q, a, span) = (&wl.target, &wl.query, &wl.anchors[..], wl.seed_span);
    let observed = |rcfg| run_fastz_observed(t, q, a, span, &cfg, rcfg, &mut NoObs);

    let metrics = Cell::new(0);
    let mut last: [Option<FastZReport>; 6] = Default::default();
    let walls = best_of(
        REPS,
        &mut [
            Arm::new(ARMS[0], || run_fastz(t, q, a, span, &cfg)),
            Arm::new(ARMS[1], || observed(&disabled)),
            Arm::new(ARMS[2], || {
                let mut rec = Recorder::new();
                let report = run_fastz_observed(t, q, a, span, &cfg, &disabled, &mut rec);
                metrics.set(rec.registry.len());
                report
            }),
            Arm::new(ARMS[3], || run_fastz(t, q, a, span, &cfg_on)),
            Arm::new(ARMS[4], || observed(&checkpoint_cfg)),
            Arm::new(ARMS[5], || observed(&drill_cfg)),
        ],
        |k, report| {
            let name = ARMS[k];
            if name == "checkpoint" {
                // Every checkpoint run pays the full write cost instead
                // of resuming from the previous one.
                let _ = std::fs::remove_file(&ckpt_path);
            }
            match (name, &report.sanitize) {
                ("sanitize-on", Some(srep)) => {
                    assert!(
                        srep.is_clean(),
                        "sanitizer found problems on the bench workload: {:?}",
                        srep.findings
                    );
                    assert!(srep.shared_writes > 0, "sanitizer observed no traffic");
                }
                ("sanitize-on", None) => panic!("sanitize: true produced no report"),
                (_, Some(_)) => panic!("{name} unexpectedly produced a sanitize report"),
                (_, None) => {}
            }
            if let (true, Some(plain)) = (name != "drill", &last[0]) {
                assert_eq!(
                    report.modeled_time_s.to_bits(),
                    plain.modeled_time_s.to_bits(),
                    "{name} changed the modeled time"
                );
                assert_eq!(
                    report.alignments, plain.alignments,
                    "{name} changed the alignments"
                );
            }
            last[k] = Some(report);
        },
    );
    let _ = std::fs::remove_file(&ckpt_path);

    let plain = last[0].as_ref().expect("plain ran").modeled_time_s;
    let mut table = Table::new(&[
        "config",
        "modeled s",
        "modeled ovh",
        "host s",
        "host ovh",
        "detail",
    ]);
    for (k, name) in ARMS.iter().enumerate() {
        let report = last[k].as_ref().expect("every arm ran");
        let detail = match *name {
            "recorder" => format!("{} metrics", metrics.get()),
            "sanitize-on" => {
                let findings = report.sanitize.as_ref().map_or(0, |s| s.total_findings());
                format!("{findings} findings")
            }
            "drill" => format!(
                "{} faults, {} retries",
                report.resilience.injected.total(),
                report.resilience.retries
            ),
            _ => "-".to_string(),
        };
        table.row(vec![
            name.to_string(),
            format!("{:.5}", report.modeled_time_s),
            format!("{:+.2}%", (report.modeled_time_s / plain - 1.0) * 100.0),
            format!("{:.3}", walls[k]),
            format!("{:+.2}%", (walls[k] / walls[0] - 1.0) * 100.0),
            detail,
        ]);
    }
    println!("{}", table.render());
    let pass = within(walls[1], walls[0], GATE);
    println!(
        "\noff vs plain overhead: {:+.3}% (acceptance <= {:.0}%): {}",
        (walls[1] / walls[0] - 1.0) * 100.0,
        GATE * 100.0,
        if pass { "PASS" } else { "FAIL" }
    );
    if !pass {
        std::process::exit(1);
    }
}
