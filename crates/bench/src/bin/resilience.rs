//! Resilience overhead harness.
//!
//! Measures what the resilient dispatcher costs when nothing goes wrong
//! — the acceptance bar is < 2 % fault-free overhead on a Figure 2
//! workload — and what a standard fault drill costs when everything
//! does. Four configurations run over the same seed workload:
//!
//! * `plain`      — `run_fastz` (the fault-free fast path);
//! * `resilient`  — `run_fastz_observed` with resilience disabled
//!   (every probe short-circuited; must be modeled-time identical and
//!   within noise on host wall time);
//! * `checkpoint` — resilience disabled but checkpointing enabled
//!   (fingerprint + per-bin persistence cost);
//! * `drill`      — the seeded drill plan (hangs, bit flips, stalls,
//!   shmem pressure) with full recovery; reports the modeled recovery
//!   overhead and the fault counts.

use fastz_bench::{HarnessOpts, PairWorkload, Table};
use fastz_core::{run_fastz, run_fastz_observed, FastZConfig, ResilienceConfig};
use fastz_genome::{within_genus_pairs, Scoring};
use fastz_gpu_sim::{DeviceSpec, FaultPlan};
use fastz_obs::NoObs;
use std::time::Duration;

const DRILL_SEED: u64 = 7;
const REPS: usize = 3;

fn main() {
    let opts = HarnessOpts::from_env();
    let dev = DeviceSpec::rtx3080_ampere();
    let pair = within_genus_pairs()
        .into_iter()
        .find(|p| opts.selects(p.label))
        .expect("no pair selected");
    println!(
        "Resilience overhead on {} (scale 1/{}, drill seed {DRILL_SEED})\n",
        pair.label, opts.scale.divisor
    );
    let wl = PairWorkload::build(&pair, &opts);
    let cfg = FastZConfig::new(Scoring::bench_scaled(), dev);
    println!(
        "workload: {} anchors over {} + {} bp\n",
        wl.anchors.len(),
        wl.target.len(),
        wl.query.len()
    );

    let ckpt_path = std::env::temp_dir().join("fastz-resilience-bench.ckpt");
    let _ = std::fs::remove_file(&ckpt_path);
    let checkpoint_cfg = ResilienceConfig {
        checkpoint: Some(ckpt_path.clone()),
        ..ResilienceConfig::disabled()
    };
    let drill_cfg = ResilienceConfig::with_plan(FaultPlan::from_seed(DRILL_SEED));

    // Best-of-N host wall time per configuration (the functional
    // simulation dominates; min damps scheduler noise).
    let mut rows: Vec<(&str, f64, Duration, u64, u64)> = Vec::new();
    for (name, rcfg) in [
        ("plain", None),
        ("resilient", Some(&ResilienceConfig::disabled())),
        ("checkpoint", Some(&checkpoint_cfg)),
        ("drill", Some(&drill_cfg)),
    ] {
        let mut best_host = Duration::MAX;
        let mut modeled = 0.0;
        let mut faults = 0;
        let mut retries = 0;
        for _ in 0..REPS {
            // The checkpoint config must pay the full write cost each
            // rep, not resume from the previous rep.
            if name == "checkpoint" {
                let _ = std::fs::remove_file(&ckpt_path);
            }
            let report = match rcfg {
                None => run_fastz(&wl.target, &wl.query, &wl.anchors, wl.seed_span, &cfg),
                Some(r) => run_fastz_observed(
                    &wl.target,
                    &wl.query,
                    &wl.anchors,
                    wl.seed_span,
                    &cfg,
                    r,
                    &mut NoObs,
                ),
            };
            best_host = best_host.min(report.host_wall);
            modeled = report.modeled_time_s;
            faults = report.resilience.injected.total();
            retries = report.resilience.retries;
        }
        rows.push((name, modeled, best_host, faults, retries));
    }
    let _ = std::fs::remove_file(&ckpt_path);

    let baseline_modeled = rows[0].1;
    let baseline_host = rows[0].2;
    let mut table = Table::new(&[
        "config",
        "modeled s",
        "host s",
        "modeled ovh",
        "host ovh",
        "faults",
        "retries",
    ]);
    let mut resilient_overhead = f64::NAN;
    for (name, modeled, host, faults, retries) in &rows {
        let overhead = modeled / baseline_modeled - 1.0;
        let host_overhead = host.as_secs_f64() / baseline_host.as_secs_f64() - 1.0;
        if *name == "resilient" {
            // Modeled time must be bit-identical; the measurable cost is
            // host-side (and should vanish into noise).
            resilient_overhead = host_overhead.max(overhead);
        }
        table.row(vec![
            name.to_string(),
            format!("{modeled:.5}"),
            format!("{:.3}", host.as_secs_f64()),
            format!("{:+.2}%", overhead * 100.0),
            format!("{:+.2}%", host_overhead * 100.0),
            faults.to_string(),
            retries.to_string(),
        ]);
    }
    println!("{}", table.render());
    let pass = resilient_overhead < 0.02;
    println!(
        "\nfault-free resilience overhead: {:+.3}% (acceptance < 2%): {}",
        resilient_overhead * 100.0,
        if pass { "PASS" } else { "FAIL" }
    );
    if !pass {
        std::process::exit(1);
    }
}
