//! Observability overhead harness.
//!
//! Demonstrates that the `MetricsSink` plumbing is zero-cost when
//! disabled: `run_fastz_observed` with [`NoObs`] must be within noise
//! of the pre-observability `run_fastz` entry point (they monomorphize
//! to the same machine code; the acceptance bar is < 1 % host-side
//! overhead on the Figure 2 workload). The [`Recorder`] row is
//! informational — it is the price of actually collecting metrics and
//! spans, and is *not* gated.
//!
//! Three configurations over the same seeded workload:
//!
//! * `baseline` — `run_fastz` (the plain entry point);
//! * `noobs`    — `run_fastz_observed` with the `NoObs` sink (gated);
//! * `recorder` — `run_fastz_observed` with a full `Recorder`
//!   (registry + timeline + per-bin span attribution).

use fastz_bench::{HarnessOpts, PairWorkload, Table};
use fastz_core::{run_fastz, run_fastz_observed, FastZConfig, ResilienceConfig};
use fastz_genome::{within_genus_pairs, Scoring};
use fastz_gpu_sim::DeviceSpec;
use fastz_obs::{NoObs, Recorder};
use std::time::Duration;

const REPS: usize = 5;
const GATE: f64 = 0.01;

fn main() {
    let opts = HarnessOpts::from_env();
    let dev = DeviceSpec::rtx3080_ampere();
    let pair = within_genus_pairs()
        .into_iter()
        .find(|p| opts.selects(p.label))
        .expect("no pair selected");
    println!(
        "Observability overhead on {} (scale 1/{})\n",
        pair.label, opts.scale.divisor
    );
    let wl = PairWorkload::build(&pair, &opts);
    let cfg = FastZConfig::new(Scoring::bench_scaled(), dev);
    let rcfg = ResilienceConfig::disabled();
    println!(
        "workload: {} anchors over {} + {} bp\n",
        wl.anchors.len(),
        wl.target.len(),
        wl.query.len()
    );

    // One untimed warm-up so the first measured configuration doesn't
    // absorb cache/allocator cold-start cost.
    run_fastz(&wl.target, &wl.query, &wl.anchors, wl.seed_span, &cfg);

    // Best-of-N host wall time per configuration (min damps scheduler
    // noise); modeled time must be identical across all three since the
    // sink never feeds back into the timing model. The configurations
    // are interleaved within each round, in alternating order, so host
    // drift over the run lands on all of them alike instead of reading
    // as overhead of whichever ran later.
    let names = ["baseline", "noobs", "recorder"];
    let mut best_host = [Duration::MAX; 3];
    let mut modeled = [0.0; 3];
    let mut metrics = [0; 3];
    for rep in 0..REPS {
        let mut order = [0, 1, 2];
        if rep % 2 == 1 {
            order.reverse();
        }
        for k in order {
            let report = match names[k] {
                "baseline" => run_fastz(&wl.target, &wl.query, &wl.anchors, wl.seed_span, &cfg),
                "noobs" => run_fastz_observed(
                    &wl.target,
                    &wl.query,
                    &wl.anchors,
                    wl.seed_span,
                    &cfg,
                    &rcfg,
                    &mut NoObs,
                ),
                _ => {
                    let mut rec = Recorder::new();
                    let report = run_fastz_observed(
                        &wl.target,
                        &wl.query,
                        &wl.anchors,
                        wl.seed_span,
                        &cfg,
                        &rcfg,
                        &mut rec,
                    );
                    metrics[k] = rec.registry.len();
                    report
                }
            };
            best_host[k] = best_host[k].min(report.host_wall);
            modeled[k] = report.modeled_time_s;
        }
    }
    let rows: Vec<(&str, f64, Duration, usize)> = (0..names.len())
        .map(|k| (names[k], modeled[k], best_host[k], metrics[k]))
        .collect();

    let baseline_modeled = rows[0].1;
    let baseline_host = rows[0].2;
    let mut table = Table::new(&["config", "modeled s", "host s", "host ovh", "metrics"]);
    let mut noobs_overhead = f64::NAN;
    for (name, modeled, host, metrics) in &rows {
        let host_overhead = host.as_secs_f64() / baseline_host.as_secs_f64() - 1.0;
        if *name == "noobs" {
            noobs_overhead = host_overhead;
            assert!(
                (*modeled - baseline_modeled).abs() < 1e-12,
                "NoObs changed the modeled time: {modeled} vs {baseline_modeled}"
            );
        }
        table.row(vec![
            name.to_string(),
            format!("{modeled:.5}"),
            format!("{:.3}", host.as_secs_f64()),
            format!("{:+.2}%", host_overhead * 100.0),
            if *metrics == 0 {
                "-".to_string()
            } else {
                metrics.to_string()
            },
        ]);
    }
    println!("{}", table.render());
    let pass = noobs_overhead < GATE;
    println!(
        "\nNoObs overhead: {:+.3}% (acceptance < {:.0}%): {}",
        noobs_overhead * 100.0,
        GATE * 100.0,
        if pass { "PASS" } else { "FAIL" }
    );
    if !pass {
        std::process::exit(1);
    }
}
