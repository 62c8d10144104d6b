//! Sanitizer overhead harness.
//!
//! Demonstrates the sanitizer's NoObs-style cost contract. When
//! `FastZConfig::sanitize` is off (the default) the scratchpads carry
//! no shadow state and every hook is a single null check — the
//! acceptance bar is < 1 % host-side overhead against the plain
//! `run_fastz` baseline on the Figure 2 workload. When it is on, the
//! run pays for real shadow bookkeeping (informational, not gated) but
//! must stay a pure observer: bit-identical modeled time, identical
//! alignments, and a clean report.
//!
//! Three configurations over the same seeded workload:
//!
//! * `baseline`     — `run_fastz` with sanitize off (the default);
//! * `sanitize-off` — the same entry point, config spelled explicitly
//!   (gated: the flag itself must cost nothing when false);
//! * `sanitize-on`  — full shadow-memory sanitizer (informational).

use fastz_bench::{HarnessOpts, PairWorkload, Table};
use fastz_core::{run_fastz, FastZConfig};
use fastz_genome::{within_genus_pairs, Scoring};
use fastz_gpu_sim::DeviceSpec;
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
        "Sanitizer overhead on {} (scale 1/{})\n",
        pair.label, opts.scale.divisor
    );
    let wl = PairWorkload::build(&pair, &opts);
    let cfg = FastZConfig::new(Scoring::bench_scaled(), dev);
    let mut cfg_on = cfg.clone();
    cfg_on.sanitize = true;
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
    // noise); modeled time must be bit-identical across all three since
    // the sanitizer never feeds back into the timing model. The
    // configurations are interleaved within each round, in alternating
    // order, so host drift over the run lands on all of them alike
    // instead of reading as overhead of whichever ran later.
    let names = ["baseline", "sanitize-off", "sanitize-on"];
    let mut best_host = [Duration::MAX; 3];
    let mut modeled = [0.0; 3];
    let mut findings = [0; 3];
    let mut baseline_alignments = None;
    for rep in 0..REPS {
        let mut order = [0, 1, 2];
        if rep % 2 == 1 {
            order.reverse();
        }
        for k in order {
            let name = names[k];
            let run_cfg = if name == "sanitize-on" { &cfg_on } else { &cfg };
            let report = run_fastz(&wl.target, &wl.query, &wl.anchors, wl.seed_span, run_cfg);
            best_host[k] = best_host[k].min(report.host_wall);
            modeled[k] = report.modeled_time_s;
            match (name, &report.sanitize) {
                ("sanitize-on", Some(srep)) => {
                    findings[k] = srep.total_findings();
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
            match &baseline_alignments {
                None => baseline_alignments = Some(report.alignments),
                Some(base) => assert_eq!(base, &report.alignments, "{name} changed the alignments"),
            }
        }
    }
    let rows: Vec<(&str, f64, Duration, u64)> = (0..names.len())
        .map(|k| (names[k], modeled[k], best_host[k], findings[k]))
        .collect();

    let baseline_modeled = rows[0].1;
    let baseline_host = rows[0].2;
    let mut table = Table::new(&["config", "modeled s", "host s", "host ovh", "findings"]);
    let mut off_overhead = f64::NAN;
    for (name, modeled, host, findings) in &rows {
        let host_overhead = host.as_secs_f64() / baseline_host.as_secs_f64() - 1.0;
        if *name == "sanitize-off" {
            off_overhead = host_overhead;
        }
        assert!(
            (*modeled - baseline_modeled).abs() < 1e-12,
            "{name} changed the modeled time: {modeled} vs {baseline_modeled}"
        );
        table.row(vec![
            name.to_string(),
            format!("{modeled:.5}"),
            format!("{:.3}", host.as_secs_f64()),
            format!("{:+.2}%", host_overhead * 100.0),
            if *name == "sanitize-on" {
                findings.to_string()
            } else {
                "-".to_string()
            },
        ]);
    }
    println!("{}", table.render());
    let pass = off_overhead < GATE;
    println!(
        "\nsanitize-off overhead: {:+.3}% (acceptance < {:.0}%): {}",
        off_overhead * 100.0,
        GATE * 100.0,
        if pass { "PASS" } else { "FAIL" }
    );
    if !pass {
        std::process::exit(1);
    }
}
