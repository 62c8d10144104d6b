//! One-pass evaluation of all within-genus benchmarks: emits Figure 7
//! (speedups), Table 2 (length bins), and Figure 8 (phase breakdown)
//! from a single `evaluate_pair` run per benchmark.
//!
//! * **Figure 7** — speedup over sequential LASTZ, seven bars per
//!   benchmark as in the paper: the Feng-et-al GPU baseline on
//!   Pascal/Volta/Ampere (slowdowns), the 32-process multicore
//!   configuration (~20x), and FastZ on Pascal/Volta/Ampere
//!   (~43x/93x/111x paper means).
//! * **Table 2** — every seed classified by its optimal-alignment
//!   extent: eager traceback (≤16 bp) or load-balancing bins 1-4
//!   (≤512/2048/8192/32768). The paper's row shape: 75-80 % eager, most
//!   of the rest in bin 1, thin decreasing bins 2-4.
//! * **Figure 8** — FastZ's modeled time on Ampere attributed to
//!   *inspector*, *executor* and *other* (host prep, transfers,
//!   binning): inspector ≈ two-thirds (up to 79 %), executor ≈ 10 %.
//!
//! `--verbose` adds a per-pair line of sequential-model and simulation
//! costs on standard error.

use fastz_bench::table::{mean, speedup};
use fastz_bench::{evaluate_pair, HarnessOpts, PairEval, PairWorkload, Table};
use fastz_genome::{within_genus_pairs, Scoring};

fn main() {
    let opts = HarnessOpts::from_env();
    let scoring = Scoring::bench_scaled();

    let mut evals: Vec<PairEval> = Vec::new();
    for pair in within_genus_pairs() {
        if !opts.selects(pair.label) {
            continue;
        }
        eprintln!("evaluating {} ...", pair.label);
        let wl = PairWorkload::build(&pair, &opts);
        let eval = evaluate_pair(&wl, &scoring);
        if opts.verbose {
            let b = &eval.fastz.bin_counts;
            eprintln!(
                "{}: seq model {:.3}s (measured Rust engine {:.3}s, {} cells), \
                 FastZ Ampere modeled {:.5}s, host sim {:.1}s; {} overflow, {} alignments",
                eval.label,
                eval.seq_model_s,
                eval.seq_wall_s,
                eval.seq_cells,
                eval.fastz_s[2],
                eval.fastz.host_wall.as_secs_f64(),
                b.overflow,
                eval.fastz.alignments.len()
            );
        }
        evals.push(eval);
    }
    if evals.is_empty() {
        eprintln!("no pairs selected");
        return;
    }

    println!(
        "Figure 7: speedup over sequential LASTZ (scale 1/{}, ≤{} seeds/pair)\n",
        opts.scale.divisor, opts.max_anchors
    );
    let mut t = Table::new(&[
        "benchmark",
        "base-Pas",
        "base-Vol",
        "base-Amp",
        "multicore32",
        "FastZ-Pas",
        "FastZ-Vol",
        "FastZ-Amp",
    ]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 7];
    for e in &evals {
        let vals = [
            e.baseline_speedup(0),
            e.baseline_speedup(1),
            e.baseline_speedup(2),
            e.multicore_speedup(),
            e.fastz_speedup(0),
            e.fastz_speedup(1),
            e.fastz_speedup(2),
        ];
        for (c, v) in vals.iter().enumerate() {
            cols[c].push(*v);
        }
        let mut row = vec![e.label.clone()];
        row.extend(vals.iter().map(|v| speedup(*v)));
        t.row(row);
    }
    let mut mean_row = vec!["MEAN".to_string()];
    mean_row.extend(cols.iter().map(|c| speedup(mean(c))));
    t.row(mean_row);
    t.print();
    println!(
        "\npaper means: GPU baseline 0.57-0.82x (18-43% slowdowns), multicore 20x,\n\
         FastZ 43x (Pascal), 93x (Volta), 111x (Ampere).\n"
    );

    println!("Table 2: alignment length distribution\n");
    let mut t = Table::new(&[
        "benchmark",
        "seeds",
        "eager-tb",
        "bin1",
        "bin2",
        "bin3",
        "bin4",
        "eager%",
    ]);
    for e in &evals {
        let b = &e.fastz.bin_counts;
        t.row(vec![
            e.label.clone(),
            b.total().to_string(),
            b.eager.to_string(),
            b.bins[0].to_string(),
            b.bins[1].to_string(),
            b.bins[2].to_string(),
            b.bins[3].to_string(),
            format!("{:.1}%", 100.0 * b.eager_fraction()),
        ]);
    }
    t.print();
    println!(
        "\npaper (per 1M seeds): eager 757k-820k (75-80%), bin1 180k-241k,\n\
         bin2 13-1225, bin3 1-208, bin4 0-25, ordered by decreasing bin4.\n"
    );

    println!("Figure 8: execution-time breakdown on Ampere\n");
    let mut t = Table::new(&[
        "benchmark",
        "total (ms)",
        "inspector",
        "executor",
        "other",
        "bin4",
    ]);
    for e in &evals {
        let tl = &e.fastz.timeline;
        t.row(vec![
            e.label.clone(),
            format!("{:.3}", tl.total() * 1e3),
            format!("{:.1}%", 100.0 * tl.fraction("inspector")),
            format!("{:.1}%", 100.0 * tl.fraction("executor")),
            format!("{:.1}%", 100.0 * tl.fraction("other")),
            e.fastz.bin_counts.bins[3].to_string(),
        ]);
    }
    t.print();
    println!(
        "\npaper: inspector ~2/3 (up to 79%), executor ~10%, other the rest;\n\
         lower bin-4 counts shrink the inspector/executor components."
    );
}
