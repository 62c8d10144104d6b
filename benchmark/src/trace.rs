//! The traced run: per-layer metrics, measured from outside the program
//! by timing calls into each layer's public functions, plus host-clock
//! spans around those calls.
//!
//! The pipeline's own timeline runs on the modeled GPU clock; every
//! duration here is host wall time. The two clocks meet only in the
//! `gpu-sim.host_per_modeled_*` ratios, which exist to compare them.

use crate::args::Options;
use crate::measure::{check_pass, repeat, serve_reference};
use crate::report::{ratio, Outcome};
use crate::run::{self, Served};
use crate::stats::{median, percentile, tail};
use crate::workload::{host_threads, Inputs, Spec, INDEX_SHARDS};
use crate::{check, heap};
use fastz_core::{
    bitvec_extend_in, classify, run_fastz, run_fastz_observed, warp_extend_in, BinClass,
    BitvecStats, ExtendBackend, FastZConfig, FastZReport, ResilienceConfig, WarpConfig, BIN_BOUNDS,
};
use fastz_genome::Sequence;
use fastz_gpu_sim::{SharedMem, WARP_SIZE};
use fastz_obs::Recorder;
use fastz_seed::{Anchor, IndexOrigin, SeedIndex, ShardedSeedIndex, Workload, WorkloadParams};
use std::fmt::Write as _;
use std::time::Instant;

/// Seconds `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Repetitions of each set-up step.
const SETUP_REPS: usize = 5;

/// One host-clock span.
struct Span {
    name: String,
    parent: &'static str,
    tid: usize,
    start_us: f64,
    dur_us: f64,
    request: Option<usize>,
}

/// Spans kept in memory and written out when the run ends.
struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    fn push(
        &mut self,
        name: &str,
        parent: &'static str,
        tid: usize,
        start: Instant,
        dur_s: f64,
    ) -> &mut Span {
        self.list.push(Span {
            name: name.to_string(),
            parent,
            tid,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: dur_s * 1e6,
            request: None,
        });
        self.list.last_mut().expect("just pushed")
    }

    /// Runs `f` inside a span; returns its result and seconds.
    fn time<T>(&mut self, name: &str, parent: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let (out, s) = timed(f);
        self.push(name, parent, 0, start, s);
        (out, s)
    }

    /// Runs a set-up step [`SETUP_REPS`] times, each inside a span;
    /// returns the last result and the median seconds. One set-up step
    /// takes milliseconds, too little for a single sample to mean much.
    fn time_setup<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> (T, f64) {
        let mut secs = Vec::with_capacity(SETUP_REPS);
        let mut out = None;
        for _ in 0..SETUP_REPS {
            let (o, s) = self.time(name, "workload", &mut f);
            secs.push(s);
            out = Some(o);
        }
        let median = median(&secs).expect("at least one repetition");
        (out.expect("at least one repetition"), median)
    }

    /// Chrome-trace JSON: one process (the workload), thread 0 for the
    /// layers and one thread per in-flight request lane, every span
    /// tagged with its parent.
    fn chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let _ = write!(
            out,
            "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
             \"args\": {{\"name\": \"{process} (host clock)\"}}}}"
        );
        for s in &self.list {
            let request = s
                .request
                .map(|r| format!(", \"request\": {r}"))
                .unwrap_or_default();
            let _ = write!(
                out,
                ",\n  {{\"name\": \"{}\", \"cat\": \"host\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"parent\": \"{}\"{request}}}}}",
                s.name, s.tid, s.start_us, s.dur_us, s.parent
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The pipeline's side geometry: the (target, query) slices one
/// extension problem of `anchor` sees, the left side reversed into `rev`.
fn side_slices<'a>(
    target: &'a Sequence,
    query: &'a Sequence,
    anchor: Anchor,
    span: usize,
    left: bool,
    max_extension: usize,
    rev: &'a mut (Vec<u8>, Vec<u8>),
) -> (&'a [u8], &'a [u8]) {
    let (tc, qc) = (target.codes(), query.codes());
    let (t0, q0) = (anchor.target_pos as usize, anchor.query_pos as usize);
    if left {
        rev.0.clear();
        rev.1.clear();
        rev.0
            .extend(tc[t0.saturating_sub(max_extension)..t0].iter().rev());
        rev.1
            .extend(qc[q0.saturating_sub(max_extension)..q0].iter().rev());
        (&rev.0, &rev.1)
    } else {
        let te = tc.len().min(t0 + span + max_extension);
        let qe = qc.len().min(q0 + span + max_extension);
        (&tc[t0 + span..te], &qc[q0 + span..qe])
    }
}

/// Executor bin slot of a problem, as the pipeline groups them: slot 0
/// holds eager-sized problems (eager traceback off), then the four
/// bins, then overflow.
fn slot(extent: usize) -> usize {
    match classify(extent) {
        BinClass::Eager => 0,
        BinClass::Bin(b) => b + 1,
        BinClass::Overflow => BIN_BOUNDS.len() + 1,
    }
}

/// Serial replay of every extension problem of one run.
#[derive(Default)]
struct Replay {
    inspector_s: f64,
    inspector_cells: u64,
    inspector_tasks_s: Vec<f64>,
    executor_s: f64,
    executor_cells: u64,
    executor_task_max_s: f64,
    /// Executor seconds per slot (see [`slot`]).
    slot_s: [f64; BIN_BOUNDS.len() + 2],
    bitvec_s: f64,
    bitvec_problems: u64,
    bitvec: BitvecStats,
}

/// Replays every problem of `anchors` serially through the engines'
/// public entry points, with the run's own configuration, timing each
/// call into its phase and bin.
fn replay(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    span: usize,
    cfg: &FastZConfig,
    spans: &mut Spans,
) -> Replay {
    let flags = cfg.flags;
    let width = cfg.strip_width.clamp(1, WARP_SIZE);
    let insp_cfg = WarpConfig::inspector(&flags)
        .with_strip_width(width)
        .with_backend(cfg.backend);
    let mut shared = SharedMem::for_device(&cfg.device);
    let mut rev = (Vec::new(), Vec::new());
    let mut tbm = Vec::new();
    let mut r = Replay::default();
    // Executor problems: (index, best_i, best_j, explored_rows, explored_cols).
    let mut unresolved = Vec::new();

    let start = Instant::now();
    for idx in 0..anchors.len() * 2 {
        let left = idx % 2 == 0;
        let (t, q) = side_slices(
            target,
            query,
            anchors[idx / 2],
            span,
            left,
            cfg.max_extension,
            &mut rev,
        );
        shared.clear();
        match cfg.extend_backend {
            ExtendBackend::YDrop => {
                let (ext, s) =
                    timed(|| warp_extend_in(t, q, &cfg.scoring, &insp_cfg, &mut shared, &mut tbm));
                r.inspector_s += s;
                r.inspector_cells += ext.counters.cells;
                r.inspector_tasks_s.push(s);
                let resolved =
                    flags.eager_traceback && (ext.ops.is_some() || ext.eager_ops.is_some());
                if !resolved {
                    unresolved.push((
                        idx,
                        ext.best_i,
                        ext.best_j,
                        ext.explored_rows,
                        ext.explored_cols,
                    ));
                }
            }
            ExtendBackend::Bitvector => {
                let (ext, s) = timed(|| bitvec_extend_in(t, q, &cfg.bitvec, &mut shared));
                r.bitvec_s += s;
                r.bitvec_problems += 1;
                r.inspector_cells += ext.counters.cells;
                r.bitvec.merge(&ext.stats);
            }
        }
    }
    spans.push(
        "core.replay.inspector",
        "core.replay",
        0,
        start,
        start.elapsed().as_secs_f64(),
    );

    // The executor runs bin by bin, as the pipeline does.
    unresolved.sort_by_key(|&(idx, bi, bj, _, _)| (slot(bi.max(bj)), idx));
    for group in unresolved.chunk_by(|a, b| slot(a.1.max(a.2)) == slot(b.1.max(b.2))) {
        let bin = slot(group[0].1.max(group[0].2));
        let start = Instant::now();
        for &(idx, best_i, best_j, rows, cols) in group {
            let left = idx % 2 == 0;
            let (t, q) = side_slices(
                target,
                query,
                anchors[idx / 2],
                span,
                left,
                cfg.max_extension,
                &mut rev,
            );
            let mut exec_cfg = WarpConfig::executor(&flags, best_i, best_j)
                .with_strip_width(width)
                .with_backend(cfg.backend);
            if !flags.executor_trimming {
                exec_cfg.max_rows = rows;
                exec_cfg.max_cols = cols;
            }
            shared.clear();
            let (ext, s) =
                timed(|| warp_extend_in(t, q, &cfg.scoring, &exec_cfg, &mut shared, &mut tbm));
            r.executor_s += s;
            r.executor_cells += ext.counters.cells;
            r.executor_task_max_s = r.executor_task_max_s.max(s);
            r.slot_s[bin] += s;
        }
        let name = match BIN_BOUNDS.get(bin.max(1) - 1) {
            Some(bound) => format!("core.replay.executor.bin{bound}"),
            None => "core.replay.executor.overflow".to_string(),
        };
        spans.push(
            &name,
            "core.replay",
            0,
            start,
            start.elapsed().as_secs_f64(),
        );
    }
    r
}

/// Sets the pipeline, engine and model metrics of one run.
fn pipeline_metrics(out: &mut Outcome, report: &FastZReport, run_s: f64, r: &Replay) {
    let st = &report.stats;
    let bins = &report.bin_counts;
    out.set("core.pipeline.run_s", run_s);
    out.set("core.pipeline.problems", st.problems as f64);
    out.set("core.pipeline.eager_resolved", st.eager_resolved as f64);
    out.set(
        "core.pipeline.eager_ratio",
        ratio(st.eager_resolved as f64, st.problems as f64),
    );
    out.set(
        "core.pipeline.executor_problems",
        st.executor_problems as f64,
    );
    out.set(
        "core.pipeline.skipped_seeds",
        report.resilience.skipped_seeds.len() as f64,
    );
    out.set("core.pipeline.seeds_eager", bins.eager as f64);
    for (name, n) in [
        "core.pipeline.seeds_bin512",
        "core.pipeline.seeds_bin2048",
        "core.pipeline.seeds_bin8192",
        "core.pipeline.seeds_bin32768",
    ]
    .into_iter()
    .zip(bins.bins)
    {
        out.set(name, n as f64);
    }
    out.set("core.pipeline.seeds_overflow", bins.overflow as f64);
    let serial_s = r.inspector_s + r.executor_s + r.bitvec_s;
    out.set(
        "core.pipeline.parallel_efficiency",
        ratio(serial_s, run_s * host_threads() as f64),
    );

    let warp_cells = if r.bitvec_problems > 0 {
        0
    } else {
        r.inspector_cells
    };
    out.set("core.warp_engine.inspector_s", r.inspector_s);
    out.set("core.warp_engine.inspector_cells", warp_cells as f64);
    out.set(
        "core.warp_engine.inspector_gcups",
        ratio(warp_cells as f64 / 1e9, r.inspector_s),
    );
    let p50 = median(&r.inspector_tasks_s).unwrap_or(0.0);
    let max = r.inspector_tasks_s.iter().copied().fold(0.0, f64::max);
    out.set("core.warp_engine.inspector_task_p50_us", p50 * 1e6);
    out.set("core.warp_engine.inspector_task_max_ms", max * 1e3);
    out.set("core.warp_engine.executor_s", r.executor_s);
    out.set("core.warp_engine.executor_cells", r.executor_cells as f64);
    out.set(
        "core.warp_engine.executor_gcups",
        ratio(r.executor_cells as f64 / 1e9, r.executor_s),
    );
    out.set(
        "core.warp_engine.executor_task_max_ms",
        r.executor_task_max_s * 1e3,
    );
    // Slot 0 (eager-sized, eager traceback off) runs the smallest bin's
    // kernel class.
    out.set(
        "core.warp_engine.executor_bin512_s",
        r.slot_s[0] + r.slot_s[1],
    );
    out.set("core.warp_engine.executor_bin2048_s", r.slot_s[2]);
    out.set("core.warp_engine.executor_bin8192_s", r.slot_s[3]);
    out.set("core.warp_engine.executor_bin32768_s", r.slot_s[4]);
    out.set("core.warp_engine.executor_overflow_s", r.slot_s[5]);

    out.set("core.bitvec.extend_s", r.bitvec_s);
    out.set("core.bitvec.problems", r.bitvec_problems as f64);
    out.set("core.bitvec.windows", r.bitvec.windows as f64);
    out.set("core.bitvec.sene_skips", r.bitvec.sene_skips as f64);
    out.set("core.bitvec.dent_discards", r.bitvec.dent_discards as f64);

    let modeled = |phase: &str| report.timeline.seconds(phase);
    out.set("gpu-sim.modeled_s", report.modeled_time_s);
    out.set("gpu-sim.inspector_s", modeled("inspector"));
    out.set("gpu-sim.executor_s", modeled("executor"));
    out.set("gpu-sim.other_s", modeled("other"));
    out.set(
        "gpu-sim.host_per_modeled_inspector",
        ratio(r.inspector_s + r.bitvec_s, modeled("inspector")),
    );
    out.set(
        "gpu-sim.host_per_modeled_executor",
        ratio(r.executor_s, modeled("executor")),
    );
}

/// Sets the service metrics from every pass's requests.
fn serve_metrics(out: &mut Outcome, passes: &[run::Pass]) {
    let served: Vec<&Served> = passes.iter().flat_map(|p| &p.served).collect();
    let count = |class: &str| {
        served
            .iter()
            .filter(|s| s.record.outcome.class() == class)
            .count() as f64
    };
    let latencies: Vec<f64> = served.iter().map(|s| s.latency_s).collect();
    let firsts: Vec<f64> = served.iter().map(|s| s.first_s).collect();
    let serving_s: f64 = passes.iter().map(|p| p.wall_s - p.setup_s).sum();
    let fills: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.report.bin_fills.iter().copied())
        .collect();
    let solo: f64 = passes.iter().map(|p| p.report.solo_exec_s).sum();
    let batched: f64 = passes.iter().map(|p| p.report.batched_exec_s).sum();
    out.set("serve.requests", served.len() as f64);
    out.set("serve.completed", count("completed"));
    out.set("serve.degraded", count("degraded"));
    out.set("serve.shed", count("shed-error"));
    out.set("serve.deadline_missed", count("deadline-error"));
    out.set(
        "serve.merged_launches",
        ratio(
            passes.iter().map(|p| p.report.merged_launches as f64).sum(),
            passes.len() as f64,
        ),
    );
    out.set(
        "serve.mean_bin_fill",
        ratio(fills.iter().sum(), fills.len() as f64),
    );
    out.set("serve.batching_gain", ratio(solo, batched));
    out.set(
        "serve.peak_depth",
        passes
            .iter()
            .map(|p| p.report.peak_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set(
        "serve.requests_per_s",
        ratio(served.len() as f64, serving_s),
    );
    let pct = |xs: &[f64], p| percentile(xs, p).map_or(0.0, |p| p.value);
    out.set("serve.latency_p50_s", pct(&latencies, 50));
    // The highest percentile with ten samples beyond it; zero when the
    // run served too few requests to show one.
    let tail = tail(&latencies, 10);
    out.set("serve.latency_tail_s", tail.map_or(0.0, |t| t.value));
    out.set(
        "serve.latency_tail_pct",
        tail.map_or(0.0, |t| f64::from(t.pct)),
    );
    out.set("serve.latency_samples", latencies.len() as f64);
    out.set("serve.first_chunk_p50_s", pct(&firsts, 50));
}

/// Runs the workload once per layer and returns the per-layer metrics.
pub fn per_layer(opts: &Options) -> Result<Outcome, String> {
    let spec: &Spec = opts.workload;
    let cfg = spec.config();
    let params = WorkloadParams::default();
    let inputs = Inputs::write(spec, opts.smoke, opts.seed)?;
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let root = Instant::now();

    // Set-up layers.
    let (pair, ingest_s) = spans.time_setup("genome.ingest", || run::ingest(&inputs));
    let (target, query) = pair?;
    out.set("genome.ingest_s", ingest_s);
    out.set(
        "genome.ingest_mib_per_s",
        ratio(inputs.fasta_bytes as f64 / heap::MIB, ingest_s),
    );
    let (index, build_s) = spans.time_setup("seed.index_build", || {
        SeedIndex::try_build(&target, params.shape.clone())
    });
    let index = index.map_err(|e| format!("seed index: {e}"))?;
    out.set("seed.index_build_s", build_s);
    out.set("seed.index_mib", index.heap_bytes() as f64 / heap::MIB);
    let (workload, anchor_s) = spans.time_setup("seed.anchor", || {
        Workload::build_with_index(&index, &query, &params)
    });
    out.set("seed.anchor_s", anchor_s);
    out.set("seed.raw_anchors", workload.raw_anchors as f64);
    out.set("seed.kept_anchors", workload.anchors.len() as f64);
    out.set(
        "seed.keep_ratio",
        ratio(workload.anchors.len() as f64, workload.raw_anchors as f64),
    );
    run::persist_index(&inputs, &target, &params)?;
    let (loaded, load_s) = spans.time_setup("seed.index_load", || {
        ShardedSeedIndex::load_or_build(
            &inputs.index_dir,
            &target,
            params.shape.clone(),
            INDEX_SHARDS,
        )
    });
    let (loaded, origin) = loaded.map_err(|e| format!("seed index: {e}"))?;
    if origin != IndexOrigin::LoadedFromDisk {
        out.fault("the persisted seed index was not reused");
    }
    let from_disk = Workload::build_with_index(&loaded, &query, &params);
    if from_disk.anchors != workload.anchors {
        out.fault("anchors from the loaded index differ from the in-memory anchors");
    }
    out.set("seed.index_load_s", load_s);
    drop((index, loaded, from_disk));

    // The pipeline, untraced and observed in alternation, after one
    // untimed run that warms caches and the allocator.
    let span = workload.shape.span();
    let anchors = &workload.anchors;
    let report = run_fastz(&target, &query, anchors, span, &cfg);
    let pairs = repeat(opts.seconds / 2.0, 1, || {
        let (plain, plain_s) = spans.time("core.pipeline.run", "workload", || {
            run_fastz(&target, &query, anchors, span, &cfg)
        });
        let mut rec = Recorder::new();
        let (observed, observed_s) = spans.time("obs.run_observed", "workload", || {
            run_fastz_observed(
                &target,
                &query,
                anchors,
                span,
                &cfg,
                &ResilienceConfig::disabled(),
                &mut rec,
            )
        });
        if [plain, observed]
            .iter()
            .any(|r| r.alignments != report.alignments)
        {
            out.fault("a repeated run produced different alignments");
        }
        Ok((plain_s, observed_s))
    })?;
    let (plain, observed): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
    let run_s = median(&plain).expect("at least one run");
    out.set(
        "obs.recorder_overhead_frac",
        median(&observed).expect("at least one run") / run_s - 1.0,
    );

    let replay_start = Instant::now();
    let r = replay(&target, &query, anchors, span, &cfg, &mut spans);
    spans.push(
        "core.replay",
        "workload",
        0,
        replay_start,
        replay_start.elapsed().as_secs_f64(),
    );
    let cells = (
        report.stats.inspector.total.cells,
        report.stats.executor.total.cells,
    );
    if (r.inspector_cells, r.executor_cells) != cells {
        out.fault(format!(
            "replayed cells ({}, {}) differ from the run's ({}, {})",
            r.inspector_cells, r.executor_cells, cells.0, cells.1
        ));
    }
    if r.bitvec != report.stats.bitvec {
        out.fault("replayed bitvector counters differ from the run's");
    }
    pipeline_metrics(&mut out, &report, run_s, &r);

    // Alignment output.
    let alignments = &report.alignments;
    let (written, format_s) = spans.time("align.format", "workload", || {
        run::write_output(&inputs.out, alignments, &target, &query)
    });
    written?;
    let (bad, fault) = check::alignments(alignments, &target, &query, &cfg.scoring, spec.backend);
    if let Some(msg) = fault {
        out.fault(msg);
    }
    let (recovered, seeded) = check::truth_recall(&inputs.truth, anchors, alignments);
    out.set("align.alignments", alignments.len() as f64);
    out.set("align.format_s", format_s);
    out.set("align.check_failures", bad as f64);
    out.set("align.truth_recall", ratio(recovered as f64, seeded as f64));
    out.set("align.truth_segments", seeded as f64);
    out.attempted += report.stats.seeds as u64;
    out.failed += (report.resilience.skipped_seeds.len() + bad) as u64;

    // The service, driven by its closed-loop client.
    let mut passes = Vec::new();
    if spec.serve {
        let reference = serve_reference(&inputs, &cfg, &params)?;
        passes = repeat(opts.seconds / 2.0, 1, || {
            let pass_start = Instant::now();
            let pass = run::pass(&inputs, &cfg, &params)?;
            check_pass(&pass, &reference, &cfg, spec, &mut out);
            spans.push("serve.pass", "workload", 0, pass_start, pass.wall_s);
            spans.push("serve.setup", "serve.pass", 0, pass_start, pass.setup_s);
            for s in &pass.served {
                let sent = pass_start + std::time::Duration::from_secs_f64(s.sent_s);
                spans
                    .push("serve.request", "serve.pass", s.lane + 1, sent, s.latency_s)
                    .request = Some(s.index);
            }
            Ok(pass)
        })?;
    }
    serve_metrics(&mut out, &passes);

    spans.push("workload", "", 0, root, root.elapsed().as_secs_f64());
    if let Some(path) = &opts.spans {
        std::fs::write(path, spans.chrome_json(spec.name))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}
