//! `fastz` — gapped whole-genome alignment from the command line.
//!
//! A drop-in-style front end over the FastZ pipeline: seeds two FASTA
//! sequences, gapped-extends every filtered seed, and prints alignments.
//! The target file must hold one record; each record of the query file
//! is aligned in turn against the one seed index built (or loaded) for
//! the target, on both strands with `--both-strands`.
//!
//! ```text
//! fastz <target.fa> <query.fa> [options]
//!
//! options:
//!   --engine fastz|lastz|multicore   extension engine (default fastz)
//!   --extend ydrop|bitvector         extension algorithm for the fastz
//!                                    engine: the paper's affine y-drop, or
//!                                    the GenASM/Scrooge-style bitvector
//!                                    edit-distance backend (default ydrop)
//!   --device pascal|volta|ampere     GPU to model (default ampere)
//!   --threads N                      multicore workers (default 16)
//!   --sim-threads N                  host threads for the FastZ functional
//!                                    simulation (default: all cores); wall
//!                                    clock only, never the results or the
//!                                    modeled GPU time
//!   --seed exact19|12of19            seed shape (default 12of19)
//!   --index-dir DIR                  persist the sharded seed index under
//!                                    DIR: the first run builds and saves it,
//!                                    later runs validate (checksum, version,
//!                                    genome identity) and load instead of
//!                                    rebuilding; anchors are bit-identical
//!                                    either way
//!   --index-shards N                 target-interval shards for the seed
//!                                    index (default 4; implies the sharded
//!                                    index path even without --index-dir)
//!   --max-anchors N                  seed budget (default unlimited)
//!   --scoring lastz|bench            scoring preset (default lastz)
//!   --scores FILE                    LASTZ score file (overrides matrix/gaps)
//!   --demo PAIR                      generate a synthetic catalog pair
//!                                    (e.g. C1_1,1) instead of reading files
//!   --both-strands                   also align the reverse complement,
//!                                    seeded through the same index and run
//!                                    with the same engine and flags
//!   --format tsv|general|maf         output format (default tsv)
//!   --emit-fasta PREFIX              write the (demo) inputs to
//!                                    PREFIX.target.fa / PREFIX.query.fa and exit
//!   --serve N                        route the workload through the alignment
//!                                    service: split the seeds into N requests,
//!                                    serve them co-batched through the
//!                                    admission queue, and print the deduped
//!                                    union (fastz engine only; --checkpoint
//!                                    and --both-strands do not apply)
//!   --fault-plan SEED                inject a seeded fault schedule (hangs,
//!                                    bit flips, stalls, shmem pressure) and
//!                                    recover through the resilient dispatcher;
//!                                    with --serve this is the service chaos
//!                                    plan, re-keyed per request
//!   --checkpoint FILE                checkpoint pipeline progress to FILE and
//!                                    resume from it when present
//!   --metrics-out FILE               export pipeline metrics to FILE
//!                                    (Prometheus text when FILE ends in
//!                                    .prom, JSON report otherwise)
//!   --trace-out FILE                 export the phase span timeline to FILE
//!                                    as Chrome-trace JSON (chrome://tracing)
//!                                    (--checkpoint, --metrics-out and
//!                                    --trace-out each describe one pipeline
//!                                    run: they are refused when the query
//!                                    has several records or with
//!                                    --both-strands)
//!   --sanitize                       run the shared-memory shadow sanitizer
//!                                    (initcheck, racecheck, bank conflicts,
//!                                    warp lints); any finding fails the run
//!   --sanitize-out FILE              write the sanitizer report to FILE as
//!                                    JSON (implies --sanitize)
//!   --stats                          print pipeline statistics
//! ```
//!
//! Metric and trace exports are deterministic: a fixed input produces
//! byte-identical files on every invocation (the timeline runs on the
//! modeled clock, never wall time).

use fastz_align::{
    dedupe_alignments, multicore_gapped, sequential_gapped, write_general, write_maf, Alignment,
    DriverConfig,
};
use fastz_core::{run_fastz_observed, ExtendBackend, FastZConfig, ResilienceConfig};
use fastz_genome::{find_pair, generate_pair, read_fasta_file, Scale, Scoring, Sequence};
use fastz_gpu_sim::{DeviceSpec, FaultPlan};
use fastz_obs::{export, NoObs, Recorder};
use fastz_seed::{
    Anchor, AnchorSource, IndexOrigin, PersistError, SeedIndex, SeedShape, ShardedSeedIndex,
    Workload, WorkloadParams,
};
use fastz_serve::{AlignRequest, AlignService, ServeConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    target: Option<String>,
    query: Option<String>,
    engine: String,
    extend: String,
    device: String,
    threads: usize,
    sim_threads: usize,
    seed: String,
    index_dir: Option<String>,
    index_shards: usize,
    max_anchors: usize,
    scoring: String,
    demo: Option<String>,
    scores: Option<String>,
    stats: bool,
    both_strands: bool,
    format: String,
    emit_fasta: Option<String>,
    serve: usize,
    fault_plan: Option<u64>,
    checkpoint: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    sanitize: bool,
    sanitize_out: Option<String>,
}

impl Options {
    fn usage() -> &'static str {
        "usage: fastz <target.fa> <query.fa> [--engine fastz|lastz|multicore] \
         [--extend ydrop|bitvector] \
         [--device pascal|volta|ampere] [--threads N] [--sim-threads N] \
         [--seed exact19|12of19] [--index-dir DIR] [--index-shards N] \
         [--max-anchors N] [--scoring lastz|bench] [--scores FILE] [--demo PAIR] \
         [--both-strands] [--format tsv|general|maf] [--emit-fasta PREFIX] \
         [--serve N] [--fault-plan SEED] [--checkpoint FILE] \
         [--metrics-out FILE] \
         [--trace-out FILE] [--sanitize] [--sanitize-out FILE] [--stats]"
    }

    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            target: None,
            query: None,
            engine: "fastz".into(),
            extend: "ydrop".into(),
            device: "ampere".into(),
            threads: 16,
            sim_threads: 0,
            seed: "12of19".into(),
            index_dir: None,
            index_shards: 0,
            max_anchors: 0,
            scoring: "lastz".into(),
            demo: None,
            scores: None,
            stats: false,
            both_strands: false,
            format: "tsv".into(),
            emit_fasta: None,
            serve: 0,
            fault_plan: None,
            checkpoint: None,
            metrics_out: None,
            trace_out: None,
            sanitize: false,
            sanitize_out: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut grab = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--engine" => opts.engine = grab("--engine")?,
                "--extend" => opts.extend = grab("--extend")?,
                "--device" => opts.device = grab("--device")?,
                "--threads" => {
                    opts.threads = grab("--threads")?
                        .parse()
                        .map_err(|_| "--threads must be a number".to_string())?
                }
                "--sim-threads" => {
                    opts.sim_threads = grab("--sim-threads")?
                        .parse()
                        .map_err(|_| "--sim-threads must be a number".to_string())?
                }
                "--seed" => opts.seed = grab("--seed")?,
                "--index-dir" => opts.index_dir = Some(grab("--index-dir")?),
                "--index-shards" => {
                    let n: usize = grab("--index-shards")?
                        .parse()
                        .map_err(|_| "--index-shards must be a shard count".to_string())?;
                    if n == 0 {
                        return Err("--index-shards must be at least 1".to_string());
                    }
                    opts.index_shards = n;
                }
                "--max-anchors" => {
                    opts.max_anchors = grab("--max-anchors")?
                        .parse()
                        .map_err(|_| "--max-anchors must be a number".to_string())?
                }
                "--scoring" => opts.scoring = grab("--scoring")?,
                "--demo" => opts.demo = Some(grab("--demo")?),
                "--scores" => opts.scores = Some(grab("--scores")?),
                "--stats" => opts.stats = true,
                "--both-strands" => opts.both_strands = true,
                "--format" => opts.format = grab("--format")?,
                "--emit-fasta" => opts.emit_fasta = Some(grab("--emit-fasta")?),
                "--serve" => {
                    opts.serve = grab("--serve")?
                        .parse()
                        .map_err(|_| "--serve must be a request count".to_string())?
                }
                "--fault-plan" => {
                    opts.fault_plan = Some(
                        grab("--fault-plan")?
                            .parse()
                            .map_err(|_| "--fault-plan must be a seed number".to_string())?,
                    )
                }
                "--checkpoint" => opts.checkpoint = Some(grab("--checkpoint")?),
                "--metrics-out" => opts.metrics_out = Some(grab("--metrics-out")?),
                "--trace-out" => opts.trace_out = Some(grab("--trace-out")?),
                "--sanitize" => opts.sanitize = true,
                "--sanitize-out" => opts.sanitize_out = Some(grab("--sanitize-out")?),
                "--help" | "-h" => return Err(Options::usage().to_string()),
                other if other.starts_with('-') => {
                    return Err(format!("unknown option {other}\n{}", Options::usage()))
                }
                path => {
                    if opts.target.is_none() {
                        opts.target = Some(path.to_string());
                    } else if opts.query.is_none() {
                        opts.query = Some(path.to_string());
                    } else {
                        return Err(format!("unexpected argument {path}"));
                    }
                }
            }
        }
        Ok(opts)
    }
}

/// Why the input FASTA files could not be used.
#[derive(Debug)]
enum InputError {
    /// The file could not be read or parsed.
    Read { path: String, detail: String },
    /// The file holds no record.
    NoRecords { path: String },
    /// The target file holds more than one record: the seed index
    /// covers one target sequence.
    MultiRecordTarget { path: String, records: usize },
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputError::Read { path, detail } => write!(f, "{path}: {detail}"),
            InputError::NoRecords { path } => write!(f, "{path}: no records"),
            InputError::MultiRecordTarget { path, records } => write!(
                f,
                "{path}: the target must be one FASTA record, found {records}"
            ),
        }
    }
}

/// The target sequence and every query record, in file order.
fn load_inputs(opts: &Options) -> Result<(Sequence, Vec<Sequence>), String> {
    if let Some(label) = &opts.demo {
        let pair = find_pair(label).ok_or_else(|| format!("unknown catalog pair {label}"))?;
        let generated = generate_pair(&pair.pair_params(Scale::BENCH));
        return Ok((generated.target, vec![generated.query]));
    }
    let (Some(tp), Some(qp)) = (&opts.target, &opts.query) else {
        return Err(Options::usage().to_string());
    };
    let read = |path: &String| {
        let records = read_fasta_file(path).map_err(|e| InputError::Read {
            path: path.clone(),
            detail: e.to_string(),
        })?;
        if records.is_empty() {
            return Err(InputError::NoRecords { path: path.clone() });
        }
        Ok(records)
    };
    let mut targets = read(tp).map_err(|e| e.to_string())?;
    if targets.len() > 1 {
        let e = InputError::MultiRecordTarget {
            path: tp.clone(),
            records: targets.len(),
        };
        return Err(e.to_string());
    }
    let queries = read(qp).map_err(|e| e.to_string())?;
    Ok((targets.remove(0), queries))
}

/// The extension engine a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    /// Sequential LASTZ-style driver.
    Lastz,
    /// Multicore LASTZ-style driver.
    Multicore,
    /// The FastZ GPU pipeline (directly, or through the service with
    /// `--serve`).
    FastZ,
}

fn engine_preset(name: &str) -> Option<Engine> {
    match name {
        "lastz" => Some(Engine::Lastz),
        "multicore" => Some(Engine::Multicore),
        "fastz" => Some(Engine::FastZ),
        _ => None,
    }
}

/// Everything one (query record, strand) job needs besides its query.
struct Run<'a> {
    opts: &'a Options,
    engine: Engine,
    /// The FastZ pipeline configuration; `scoring` also drives the
    /// LASTZ-style engines.
    cfg: FastZConfig,
    params: WorkloadParams,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("fastz: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Options) -> Result<(), String> {
    let (target, queries) = load_inputs(opts)?;

    if let Some(prefix) = &opts.emit_fasta {
        let tp = format!("{prefix}.target.fa");
        let qp = format!("{prefix}.query.fa");
        fastz_genome::write_fasta_file(&tp, std::slice::from_ref(&target))
            .and_then(|_| fastz_genome::write_fasta_file(&qp, &queries))
            .map_err(|e| format!("writing fasta: {e}"))?;
        let query_bp: usize = queries.iter().map(Sequence::len).sum();
        eprintln!(
            "fastz: wrote {tp} ({} bp) and {qp} ({query_bp} bp)",
            target.len()
        );
        return Ok(());
    }

    let mut scoring = scoring_preset(&opts.scoring)
        .ok_or_else(|| format!("unknown scoring preset {}", opts.scoring))?;
    if let Some(path) = &opts.scores {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        scoring =
            fastz_genome::parse_score_file(&text, &scoring).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("fastz: scores loaded from {path}");
    }
    let extend = extend_preset(&opts.extend)
        .ok_or_else(|| format!("unknown extension algorithm {}", opts.extend))?;
    let engine =
        engine_preset(&opts.engine).ok_or_else(|| format!("unknown engine {}", opts.engine))?;
    if extend != ExtendBackend::YDrop && engine != Engine::FastZ {
        return Err("--extend applies to the fastz engine only".to_string());
    }
    let shape = match opts.seed.as_str() {
        "exact19" => SeedShape::exact(19),
        "12of19" => SeedShape::lastz_12of19(),
        other => return Err(format!("unknown seed shape {other}")),
    };
    if !matches!(opts.format.as_str(), "tsv" | "general" | "maf") {
        return Err(format!("unknown output format {}", opts.format));
    }
    let device =
        device_preset(&opts.device).ok_or_else(|| format!("unknown device {}", opts.device))?;
    if opts.serve > 0 {
        if engine != Engine::FastZ {
            return Err("--serve requires the fastz engine".to_string());
        }
        if opts.both_strands {
            return Err("--serve does not combine with --both-strands".to_string());
        }
    }
    // Checkpoints, metrics and traces each describe one pipeline run.
    let jobs = queries.len() * if opts.both_strands { 2 } else { 1 };
    if jobs > 1 {
        for (flag, set) in [
            ("--checkpoint", opts.checkpoint.is_some()),
            ("--metrics-out", opts.metrics_out.is_some()),
            ("--trace-out", opts.trace_out.is_some()),
        ] {
            if set {
                return Err(format!(
                    "{flag} describes one pipeline run, but this run has {jobs} \
                     (query record, strand) jobs"
                ));
            }
        }
    }

    let mut run = Run {
        opts,
        engine,
        cfg: FastZConfig {
            sim_threads: opts.sim_threads,
            sanitize: opts.sanitize || opts.sanitize_out.is_some(),
            extend_backend: extend,
            ..FastZConfig::new(scoring, device)
        },
        params: WorkloadParams {
            shape: shape.clone(),
            max_anchors: opts.max_anchors,
        },
    };
    if opts.index_dir.is_none() && opts.index_shards == 0 {
        let index = SeedIndex::try_build(&target, shape).map_err(|e| format!("seed index: {e}"))?;
        return align_all(&run, &index, &target, &queries);
    }
    // Sharded-index path: build (or load) the persistent index once and
    // seed through it. The fingerprint folds into checkpoint identity so
    // a resume can never mix anchors from different index versions.
    let shards = if opts.index_shards > 0 {
        opts.index_shards
    } else {
        4
    };
    let (index, origin) = match &opts.index_dir {
        Some(dir) => ShardedSeedIndex::load_or_build(&PathBuf::from(dir), &target, shape, shards),
        None => ShardedSeedIndex::build(&target, shape, shards)
            .map(|i| (i, IndexOrigin::Built))
            .map_err(PersistError::Build),
    }
    .map_err(|e| format!("seed index: {e}"))?;
    eprintln!(
        "fastz: seed index {} ({} shards, {} entries, fingerprint {:016x})",
        match origin {
            IndexOrigin::LoadedFromDisk => "loaded from disk",
            IndexOrigin::Built => "built",
        },
        index.n_shards(),
        index.len(),
        index.fingerprint(),
    );
    run.cfg.index_fingerprint = index.fingerprint();
    align_all(&run, &index, &target, &queries)
}

/// Aligns every query record in turn, each on the strands the run asks
/// for, seeding all of them through the one `index`.
fn align_all<S: AnchorSource>(
    run: &Run,
    index: &S,
    target: &Sequence,
    queries: &[Sequence],
) -> Result<(), String> {
    let mut total = 0;
    for query in queries {
        eprintln!(
            "fastz: target {} ({} bp), query {} ({} bp)",
            target.name(),
            target.len(),
            query.name(),
            query.len()
        );
        // The minus strand aligns the reverse complement and reports
        // coordinates on it (strand column `-`).
        let rc = run.opts.both_strands.then(|| query.reverse_complement());
        for (strand, query) in std::iter::once(('+', query)).chain(rc.iter().map(|rc| ('-', rc))) {
            let workload = Workload::build_with_index(index, query, &run.params);
            eprintln!(
                "fastz: {} strand, {} raw anchors, {} after filtering, {} extended",
                if strand == '+' { "plus" } else { "minus" },
                workload.raw_anchors,
                workload.filtered_anchors,
                workload.len()
            );
            let alignments = align(run, target, query, &workload)?;
            emit(&alignments, target, query, strand, run.opts)
                .map_err(|e| format!("writing output: {e}"))?;
            total += alignments.len();
        }
    }
    eprintln!("fastz: {total} alignments");
    Ok(())
}

/// Runs the chosen engine over one job's anchors.
fn align(
    run: &Run,
    target: &Sequence,
    query: &Sequence,
    workload: &Workload,
) -> Result<Vec<Alignment>, String> {
    let opts = run.opts;
    let cfg = &run.cfg;
    let anchors = &workload.anchors;
    let span = workload.shape.span();
    match run.engine {
        Engine::Lastz => {
            let report = sequential_gapped(
                target,
                query,
                anchors,
                span,
                &DriverConfig::gapped(cfg.scoring.clone()),
            );
            eprintln!(
                "fastz: sequential engine, {} cells, {:.3} s",
                report.stats.total_cells,
                report.stats.wall_time.as_secs_f64()
            );
            Ok(report.alignments)
        }
        Engine::Multicore => {
            let report = multicore_gapped(
                target,
                query,
                anchors,
                span,
                &DriverConfig::gapped(cfg.scoring.clone()),
                opts.threads,
            );
            eprintln!(
                "fastz: multicore engine ({} workers), {} cells, {:.3} s",
                opts.threads,
                report.stats.total_cells,
                report.stats.wall_time.as_secs_f64()
            );
            Ok(report.alignments)
        }
        Engine::FastZ if opts.serve > 0 => serve_front_end(target, query, anchors, span, cfg, opts),
        Engine::FastZ => fastz_pipeline(target, query, anchors, span, cfg, opts),
    }
}

/// One direct FastZ pipeline run, with the fault plan, checkpoint,
/// metric and trace exports, sanitizer report and statistics the flags
/// ask for.
fn fastz_pipeline(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    span: usize,
    cfg: &FastZConfig,
    opts: &Options,
) -> Result<Vec<Alignment>, String> {
    let rcfg = ResilienceConfig {
        plan: opts
            .fault_plan
            .map_or_else(FaultPlan::none, FaultPlan::from_seed),
        checkpoint: opts.checkpoint.as_ref().map(PathBuf::from),
    };
    let observing = opts.metrics_out.is_some() || opts.trace_out.is_some();
    let mut rec = Recorder::new();
    let report = if observing {
        run_fastz_observed(target, query, anchors, span, cfg, &rcfg, &mut rec)
    } else {
        run_fastz_observed(target, query, anchors, span, cfg, &rcfg, &mut NoObs)
    };
    if let Some(path) = &opts.metrics_out {
        let text = if path.ends_with(".prom") {
            export::prometheus(&rec.registry)
        } else {
            export::json_report(&rec)
        };
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("fastz: metrics written to {path}");
    }
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, export::chrome_trace(&rec.timeline))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("fastz: trace written to {path}");
    }
    eprintln!(
        "fastz: GPU pipeline on {} — modeled {:.4} s, simulated in {:.3} s host time",
        cfg.device.name,
        report.modeled_time_s,
        report.host_wall.as_secs_f64()
    );
    if let Some(srep) = &report.sanitize {
        if let Some(path) = &opts.sanitize_out {
            std::fs::write(path, srep.to_json()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("fastz: sanitizer report written to {path}");
        }
        eprintln!(
            "fastz: sanitizer: {} findings over {} shared reads / {} writes \
             ({} barriers, {} clears)",
            srep.total_findings(),
            srep.shared_reads,
            srep.shared_writes,
            srep.barriers,
            srep.clears,
        );
        if !srep.is_clean() {
            for f in srep.findings.iter().take(8) {
                eprintln!(
                    "fastz: sanitizer finding [{}] problem {} phase {} stage {}: {}",
                    f.kind, f.problem, f.phase, f.stage, f.detail
                );
            }
            return Err("sanitizer found problems; failing the run".to_string());
        }
    }
    if opts.fault_plan.is_some() || opts.checkpoint.is_some() || opts.stats {
        eprintln!("fastz: resilience: {}", report.resilience.summary());
        if report.resilience.resumed {
            eprintln!(
                "fastz: resumed from checkpoint ({} problems restored)",
                report.resilience.restored_problems
            );
        }
    }
    if opts.stats {
        eprintln!(
            "fastz: {} seeds; eager {}, executor {}; bins {:?} (+{} eager, {} overflow)",
            report.stats.seeds,
            report.stats.eager_resolved,
            report.stats.executor_problems,
            report.bin_counts.bins,
            report.bin_counts.eager,
            report.bin_counts.overflow,
        );
        eprint!("{}", report.timeline);
    }
    Ok(report.alignments)
}

fn scoring_preset(name: &str) -> Option<Scoring> {
    match name {
        "lastz" => Some(Scoring::lastz_default()),
        "bench" => Some(Scoring::bench_scaled()),
        _ => None,
    }
}

fn extend_preset(name: &str) -> Option<ExtendBackend> {
    match name {
        "ydrop" => Some(ExtendBackend::YDrop),
        "bitvector" => Some(ExtendBackend::Bitvector),
        _ => None,
    }
}

fn device_preset(name: &str) -> Option<DeviceSpec> {
    match name {
        "pascal" => Some(DeviceSpec::titan_x_pascal()),
        "volta" => Some(DeviceSpec::qv100_volta()),
        "ampere" => Some(DeviceSpec::rtx3080_ampere()),
        _ => None,
    }
}

/// `--serve N`: the alignment-as-a-service front end. Splits the seeded
/// workload into N requests, serves them co-batched through the
/// admission queue, and returns the deduped union of every served
/// request's alignments — bit-identical to a direct run (the
/// conformance `--serve` drill holds the service to that). The queue is
/// sized to admit every request; `--fault-plan` becomes the service
/// chaos plan, re-keyed per request.
fn serve_front_end(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    span: usize,
    cfg: &FastZConfig,
    opts: &Options,
) -> Result<Vec<Alignment>, String> {
    let per = anchors.len().div_ceil(opts.serve).max(1);
    let requests: Vec<AlignRequest> = anchors
        .chunks(per)
        .enumerate()
        .map(|(i, chunk)| AlignRequest::new(i as u64, chunk.to_vec(), span))
        .collect();
    // The service reports no sanitizer findings, so it runs unsanitized.
    let mut scfg = ServeConfig::new(FastZConfig {
        sanitize: false,
        ..cfg.clone()
    });
    scfg.admission.queue_cap = scfg.admission.queue_cap.max(requests.len());
    scfg.admission.work_budget = f64::INFINITY;
    if let Some(seed) = opts.fault_plan {
        scfg = scfg.with_chaos(FaultPlan::from_seed(seed));
    }
    let service = AlignService::new(target, query, scfg);
    let mut rec = Recorder::new();
    let report = if opts.metrics_out.is_some() {
        service.run_observed(&requests, &mut rec)
    } else {
        service.run(&requests)
    };
    if let Some(path) = &opts.metrics_out {
        let text = if path.ends_with(".prom") {
            export::prometheus(&rec.registry)
        } else {
            export::json_report(&rec)
        };
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("fastz: service metrics written to {path}");
    }
    eprintln!(
        "fastz: served {} requests — {} completed, {} degraded, {} deadline-missed, {} shed",
        report.records.len(),
        report.count("completed"),
        report.count("degraded"),
        report.count("deadline-error"),
        report.count("shed-error"),
    );
    eprintln!(
        "fastz: service makespan {:.4} s; executor {:.4} s batched vs {:.4} s per-request \
         ({} merged launches)",
        report.makespan_s, report.batched_exec_s, report.solo_exec_s, report.merged_launches,
    );
    if opts.fault_plan.is_some() || opts.stats {
        eprintln!("fastz: resilience: {}", report.resilience.summary());
    }
    if !report.resilience.accounts_for_all_faults() {
        return Err("service fault accounting does not balance".to_string());
    }
    let union: Vec<Alignment> = report
        .records
        .iter()
        .flat_map(|r| r.alignments.iter().cloned())
        .collect();
    Ok(dedupe_alignments(union))
}

/// Writes alignments in the selected format; `strand` marks the query
/// strand (coordinates refer to the sequence actually aligned). Errors
/// (closed pipe, full disk) bubble up for a non-zero exit instead of a
/// panic.
fn emit(
    alignments: &[Alignment],
    target: &Sequence,
    query: &Sequence,
    strand: char,
    opts: &Options,
) -> std::io::Result<()> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    use std::io::Write;
    match opts.format.as_str() {
        "maf" => write_maf(&mut out, alignments, target, query)?,
        "general" => write_general(&mut out, alignments, target, query)?,
        _ => {
            writeln!(
                out,
                "#score\ttname\ttstart\ttend\tqname\tqstart\tqend\tstrand\tcigar"
            )?;
            for a in alignments {
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    a.score,
                    target.name(),
                    a.target_start,
                    a.target_end,
                    query.name(),
                    a.query_start,
                    a.query_end,
                    strand,
                    a.cigar()
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = Options::parse(&[]).unwrap();
        assert_eq!(o.engine, "fastz");
        assert_eq!(o.device, "ampere");
        assert_eq!(o.threads, 16);
        assert_eq!(o.format, "tsv");
        assert!(!o.both_strands);
        assert!(o.target.is_none());
    }

    #[test]
    fn positional_and_flags() {
        let o = Options::parse(&sv(&[
            "t.fa",
            "q.fa",
            "--engine",
            "lastz",
            "--threads",
            "8",
            "--both-strands",
            "--format",
            "maf",
            "--max-anchors",
            "500",
        ]))
        .unwrap();
        assert_eq!(o.target.as_deref(), Some("t.fa"));
        assert_eq!(o.query.as_deref(), Some("q.fa"));
        assert_eq!(o.engine, "lastz");
        assert_eq!(o.threads, 8);
        assert!(o.both_strands);
        assert_eq!(o.format, "maf");
        assert_eq!(o.max_anchors, 500);
    }

    #[test]
    fn demo_and_emit() {
        let o = Options::parse(&sv(&["--demo", "C1_1,1", "--emit-fasta", "out"])).unwrap();
        assert_eq!(o.demo.as_deref(), Some("C1_1,1"));
        assert_eq!(o.emit_fasta.as_deref(), Some("out"));
    }

    #[test]
    fn errors() {
        assert!(Options::parse(&sv(&["--engine"])).is_err());
        assert!(Options::parse(&sv(&["--threads", "abc"])).is_err());
        assert!(Options::parse(&sv(&["--bogus"])).is_err());
        assert!(Options::parse(&sv(&["a", "b", "c"])).is_err());
        assert!(Options::parse(&sv(&["--help"])).is_err());
        assert!(Options::parse(&sv(&["--fault-plan", "xyz"])).is_err());
        assert!(Options::parse(&sv(&["--fault-plan"])).is_err());
    }

    #[test]
    fn serve_flag() {
        let o = Options::parse(&sv(&["--serve", "8"])).unwrap();
        assert_eq!(o.serve, 8);
        assert!(Options::parse(&sv(&["--serve"])).is_err());
        assert!(Options::parse(&sv(&["--serve", "many"])).is_err());
        assert_eq!(Options::parse(&[]).unwrap().serve, 0);
    }

    #[test]
    fn index_flags() {
        let o =
            Options::parse(&sv(&["--index-dir", ".fastz-index", "--index-shards", "8"])).unwrap();
        assert_eq!(o.index_dir.as_deref(), Some(".fastz-index"));
        assert_eq!(o.index_shards, 8);
        let none = Options::parse(&[]).unwrap();
        assert_eq!(none.index_dir, None);
        assert_eq!(none.index_shards, 0);
        assert!(Options::parse(&sv(&["--index-dir"])).is_err());
        assert!(Options::parse(&sv(&["--index-shards"])).is_err());
        assert!(Options::parse(&sv(&["--index-shards", "zero"])).is_err());
        assert!(Options::parse(&sv(&["--index-shards", "0"])).is_err());
    }

    #[test]
    fn extend_flag() {
        let o = Options::parse(&sv(&["--extend", "bitvector"])).unwrap();
        assert_eq!(o.extend, "bitvector");
        assert_eq!(extend_preset(&o.extend), Some(ExtendBackend::Bitvector));
        let none = Options::parse(&[]).unwrap();
        assert_eq!(none.extend, "ydrop");
        assert_eq!(extend_preset("ydrop"), Some(ExtendBackend::YDrop));
        assert_eq!(extend_preset("banded"), None);
        assert!(Options::parse(&sv(&["--extend"])).is_err());
    }

    #[test]
    fn fault_plan_and_checkpoint_flags() {
        let o = Options::parse(&sv(&["--fault-plan", "42", "--checkpoint", "run.ckpt"])).unwrap();
        assert_eq!(o.fault_plan, Some(42));
        assert_eq!(o.checkpoint.as_deref(), Some("run.ckpt"));
        let none = Options::parse(&[]).unwrap();
        assert_eq!(none.fault_plan, None);
        assert_eq!(none.checkpoint, None);
    }

    #[test]
    fn metrics_and_trace_flags() {
        let o = Options::parse(&sv(&[
            "--metrics-out",
            "m.prom",
            "--trace-out",
            "trace.json",
        ]))
        .unwrap();
        assert_eq!(o.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(o.trace_out.as_deref(), Some("trace.json"));
        assert!(Options::parse(&sv(&["--metrics-out"])).is_err());
        assert!(Options::parse(&sv(&["--trace-out"])).is_err());
        let none = Options::parse(&[]).unwrap();
        assert_eq!(none.metrics_out, None);
        assert_eq!(none.trace_out, None);
    }

    #[test]
    fn sanitize_flags() {
        let o = Options::parse(&sv(&["--sanitize"])).unwrap();
        assert!(o.sanitize);
        assert_eq!(o.sanitize_out, None);
        let o = Options::parse(&sv(&["--sanitize-out", "san.json"])).unwrap();
        assert!(!o.sanitize);
        assert_eq!(o.sanitize_out.as_deref(), Some("san.json"));
        assert!(Options::parse(&sv(&["--sanitize-out"])).is_err());
        let none = Options::parse(&[]).unwrap();
        assert!(!none.sanitize);
        assert_eq!(none.sanitize_out, None);
    }

    #[test]
    fn scoring_presets() {
        assert!(scoring_preset("lastz").is_some());
        assert!(scoring_preset("bench").is_some());
        assert!(scoring_preset("nope").is_none());
        assert_eq!(scoring_preset("lastz").unwrap().ydrop, 9400);
    }

    #[test]
    fn demo_inputs_load() {
        let o = Options::parse(&sv(&["--demo", "D1_2R,2"])).unwrap();
        let (t, q) = load_inputs(&o).unwrap();
        assert!(t.len() > 100_000);
        assert_eq!(q.len(), 1);
        assert!(q[0].len() > 100_000);
        let bad = Options::parse(&sv(&["--demo", "NOPE"])).unwrap();
        assert!(load_inputs(&bad).is_err());
    }
}
