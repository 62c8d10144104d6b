//! One operation of each workload, through the entry points the `fastz`
//! CLI uses: FASTA ingest, seed-index build (or warm load), anchor
//! generation, the pipeline (or the service), and the output writer.

use crate::workload::{Inputs, INDEX_SHARDS, IN_FLIGHT, REQUEST_ANCHORS};
use fastz_align::{write_general, Alignment};
use fastz_core::{run_fastz, FastZConfig, FastZReport};
use fastz_genome::{read_fasta_file, Sequence};
use fastz_seed::{Anchor, IndexOrigin, SeedIndex, ShardedSeedIndex, Workload, WorkloadParams};
use fastz_serve::{
    spawn, AlignRequest, Delivery, RequestRecord, ServeConfig, ServeReport, ServiceHandle,
};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

fn read_one(path: &Path) -> Result<Sequence, String> {
    read_fasta_file(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .into_iter()
        .next()
        .ok_or_else(|| format!("{}: no records", path.display()))
}

/// Reads the target and query FASTA files.
pub(crate) fn ingest(inputs: &Inputs) -> Result<(Sequence, Sequence), String> {
    Ok((read_one(&inputs.target_fa)?, read_one(&inputs.query_fa)?))
}

/// Writes alignments in LASTZ general format and flushes the file.
pub(crate) fn write_output(
    path: &Path,
    alignments: &[Alignment],
    target: &Sequence,
    query: &Sequence,
) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = BufWriter::new(std::fs::File::create(path).map_err(err)?);
    write_general(&mut out, alignments, target, query).map_err(err)?;
    out.flush().map_err(err)
}

/// A batch job's set-up: both FASTA files read and the target indexed.
pub(crate) fn batch_setup(
    inputs: &Inputs,
    params: &WorkloadParams,
) -> Result<(Sequence, Sequence, SeedIndex), String> {
    let (target, query) = ingest(inputs)?;
    let index = SeedIndex::try_build(&target, params.shape.clone())
        .map_err(|e| format!("seed index: {e}"))?;
    Ok((target, query, index))
}

/// One batch job and everything it produced.
pub struct Job {
    /// First FASTA read to written output, in seconds.
    pub wall_s: f64,
    /// Target as read back from FASTA.
    pub target: Sequence,
    /// Query as read back from FASTA.
    pub query: Sequence,
    /// The pipeline's report.
    pub report: FastZReport,
}

/// Runs one batch job: ingest → index → anchors → `run_fastz` → output.
pub fn job(inputs: &Inputs, cfg: &FastZConfig, params: &WorkloadParams) -> Result<Job, String> {
    let start = Instant::now();
    let (target, query, index) = batch_setup(inputs, params)?;
    let workload = Workload::build_with_index(&index, &query, params);
    let report = run_fastz(
        &target,
        &query,
        &workload.anchors,
        workload.shape.span(),
        cfg,
    );
    write_output(&inputs.out, &report.alignments, &target, &query)?;
    Ok(Job {
        wall_s: start.elapsed().as_secs_f64(),
        target,
        query,
        report,
    })
}

/// Builds and saves the sharded seed index the service loads warm.
pub(crate) fn persist_index(
    inputs: &Inputs,
    target: &Sequence,
    params: &WorkloadParams,
) -> Result<(), String> {
    ShardedSeedIndex::load_or_build(
        &inputs.index_dir,
        target,
        params.shape.clone(),
        INDEX_SHARDS,
    )
    .map(drop)
    .map_err(|e| format!("seed index: {e}"))
}

/// One request as its client saw it.
pub(crate) struct Served {
    /// Position in the request list.
    pub index: usize,
    /// Its place in the group of requests in flight.
    pub lane: usize,
    /// Seconds from submit to the first delivery.
    pub first_s: f64,
    /// Seconds from submit to `Delivery::Done`.
    pub latency_s: f64,
    /// Offset of the submit from the start of the pass.
    pub sent_s: f64,
    /// Streamed alignments, in order.
    pub alignments: Vec<Alignment>,
    /// The terminal record.
    pub record: RequestRecord,
}

/// One pass of the service workload.
pub(crate) struct Pass {
    /// Ingest, warm index load, anchors and `spawn`.
    pub setup_s: f64,
    /// First FASTA read to the last `Delivery::Done`.
    pub wall_s: f64,
    /// Target as read back from FASTA.
    pub target: Sequence,
    /// Query as read back from FASTA.
    pub query: Sequence,
    /// Anchors seeded through the loaded index.
    pub anchors: Vec<Anchor>,
    /// Every request, in list order.
    pub served: Vec<Served>,
    /// The service's aggregated report.
    pub report: ServeReport,
}

/// Splits anchors into the fixed request list.
fn requests(anchors: &[Anchor], span: usize) -> Vec<AlignRequest> {
    anchors
        .chunks(REQUEST_ANCHORS)
        .enumerate()
        .map(|(i, chunk)| AlignRequest::new(i as u64, chunk.to_vec(), span))
        .collect()
}

/// The service workload's set-up: both FASTA files read, the persisted
/// index loaded warm, the anchors seeded through it and the service
/// spawned.
pub(crate) struct ServeSetup {
    /// Target as read back from FASTA.
    pub target: Sequence,
    /// Query as read back from FASTA.
    pub query: Sequence,
    /// Anchors seeded through the loaded index.
    pub anchors: Vec<Anchor>,
    /// The fixed request list.
    pub requests: Vec<AlignRequest>,
    /// The running service.
    pub handle: ServiceHandle,
}

/// Sets the service workload up.
pub(crate) fn serve_setup(
    inputs: &Inputs,
    cfg: &FastZConfig,
    params: &WorkloadParams,
) -> Result<ServeSetup, String> {
    let (target, query) = ingest(inputs)?;
    let (index, origin) = ShardedSeedIndex::load_or_build(
        &inputs.index_dir,
        &target,
        params.shape.clone(),
        INDEX_SHARDS,
    )
    .map_err(|e| format!("seed index: {e}"))?;
    if origin != IndexOrigin::LoadedFromDisk {
        return Err("the persisted seed index was not reused".to_string());
    }
    let workload = Workload::build_with_index(&index, &query, params);
    let requests = requests(&workload.anchors, workload.shape.span());
    let mut scfg = ServeConfig::new(cfg.clone());
    scfg.admission.queue_cap = scfg.admission.queue_cap.max(requests.len());
    scfg.admission.work_budget = f64::INFINITY;
    let handle = spawn(target.clone(), query.clone(), scfg, 64);
    Ok(ServeSetup {
        target,
        query,
        anchors: workload.anchors,
        requests,
        handle,
    })
}

/// Seconds one set-up takes: [`batch_setup`], or [`serve_setup`] for
/// the service workload (whose service is then shut down, untimed).
pub(crate) fn setup_s(
    serve: bool,
    inputs: &Inputs,
    cfg: &FastZConfig,
    params: &WorkloadParams,
) -> Result<f64, String> {
    let start = Instant::now();
    if serve {
        let setup = serve_setup(inputs, cfg, params)?;
        let s = start.elapsed().as_secs_f64();
        setup.handle.finish();
        Ok(s)
    } else {
        let made = batch_setup(inputs, params)?;
        let s = start.elapsed().as_secs_f64();
        drop(made);
        Ok(s)
    }
}

/// Serves the request list once. One closed-loop client submits
/// [`IN_FLIGHT`] requests back to back and waits for all their `Done`s
/// before the next group: the service finds the whole group queued when
/// it wakes, so every batch it drains is co-batched, and the same way on
/// every pass.
pub(crate) fn pass(
    inputs: &Inputs,
    cfg: &FastZConfig,
    params: &WorkloadParams,
) -> Result<Pass, String> {
    let start = Instant::now();
    let ServeSetup {
        target,
        query,
        anchors,
        requests: list,
        handle,
    } = serve_setup(inputs, cfg, params)?;
    let setup_s = start.elapsed().as_secs_f64();

    let mut served = Vec::with_capacity(list.len());
    for (group, requests) in list.chunks(IN_FLIGHT).enumerate() {
        let streams: Vec<_> = requests
            .iter()
            .map(|r| (Instant::now(), handle.submit(r.clone())))
            .collect();
        for (lane, (sent, stream)) in streams.into_iter().enumerate() {
            let mut first_s = None;
            let mut alignments = Vec::new();
            let record = loop {
                // A stream that closes without `Done` means the service
                // thread died; `finish` reports its panic.
                let Ok(msg) = stream.recv() else {
                    handle.finish();
                    return Err("the service stopped before answering".to_string());
                };
                first_s.get_or_insert_with(|| sent.elapsed().as_secs_f64());
                match msg {
                    Delivery::Alignments(chunk) => alignments.extend(chunk),
                    Delivery::Done(record) => break record,
                }
            };
            let latency_s = sent.elapsed().as_secs_f64();
            served.push(Served {
                index: group * IN_FLIGHT + lane,
                lane,
                first_s: first_s.unwrap_or(latency_s),
                latency_s,
                sent_s: sent.duration_since(start).as_secs_f64(),
                alignments,
                record,
            });
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Pass {
        setup_s,
        wall_s,
        target,
        query,
        anchors,
        served,
        report: handle.finish(),
    })
}
