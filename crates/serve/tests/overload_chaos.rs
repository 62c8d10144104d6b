//! Chaos-soak: ≥4× sustained overload with an active fault plan.
//!
//! Invariants under test:
//! * no request is lost — every submitted request terminates in exactly
//!   one of {completed, degraded-with-record, deadline-error, shed-error};
//! * the fault-accounting identity `injected == detected + tolerated`
//!   holds end to end (per-request pipelines plus service-level chaos),
//!   and every service-scope device loss is detected and counted;
//! * the whole outcome record — classes, alignments, and modeled-time
//!   bits — is identical across `sim_threads`;
//! * a request's alignments and modeled-GPU-time bits are identical
//!   whether it was served solo or co-batched with other requests;
//! * a request with an anchor whose seed window runs past either
//!   sequence is shed at admission and leaves the others untouched.

use fastz_core::{FastZConfig, OptFlags};
use fastz_genome::evolve::{generate_pair, PairParams};
use fastz_genome::{Scoring, Sequence};
use fastz_gpu_sim::{DeviceSpec, FaultPlan};
use fastz_seed::{Anchor, Workload, WorkloadParams};
use fastz_serve::{
    AdmissionPolicy, AlignRequest, AlignService, Delivery, Outcome, Priority, ServeConfig,
    ServeReport, ShedReason,
};

fn corpus() -> (Sequence, Sequence, Vec<Anchor>, usize) {
    let pair = generate_pair(&PairParams {
        target_len: 12_000,
        query_len: 12_000,
        segments: 24,
        ..PairParams::small_demo("serve", 11)
    });
    let wl = Workload::build(
        &pair.target,
        &pair.query,
        &WorkloadParams {
            max_anchors: 160,
            ..WorkloadParams::default()
        },
    );
    let span = wl.shape.span();
    (pair.target, pair.query, wl.anchors, span)
}

fn pipeline_cfg(sim_threads: usize) -> FastZConfig {
    let mut cfg = FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere());
    cfg.flags = OptFlags::fastz();
    cfg.sim_threads = sim_threads;
    cfg
}

/// Splits the corpus anchors into about `n` requests with cycling
/// priorities (the corpus may not fill all `n`; callers use the
/// returned length).
fn requests(anchors: &[Anchor], seed_span: usize, n: usize, spacing_s: f64) -> Vec<AlignRequest> {
    let per = anchors.len().div_ceil(n);
    anchors
        .chunks(per)
        .enumerate()
        .map(|(i, chunk)| {
            let priority = Priority::ALL[i % Priority::ALL.len()];
            AlignRequest::new(i as u64, chunk.to_vec(), seed_span)
                .with_priority(priority)
                .at(i as f64 * spacing_s)
        })
        .collect()
}

fn overload_cfg(sim_threads: usize, chaos: FaultPlan) -> ServeConfig {
    let mut cfg = ServeConfig::new(pipeline_cfg(sim_threads)).with_chaos(chaos);
    cfg.admission = AdmissionPolicy {
        queue_cap: 5,
        work_budget: 1e9,
    };
    cfg.wave = 3;
    cfg
}

/// Measures one request's solo service time, to calibrate a ≥4×
/// overload arrival rate (deterministic: modeled time, not wall clock).
fn solo_service_s(target: &Sequence, query: &Sequence, reqs: &[AlignRequest]) -> f64 {
    let cfg = overload_cfg(1, FaultPlan::none());
    let service = AlignService::new(target, query, cfg);
    let probe = service.run(&reqs[..1]);
    assert!(probe.makespan_s > 0.0);
    probe.makespan_s
}

fn soak(sim_threads: usize) -> (ServeReport, usize) {
    let (target, query, anchors, span) = corpus();
    let reqs = requests(&anchors, span, 16, 0.0);
    // Sustained ≥4× overload: requests arrive 4× faster than one can be
    // served solo.
    let spacing = solo_service_s(&target, &query, &reqs) / 4.0;
    let reqs = requests(&anchors, span, 16, spacing);
    let n = reqs.len();
    let cfg = overload_cfg(sim_threads, FaultPlan::from_seed(0xC4A05));
    (AlignService::new(&target, &query, cfg).run(&reqs), n)
}

#[test]
fn chaos_soak_no_request_lost_and_faults_account() {
    let (report, n) = soak(1);
    assert!(n >= 8, "corpus produced a real request stream");

    // Exactly one terminal record per submitted request.
    assert_eq!(report.records.len(), n, "no request lost");
    let mut ids: Vec<u64> = report.records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "exactly one outcome per request");

    // Every record is in one of the four terminal classes, and served
    // requests actually carry results.
    for r in &report.records {
        match &r.outcome {
            Outcome::Completed | Outcome::Degraded(_) => {
                assert!(r.modeled_time_s > 0.0, "served request has modeled time");
            }
            Outcome::DeadlineError { finished_s, .. } => {
                assert!(finished_s.is_none_or(|f| f > 0.0));
            }
            Outcome::ShedError(_) => {
                assert!(r.alignments.is_empty(), "shed request returns no data");
            }
        }
    }

    // The overload was real: admission or the ladder shed something,
    // and something still got served.
    assert!(report.peak_depth > 0);
    assert!(report.count("shed-error") > 0, "4x overload must shed");
    assert!(
        report.count("completed") + report.count("degraded") > 0,
        "overload must not starve everything"
    );

    // Fault accounting holds across per-request pipelines plus the
    // service-level chaos events.
    assert!(report.resilience.accounts_for_all_faults());
    assert!(
        report.resilience.injected.total() > 0,
        "the chaos plan actually fired"
    );

    // Device loss is probed once per request at service scope: a lost
    // device is detected, the request re-runs on a replacement, and the
    // loss is counted exactly once.
    let res = &report.resilience;
    assert!(
        res.injected.device_losses > 0,
        "the chaos plan lost a device"
    );
    assert_eq!(res.detected.device_losses, res.injected.device_losses);
    assert_eq!(res.devices_lost as u64, res.injected.device_losses);
}

#[test]
fn outcomes_bit_identical_across_sim_threads() {
    let (base, _) = soak(1);
    for (report, _) in [soak(2), soak(3)] {
        assert_eq!(report.outcome_classes(), base.outcome_classes());
        assert_eq!(report.records.len(), base.records.len());
        for (a, b) in report.records.iter().zip(&base.records) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.alignments, b.alignments, "request {} alignments", a.id);
            assert_eq!(
                a.modeled_time_s.to_bits(),
                b.modeled_time_s.to_bits(),
                "request {} modeled-time bits",
                a.id
            );
            assert_eq!(a.decided_s.to_bits(), b.decided_s.to_bits());
        }
        assert_eq!(report.resilience, base.resilience);
        assert_eq!(report.makespan_s.to_bits(), base.makespan_s.to_bits());
        assert_eq!(report.bin_fills, base.bin_fills);
    }
}

#[test]
fn solo_and_cobatched_requests_have_identical_bits() {
    let (target, query, anchors, span) = corpus();
    let reqs = requests(&anchors, span, 6, 0.0);
    // No overload (huge queue), chaos on: the per-request fault plan is
    // keyed by request id, so co-scheduling cannot change any bit.
    let mut cfg = overload_cfg(2, FaultPlan::from_seed(77));
    cfg.admission.queue_cap = 1024;
    let service = AlignService::new(&target, &query, cfg.clone());
    let batched = service.run(&reqs);
    assert!(batched.merged_launches > 0, "co-batching actually merged");

    for req in &reqs {
        let solo = service.run(std::slice::from_ref(req));
        let s = &solo.records[0];
        let b = batched
            .records
            .iter()
            .find(|r| r.id == req.id)
            .expect("request served");
        assert_eq!(s.alignments, b.alignments, "request {} alignments", req.id);
        assert_eq!(
            s.modeled_time_s.to_bits(),
            b.modeled_time_s.to_bits(),
            "request {} modeled-GPU-time bits",
            req.id
        );
        let sr = &solo.reports[&req.id];
        let br = &batched.reports[&req.id];
        assert_eq!(sr.bin_counts, br.bin_counts);
        assert_eq!(sr.stats.executor_problems, br.stats.executor_problems);
    }
}

#[test]
fn out_of_bounds_anchor_is_shed_and_spares_the_good_request() {
    let (target, query, anchors, span) = corpus();
    let service = AlignService::new(&target, &query, ServeConfig::new(pipeline_cfg(1)));
    let good = AlignRequest::new(0, anchors.clone(), span);
    let solo = service.run(std::slice::from_ref(&good));
    assert!(!solo.records[0].alignments.is_empty());
    // An anchor far past the target (second in its request), and a seed
    // window that starts in the query but ends one base past it.
    let far = Anchor {
        target_pos: 1_000_000,
        query_pos: 0,
    };
    let overhang = Anchor {
        target_pos: 0,
        query_pos: (query.len() - span + 1) as u32,
    };
    for (bad, at) in [(vec![anchors[0], far], 1), (vec![overhang], 0)] {
        let report = service.run(&[AlignRequest::new(1, bad, span), good.clone()]);
        assert_eq!(
            report.records[0].outcome,
            Outcome::ShedError(ShedReason::BadAnchor { anchor: at })
        );
        assert_eq!(report.records[1].outcome, Outcome::Completed);
        assert_eq!(report.records[1].alignments, solo.records[0].alignments);
    }
}

#[test]
fn streaming_front_end_delivers_chunks_then_done() {
    let (target, query, anchors, span) = corpus();
    let reqs = requests(&anchors, span, 4, 0.0);
    let cfg = ServeConfig::new(pipeline_cfg(2));
    let handle = fastz_serve::spawn(target, query, cfg, 3);

    let streams: Vec<_> = reqs.iter().map(|r| handle.submit(r.clone())).collect();
    for (req, rx) in reqs.iter().zip(streams) {
        let mut streamed = Vec::new();
        let mut done = None;
        for delivery in rx {
            match delivery {
                Delivery::Alignments(chunk) => {
                    assert!(chunk.len() <= handle.chunk());
                    streamed.extend(chunk);
                }
                Delivery::Done(record) => done = Some(record),
            }
        }
        let record = done.expect("terminal record always delivered");
        assert!(record.outcome.served(), "quiet service serves everything");
        assert_eq!(
            streamed, record.alignments,
            "streamed chunks reassemble request {}'s alignments",
            req.id
        );
    }
    let total = handle.finish();
    assert_eq!(total.records.len(), 4);
    assert!(total.resilience.accounts_for_all_faults());
}
