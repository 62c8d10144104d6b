//! The deterministic service core: a virtual-clock event loop over the
//! FastZ pipeline.
//!
//! Every scheduling decision — admission, deadline expiry, the
//! pressure-driven degradation ladder, chaos-mode device loss — is a
//! pure function of the request sequence and *modeled* values (queue
//! depth, modeled GPU seconds, the seeded fault plan). Wall clock never
//! enters a decision, so the full outcome record is bit-identical
//! across `sim_threads` and wavefront backends;
//! the chaos-soak test asserts exactly that.
//!
//! Requests dispatch in *waves* of up to [`ServeConfig::wave`] queued
//! requests. Each wave member's alignments and report come from the
//! unchanged per-request pipeline ([`run_fastz_in_pool`]) on one shared
//! worker pool — which is why a request's result bits cannot depend on
//! its wave-mates — while the wave's *schedule* merges every member's
//! executor tasks into shared per-bin launches ([`BinPacker`]): the
//! cross-request batching that fills bins single requests leave ragged.

use crate::queue::{AdmissionPolicy, AdmissionQueue, Queued};
use crate::request::{AlignRequest, DegradeRecord, Outcome, Priority, RequestRecord, ShedReason};
use fastz_core::{
    run_fastz_in_pool, BinPacker, FastZConfig, FastZReport, HostDispatch, HostPool, MergedLaunch,
    ResilienceConfig, ResilienceReport,
};
use fastz_genome::Sequence;
use fastz_gpu_sim::fault::{scope, FaultKind, FaultPlan, FaultSite};
use fastz_gpu_sim::stream::time_stream_pipeline;
use fastz_gpu_sim::BlockResources;
use fastz_obs::{names, MetricsSink, NoObs};
use std::collections::BTreeMap;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Pipeline configuration every request runs under (degraded
    /// requests override `strip_width` to 1).
    pub pipeline: FastZConfig,
    /// Base resilience policy (watchdog, retry budgets). The service
    /// replaces `plan` per request with [`FaultPlan::for_request`]
    /// derived from `chaos`.
    pub resilience: ResilienceConfig,
    /// Chaos-mode master plan; [`FaultPlan::none`] for a quiet service.
    pub chaos: FaultPlan,
    /// Admission limits.
    pub admission: AdmissionPolicy,
    /// Queue pressure at which [`Priority::Low`] degrades to the scalar
    /// engine.
    pub degrade_pressure: f64,
    /// Queue pressure at which [`Priority::Low`] sheds and
    /// [`Priority::Normal`] degrades.
    pub shed_pressure: f64,
    /// Modeled seconds of expected service time per work unit (anchor);
    /// derived deadlines are `watchdog.deadline_s(units × this)`.
    pub expected_unit_s: f64,
    /// Maximum requests dispatched per wave (cross-request batching
    /// width).
    pub wave: usize,
    /// Merged-launch batch size (tasks per shared bin kernel).
    pub batch: usize,
    /// CUDA streams for timing merged launches.
    pub streams: usize,
}

impl ServeConfig {
    /// Defaults over a pipeline configuration.
    pub fn new(pipeline: FastZConfig) -> ServeConfig {
        ServeConfig {
            pipeline,
            resilience: ResilienceConfig::disabled(),
            chaos: FaultPlan::none(),
            admission: AdmissionPolicy::default(),
            degrade_pressure: 0.5,
            shed_pressure: 0.9,
            expected_unit_s: 2e-3,
            wave: 4,
            batch: 512,
            streams: 4,
        }
    }

    /// This config with a chaos plan.
    pub fn with_chaos(mut self, chaos: FaultPlan) -> ServeConfig {
        self.chaos = chaos;
        self
    }

    /// Absolute deadline for `req` on the virtual clock: the explicit
    /// relative deadline when given, else the watchdog deadline over the
    /// request's expected service time — the same machinery that prices
    /// hung-kernel detection.
    pub fn deadline_abs_s(&self, req: &AlignRequest) -> f64 {
        let rel = req.deadline_s.unwrap_or_else(|| {
            self.resilience
                .watchdog
                .deadline_s(req.work_units() * self.expected_unit_s)
        });
        req.arrival_s + rel
    }
}

/// How a wave member is dispatched, from the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DispatchMode {
    Full,
    Scalar,
    Shed,
}

fn dispatch_mode(cfg: &ServeConfig, priority: Priority, pressure: f64) -> DispatchMode {
    match priority {
        Priority::High => DispatchMode::Full,
        Priority::Normal => {
            if pressure >= cfg.shed_pressure {
                DispatchMode::Scalar
            } else {
                DispatchMode::Full
            }
        }
        Priority::Low => {
            if pressure >= cfg.shed_pressure {
                DispatchMode::Shed
            } else if pressure >= cfg.degrade_pressure {
                DispatchMode::Scalar
            } else {
                DispatchMode::Full
            }
        }
    }
}

/// Everything a service run produced.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Terminal record for every submitted request, in submission order.
    pub records: Vec<RequestRecord>,
    /// Full pipeline reports of the requests that ran, by id.
    pub reports: BTreeMap<u64, FastZReport>,
    /// Aggregated fault accounting: per-request reports merged with the
    /// service-level chaos events (device losses during dispatch).
    pub resilience: ResilienceReport,
    /// Virtual makespan: the clock when the last outcome was recorded.
    pub makespan_s: f64,
    /// Modeled executor time had every request dispatched its own
    /// (ragged) bin launches.
    pub solo_exec_s: f64,
    /// Modeled executor time of the merged cross-request launches.
    pub batched_exec_s: f64,
    /// Fill ratio of every merged launch, in emission order.
    pub bin_fills: Vec<f64>,
    /// Merged launches formed.
    pub merged_launches: u64,
    /// Deepest the admission queue got.
    pub peak_depth: usize,
}

impl ServeReport {
    /// `(id, outcome class)` per request — the classification the
    /// chaos-soak test compares across `sim_threads`.
    pub fn outcome_classes(&self) -> Vec<(u64, &'static str)> {
        self.records
            .iter()
            .map(|r| (r.id, r.outcome.class()))
            .collect()
    }

    /// Count of records in a given class.
    pub fn count(&self, class: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome.class() == class)
            .count()
    }

    /// Folds another report in (the streaming front end aggregates its
    /// drained batches with this).
    pub fn merge(&mut self, other: ServeReport) {
        self.records.extend(other.records);
        self.reports.extend(other.reports);
        self.resilience.merge(&other.resilience);
        self.makespan_s = self.makespan_s.max(other.makespan_s);
        self.solo_exec_s += other.solo_exec_s;
        self.batched_exec_s += other.batched_exec_s;
        self.bin_fills.extend(other.bin_fills);
        self.merged_launches += other.merged_launches;
        self.peak_depth = self.peak_depth.max(other.peak_depth);
    }
}

/// The alignment service over one registered (target, query) pair.
pub struct AlignService<'g> {
    target: &'g Sequence,
    query: &'g Sequence,
    cfg: ServeConfig,
}

impl<'g> AlignService<'g> {
    /// A service aligning against the given pair.
    pub fn new(target: &'g Sequence, query: &'g Sequence, cfg: ServeConfig) -> AlignService<'g> {
        AlignService { target, query, cfg }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Serves `requests` (unobserved).
    pub fn run(&self, requests: &[AlignRequest]) -> ServeReport {
        self.run_observed(requests, &mut NoObs)
    }

    /// Serves `requests`, emitting service metrics into `sink`. Request
    /// ids must be unique — they key fault schedules and result demux.
    pub fn run_observed<S: MetricsSink>(
        &self,
        requests: &[AlignRequest],
        sink: &mut S,
    ) -> ServeReport {
        let cfg = &self.cfg;
        let threads = if cfg.pipeline.sim_threads > 0 {
            cfg.pipeline.sim_threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        };
        let mut report = std::thread::scope(|scope| {
            let pool = HostPool::new(
                scope,
                threads,
                &cfg.pipeline.device,
                HostDispatch::Stealing,
                cfg.pipeline.sanitize,
            );
            self.event_loop(requests, &pool)
        });
        self.emit(&report, sink);
        report.records.sort_by_key(|r| {
            requests
                .iter()
                .position(|q| q.id == r.id)
                .unwrap_or(usize::MAX)
        });
        report
    }

    /// The deterministic event loop (see the module docs for the model).
    fn event_loop(&self, requests: &[AlignRequest], pool: &HostPool<'_>) -> ServeReport {
        let cfg = &self.cfg;
        // Arrival order: virtual time, submission order within a tie.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| {
            requests[a]
                .arrival_s
                .total_cmp(&requests[b].arrival_s)
                .then(a.cmp(&b))
        });

        let mut out = ServeReport::default();
        let mut queue = AdmissionQueue::new(cfg.admission);
        let mut now_s = 0.0f64;
        let mut next = 0usize;

        while next < order.len() || !queue.is_empty() {
            // Admit everything that has arrived by `now_s`.
            while next < order.len() && requests[order[next]].arrival_s <= now_s {
                let req = requests[order[next]].clone();
                next += 1;
                let deadline = cfg.deadline_abs_s(&req);
                let (id, priority) = (req.id, req.priority);
                // A request the pipeline cannot index is shed here, so it
                // never reaches (and panics) a pool worker.
                let admitted = match req.first_bad_anchor(self.target.len(), self.query.len()) {
                    Some(anchor) => Err(ShedReason::BadAnchor { anchor }),
                    None => queue.try_admit(req, deadline),
                };
                if let Err(reason) = admitted {
                    out.records.push(RequestRecord {
                        id,
                        priority,
                        outcome: Outcome::ShedError(reason),
                        alignments: Vec::new(),
                        modeled_time_s: 0.0,
                        decided_s: now_s,
                    });
                }
            }
            if queue.is_empty() {
                if next < order.len() {
                    now_s = now_s.max(requests[order[next]].arrival_s);
                    continue;
                }
                break;
            }

            // Drain queue entries whose deadline already passed.
            for id in queue.expired(now_s) {
                let q = queue.remove(id).expect("expired id is queued");
                out.records.push(RequestRecord {
                    id,
                    priority: q.request.priority,
                    outcome: Outcome::DeadlineError {
                        deadline_s: q.deadline_abs_s,
                        finished_s: None,
                    },
                    alignments: Vec::new(),
                    modeled_time_s: 0.0,
                    decided_s: now_s,
                });
            }
            if queue.is_empty() {
                continue;
            }

            // Form a wave. Pressure is sampled once, before popping, so
            // every member of the wave sees the same overload state.
            let pressure = queue.pressure();
            let mut wave: Vec<Queued> = Vec::new();
            while wave.len() < cfg.wave.max(1) {
                match queue.pop() {
                    Some(q) => wave.push(q),
                    None => break,
                }
            }

            // Dispatch each member through the degradation ladder and
            // the unchanged per-request pipeline.
            let mut ran: Vec<(Queued, bool, FastZReport)> = Vec::new();
            let mut wave_service_s = 0.0f64;
            let mut packer = BinPacker::new(cfg.batch);
            for q in wave {
                let mode = dispatch_mode(cfg, q.request.priority, pressure);
                if mode == DispatchMode::Shed {
                    out.records.push(RequestRecord {
                        id: q.request.id,
                        priority: q.request.priority,
                        outcome: Outcome::ShedError(ShedReason::Overload),
                        alignments: Vec::new(),
                        modeled_time_s: 0.0,
                        decided_s: now_s,
                    });
                    continue;
                }
                let mut pipe_cfg = cfg.pipeline.clone();
                if mode == DispatchMode::Scalar {
                    pipe_cfg.strip_width = 1;
                }
                let rcfg = ResilienceConfig {
                    plan: cfg.chaos.for_request(q.request.id),
                    checkpoint: None,
                    ..cfg.resilience.clone()
                };
                let rep = run_fastz_in_pool(
                    self.target,
                    self.query,
                    &q.request.anchors,
                    q.request.seed_span,
                    &pipe_cfg,
                    &rcfg,
                    &mut NoObs,
                    pool,
                );
                wave_service_s += rep.modeled_time_s;

                // Service-level chaos: the device serving this request's
                // dispatch is lost. Detected, and the request re-runs
                // wholesale on a replacement — charged as a second
                // service time, accounted as detected device loss.
                let site = FaultSite::new(0, scope::SERVICE, q.request.id);
                if cfg.chaos.fires(FaultKind::DeviceLoss, site, 0) {
                    out.resilience.injected.device_losses += 1;
                    out.resilience.detected.device_losses += 1;
                    out.resilience.devices_lost += 1;
                    out.resilience.redispatched_anchors += q.request.anchors.len();
                    out.resilience.overhead_s += rep.modeled_time_s;
                    wave_service_s += rep.modeled_time_s;
                }

                packer.push_report(q.request.id, &rep.executor_kernels, &rep.executor_bin_slots);
                ran.push((q, mode == DispatchMode::Scalar, rep));
            }

            // Merge the wave's executor tasks into shared bin launches
            // and re-time the executor portion of the wave schedule.
            let launches: Vec<MergedLaunch> = packer.launches(BlockResources::fastz_executor());
            let merged_kernels: Vec<_> = launches.iter().map(|l| l.kernel.clone()).collect();
            let batched_s =
                time_stream_pipeline(&cfg.pipeline.device, &merged_kernels, cfg.streams).time_s;
            let wave_solo_s: f64 = ran
                .iter()
                .map(|(_, _, rep)| {
                    time_stream_pipeline(&cfg.pipeline.device, &rep.executor_kernels, cfg.streams)
                        .time_s
                })
                .sum();
            out.solo_exec_s += wave_solo_s;
            out.batched_exec_s += batched_s;
            out.merged_launches += launches.len() as u64;
            out.bin_fills.extend(launches.iter().map(|l| l.fill));
            // The wave occupies the device for its members' modeled time
            // with the ragged per-request executor schedule replaced by
            // the merged one (never negative: merging cannot make the
            // executor slower than the batched schedule itself).
            wave_service_s = (wave_service_s - wave_solo_s + batched_s).max(batched_s);
            now_s += wave_service_s;

            // Classify the wave's members at the wave's completion time.
            for (q, scalar, rep) in ran {
                let degrade = DegradeRecord {
                    scalar,
                    fallbacks: rep.resilience.fallbacks,
                    skipped_seeds: rep.resilience.skipped_seeds.len(),
                };
                let outcome = if now_s > q.deadline_abs_s {
                    Outcome::DeadlineError {
                        deadline_s: q.deadline_abs_s,
                        finished_s: Some(now_s),
                    }
                } else if degrade != DegradeRecord::default() {
                    Outcome::Degraded(degrade)
                } else {
                    Outcome::Completed
                };
                out.records.push(RequestRecord {
                    id: q.request.id,
                    priority: q.request.priority,
                    outcome,
                    alignments: rep.alignments.clone(),
                    modeled_time_s: rep.modeled_time_s,
                    decided_s: now_s,
                });
                out.resilience.merge(&rep.resilience);
                out.reports.insert(q.request.id, rep);
            }
        }

        out.makespan_s = now_s;
        out.peak_depth = queue.peak_depth();
        out
    }

    /// Emits the service metric set. Zero-emission discipline: every
    /// series is emitted on every run — zeros when a class never fired —
    /// so the exported set never depends on traffic shape.
    fn emit<S: MetricsSink>(&self, report: &ServeReport, sink: &mut S) {
        if !S::ENABLED {
            return;
        }
        sink.gauge_set(names::SERVE_QUEUE_DEPTH, 0.0);
        sink.gauge_set(names::SERVE_QUEUE_DEPTH_PEAK, report.peak_depth as f64);
        for p in Priority::ALL {
            let of = |f: &dyn Fn(&RequestRecord) -> bool| {
                report
                    .records
                    .iter()
                    .filter(|r| r.priority == p && f(r))
                    .count() as u64
            };
            let admitted = of(&|r| !matches!(r.outcome, Outcome::ShedError(_)));
            sink.counter_add(
                &names::priority(names::SERVE_ADMITTED_TOTAL, p.name()),
                admitted,
            );
            sink.counter_add(
                &names::priority(names::SERVE_COMPLETED_TOTAL, p.name()),
                of(&|r| matches!(r.outcome, Outcome::Completed)),
            );
            sink.counter_add(
                &names::priority(names::SERVE_DEGRADED_TOTAL, p.name()),
                of(&|r| matches!(r.outcome, Outcome::Degraded(_))),
            );
            sink.counter_add(
                &names::priority(names::SERVE_DEADLINE_MISSED_TOTAL, p.name()),
                of(&|r| matches!(r.outcome, Outcome::DeadlineError { .. })),
            );
            for reason in ShedReason::NAMES {
                sink.counter_add(
                    &names::shed(p.name(), reason),
                    of(&|r| match &r.outcome {
                        Outcome::ShedError(s) => s.name() == reason,
                        _ => false,
                    }),
                );
            }
        }
        sink.counter_add(names::SERVE_MERGED_LAUNCHES_TOTAL, report.merged_launches);
        for &fill in &report.bin_fills {
            sink.observe(
                names::SERVE_BIN_FILL_HIST,
                &names::SERVE_BIN_FILL_BUCKETS,
                fill,
            );
        }
        // Index-cache series ride the same zero-emission discipline: the
        // service emits each as zero every run so the exported set never
        // depends on whether an IndexCache front end is in play; when one
        // is, `IndexCache::record_metrics` overlays the real values
        // (counters are additive, gauges recorded after so last-wins).
        sink.counter_add(names::INDEX_CACHE_HITS_TOTAL, 0);
        sink.counter_add(names::INDEX_CACHE_DISK_LOADS_TOTAL, 0);
        sink.counter_add(names::INDEX_CACHE_BUILDS_TOTAL, 0);
        sink.gauge_set(names::INDEX_RESIDENT_SHARDS, 0.0);
    }
}
