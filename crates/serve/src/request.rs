//! Request, priority, and outcome types for the alignment service.

use fastz_align::Alignment;
use fastz_seed::Anchor;

/// Request priority: how the service treats the request under overload.
///
/// Priority maps onto the pipeline's warp→scalar→skip resilience ladder:
/// as queue pressure rises, [`Priority::Low`] work degrades to the
/// scalar (strip-width-1) engine first and is the first to be shed
/// outright; [`Priority::Normal`] degrades only near saturation;
/// [`Priority::High`] is never degraded by pressure (faults can still
/// degrade individual problems, which the outcome records).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Never degraded by pressure; last to feel overload.
    High,
    /// Degrades to the scalar engine near queue saturation.
    Normal,
    /// First to degrade, first to shed.
    Low,
}

impl Priority {
    /// All priorities, in dispatch order (highest first).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Stable display / metric-label name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Dispatch rank: lower runs first.
    pub fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// One alignment request: a batch of seed anchors to extend over the
/// service's registered (target, query) pair.
#[derive(Clone, Debug)]
pub struct AlignRequest {
    /// Caller-assigned id, unique per service run. The id keys the
    /// request's fault schedule ([`fastz_gpu_sim::FaultPlan::for_request`])
    /// and its result delivery, so a request keeps the same id — and
    /// therefore bit-identical results — whether it is served solo or
    /// co-batched.
    pub id: u64,
    /// Seed anchors to extend.
    pub anchors: Vec<Anchor>,
    /// Seed span (matches the pipeline argument).
    pub seed_span: usize,
    /// Overload treatment class.
    pub priority: Priority,
    /// Virtual submission time in modeled seconds. The service clock is
    /// the modeled-GPU-time axis, never wall clock, so outcome
    /// classification is deterministic across host thread counts.
    pub arrival_s: f64,
    /// Relative deadline in modeled seconds; `None` derives one from the
    /// watchdog deadline rule and the request's estimated work.
    pub deadline_s: Option<f64>,
}

impl AlignRequest {
    /// A [`Priority::Normal`] request with a derived deadline.
    pub fn new(id: u64, anchors: Vec<Anchor>, seed_span: usize) -> AlignRequest {
        AlignRequest {
            id,
            anchors,
            seed_span,
            priority: Priority::Normal,
            arrival_s: 0.0,
            deadline_s: None,
        }
    }

    /// This request with a different priority.
    pub fn with_priority(mut self, priority: Priority) -> AlignRequest {
        self.priority = priority;
        self
    }

    /// This request arriving at `arrival_s` on the virtual clock.
    pub fn at(mut self, arrival_s: f64) -> AlignRequest {
        self.arrival_s = arrival_s;
        self
    }

    /// Modeled work units for admission control (anchor count: two
    /// extension problems per anchor, cost proportional).
    pub fn work_units(&self) -> f64 {
        self.anchors.len() as f64
    }

    /// Index of the first anchor whose seed window (`pos + seed_span`)
    /// runs past the end of a `target_len`-bp target or a `query_len`-bp
    /// query; `None` when every anchor fits.
    pub(crate) fn first_bad_anchor(&self, target_len: usize, query_len: usize) -> Option<usize> {
        let fits = |pos: u32, len: usize| {
            (pos as usize)
                .checked_add(self.seed_span)
                .is_some_and(|end| end <= len)
        };
        self.anchors
            .iter()
            .position(|a| !fits(a.target_pos, target_len) || !fits(a.query_pos, query_len))
    }
}

/// Why a request was shed instead of served.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShedReason {
    /// The admission queue was at capacity.
    QueueFull {
        /// Queue depth at rejection.
        depth: usize,
        /// Configured capacity.
        cap: usize,
    },
    /// Admitting the request would exceed the in-flight modeled-work
    /// budget.
    WorkBudget {
        /// Work units already queued.
        queued: f64,
        /// The request's work units.
        incoming: f64,
        /// Configured budget.
        budget: f64,
    },
    /// Dropped at dispatch time: low-priority work under saturation
    /// pressure (the shed rung of the degradation ladder).
    Overload,
    /// Rejected at admission: an anchor's seed window runs past the end
    /// of the target or the query, so the request cannot be extended.
    BadAnchor {
        /// Index of the first such anchor in the request.
        anchor: usize,
    },
}

impl ShedReason {
    /// Stable metric-label name.
    pub fn name(&self) -> &'static str {
        match self {
            ShedReason::QueueFull { .. } => "queue-full",
            ShedReason::WorkBudget { .. } => "budget",
            ShedReason::Overload => "overload",
            ShedReason::BadAnchor { .. } => "bad-anchor",
        }
    }

    /// All label names (zero-emission discipline enumerates them).
    pub const NAMES: [&'static str; 4] = ["queue-full", "budget", "overload", "bad-anchor"];
}

/// What the degraded path did to a request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DegradeRecord {
    /// The whole request ran on the scalar (strip-width-1) engine.
    pub scalar: bool,
    /// Problems the fault ladder degraded warp→scalar.
    pub fallbacks: u64,
    /// Seeds the skip-with-record rung dropped.
    pub skipped_seeds: usize,
}

/// Terminal state of a request. Every submitted request ends in exactly
/// one of these — the chaos-soak invariant.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Served at full fidelity.
    Completed,
    /// Served, but degraded (scalar engine, fault fallbacks, or skipped
    /// seeds) — results are still exact for everything not skipped.
    Degraded(DegradeRecord),
    /// Admitted but missed its deadline: expired in the queue
    /// (`finished_s == None`) or finished too late.
    DeadlineError {
        /// Absolute deadline on the virtual clock.
        deadline_s: f64,
        /// Completion time, when the request did run.
        finished_s: Option<f64>,
    },
    /// Rejected: never ran, with the reason.
    ShedError(ShedReason),
}

impl Outcome {
    /// Stable classification label (the chaos-soak test compares these
    /// across `sim_threads`).
    pub fn class(&self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Degraded(_) => "degraded",
            Outcome::DeadlineError { .. } => "deadline-error",
            Outcome::ShedError(_) => "shed-error",
        }
    }

    /// True for the two served states.
    pub fn served(&self) -> bool {
        matches!(self, Outcome::Completed | Outcome::Degraded(_))
    }
}

/// The per-request record the service hands back.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// Request id.
    pub id: u64,
    /// Request priority.
    pub priority: Priority,
    /// Terminal state.
    pub outcome: Outcome,
    /// Alignments (empty unless the request was served; a late finish
    /// still reports what it computed, flagged by the outcome).
    pub alignments: Vec<Alignment>,
    /// The request's own modeled GPU time — bit-identical to a solo run
    /// of the same request (0 when it never ran).
    pub modeled_time_s: f64,
    /// Virtual time the terminal state was recorded.
    pub decided_s: f64,
}
