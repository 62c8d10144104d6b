//! Runs one corpus case through every engine, collecting traces.

use fastz_align::ydrop::{ydrop_extend_traced, YDropScratch};
use fastz_align::{DenseTrace, OneSidedExtension, PruneMode};
use fastz_core::{
    warp_extend_in, warp_extend_on, OptFlags, SimdIsa, WarpConfig, WarpExtension, WavefrontBackend,
};
use fastz_genome::Scoring;
use fastz_gpu_sim::SharedMem;

use crate::corpus::Case;
use crate::oracle::{oracle_extend, OracleRun};
use crate::report::Divergence;

/// Cell-level checking is bounded: above this many matrix cells the
/// dense oracle and the per-cell traces are skipped and only the
/// interface-level invariants (scores, cells, stats, tracebacks) run.
pub const CELL_CHECK_CAP: usize = 1 << 20;

/// Executor runs allocate an `best_i × best_j` traceback; skip the
/// executor stage when that exceeds this cap (the huge bin-boundary
/// cases would otherwise allocate gigabytes).
pub const EXECUTOR_CELL_CAP: usize = 1 << 24;

/// Everything the checkers need about one case.
pub struct CaseRun {
    /// Scalar exact engine result.
    pub exact: OneSidedExtension,
    /// Scalar conservative engine result.
    pub cons: OneSidedExtension,
    /// Warp inspector result.
    pub warp: WarpExtension,
    /// Warp executor result (trimmed to the inspector optimum), when
    /// within [`EXECUTOR_CELL_CAP`].
    pub exec: Option<WarpExtension>,
    /// Per-cell traces (exact, conservative, warp) when within
    /// [`CELL_CHECK_CAP`].
    pub exact_trace: Option<DenseTrace>,
    /// Conservative scalar trace.
    pub cons_trace: Option<DenseTrace>,
    /// Warp inspector trace.
    pub warp_trace: Option<DenseTrace>,
    /// Dense reference runs, when within [`CELL_CHECK_CAP`].
    pub oracle_exact: Option<OracleRun>,
    /// Dense reference, conservative pruning.
    pub oracle_cons: Option<OracleRun>,
}

/// Runs all engines on `case`. `warp_scoring` is normally `scoring`;
/// the CLI's `--corrupt` mode passes a perturbed copy to the warp
/// engine only, to demonstrate divergence reporting end to end.
pub fn run_case(case: &Case, scoring: &Scoring, warp_scoring: &Scoring) -> CaseRun {
    run_case_on(case, scoring, warp_scoring, WavefrontBackend::Interpreter)
}

/// [`run_case`] with the warp engine on an explicit wavefront backend
/// (the CLI's `--engine simd` drives the whole suite through the SIMD
/// path; results must be identical by the backend contract).
pub fn run_case_on(
    case: &Case,
    scoring: &Scoring,
    warp_scoring: &Scoring,
    backend: WavefrontBackend,
) -> CaseRun {
    let t = case.target.as_slice();
    let q = case.query.as_slice();
    let full = (t.len() + 1).saturating_mul(q.len() + 1) <= CELL_CHECK_CAP;

    let mut scratch = YDropScratch::default();
    let mut exact_trace = DenseTrace::default();
    let mut cons_trace = DenseTrace::default();
    let mut warp_trace = DenseTrace::default();

    let exact;
    let cons;
    let warp;
    let flags = OptFlags::fastz();
    let insp_cfg = WarpConfig::inspector(&flags).with_backend(backend);
    let mut shared = SharedMem::new(96 * 1024);
    if full {
        exact = ydrop_extend_traced(
            t,
            q,
            scoring,
            PruneMode::Exact,
            true,
            &mut scratch,
            &mut exact_trace,
        );
        cons = ydrop_extend_traced(
            t,
            q,
            scoring,
            PruneMode::Conservative,
            true,
            &mut scratch,
            &mut cons_trace,
        );
        warp = warp_extend_on(
            SimdIsa::dispatched(),
            t,
            q,
            warp_scoring,
            &insp_cfg,
            &mut shared,
            &mut Vec::new(),
            &mut warp_trace,
        );
    } else {
        use fastz_align::NoTrace;
        exact = ydrop_extend_traced(
            t,
            q,
            scoring,
            PruneMode::Exact,
            false,
            &mut scratch,
            &mut NoTrace,
        );
        cons = ydrop_extend_traced(
            t,
            q,
            scoring,
            PruneMode::Conservative,
            false,
            &mut scratch,
            &mut NoTrace,
        );
        warp = warp_extend_in(t, q, warp_scoring, &insp_cfg, &mut shared, &mut Vec::new());
    }

    let exec = if warp.best_i.saturating_mul(warp.best_j) <= EXECUTOR_CELL_CAP {
        let exec_cfg = WarpConfig::executor(&flags, warp.best_i, warp.best_j).with_backend(backend);
        let mut shared = SharedMem::new(96 * 1024);
        Some(warp_extend_in(
            t,
            q,
            warp_scoring,
            &exec_cfg,
            &mut shared,
            &mut Vec::new(),
        ))
    } else {
        None
    };

    let (oracle_exact, oracle_cons) = if full {
        (
            Some(oracle_extend(t, q, scoring, PruneMode::Exact)),
            Some(oracle_extend(t, q, scoring, PruneMode::Conservative)),
        )
    } else {
        (None, None)
    };

    CaseRun {
        exact,
        cons,
        warp,
        exec,
        exact_trace: full.then_some(exact_trace),
        cons_trace: full.then_some(cons_trace),
        warp_trace: full.then_some(warp_trace),
        oracle_exact,
        oracle_cons,
    }
}

/// The wavefront-backend identity drill: runs the warp engine on the
/// same case under the interpreter and the SIMD backend (inspector and,
/// within [`EXECUTOR_CELL_CAP`], executor) and demands bit-identical
/// results — optimum, edit scripts, work counters (hence modeled GPU
/// time), and explored extents.
pub fn check_backend_identity(case: &Case, scoring: &Scoring) -> (usize, Vec<Divergence>) {
    let t = case.target.as_slice();
    let q = case.query.as_slice();
    let flags = OptFlags::fastz();
    let mut checks = 0usize;
    let mut divergences = Vec::new();
    let mut diverge = |invariant: &'static str, message: String| {
        divergences.push(Divergence {
            category: case.category,
            seed: case.seed,
            invariant,
            engines: "warp-interpreter vs warp-simd",
            message,
            first_divergent_cell: None,
        });
    };

    let run = |cfg: &WarpConfig| {
        let mut shared = SharedMem::new(96 * 1024);
        warp_extend_in(t, q, scoring, cfg, &mut shared, &mut Vec::new())
    };
    let insp_cfg = WarpConfig::inspector(&flags);
    let a = run(&insp_cfg);
    let b = run(&insp_cfg.with_backend(WavefrontBackend::Simd));
    checks += 1;
    if (a.best_score, a.best_i, a.best_j) != (b.best_score, b.best_i, b.best_j) {
        diverge(
            "backend-identical-optimum",
            format!(
                "inspector optimum ({}, {}, {}) != ({}, {}, {})",
                a.best_score, a.best_i, a.best_j, b.best_score, b.best_i, b.best_j
            ),
        );
    }
    checks += 1;
    if a.eager_ops != b.eager_ops {
        diverge(
            "backend-identical-eager-ops",
            "eager traceback scripts differ between backends".into(),
        );
    }
    checks += 1;
    if a.counters != b.counters {
        diverge(
            "backend-identical-counters",
            format!(
                "inspector counters differ: {:?} != {:?}",
                a.counters, b.counters
            ),
        );
    }
    checks += 1;
    if (a.explored_rows, a.explored_cols) != (b.explored_rows, b.explored_cols) {
        diverge(
            "backend-identical-extent",
            format!(
                "explored extents ({}, {}) != ({}, {})",
                a.explored_rows, a.explored_cols, b.explored_rows, b.explored_cols
            ),
        );
    }

    if a.best_i.saturating_mul(a.best_j) <= EXECUTOR_CELL_CAP {
        let exec_cfg = WarpConfig::executor(&flags, a.best_i, a.best_j);
        let ea = run(&exec_cfg);
        let eb = run(&exec_cfg.with_backend(WavefrontBackend::Simd));
        checks += 1;
        if ea.ops != eb.ops {
            diverge(
                "backend-identical-executor-ops",
                "executor edit scripts differ between backends".into(),
            );
        }
        checks += 1;
        if ea.counters != eb.counters {
            diverge(
                "backend-identical-executor-counters",
                format!(
                    "executor counters differ: {:?} != {:?}",
                    ea.counters, eb.counters
                ),
            );
        }
    }

    (checks, divergences)
}
