//! `determinism`: no unordered collections, wall clocks, or ambient
//! RNG in modeled-time, report, and export paths.
//!
//! The bit-identity contract (conformance oracle, pool-invariance
//! proptests, the serve chaos soak) requires that every report,
//! export, checkpoint, and modeled-time result be a pure function of
//! its inputs. `HashMap`/`HashSet` iteration order, `Instant`/
//! `SystemTime` reads, and `thread_rng` all smuggle ambient state into
//! those paths. `Duration` stays legal — modeled time is represented,
//! not measured.

use super::Rule;
use crate::lex::TokKind;
use crate::report::Finding;
use crate::Workspace;

/// Directory prefixes in scope (everything under them).
const PREFIXES: &[&str] = &[
    "crates/gpu-sim/src/sanitize/",
    "crates/obs/src/",
    "crates/serve/src/",
];

/// Individual files in scope: persistence, checkpointing, modeled
/// cost/time, and report modules.
const FILES: &[&str] = &[
    "crates/conformance/src/report.rs",
    "crates/core/src/cost.rs",
    "crates/core/src/resilient.rs",
    "crates/genome/src/durable.rs",
    "crates/gpu-sim/src/counters.rs",
    "crates/gpu-sim/src/model.rs",
    "crates/gpu-sim/src/occupancy.rs",
    "crates/gpu-sim/src/roofline.rs",
    "crates/gpu-sim/src/stream.rs",
    "crates/gpu-sim/src/timeline.rs",
    "crates/seed/src/persist.rs",
];

/// Forbidden identifiers and what each smuggles in.
const FORBIDDEN: &[(&str, &str)] = &[
    ("HashMap", "unordered iteration"),
    ("HashSet", "unordered iteration"),
    ("Instant", "wall-clock read"),
    ("SystemTime", "wall-clock read"),
    ("thread_rng", "ambient RNG"),
];

fn in_scope(path: &str) -> bool {
    PREFIXES.iter().any(|p| path.starts_with(p)) || FILES.contains(&path)
}

pub struct Determinism;

impl Rule for Determinism {
    fn id(&self) -> &'static str {
        "determinism"
    }

    fn provenance(&self) -> &'static str {
        "bit-identity contract: HashMap iteration order, wall-clock reads, and ambient RNG \
         make reports and exports nondeterministic; use BTreeMap/sorted collections and \
         modeled time"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in ws.files.iter().filter(|f| in_scope(&f.path)) {
            for t in f.toks() {
                if t.kind != TokKind::Ident || f.in_test(t.line) {
                    continue;
                }
                if let Some((name, why)) = FORBIDDEN.iter().find(|(name, _)| t.text == *name) {
                    out.push(self.finding(
                        &f.path,
                        t.line,
                        format!("`{name}` ({why}) in a determinism-scoped path"),
                    ));
                }
            }
        }
    }
}
