//! fastz-lint: a project-invariant static analyzer.
//!
//! Every rule encodes a bug class this repo has already shipped and
//! fixed once — NaN-panicking float ranking (PR 4), unclamped score
//! arithmetic (PR 1/PR 6), metric-name drift (PR 3), non-exhaustive
//! fingerprints (PR 3/PR 9), nondeterministic collections in report
//! paths, and panicking step kernels. The workspace vendors no
//! dependencies, so parsing is a small in-crate lexer plus a
//! structural pass (`lex`/`source`) rather than `syn` — the same
//! vendor-what-you-need pattern as the `rand`/`proptest` shims.
//!
//! Findings are suppressible inline:
//!
//! ```text
//! // fastz-lint: allow(rule-id, written reason)
//! ```
//!
//! A trailing comment covers its own line; a standalone comment covers
//! the following paragraph (down to the next blank line). Suppressions
//! are accounted, not free: a missing reason, an unknown rule id, or a
//! suppression that matches no finding is itself a
//! `suppression-hygiene` finding, and hygiene findings cannot be
//! suppressed.

pub mod lex;
pub mod report;
pub mod rules;
pub mod source;

use report::{AppliedSuppression, LintReport};
use rules::SUPPRESSION_HYGIENE;
use source::SourceFile;
use std::io;
use std::path::Path;

/// Crate directories excluded from the scan: the vendored shims
/// reproduce external API surface (not this project's invariants), and
/// the lint crate itself — its rule tables and fixtures contain
/// exactly the tokens the rules hunt for.
const EXCLUDED_CRATES: &[&str] = &["lint", "proptest", "rand"];

/// The parsed file set a lint run operates on.
pub struct Workspace {
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Builds a workspace from in-memory sources (the mutation-corpus
    /// path): `(repo-relative path, source)` pairs. Paths decide rule
    /// scope, so fixtures choose their path to opt into a rule's scope.
    pub fn from_sources(sources: Vec<(String, String)>) -> Workspace {
        let mut files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, s)| SourceFile::parse(p, s))
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace { files }
    }

    /// Scans a repo checkout: `src/` at the root plus every
    /// `crates/*/src` except [`EXCLUDED_CRATES`]. Paths are stored
    /// repo-relative with forward slashes; the file list is sorted, so
    /// two scans of the same tree are identical.
    pub fn scan_repo(root: &Path) -> io::Result<Workspace> {
        let mut paths: Vec<(String, std::path::PathBuf)> = Vec::new();
        let root_src = root.join("src");
        if root_src.is_dir() {
            collect_rs(&root_src, "src", &mut paths)?;
        }
        let crates = root.join("crates");
        if crates.is_dir() {
            let mut entries: Vec<_> = std::fs::read_dir(&crates)?
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .map(|e| e.path())
                .collect();
            entries.sort();
            for dir in entries {
                let Some(name) = dir.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                if EXCLUDED_CRATES.contains(&name) {
                    continue;
                }
                let src = dir.join("src");
                if src.is_dir() {
                    collect_rs(&src, &format!("crates/{name}/src"), &mut paths)?;
                }
            }
        }
        paths.sort();
        let files = paths
            .into_iter()
            .map(|(rel, abs)| {
                let text = std::fs::read_to_string(&abs)?;
                Ok(SourceFile::parse(&rel, &text))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Workspace { files })
    }
}

fn collect_rs(
    dir: &Path,
    rel: &str,
    out: &mut Vec<(String, std::path::PathBuf)>,
) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        let Some(name) = p.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if p.is_dir() {
            collect_rs(&p, &format!("{rel}/{name}"), out)?;
        } else if name.ends_with(".rs") {
            out.push((format!("{rel}/{name}"), p));
        }
    }
    Ok(())
}

/// Runs every rule and applies suppression accounting; the returned
/// report is finalized (sorted) and deterministic.
pub fn run(ws: &Workspace) -> LintReport {
    let rule_set = rules::all_rules();
    let known_ids = rules::rule_ids();
    let mut raw = Vec::new();
    for r in &rule_set {
        r.check(ws, &mut raw);
    }

    let mut rep = LintReport {
        files_scanned: ws.files.len(),
        ..LintReport::default()
    };

    // Per-file suppression usage tracking.
    let mut used: Vec<Vec<bool>> = ws
        .files
        .iter()
        .map(|f| vec![false; f.suppressions.len()])
        .collect();

    for finding in raw {
        let hit = ws.files.iter().enumerate().find_map(|(fi, f)| {
            if f.path != finding.file {
                return None;
            }
            f.suppressions
                .iter()
                .position(|s| {
                    s.rule == finding.rule
                        && finding.line >= s.cover_start
                        && finding.line <= s.cover_end
                })
                .map(|si| (fi, si))
        });
        match hit {
            Some((fi, si)) => {
                used[fi][si] = true;
                let s = &ws.files[fi].suppressions[si];
                rep.suppressions.push(AppliedSuppression {
                    file: finding.file.clone(),
                    line: s.line,
                    rule: s.rule.clone(),
                    reason: s.reason.clone(),
                });
            }
            None => rep.findings.push(finding),
        }
    }
    // The same suppression can absorb several findings (paragraph
    // scope); report it once.
    rep.suppressions.dedup();

    // Hygiene: every suppression must name a known rule, carry a
    // reason, and match at least one finding.
    for (fi, f) in ws.files.iter().enumerate() {
        for (si, s) in f.suppressions.iter().enumerate() {
            let hygiene = |msg: String| report::Finding {
                file: f.path.clone(),
                line: s.line,
                rule: SUPPRESSION_HYGIENE.to_string(),
                message: msg,
                provenance: "suppressions are part of the gate: each must name a known rule, \
                             carry a written reason, and match a live finding"
                    .to_string(),
            };
            if !known_ids.contains(&s.rule.as_str()) {
                rep.findings.push(hygiene(format!(
                    "suppression names unknown rule `{}`",
                    s.rule
                )));
                continue;
            }
            if s.reason.is_empty() {
                rep.findings.push(hygiene(format!(
                    "suppression of `{}` has no written reason",
                    s.rule
                )));
                continue;
            }
            if !used[fi][si] {
                rep.findings.push(hygiene(format!(
                    "suppression of `{}` matches no finding; remove it",
                    s.rule
                )));
            }
        }
    }

    rep.finalize();
    rep
}
