//! `clamped-score-arith`: raw `+`/`-` on score-like values in the
//! alignment and kernel hot paths.
//!
//! Scores are i32 with `NEG_INF = i32::MIN / 2` as the unreachable
//! sentinel; a raw add on a sentinel-seeded cell drifts toward
//! `i32::MIN` row over row until it wraps (the PR 1 banded bug, refound
//! in PR 6's sweep). Arithmetic on score values must go through
//! `score::{clamp, add_clamped, gap_chain}` or saturating ops; sites
//! where rawness is the contract (the Gotoh recurrence's tie-break
//! ordering) carry a written suppression instead.

use super::Rule;
use crate::lex::{Tok, TokKind};
use crate::report::Finding;
use crate::Workspace;

/// Files in scope: the alignment kernels and the core step kernels.
/// `score.rs` itself is the implementation of the discipline and is
/// deliberately out of scope.
const SCOPE: &[&str] = &[
    "crates/align/src/banded.rs",
    "crates/align/src/driver.rs",
    "crates/align/src/extend.rs",
    "crates/align/src/ungapped.rs",
    "crates/align/src/ydrop.rs",
    "crates/core/src/bitvec.rs",
    "crates/core/src/lanes16.rs",
    "crates/core/src/warp_engine.rs",
    "crates/core/src/wavefront_step.rs",
];

/// Identifier names treated as score-valued besides anything
/// containing `score`: the sentinel, the gap-cost locals, and the
/// recurrence cell names used across ydrop/banded/wavefront kernels.
const SCOREISH_EXACT: &[&str] = &[
    "NEG_INF", "so_se", "so", "se", "i_val", "d_val", "s_val", "i_left", "s_left", "s_up", "d_up",
    "s_diag", "diag_val",
];

/// Calls whose argument list is an allowed clamping context.
const ALLOWED_CALLS: &[&str] = &[
    "clamp",
    "add_clamped",
    "gap_chain",
    "saturating_add",
    "saturating_sub",
];

fn scoreish(name: &str) -> bool {
    name.contains("score") || SCOREISH_EXACT.contains(&name)
}

pub struct ClampedScoreArith;

impl Rule for ClampedScoreArith {
    fn id(&self) -> &'static str {
        "clamped-score-arith"
    }

    fn provenance(&self) -> &'static str {
        "PR 1/PR 6: raw i32 adds on NEG_INF-seeded scores wrapped toward i32::MIN across rows; \
         score arithmetic must go through score::{clamp, add_clamped, gap_chain}"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in ws.files.iter().filter(|f| SCOPE.contains(&f.path.as_str())) {
            let toks = f.toks();
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokKind::Punct || !matches!(t.text.as_str(), "+" | "-" | "+=" | "-=") {
                    continue;
                }
                if f.in_test(t.line) {
                    continue;
                }
                let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
                    continue;
                };
                // `+`/`-` are binary only when a value ends to their
                // left; otherwise they are unary / range arithmetic.
                let binary = matches!(prev.kind, TokKind::Ident | TokKind::Num)
                    || matches!(prev.text.as_str(), ")" | "]");
                if !binary {
                    continue;
                }
                let Some(operand) = score_operand(toks, i) else {
                    continue;
                };
                if in_allowed_call(toks, i) {
                    continue;
                }
                out.push(self.finding(
                    &f.path,
                    t.line,
                    format!(
                        "raw `{}` on score-like operand `{}` outside \
                         score::{{clamp, add_clamped, gap_chain}}",
                        t.text, operand
                    ),
                ));
            }
        }
    }
}

/// The score-like identifier adjacent to the operator at `i`, if any.
/// Walks field chains on both sides, so `inp.s_left[l] + inp.so_se`
/// matches on `s_left`/`so_se`, not just the tokens touching the `+`.
fn score_operand(toks: &[Tok], i: usize) -> Option<&str> {
    // Left operand: step back over a trailing index group, then walk
    // the `a.b.c` chain backwards.
    let mut j = i.checked_sub(1)?;
    if toks[j].text == "]" {
        let mut depth = 0i32;
        loop {
            match toks[j].text.as_str() {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j = j.checked_sub(1)?;
        }
        j = j.checked_sub(1)?;
    }
    while toks[j].kind == TokKind::Ident {
        if scoreish(&toks[j].text) {
            return Some(&toks[j].text);
        }
        match j.checked_sub(2) {
            Some(p) if toks[j - 1].text == "." && toks[p].kind == TokKind::Ident => j = p,
            _ => break,
        }
    }
    // Right operand: skip one unary minus, then walk the chain forward.
    let mut j = i + 1;
    if toks.get(j).map(|t| t.text.as_str()) == Some("-") {
        j += 1;
    }
    while toks.get(j).map(|t| t.kind) == Some(TokKind::Ident) {
        if scoreish(&toks[j].text) {
            return Some(&toks[j].text);
        }
        if toks.get(j + 1).map(|t| t.text.as_str()) == Some(".")
            && toks.get(j + 2).map(|t| t.kind) == Some(TokKind::Ident)
        {
            j += 2;
        } else {
            break;
        }
    }
    None
}

/// Is the operator at `i` lexically inside an argument list of one of
/// `ALLOWED_CALLS`? Scans outward through unmatched `(` until a
/// statement boundary.
fn in_allowed_call(toks: &[Tok], i: usize) -> bool {
    let mut depth = 0i32;
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            ")" | "]" => depth += 1,
            "(" => {
                if depth == 0 {
                    if toks
                        .get(j.wrapping_sub(1))
                        .map(|p| {
                            p.kind == TokKind::Ident && ALLOWED_CALLS.contains(&p.text.as_str())
                        })
                        .unwrap_or(false)
                    {
                        return true;
                    }
                    // Not an allowed call — keep scanning outward.
                } else {
                    depth -= 1;
                }
            }
            "[" if depth > 0 => depth -= 1,
            ";" | "{" | "}" if depth == 0 => return false,
            _ => {}
        }
    }
    false
}
