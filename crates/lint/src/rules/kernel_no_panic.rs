//! `kernel-no-panic`: the step kernels must not panic on
//! device-shaped inputs.
//!
//! The wavefront and bitvector step kernels are the code a real GPU
//! port would transliterate; a panic there is a device-side abort. The
//! rule forbids `unwrap`/`expect` and panic-family macros outright,
//! and requires every *computed* index (an index expression containing
//! arithmetic) to carry a `// bound: <argument>` note on its line or
//! within the two preceding lines — the CPU-side equivalent of the
//! bounds reasoning a kernel launch can't recover from getting wrong.
//! Plain loop-variable indexing (`row[l]`) needs no note.

use super::Rule;
use crate::lex::TokKind;
use crate::report::Finding;
use crate::source::SourceFile;
use crate::Workspace;

/// Whole-file scope: every fn in the wavefront step interpreter/SIMD
/// module.
const WAVEFRONT: &str = "crates/core/src/wavefront_step.rs";

/// Function-scoped: the bitvector kernel's per-window machinery (the
/// surrounding driver code is host-side and may panic on host bugs).
const BITVEC: &str = "crates/core/src/bitvec.rs";
const BITVEC_FNS: &[&str] = &[
    "bitvec_extend_in",
    "bitvec_extend_view",
    "pattern_masks",
    "text_mask",
    "band_start",
    "column_step",
    "dead_prefix",
    "store_column",
    "scan_column",
    "tb_row",
    "traceback",
    "window_masks",
];

/// Function-scoped: the strip sweep (the per-strip step loop and its
/// step body, which run on either lane width) and the executor's
/// step-major traceback store, written once per wavefront step and read
/// by the traceback walk (the rest of the file still asserts on caller
/// errors, such as a strip width outside `1..=WARP_SIZE`).
const WARP_ENGINE: &str = "crates/core/src/warp_engine.rs";
const WARP_ENGINE_FNS: &[&str] = &[
    "sweep_strip",
    "step",
    "begin_strip",
    "push_step",
    "end_strip",
    "lookup",
];

/// Whole-file scope: the 16-bit lane types, every op of which runs
/// inside the strip sweep.
const LANES16: &str = "crates/core/src/lanes16.rs";

/// Whole-file scope: the base view both engines read every sequence
/// base through, once per step or column.
const VIEW: &str = "crates/core/src/view.rs";

/// Panic-family macro names (each flagged when followed by `!`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn in_scope(f: &SourceFile, line: u32) -> bool {
    if f.in_test(line) {
        return false;
    }
    match f.path.as_str() {
        WAVEFRONT | LANES16 | VIEW => true,
        BITVEC => in_fns(f, line, BITVEC_FNS),
        WARP_ENGINE => in_fns(f, line, WARP_ENGINE_FNS),
        _ => false,
    }
}

/// Is `line` inside one of the functions named in `fns`?
fn in_fns(f: &SourceFile, line: u32, fns: &[&str]) -> bool {
    f.fn_at(line)
        .map(|s| fns.contains(&s.name.as_str()))
        .unwrap_or(false)
}

pub struct KernelNoPanic;

impl Rule for KernelNoPanic {
    fn id(&self) -> &'static str {
        "kernel-no-panic"
    }

    fn provenance(&self) -> &'static str {
        "kernel contract: the step kernels are the GPU-port surface and a panic there is a \
         device-side abort; no unwrap/expect/panic macros, and computed indices must carry \
         a written `// bound:` argument"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in ws
            .files
            .iter()
            .filter(|f| [WAVEFRONT, BITVEC, WARP_ENGINE, LANES16, VIEW].contains(&f.path.as_str()))
        {
            let toks = f.toks();
            for (i, t) in toks.iter().enumerate() {
                if !in_scope(f, t.line) {
                    continue;
                }
                if t.kind == TokKind::Ident {
                    let next = toks.get(i + 1).map(|n| n.text.as_str());
                    if matches!(t.text.as_str(), "unwrap" | "expect")
                        && i > 0
                        && toks[i - 1].text == "."
                        && next == Some("(")
                    {
                        out.push(self.finding(
                            &f.path,
                            t.line,
                            format!("`.{}()` in a step kernel", t.text),
                        ));
                    }
                    if PANIC_MACROS.contains(&t.text.as_str()) && next == Some("!") {
                        out.push(self.finding(
                            &f.path,
                            t.line,
                            format!("`{}!` in a step kernel", t.text),
                        ));
                    }
                }
                // Computed indexing: `expr[... arithmetic ...]`.
                if t.kind == TokKind::Punct && t.text == "[" && is_index_site(toks, i) {
                    if let Some(close) = matching_bracket(toks, i) {
                        let computed = toks[i + 1..close].iter().any(|x| {
                            x.kind == TokKind::Punct && matches!(x.text.as_str(), "+" | "-" | "*")
                        });
                        if computed && !f.note_near(t.line, 2, "bound:") {
                            out.push(self.finding(
                                &f.path,
                                t.line,
                                "computed index without a `// bound:` note".to_string(),
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// Is the `[` at `i` an indexing site (as opposed to an array literal,
/// slice type, or attribute)? True when a value expression ends
/// immediately before it.
fn is_index_site(toks: &[crate::lex::Tok], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
        return false;
    };
    match prev.kind {
        TokKind::Ident => !matches!(
            prev.text.as_str(),
            "in" | "mut" | "return" | "as" | "else" | "if" | "match" | "vec"
        ),
        TokKind::Punct => matches!(prev.text.as_str(), ")" | "]"),
        _ => false,
    }
}

fn matching_bracket(toks: &[crate::lex::Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
    }
    None
}
