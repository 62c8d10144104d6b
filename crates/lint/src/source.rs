//! Structural pass over a lexed file: the handful of shapes the rules
//! need — `#[cfg(test)]` spans, `fn` spans, struct fields, string
//! consts and const slices, `let Type { .. }` destructure patterns —
//! plus the `// fastz-lint:` directive comments (suppressions and
//! fingerprint markers).

use crate::lex::{lex, Comment, Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// An inline suppression: `// fastz-lint: allow(rule-id, reason)`.
///
/// A trailing suppression covers its own line. A standalone suppression
/// covers the following lines down to the next blank line (paragraph
/// scope), so one comment can cover a short run of related statements
/// without being repeated per line.
#[derive(Clone, Debug)]
pub struct Suppression {
    pub line: u32,
    pub rule: String,
    /// Reason text after the rule id; empty string when the author
    /// omitted it (a `suppression-hygiene` finding).
    pub reason: String,
    pub cover_start: u32,
    pub cover_end: u32,
}

/// `// fastz-lint: fingerprint(TypeName)` — marks the next
/// `let TypeName { .. }` destructure as the exhaustiveness witness for
/// that type's identity function.
#[derive(Clone, Debug)]
pub struct FingerprintMarker {
    pub line: u32,
    pub type_name: String,
}

/// A named function body span (line of `fn` to line of its closing
/// brace, inclusive).
#[derive(Clone, Debug)]
pub struct FnSpan {
    pub name: String,
    pub start_line: u32,
    pub end_line: u32,
}

/// One struct definition's named fields (tuple/unit structs are
/// skipped; the fingerprint rule only cares about named fields).
#[derive(Clone, Debug)]
pub struct StructDef {
    pub name: String,
    pub line: u32,
    pub fields: Vec<String>,
}

/// `pub const NAME: &str = "value";`
#[derive(Clone, Debug)]
pub struct StrConst {
    pub name: String,
    pub value: String,
    pub line: u32,
}

/// `pub const NAME: &[&str] = &[A, B, C];` — element identifiers plus
/// the token index range of the initializer (so reference counting can
/// exclude it).
#[derive(Clone, Debug)]
pub struct SliceConst {
    pub name: String,
    pub elems: Vec<String>,
    pub line: u32,
    pub init_tok_range: (usize, usize),
}

/// One field of a `let Type { .. }` destructure pattern.
#[derive(Clone, Debug)]
pub struct PatField {
    pub name: String,
    pub line: u32,
    /// True for `name: _` — the field is acknowledged but discarded.
    pub discarded: bool,
}

/// A `let TypeName { ... } = expr;` destructure.
#[derive(Clone, Debug)]
pub struct Destructure {
    pub type_name: String,
    pub line: u32,
    pub fields: Vec<PatField>,
    /// True when the pattern contains `..` (non-exhaustive).
    pub has_rest: bool,
}

/// A parsed source file plus everything the rules query.
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    pub lexed: Lexed,
    /// Line ranges (inclusive) of `#[cfg(test)] mod` bodies.
    pub test_spans: Vec<(u32, u32)>,
    pub fns: Vec<FnSpan>,
    pub structs: Vec<StructDef>,
    pub str_consts: Vec<StrConst>,
    pub slice_consts: Vec<SliceConst>,
    pub destructures: Vec<Destructure>,
    pub suppressions: Vec<Suppression>,
    pub fingerprint_markers: Vec<FingerprintMarker>,
    blank_lines: BTreeSet<u32>,
    last_line: u32,
}

impl SourceFile {
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let blank_lines: BTreeSet<u32> = src
            .lines()
            .enumerate()
            .filter(|(_, l)| l.trim().is_empty())
            .map(|(i, _)| i as u32 + 1)
            .collect();
        let last_line = src.lines().count() as u32;
        let mut f = SourceFile {
            path: path.to_string(),
            lexed,
            test_spans: Vec::new(),
            fns: Vec::new(),
            structs: Vec::new(),
            str_consts: Vec::new(),
            slice_consts: Vec::new(),
            destructures: Vec::new(),
            suppressions: Vec::new(),
            fingerprint_markers: Vec::new(),
            blank_lines,
            last_line,
        };
        f.scan_structure();
        f.scan_directives();
        f
    }

    pub fn toks(&self) -> &[Tok] {
        &self.lexed.toks
    }

    pub fn comments(&self) -> &[Comment] {
        &self.lexed.comments
    }

    /// Is `line` inside a `#[cfg(test)]` module body?
    pub fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(s, e)| line >= s && line <= e)
    }

    /// The function span containing `line`, if any (innermost wins when
    /// nested, which named fns in this workspace never are).
    pub fn fn_at(&self, line: u32) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| line >= f.start_line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.start_line)
    }

    /// Is there a comment whose trimmed text starts with `prefix` on
    /// `line` itself or within `back` lines before it?
    pub fn note_near(&self, line: u32, back: u32, prefix: &str) -> bool {
        self.comments().iter().any(|c| {
            c.line <= line && c.line + back >= line && c.text.trim_start().starts_with(prefix)
        })
    }

    fn scan_structure(&mut self) {
        let toks: Vec<Tok> = self.lexed.toks.clone();
        let n = toks.len();
        let mut i = 0usize;
        while i < n {
            let t = &toks[i];
            if t.kind == TokKind::Punct && t.text == "#" {
                if let Some(span) = try_cfg_test_mod(&toks, i) {
                    self.test_spans.push(span);
                }
            }
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "fn" => {
                        if let Some(span) = try_fn_span(&toks, i) {
                            self.fns.push(span);
                        }
                    }
                    "struct" => {
                        if let Some(def) = try_struct(&toks, i) {
                            self.structs.push(def);
                        }
                    }
                    "const" => {
                        if let Some(sc) = try_str_const(&toks, i) {
                            self.str_consts.push(sc);
                        } else if let Some(sl) = try_slice_const(&toks, i) {
                            self.slice_consts.push(sl);
                        }
                    }
                    "let" => {
                        if let Some(d) = try_destructure(&toks, i) {
                            self.destructures.push(d);
                        }
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }

    fn scan_directives(&mut self) {
        // Merge runs of consecutive standalone `//` lines into blocks so
        // a directive (and its reason) can wrap across comment lines.
        struct Block {
            start: u32,
            end: u32,
            standalone: bool,
            text: String,
        }
        let mut blocks: Vec<Block> = Vec::new();
        for c in &self.lexed.comments {
            if c.standalone {
                if let Some(b) = blocks.last_mut() {
                    if b.standalone && b.end + 1 == c.line {
                        b.end = c.line;
                        b.text.push(' ');
                        b.text.push_str(c.text.trim());
                        continue;
                    }
                }
            }
            blocks.push(Block {
                start: c.line,
                end: c.line,
                standalone: c.standalone,
                text: c.text.trim().to_string(),
            });
        }
        for b in &blocks {
            let Some(pos) = b.text.find("fastz-lint:") else {
                continue;
            };
            let rest = b.text[pos + "fastz-lint:".len()..].trim_start();
            if let Some(body) = directive_body(rest, "allow") {
                let (rule, reason) = match body.split_once(',') {
                    Some((r, why)) => (r.trim().to_string(), why.trim().to_string()),
                    None => (body.trim().to_string(), String::new()),
                };
                let (cover_start, cover_end) = if b.standalone {
                    // Paragraph scope: down to the next blank line (or
                    // end of file).
                    let end = self
                        .blank_lines
                        .range(b.start..)
                        .next()
                        .map(|&bl| bl.saturating_sub(1))
                        .unwrap_or(self.last_line);
                    (b.start, end)
                } else {
                    (b.start, b.start)
                };
                self.suppressions.push(Suppression {
                    line: b.start,
                    rule,
                    reason,
                    cover_start,
                    cover_end,
                });
            } else if let Some(body) = directive_body(rest, "fingerprint") {
                // Anchor at the block's last line: explanation lines
                // above the marker must not push the destructure out of
                // the marker's reach.
                self.fingerprint_markers.push(FingerprintMarker {
                    line: b.end,
                    type_name: body.trim().to_string(),
                });
            }
        }
    }
}

/// Extracts `name(...)` → inner text (balanced parens, so reasons may
/// themselves contain parentheses) when `rest` starts with `name(`.
fn directive_body<'a>(rest: &'a str, name: &str) -> Option<&'a str> {
    let after = rest.strip_prefix(name)?;
    let after = after.trim_start();
    let after = after.strip_prefix('(')?;
    let mut depth = 1usize;
    for (i, ch) in after.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&after[..i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Matches `# [ cfg ( test ) ] mod name {` and returns the body's line
/// span.
fn try_cfg_test_mod(toks: &[Tok], i: usize) -> Option<(u32, u32)> {
    let pat = ["#", "[", "cfg", "(", "test", ")", "]"];
    for (k, want) in pat.iter().enumerate() {
        if toks.get(i + k)?.text != *want {
            return None;
        }
    }
    let mut j = i + pat.len();
    if toks.get(j)?.text != "mod" {
        return None;
    }
    j += 1; // mod name
    let start_line = toks.get(j)?.line;
    j += 1;
    if toks.get(j)?.text != "{" {
        return None;
    }
    let end = match_brace(toks, j)?;
    Some((start_line, toks[end].line))
}

/// From the `fn` keyword, finds the body braces (first `{` at zero
/// paren/bracket/angle-free depth after the signature) and returns the
/// span. Trait-method declarations (`fn f(...);`) return None.
fn try_fn_span(toks: &[Tok], i: usize) -> Option<FnSpan> {
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut j = i + 2;
    let mut depth = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => {
                let end = match_brace(toks, j)?;
                return Some(FnSpan {
                    name: name_tok.text.clone(),
                    start_line: toks[i].line,
                    end_line: toks[end].line,
                });
            }
            ";" if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// `struct Name { a: T, pub b: U, ... }` → field names.
fn try_struct(toks: &[Tok], i: usize) -> Option<StructDef> {
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut j = i + 2;
    // Skip generics.
    if toks.get(j)?.text == "<" {
        let mut angle = 1i32;
        j += 1;
        while j < toks.len() && angle > 0 {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                ";" | "{" => return None,
                _ => {}
            }
            j += 1;
        }
    }
    if toks.get(j)?.text != "{" {
        return None; // tuple or unit struct
    }
    let end = match_brace(toks, j)?;
    let mut fields = Vec::new();
    let mut k = j + 1;
    while k < end {
        // Skip attributes on the field.
        while toks[k].text == "#" {
            if toks.get(k + 1).map(|t| t.text.as_str()) == Some("[") {
                k = match_bracket(toks, k + 1)? + 1;
            } else {
                k += 1;
            }
        }
        // Skip visibility.
        if toks[k].text == "pub" {
            k += 1;
            if k < end && toks[k].text == "(" {
                k = match_paren(toks, k)? + 1;
            }
        }
        if toks[k].kind == TokKind::Ident && toks.get(k + 1).map(|t| t.text.as_str()) == Some(":") {
            fields.push(toks[k].text.clone());
        }
        // Advance to the comma ending this field (at this depth).
        let mut depth = 0i32;
        while k < end {
            match toks[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => {
                    k += 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
    }
    Some(StructDef {
        name: name_tok.text.clone(),
        line: name_tok.line,
        fields,
    })
}

/// `const NAME: &str = "...";`
fn try_str_const(toks: &[Tok], i: usize) -> Option<StrConst> {
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident || toks.get(i + 2)?.text != ":" {
        return None;
    }
    if toks.get(i + 3)?.text != "&" || toks.get(i + 4)?.text != "str" {
        return None;
    }
    if toks.get(i + 5)?.text != "=" {
        return None;
    }
    let val = toks.get(i + 6)?;
    if val.kind != TokKind::Str {
        return None;
    }
    Some(StrConst {
        name: name_tok.text.clone(),
        value: val.text.clone(),
        line: name_tok.line,
    })
}

/// `const NAME: <type> = &[A, B, ...];` — only ident elements are
/// captured (which is all the registry rule needs).
fn try_slice_const(toks: &[Tok], i: usize) -> Option<SliceConst> {
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident || toks.get(i + 2)?.text != ":" {
        return None;
    }
    // Find `=` before the next `;`.
    let mut j = i + 3;
    while j < toks.len() && toks[j].text != "=" {
        if toks[j].text == ";" {
            return None;
        }
        j += 1;
    }
    let mut k = j + 1;
    if toks.get(k)?.text == "&" {
        k += 1;
    }
    if toks.get(k)?.text != "[" {
        return None;
    }
    let end = match_bracket(toks, k)?;
    let elems: Vec<String> = toks[k + 1..end]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    Some(SliceConst {
        name: name_tok.text.clone(),
        elems,
        line: name_tok.line,
        init_tok_range: (k, end + 1),
    })
}

/// `let TypeName { a, b: _, .. } = expr` — destructure pattern capture.
/// `TypeName` must start uppercase (distinguishes from `let x = ...`).
fn try_destructure(toks: &[Tok], i: usize) -> Option<Destructure> {
    let ty = toks.get(i + 1)?;
    if ty.kind != TokKind::Ident || !ty.text.starts_with(|c: char| c.is_ascii_uppercase()) {
        return None;
    }
    if toks.get(i + 2)?.text != "{" {
        return None;
    }
    let end = match_brace(toks, i + 2)?;
    let mut fields = Vec::new();
    let mut has_rest = false;
    let mut k = i + 3;
    while k < end {
        if toks[k].text == ".." {
            has_rest = true;
            k += 1;
            continue;
        }
        if toks[k].text == "ref" || toks[k].text == "mut" {
            k += 1;
            continue;
        }
        if toks[k].kind == TokKind::Ident {
            let name = toks[k].text.clone();
            let line = toks[k].line;
            let mut discarded = false;
            if toks.get(k + 1).map(|t| t.text.as_str()) == Some(":") {
                // `name: binding` — binding `_` means discarded.
                if toks.get(k + 2).map(|t| t.text.as_str()) == Some("_") {
                    discarded = true;
                }
                k += 2;
            }
            fields.push(PatField {
                name,
                line,
                discarded,
            });
        }
        // Advance to the comma at this depth.
        let mut depth = 0i32;
        while k < end {
            match toks[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        k += 1;
    }
    Some(Destructure {
        type_name: ty.text.clone(),
        line: ty.line,
        fields,
        has_rest,
    })
}

fn match_brace(toks: &[Tok], open: usize) -> Option<usize> {
    match_delims(toks, open, "{", "}")
}

fn match_bracket(toks: &[Tok], open: usize) -> Option<usize> {
    match_delims(toks, open, "[", "]")
}

fn match_paren(toks: &[Tok], open: usize) -> Option<usize> {
    match_delims(toks, open, "(", ")")
}

fn match_delims(toks: &[Tok], open: usize, l: &str, r: &str) -> Option<usize> {
    debug_assert_eq!(toks[open].text, l);
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == l {
                depth += 1;
            } else if t.text == r {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_span() {
        let f = SourceFile::parse(
            "x.rs",
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
        );
        assert_eq!(f.test_spans.len(), 1);
        assert!(f.in_test(4));
        assert!(!f.in_test(1));
    }

    #[test]
    fn fn_spans_cover_bodies() {
        let f = SourceFile::parse("x.rs", "fn a(x: i32) -> i32 {\n    x\n}\nfn b() {}\n");
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fn_at(2).unwrap().name, "a");
        assert_eq!(f.fn_at(4).unwrap().name, "b");
    }

    #[test]
    fn struct_fields_extracted() {
        let f = SourceFile::parse(
            "x.rs",
            "pub struct C {\n    pub a: i32,\n    #[allow(dead_code)]\n    b: Vec<(u8, u8)>,\n    pub(crate) c: bool,\n}\n",
        );
        assert_eq!(f.structs[0].fields, vec!["a", "b", "c"]);
    }

    #[test]
    fn consts_and_slices() {
        let f = SourceFile::parse(
            "x.rs",
            "pub const A: &str = \"fastz_a\";\npub const ALL: &[&str] = &[A, B];\n",
        );
        assert_eq!(f.str_consts[0].name, "A");
        assert_eq!(f.str_consts[0].value, "fastz_a");
        assert_eq!(f.slice_consts[0].elems, vec!["A", "B"]);
    }

    #[test]
    fn destructure_capture() {
        let f = SourceFile::parse(
            "x.rs",
            "fn g(c: C) {\n    let C { a, b: _, ref c } = c;\n    let _ = (a, c);\n}\n",
        );
        let d = &f.destructures[0];
        assert_eq!(d.type_name, "C");
        assert!(!d.has_rest);
        assert_eq!(d.fields.len(), 3);
        assert!(d.fields[1].discarded);
        assert!(!d.fields[0].discarded);
    }

    #[test]
    fn destructure_rest_detected() {
        let f = SourceFile::parse("x.rs", "fn g(c: C) { let C { a, .. } = c; let _ = a; }\n");
        assert!(f.destructures[0].has_rest);
    }

    #[test]
    fn suppression_scopes() {
        let src = "\
fn f() {
    let a = 1; // fastz-lint: allow(rule-x, trailing reason)
    // fastz-lint: allow(rule-y, paragraph reason)
    let b = 2;
    let c = 3;

    let d = 4;
}
";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.suppressions.len(), 2);
        let t = &f.suppressions[0];
        assert_eq!((t.cover_start, t.cover_end), (2, 2));
        assert_eq!(t.rule, "rule-x");
        assert_eq!(t.reason, "trailing reason");
        let p = &f.suppressions[1];
        assert_eq!((p.cover_start, p.cover_end), (3, 5));
    }

    #[test]
    fn multiline_suppression_merges() {
        let src = "\
fn f() {
    // fastz-lint: allow(rule-z, a reason that
    // wraps across lines (with parens))
    let a = 1;
}
";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.suppressions.len(), 1);
        let s = &f.suppressions[0];
        assert_eq!(s.rule, "rule-z");
        assert!(s.reason.contains("wraps across lines (with parens)"));
        assert_eq!((s.cover_start, s.cover_end), (2, 5));
    }

    #[test]
    fn fingerprint_marker_parsed() {
        let f = SourceFile::parse(
            "x.rs",
            "// fastz-lint: fingerprint(FastZConfig)\nfn id() {}\n",
        );
        assert_eq!(f.fingerprint_markers[0].type_name, "FastZConfig");
    }
}
