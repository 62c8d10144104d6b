//! A small Rust lexer: enough token fidelity for the rule engine to
//! never match inside strings, comments, or char literals.
//!
//! The workspace has no crates.io access, so there is no `syn` to lean
//! on; this lexer plus the structural pass in [`crate::source`] vendor
//! the fraction of its surface the rules actually consume (the same
//! pattern as the `rand`/`proptest` shims). Fidelity
//! matters: PR 4's `partial_cmp().unwrap()` lives on in a dozen
//! comments that a grep-based checker would re-flag forever.

/// Token classes the rules distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// String literal (regular, raw, byte); `text` is the inner value
    /// with escapes left verbatim.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Punctuation / operator, maximal-munch (`::`, `+=`, `<<`, ...).
    Punct,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// One comment (line or block); block comments are attributed to their
/// starting line.
#[derive(Clone, Debug)]
pub struct Comment {
    pub line: u32,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
    /// True when nothing but whitespace precedes the comment on its
    /// line (a standalone comment; suppression scoping keys on this).
    pub standalone: bool,
}

/// Lexer output: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Multi-character operators, longest first (maximal munch).
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_has_code = false;

    macro_rules! bump_lines {
        ($s:expr) => {
            for &c in $s {
                if c == b'\n' {
                    line += 1;
                    line_has_code = false;
                }
            }
        };
    }

    while i < b.len() {
        let c = b[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            if c == b'\n' {
                line += 1;
                line_has_code = false;
            }
            i += 1;
            continue;
        }
        // Line comment.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i + 2;
            let mut j = start;
            while j < b.len() && b[j] != b'\n' {
                j += 1;
            }
            out.comments.push(Comment {
                line,
                text: src[start..j].to_string(),
                standalone: !line_has_code,
            });
            i = j;
            continue;
        }
        // Block comment (nested).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start_line = line;
            let standalone = !line_has_code;
            let start = i + 2;
            let mut depth = 1usize;
            let mut j = start;
            while j < b.len() && depth > 0 {
                if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            bump_lines!(&b[i..j]);
            let end = j.saturating_sub(2).max(start);
            out.comments.push(Comment {
                line: start_line,
                text: src[start..end].to_string(),
                standalone,
            });
            i = j;
            continue;
        }
        line_has_code = true;
        // Raw / byte string prefixes.
        if (c == b'r' || c == b'b') && is_raw_or_byte_string(b, i) {
            let (tok, next, consumed_newlines) = lex_string_like(src, b, i, line);
            line += consumed_newlines;
            if line_ends_open(b, i, next) {
                line_has_code = false;
            }
            out.toks.push(tok);
            i = next;
            continue;
        }
        // Identifier / keyword.
        if c == b'_' || c.is_ascii_alphabetic() {
            let mut j = i + 1;
            while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                j += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: src[i..j].to_string(),
                line,
            });
            i = j;
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < b.len() {
                let d = b[j];
                if d == b'_' || d == b'.' || d.is_ascii_alphanumeric() {
                    // Don't eat `..` range operators or method calls on
                    // literals (`1.max(2)` keeps `.max` out).
                    if d == b'.' && (j + 1 >= b.len() || !b[j + 1].is_ascii_digit()) {
                        break;
                    }
                    j += 1;
                } else if (d == b'+' || d == b'-')
                    && matches!(b[j - 1], b'e' | b'E')
                    && j + 1 < b.len()
                    && b[j + 1].is_ascii_digit()
                {
                    j += 1; // exponent sign
                } else {
                    break;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: src[i..j].to_string(),
                line,
            });
            i = j;
            continue;
        }
        // Regular string.
        if c == b'"' {
            let (tok, next, consumed_newlines) = lex_string_like(src, b, i, line);
            line += consumed_newlines;
            out.toks.push(tok);
            i = next;
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            if let Some((tok, next)) = lex_char(src, b, i, line) {
                out.toks.push(tok);
                i = next;
                continue;
            }
            // Lifetime: consume ident after the quote.
            let mut j = i + 1;
            while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                j += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Lifetime,
                text: src[i..j].to_string(),
                line,
            });
            i = j;
            continue;
        }
        // Multi-char operator, maximal munch.
        let rest = &src[i..];
        if let Some(p) = PUNCTS.iter().find(|p| rest.starts_with(**p)) {
            out.toks.push(Tok {
                kind: TokKind::Punct,
                text: (*p).to_string(),
                line,
            });
            i += p.len();
            continue;
        }
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: (c as char).to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Is the byte at `i` the start of `r"`, `r#"`, `b"`, `br"`, `b'`-like
/// string syntax (as opposed to an identifier starting with r/b)?
fn is_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        while j < b.len() && b[j] == b'#' {
            j += 1;
        }
        return j < b.len() && b[j] == b'"';
    }
    // b"..." or b'.'
    b[i] == b'b' && j < b.len() && (b[j] == b'"' || b[j] == b'\'')
}

/// Lexes any string-like literal starting at `i`; returns (token, next
/// index, newlines consumed).
fn lex_string_like(src: &str, b: &[u8], i: usize, line: u32) -> (Tok, usize, u32) {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'\'' {
        // b'x' byte char.
        let (tok, next) = lex_char(src, b, j, line).unwrap_or((
            Tok {
                kind: TokKind::Char,
                text: String::new(),
                line,
            },
            j + 1,
        ));
        return (tok, next, 0);
    }
    let raw = j < b.len() && b[j] == b'r';
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    debug_assert!(j < b.len() && b[j] == b'"');
    j += 1; // opening quote
    let content_start = j;
    let mut newlines = 0u32;
    while j < b.len() {
        if b[j] == b'\n' {
            newlines += 1;
        }
        if !raw && b[j] == b'\\' {
            j += 2;
            continue;
        }
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while raw && seen < hashes && k < b.len() && b[k] == b'#' {
                seen += 1;
                k += 1;
            }
            if !raw || seen == hashes {
                let tok = Tok {
                    kind: TokKind::Str,
                    text: src[content_start..j].to_string(),
                    line,
                };
                return (tok, k, newlines);
            }
        }
        j += 1;
    }
    (
        Tok {
            kind: TokKind::Str,
            text: src[content_start..j.min(src.len())].to_string(),
            line,
        },
        j,
        newlines,
    )
}

/// Tries to lex a char literal at `i` (which holds `'`). Returns `None`
/// when the quote starts a lifetime instead.
fn lex_char(src: &str, b: &[u8], i: usize, line: u32) -> Option<(Tok, usize)> {
    let mut j = i + 1;
    if j >= b.len() {
        return None;
    }
    if b[j] == b'\\' {
        j += 2;
        // Escapes like \u{1F600} / \x41.
        if j <= b.len() && b[j - 1] == b'u' && j < b.len() && b[j] == b'{' {
            while j < b.len() && b[j] != b'}' {
                j += 1;
            }
            j += 1;
        } else if j - 1 < b.len() && b[j - 1] == b'x' {
            j += 2;
        }
        if j < b.len() && b[j] == b'\'' {
            return Some((
                Tok {
                    kind: TokKind::Char,
                    text: src[i + 1..j].to_string(),
                    line,
                },
                j + 1,
            ));
        }
        return None;
    }
    // One scalar (possibly multi-byte) then a closing quote.
    let ch = src[j..].chars().next()?;
    let after = j + ch.len_utf8();
    if after < b.len() && b[after] == b'\'' {
        return Some((
            Tok {
                kind: TokKind::Char,
                text: src[j..after].to_string(),
                line,
            },
            after + 1,
        ));
    }
    None
}

/// True when the span `[i, next)` ends exactly at a newline boundary
/// (used to reset the standalone-comment tracking after multi-line raw
/// strings).
fn line_ends_open(b: &[u8], _i: usize, next: usize) -> bool {
    next < b.len() && b[next] == b'\n'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let l = lex("let x = 1; // partial_cmp lives here\n/* and\nhere */ y");
        assert!(l.toks.iter().all(|t| t.text != "partial_cmp"));
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[1].line, 2);
        assert!(l.comments[1].text.contains("and\nhere"));
        assert_eq!(l.toks.last().unwrap().line, 3);
    }

    #[test]
    fn strings_and_chars_do_not_leak_idents() {
        let ks = kinds(r#"f("partial_cmp", 'x', b'"', r#inner)"#);
        assert!(ks
            .iter()
            .all(|(k, t)| *k != TokKind::Ident || t != "partial_cmp"));
        let l = lex("let s = \"a\\\"b\"; t");
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn raw_strings_track_lines() {
        let l = lex("let s = r#\"line\nline\"#; x");
        assert_eq!(l.toks.last().unwrap().line, 2);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let ks = kinds("fn f<'a>(x: &'a str) {}");
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(ks.iter().all(|(k, _)| *k != TokKind::Char));
    }

    #[test]
    fn maximal_munch_operators() {
        let ks = kinds("a += b;\nc :: d .. e <<= f");
        let ops: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(ops, vec!["+=", ";", "::", "..", "<<="]);
    }

    #[test]
    fn numbers_with_suffixes_and_exponents() {
        let ks = kinds("1_000i64 + 1.5e-3 - 0xff.count_ones()");
        let nums: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(nums, vec!["1_000i64", "1.5e-3", "0xff"]);
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "count_ones"));
    }

    #[test]
    fn standalone_vs_trailing_comments() {
        let l = lex("  // standalone\nlet x = 1; // trailing\n");
        assert!(l.comments[0].standalone);
        assert!(!l.comments[1].standalone);
    }
}
