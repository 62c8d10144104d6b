//! LASTZ score-file parsing and writing.
//!
//! LASTZ accepts a substitution matrix and gap penalties from a text
//! "score file" (`--scores=<file>`), e.g.:
//!
//! ```text
//! # HOXD70 with default gaps
//! O = 400
//! E = 30
//!      A     C     G     T
//! A   91  -114   -31  -123
//! C -114   100  -125   -31
//! G  -31  -125   100  -114
//! T -123   -31  -114    91
//! ```
//!
//! This module reads and writes that format so the CLI is interoperable
//! with existing LASTZ workflows.

use crate::scoring::{GapPenalties, Scoring, SubstMatrix};
use std::fmt;

/// Errors from score-file parsing.
#[derive(Debug, PartialEq, Eq)]
pub enum ScoreFileError {
    /// A malformed `O = ...` / `E = ...` assignment.
    BadAssignment(String),
    /// The matrix header row was missing or not a permutation of ACGT.
    BadHeader(String),
    /// A matrix row was malformed.
    BadRow(String),
    /// Fewer than four matrix rows were present.
    MissingRows(usize),
    /// A numeric field failed to parse.
    BadNumber(String),
}

impl fmt::Display for ScoreFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScoreFileError::BadAssignment(l) => write!(f, "bad assignment line: {l}"),
            ScoreFileError::BadHeader(l) => write!(f, "bad matrix header: {l}"),
            ScoreFileError::BadRow(l) => write!(f, "bad matrix row: {l}"),
            ScoreFileError::MissingRows(n) => write!(f, "only {n} matrix rows"),
            ScoreFileError::BadNumber(s) => write!(f, "bad number: {s}"),
        }
    }
}

impl std::error::Error for ScoreFileError {}

fn base_index(ch: char) -> Option<usize> {
    match ch.to_ascii_uppercase() {
        'A' => Some(0),
        'C' => Some(1),
        'G' => Some(2),
        'T' => Some(3),
        _ => None,
    }
}

/// Parses a LASTZ score file, returning the scoring it defines on top of
/// `defaults` (fields absent from the file keep the default value).
pub fn parse_score_file(text: &str, defaults: &Scoring) -> Result<Scoring, ScoreFileError> {
    let mut open = defaults.gaps.open;
    let mut extend = defaults.gaps.extend;
    let mut header: Option<Vec<usize>> = None;
    let mut table = [[0i32; 4]; 4];
    let mut rows_seen = [false; 4];

    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some((lhs, rhs)) = line.split_once('=') {
            let key = lhs.trim().to_ascii_uppercase();
            let value: i32 = rhs
                .trim()
                .parse()
                .map_err(|_| ScoreFileError::BadNumber(rhs.trim().to_string()))?;
            match key.as_str() {
                "O" => open = value,
                "E" => extend = value,
                _ => return Err(ScoreFileError::BadAssignment(line.to_string())),
            }
            continue;
        }

        let fields: Vec<&str> = line.split_whitespace().collect();
        if header.is_none() {
            // Expect the column header: a permutation of A C G T.
            let cols: Option<Vec<usize>> = fields
                .iter()
                .map(|f| {
                    (f.len() == 1)
                        .then(|| base_index(f.chars().next().unwrap()))
                        .flatten()
                })
                .collect();
            match cols {
                Some(cols) if cols.len() == 4 && (0..4).all(|b| cols.contains(&b)) => {
                    header = Some(cols);
                    continue;
                }
                _ => return Err(ScoreFileError::BadHeader(line.to_string())),
            }
        }

        // Matrix row: base label then four scores.
        let cols = header.as_ref().unwrap();
        if fields.len() != 5 || fields[0].len() != 1 {
            return Err(ScoreFileError::BadRow(line.to_string()));
        }
        let row = base_index(fields[0].chars().next().unwrap())
            .ok_or_else(|| ScoreFileError::BadRow(line.to_string()))?;
        for (k, f) in fields[1..].iter().enumerate() {
            let v: i32 = f
                .parse()
                .map_err(|_| ScoreFileError::BadNumber(f.to_string()))?;
            table[row][cols[k]] = v;
        }
        rows_seen[row] = true;
    }

    let seen = rows_seen.iter().filter(|&&b| b).count();
    if header.is_some() && seen < 4 {
        return Err(ScoreFileError::MissingRows(seen));
    }

    let subst = if header.is_some() {
        SubstMatrix::from_acgt(table, -1000)
    } else {
        defaults.subst.clone()
    };
    Ok(Scoring {
        subst,
        gaps: GapPenalties::new(open, extend),
        ..defaults.clone()
    })
}

/// Renders `scoring` as a LASTZ score file.
pub fn write_score_file(scoring: &Scoring) -> String {
    let mut out = String::from("# fastz score file\n");
    out.push_str(&format!("O = {}\n", scoring.gaps.open));
    out.push_str(&format!("E = {}\n", scoring.gaps.extend));
    out.push_str("     A     C     G     T\n");
    for (i, label) in ['A', 'C', 'G', 'T'].iter().enumerate() {
        out.push(*label);
        for j in 0..4 {
            out.push_str(&format!(" {:5}", scoring.subst.score(i as u8, j as u8)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOXD70_FILE: &str = "\
# HOXD70
O = 400
E = 30
     A     C     G     T
A   91  -114   -31  -123
C -114   100  -125   -31
G  -31  -125   100  -114
T -123   -31  -114    91
";

    #[test]
    fn parses_the_canonical_file() {
        let s = parse_score_file(HOXD70_FILE, &Scoring::lastz_default()).unwrap();
        assert_eq!(s.gaps.open, 400);
        assert_eq!(s.gaps.extend, 30);
        assert_eq!(s.subst, crate::scoring::SubstMatrix::hoxd70());
    }

    #[test]
    fn round_trips_through_writer() {
        let original = Scoring::lastz_default();
        let text = write_score_file(&original);
        let parsed = parse_score_file(&text, &Scoring::bench_scaled()).unwrap();
        assert_eq!(parsed.subst, original.subst);
        assert_eq!(parsed.gaps, original.gaps);
        // Non-file fields come from the defaults argument.
        assert_eq!(parsed.ydrop, Scoring::bench_scaled().ydrop);
    }

    #[test]
    fn gaps_only_file_keeps_default_matrix() {
        let s = parse_score_file("O = 500\nE = 50\n", &Scoring::lastz_default()).unwrap();
        assert_eq!(s.gaps.open, 500);
        assert_eq!(s.gaps.extend, 50);
        assert_eq!(s.subst, Scoring::lastz_default().subst);
    }

    #[test]
    fn permuted_header_is_honoured() {
        let text = "\
     T     G     C     A
A -123   -31  -114    91
C  -31  -125   100  -114
G -114   100  -125   -31
T   91  -114   -31  -123
";
        let s = parse_score_file(text, &Scoring::lastz_default()).unwrap();
        assert_eq!(s.subst, crate::scoring::SubstMatrix::hoxd70());
    }

    #[test]
    fn errors_are_reported() {
        let d = Scoring::lastz_default();
        assert!(matches!(
            parse_score_file("Q = 3\n", &d),
            Err(ScoreFileError::BadAssignment(_))
        ));
        assert!(matches!(
            parse_score_file("O = x\n", &d),
            Err(ScoreFileError::BadNumber(_))
        ));
        assert!(matches!(
            parse_score_file("  A  B  C  D\n", &d),
            Err(ScoreFileError::BadHeader(_))
        ));
        // Four valid bases that repeat one and miss another.
        assert!(matches!(
            parse_score_file("  A  A  C  G\nA 1 2 3 4\n", &d),
            Err(ScoreFileError::BadHeader(_))
        ));
        assert!(matches!(
            parse_score_file("     A     C     G     T\nA 1 2 3\n", &d),
            Err(ScoreFileError::BadRow(_))
        ));
        assert!(matches!(
            parse_score_file("     A     C     G     T\nA 1 2 3 4\n", &d),
            Err(ScoreFileError::MissingRows(1))
        ));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = format!("# leading comment\n\n{HOXD70_FILE}\n# trailing\n");
        assert!(parse_score_file(&text, &Scoring::lastz_default()).is_ok());
    }
}
