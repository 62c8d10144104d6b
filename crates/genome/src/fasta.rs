//! Minimal FASTA reading and writing.
//!
//! Supports multi-record files, arbitrary line wrapping, CRLF endings,
//! lowercase (soft-masked) bases, and IUPAC ambiguity codes (degraded to
//! `N`). Parsing is strict about structure: text before the first header
//! or unparseable sequence characters produce an error rather than silent
//! data loss.

use crate::sequence::Sequence;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Errors produced by the FASTA parser.
#[derive(Debug)]
pub enum FastaError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Sequence data encountered before any `>` header.
    MissingHeader {
        /// 1-based line number of the offending data.
        line: usize,
    },
    /// A character that cannot be part of a sequence.
    BadCharacter {
        /// 1-based line number of the offending data.
        line: usize,
        /// The offending character.
        ch: char,
    },
    /// A header with an empty name.
    EmptyName {
        /// 1-based line number of the offending header.
        line: usize,
    },
    /// A header whose name is not valid UTF-8.
    BadName {
        /// 1-based line number of the offending header.
        line: usize,
    },
}

impl fmt::Display for FastaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastaError::Io(e) => write!(f, "I/O error: {e}"),
            FastaError::MissingHeader { line } => {
                write!(f, "line {line}: sequence data before any '>' header")
            }
            FastaError::BadCharacter { line, ch } => {
                write!(f, "line {line}: invalid sequence character {ch:?}")
            }
            FastaError::EmptyName { line } => write!(f, "line {line}: empty record name"),
            FastaError::BadName { line } => write!(f, "line {line}: record name is not UTF-8"),
        }
    }
}

impl std::error::Error for FastaError {}

impl From<io::Error> for FastaError {
    fn from(e: io::Error) -> Self {
        FastaError::Io(e)
    }
}

/// Parses all records from a reader.
///
/// Input is split on `\n` bytes, not decoded as text: a byte that is not
/// a base (non-UTF-8 ones included) is a [`FastaError::BadCharacter`] on
/// its line, and a record name that is not UTF-8 is a
/// [`FastaError::BadName`].
pub fn read_fasta<R: BufRead>(mut reader: R) -> Result<Vec<Sequence>, FastaError> {
    let mut records: Vec<Sequence> = Vec::new();
    let mut name: Option<String> = None;
    let mut codes: Vec<u8> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut line_no = 0usize;

    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        line_no += 1;
        let mut line = buf.as_slice();
        while let [rest @ .., b'\r' | b'\n'] = line {
            line = rest;
        }
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix(b">") {
            if let Some(n) = name.take() {
                records.push(Sequence::from_codes(n, std::mem::take(&mut codes)));
            }
            // FASTA convention: the name is the first whitespace-delimited
            // token (ASCII whitespace, vertical tab included).
            let token = header
                .split(|&b| b.is_ascii_whitespace() || b == 0x0B)
                .find(|t| !t.is_empty())
                .unwrap_or(&[]);
            if token.is_empty() {
                return Err(FastaError::EmptyName { line: line_no });
            }
            let token =
                std::str::from_utf8(token).map_err(|_| FastaError::BadName { line: line_no })?;
            name = Some(token.to_string());
        } else {
            if name.is_none() {
                return Err(FastaError::MissingHeader { line: line_no });
            }
            for &ch in line {
                match crate::alphabet::Base::from_ascii(ch) {
                    Some(b) => codes.push(b.code()),
                    None => {
                        return Err(FastaError::BadCharacter {
                            line: line_no,
                            ch: ch as char,
                        })
                    }
                }
            }
        }
    }
    if let Some(n) = name {
        records.push(Sequence::from_codes(n, codes));
    }
    Ok(records)
}

/// Parses all records from a file path.
pub fn read_fasta_file(path: impl AsRef<Path>) -> Result<Vec<Sequence>, FastaError> {
    let file = std::fs::File::open(path)?;
    read_fasta(io::BufReader::new(file))
}

/// Writes records with the given line width (bases per line).
pub fn write_fasta<W: Write>(
    writer: &mut W,
    records: &[Sequence],
    line_width: usize,
) -> io::Result<()> {
    assert!(line_width > 0, "line width must be positive");
    for rec in records {
        writeln!(writer, ">{}", rec.name())?;
        let ascii = rec.to_ascii();
        for chunk in ascii.chunks(line_width) {
            writer.write_all(chunk)?;
            writer.write_all(b"\n")?;
        }
    }
    Ok(())
}

/// Writes records to a file with 70-column wrapping.
pub fn write_fasta_file(path: impl AsRef<Path>, records: &[Sequence]) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    write_fasta(&mut file, records, 70)?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> Result<Vec<Sequence>, FastaError> {
        read_fasta(Cursor::new(text.as_bytes()))
    }

    #[test]
    fn single_record() {
        let recs = parse(">chr1 description here\nACGT\nacgt\n").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name(), "chr1");
        assert_eq!(recs[0].to_ascii(), b"ACGTACGT");
    }

    #[test]
    fn multi_record_and_blank_lines() {
        let recs = parse(">a\nAC\n\nGT\n>b\nTTTT\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].to_ascii(), b"ACGT");
        assert_eq!(recs[1].name(), "b");
        assert_eq!(recs[1].len(), 4);
    }

    #[test]
    fn crlf_line_endings() {
        let recs = parse(">a\r\nACGT\r\n").unwrap();
        assert_eq!(recs[0].to_ascii(), b"ACGT");
    }

    #[test]
    fn iupac_degrades_to_n() {
        let recs = parse(">a\nARYT\n").unwrap();
        assert_eq!(recs[0].to_ascii(), b"ANNT");
    }

    #[test]
    fn data_before_header_is_error() {
        assert!(matches!(
            parse("ACGT\n"),
            Err(FastaError::MissingHeader { line: 1 })
        ));
    }

    #[test]
    fn bad_character_is_error() {
        assert!(matches!(
            parse(">a\nAC1T\n"),
            Err(FastaError::BadCharacter { line: 2, ch: '1' })
        ));
    }

    #[test]
    fn non_utf8_byte_in_sequence_is_bad_character() {
        let input = b">a\nACGT\nAC\xFFT\n";
        assert!(matches!(
            read_fasta(Cursor::new(&input[..])),
            Err(FastaError::BadCharacter {
                line: 3,
                ch: '\u{FF}'
            })
        ));
    }

    #[test]
    fn non_utf8_byte_in_header() {
        let name = b">chr\xFF1 desc\nACGT\n";
        assert!(matches!(
            read_fasta(Cursor::new(&name[..])),
            Err(FastaError::BadName { line: 1 })
        ));
        // Description bytes after the name are not part of the record.
        let desc = b">chr1 caf\xE9\nACGT\n";
        let recs = read_fasta(Cursor::new(&desc[..])).unwrap();
        assert_eq!(recs[0].name(), "chr1");
        assert_eq!(recs[0].to_ascii(), b"ACGT");
    }

    #[test]
    fn empty_name_is_error() {
        assert!(matches!(
            parse(">\nACGT\n"),
            Err(FastaError::EmptyName { line: 1 })
        ));
        assert!(matches!(
            parse(">   \nACGT\n"),
            Err(FastaError::EmptyName { line: 1 })
        ));
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(parse("").unwrap().is_empty());
    }

    #[test]
    fn record_with_no_sequence_is_kept() {
        let recs = parse(">empty\n>full\nAC\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].is_empty());
        assert_eq!(recs[1].len(), 2);
    }

    #[test]
    fn write_then_read_round_trip() {
        let records = vec![
            Sequence::from_ascii("x", b"ACGTACGTACGTN").unwrap(),
            Sequence::from_ascii("y", b"TTTT").unwrap(),
        ];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records, 5).unwrap();
        let parsed = read_fasta(Cursor::new(&buf)).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn write_wraps_lines() {
        let records = vec![Sequence::from_ascii("x", b"ACGTACGT").unwrap()];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records, 4).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), ">x\nACGT\nACGT\n");
    }
}
