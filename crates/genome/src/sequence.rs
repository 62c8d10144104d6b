//! Sequence containers.
//!
//! [`Sequence`] stores one byte-code per base (fast random access for DP
//! inner loops).

use crate::alphabet::{codes_from_ascii, codes_to_ascii, complement_code, Base, N_CODE};
use std::fmt;

/// A named DNA sequence with one byte-code (0..=4) per base.
#[derive(Clone, PartialEq, Eq)]
pub struct Sequence {
    name: String,
    codes: Vec<u8>,
}

impl Sequence {
    /// Creates a sequence from pre-validated base codes.
    ///
    /// # Panics
    /// Panics (in debug builds) if any code exceeds 4.
    pub fn from_codes(name: impl Into<String>, codes: Vec<u8>) -> Sequence {
        debug_assert!(codes.iter().all(|&c| c <= N_CODE), "invalid base code");
        Sequence {
            name: name.into(),
            codes,
        }
    }

    /// Parses an ASCII string such as `"ACGTn"`. Returns `None` on any
    /// non-sequence character.
    pub fn from_ascii(name: impl Into<String>, ascii: &[u8]) -> Option<Sequence> {
        Some(Sequence {
            name: name.into(),
            codes: codes_from_ascii(ascii)?,
        })
    }

    /// The sequence's display name (FASTA header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the sequence has no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The raw base codes.
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// The base at `pos`.
    #[inline]
    pub fn base(&self, pos: usize) -> Base {
        Base::from_code(self.codes[pos])
    }

    /// ASCII (uppercase) rendering of the whole sequence.
    pub fn to_ascii(&self) -> Vec<u8> {
        codes_to_ascii(&self.codes)
    }

    /// Extracts `[start, end)` as a new sequence named `name:start-end`.
    pub fn subsequence(&self, start: usize, end: usize) -> Sequence {
        assert!(start <= end && end <= self.codes.len());
        Sequence {
            name: format!("{}:{}-{}", self.name, start, end),
            codes: self.codes[start..end].to_vec(),
        }
    }

    /// Reverse complement, named `name(-)`.
    pub fn reverse_complement(&self) -> Sequence {
        Sequence {
            name: format!("{}(-)", self.name),
            codes: self
                .codes
                .iter()
                .rev()
                .map(|&c| complement_code(c))
                .collect(),
        }
    }
}

impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview_len = self.codes.len().min(32);
        let preview = String::from_utf8(codes_to_ascii(&self.codes[..preview_len])).unwrap();
        write!(
            f,
            "Sequence({:?}, {} bp, {}{})",
            self.name,
            self.codes.len(),
            preview,
            if self.codes.len() > preview_len {
                "…"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(ascii: &[u8]) -> Sequence {
        Sequence::from_ascii("t", ascii).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let s = seq(b"ACGTN");
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.base(0), Base::A);
        assert_eq!(s.base(4), Base::N);
        assert_eq!(s.to_ascii(), b"ACGTN");
    }

    #[test]
    fn empty_sequence() {
        let s = Sequence::from_codes("e", vec![]);
        assert!(s.is_empty());
        assert_eq!(s.reverse_complement().len(), 0);
    }

    #[test]
    fn subsequence_extracts_range() {
        let s = seq(b"AACCGGTT");
        let sub = s.subsequence(2, 6);
        assert_eq!(sub.to_ascii(), b"CCGG");
        assert_eq!(sub.name(), "t:2-6");
    }

    #[test]
    #[should_panic]
    fn subsequence_out_of_range_panics() {
        seq(b"ACGT").subsequence(2, 9);
    }

    #[test]
    fn reverse_complement_known() {
        let s = seq(b"AACGTN");
        assert_eq!(s.reverse_complement().to_ascii(), b"NACGTT");
    }

    #[test]
    fn reverse_complement_is_involution() {
        let s = seq(b"ATCGGGCATNNAT");
        let rc_rc = s.reverse_complement().reverse_complement();
        assert_eq!(rc_rc.codes(), s.codes());
    }

    #[test]
    fn debug_preview_truncates() {
        let s = Sequence::from_codes("x", vec![0; 100]);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("100 bp"));
        assert!(dbg.contains('…'));
    }
}
