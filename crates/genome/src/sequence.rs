//! Sequence containers.
//!
//! [`Sequence`] stores one byte-code per base (fast random access for DP
//! inner loops); [`PackedSeq`] stores 2 bits per base plus an `N`-run
//! exception list (4x smaller, used for on-disk/catalog storage and the
//! seed index, which never needs `N` positions anyway).

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

/// A 2-bit-packed DNA sequence with an exception list for `N` runs.
///
/// Four bases per byte, little-endian within the byte: base `i` occupies
/// bits `2*(i%4) .. 2*(i%4)+2` of byte `i/4`. Positions inside an `N` run
/// decode to [`Base::N`] regardless of the (arbitrary) packed bits.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PackedSeq {
    len: usize,
    words: Vec<u8>,
    /// Sorted, non-overlapping, non-adjacent `[start, end)` runs of `N`.
    n_runs: Vec<(u32, u32)>,
}

impl PackedSeq {
    /// Packs a code slice.
    pub fn from_codes(codes: &[u8]) -> PackedSeq {
        let mut words = vec![0u8; codes.len().div_ceil(4)];
        let mut n_runs: Vec<(u32, u32)> = Vec::new();
        for (i, &c) in codes.iter().enumerate() {
            let packed = if c >= N_CODE {
                match n_runs.last_mut() {
                    Some(run) if run.1 as usize == i => run.1 += 1,
                    _ => n_runs.push((i as u32, i as u32 + 1)),
                }
                0
            } else {
                c
            };
            words[i / 4] |= packed << (2 * (i % 4));
        }
        PackedSeq {
            len: codes.len(),
            words,
            n_runs,
        }
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The code (0..=4) at `pos`, honouring `N` runs.
    #[inline]
    pub fn code(&self, pos: usize) -> u8 {
        debug_assert!(pos < self.len);
        if self.is_n(pos) {
            N_CODE
        } else {
            (self.words[pos / 4] >> (2 * (pos % 4))) & 0b11
        }
    }

    /// True if position `pos` falls inside an `N` run.
    #[inline]
    pub fn is_n(&self, pos: usize) -> bool {
        let pos = pos as u32;
        match self.n_runs.binary_search_by(|&(s, _)| s.cmp(&pos)) {
            Ok(_) => true,
            Err(idx) => idx > 0 && self.n_runs[idx - 1].1 > pos,
        }
    }

    /// Unpacks the whole sequence back to byte codes.
    pub fn unpack(&self) -> Vec<u8> {
        let mut codes = Vec::with_capacity(self.len);
        for i in 0..self.len {
            codes.push((self.words[i / 4] >> (2 * (i % 4))) & 0b11);
        }
        for &(s, e) in &self.n_runs {
            for c in &mut codes[s as usize..e as usize] {
                *c = N_CODE;
            }
        }
        codes
    }

    /// The `N`-run exception list (sorted `[start, end)` pairs).
    pub fn n_runs(&self) -> &[(u32, u32)] {
        &self.n_runs
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
    fn packed_round_trip() {
        let s = seq(b"ACGTACGTNNACGNTT");
        let p = PackedSeq::from_codes(s.codes());
        assert_eq!(p.len(), s.len());
        assert_eq!(p.unpack(), s.codes());
        for i in 0..s.len() {
            assert_eq!(p.code(i), s.codes()[i], "pos {i}");
        }
    }

    #[test]
    fn packed_n_runs_merge() {
        let s = seq(b"NNACGNNNT");
        let p = PackedSeq::from_codes(s.codes());
        assert_eq!(p.n_runs(), &[(0, 2), (5, 8)]);
        assert!(p.is_n(0));
        assert!(p.is_n(7));
        assert!(!p.is_n(2));
        assert!(!p.is_n(8));
    }

    #[test]
    fn packed_empty() {
        let p = PackedSeq::from_codes(&[]);
        assert!(p.is_empty());
        assert!(p.unpack().is_empty());
    }

    #[test]
    fn debug_preview_truncates() {
        let s = Sequence::from_codes("x", vec![0; 100]);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("100 bp"));
        assert!(dbg.contains('…'));
    }
}
