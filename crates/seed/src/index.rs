//! The seed index: seed word → target positions.
//!
//! Stage 1 of the WGA pipeline (paper §2): a lightweight exact-match search
//! over seed words. The index is a bucketed table keyed by the packed seed
//! word, built with a two-pass counting layout into one flat position
//! array (no per-bucket `Vec` allocations), hashed with a multiply-shift
//! hash into a power-of-two bucket table.
//!
//! The build is memory-frugal: pass 1 counts bucket sizes, pass 2
//! re-derives each window's word and scatters it directly into the final
//! entries array, so peak transient memory is exactly one bucket table
//! plus one entries array — no `(word, pos)` staging buffer and no extra
//! table copies (see [`build_peak_bytes`] vs [`legacy_build_peak_bytes`]).

use crate::shape::SeedShape;
use fastz_genome::Sequence;

/// Largest indexable target length: positions are stored as `u32`, so a
/// target longer than this would silently truncate positions past 4 Gbp.
pub const MAX_TARGET_LEN: usize = u32::MAX as usize;

/// Structured failure from [`SeedIndex::try_build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexBuildError {
    /// The target exceeds the `u32` position space ([`MAX_TARGET_LEN`]);
    /// building would wrap positions past 4 Gbp.
    TargetTooLarge {
        /// Offending target length in bp.
        len: usize,
        /// The largest supported length.
        max: usize,
    },
    /// The bucket table size overflowed `usize` (unreachable on 64-bit
    /// hosts once the length check passes, kept for 32-bit safety).
    BucketTableOverflow {
        /// Offending target length in bp.
        len: usize,
    },
}

impl std::fmt::Display for IndexBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexBuildError::TargetTooLarge { len, max } => write!(
                f,
                "target of {len} bp exceeds the {max} bp u32 position space"
            ),
            IndexBuildError::BucketTableOverflow { len } => {
                write!(f, "bucket table for {len} bp target overflows usize")
            }
        }
    }
}

impl std::error::Error for IndexBuildError {}

/// Rejects targets whose positions would not fit the `u32` entry layout.
///
/// Exposed so harnesses can regression-test the 4 Gbp boundary without
/// allocating a 4 GiB sequence.
pub fn check_target_len(len: usize) -> Result<(), IndexBuildError> {
    if len > MAX_TARGET_LEN {
        return Err(IndexBuildError::TargetTooLarge {
            len,
            max: MAX_TARGET_LEN,
        });
    }
    Ok(())
}

/// Fibonacci multiply-shift hash, adequate for packed seed words.
#[inline(always)]
fn hash_word(word: u64, shift: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// Peak transient heap bytes of the current single-table build: one
/// `u32` bucket table plus the final entries array.
pub fn build_peak_bytes(n_entries: usize, n_buckets: usize) -> usize {
    (n_buckets + 1) * std::mem::size_of::<u32>() + n_entries * std::mem::size_of::<(u64, u32)>()
}

/// Peak transient heap bytes of the pre-fix build for the same inputs:
/// a full `(word, pos)` staging buffer sized to every window alongside
/// the entries array, plus three full-size `u32` tables
/// (`counts` → `bucket_starts` → `cursor`).
pub fn legacy_build_peak_bytes(n_windows: usize, n_entries: usize, n_buckets: usize) -> usize {
    3 * (n_buckets + 1) * std::mem::size_of::<u32>()
        + (n_windows + n_entries) * std::mem::size_of::<(u64, u32)>()
}

/// An index over one target sequence for one seed shape.
pub struct SeedIndex {
    shape: SeedShape,
    shift: u32,
    /// `bucket_starts[h] .. bucket_starts[h+1]` delimits bucket `h` within
    /// `entries`.
    bucket_starts: Vec<u32>,
    /// Flat `(word, target_pos)` entries grouped by bucket.
    entries: Vec<(u64, u32)>,
    target_len: usize,
}

impl SeedIndex {
    /// Builds an index for `target` with `shape`.
    ///
    /// # Panics
    /// Panics if the target exceeds [`MAX_TARGET_LEN`]; use
    /// [`SeedIndex::try_build`] to handle over-limit targets structurally.
    pub fn build(target: &Sequence, shape: SeedShape) -> SeedIndex {
        match SeedIndex::try_build(target, shape) {
            Ok(idx) => idx,
            Err(e) => panic!("seed index build failed: {e}"),
        }
    }

    /// Builds an index for `target` with `shape`, rejecting targets whose
    /// positions would overflow the `u32` entry layout.
    pub fn try_build(target: &Sequence, shape: SeedShape) -> Result<SeedIndex, IndexBuildError> {
        let codes = target.codes();
        let n_windows = codes.len().saturating_sub(shape.span().saturating_sub(1));
        SeedIndex::try_build_interval_sized(target, shape, 0, n_windows, codes.len())
    }

    /// Builds an index covering only windows `lo..hi` (window positions,
    /// `hi` clamped to the window count) — the shard primitive used by
    /// [`crate::persist::ShardedSeedIndex`]. The bucket table is sized to
    /// the interval, so `k` shards use roughly the same total table space
    /// as one whole-target index.
    pub fn try_build_interval(
        target: &Sequence,
        shape: SeedShape,
        lo: usize,
        hi: usize,
    ) -> Result<SeedIndex, IndexBuildError> {
        let hint = hi.saturating_sub(lo);
        SeedIndex::try_build_interval_sized(target, shape, lo, hi, hint)
    }

    fn try_build_interval_sized(
        target: &Sequence,
        shape: SeedShape,
        lo: usize,
        hi: usize,
        bucket_hint: usize,
    ) -> Result<SeedIndex, IndexBuildError> {
        let codes = target.codes();
        check_target_len(codes.len())?;
        let n_windows = codes.len().saturating_sub(shape.span().saturating_sub(1));
        let lo = lo.min(n_windows);
        let hi = hi.min(n_windows);
        let n_buckets = (bucket_hint.max(16))
            .checked_next_power_of_two()
            .ok_or(IndexBuildError::BucketTableOverflow { len: codes.len() })?;
        let shift = 64 - n_buckets.trailing_zeros();

        // Pass 1: count bucket sizes into what becomes the starts table.
        let mut bucket_starts = vec![0u32; n_buckets + 1];
        for pos in lo..hi {
            if let Some(word) = shape.word_at(codes, pos) {
                bucket_starts[hash_word(word, shift) + 1] += 1;
            }
        }

        // Prefix sums → bucket starts (slot `n_buckets` holds the total).
        for i in 1..bucket_starts.len() {
            bucket_starts[i] += bucket_starts[i - 1];
        }
        let total = bucket_starts[n_buckets] as usize;

        // Pass 2: re-derive each window's word and scatter it straight
        // into its bucket, advancing `bucket_starts[h]` as the cursor.
        // Re-deriving costs a second `word_at` sweep but avoids staging
        // every `(word, pos)` pair next to the final array — peak memory
        // is one table plus one entries array.
        let mut entries = vec![(0u64, 0u32); total];
        for pos in lo..hi {
            if let Some(word) = shape.word_at(codes, pos) {
                let h = hash_word(word, shift);
                entries[bucket_starts[h] as usize] = (word, pos as u32);
                bucket_starts[h] += 1;
            }
        }
        // After the scatter, slot `h` holds the *end* of bucket `h` and
        // the last slot still holds the total (== end of the last
        // bucket): rotating right by one and zeroing slot 0 restores the
        // starts layout without a second table.
        bucket_starts.rotate_right(1);
        bucket_starts[0] = 0;

        Ok(SeedIndex {
            shape,
            shift,
            bucket_starts,
            entries,
            target_len: target.len(),
        })
    }

    /// Reassembles an index from raw parts (the persist loader).
    pub(crate) fn from_parts(
        shape: SeedShape,
        shift: u32,
        bucket_starts: Vec<u32>,
        entries: Vec<(u64, u32)>,
        target_len: usize,
    ) -> SeedIndex {
        SeedIndex {
            shape,
            shift,
            bucket_starts,
            entries,
            target_len,
        }
    }

    /// The seed shape this index was built with.
    pub fn shape(&self) -> &SeedShape {
        &self.shape
    }

    /// Length of the indexed target.
    pub fn target_len(&self) -> usize {
        self.target_len
    }

    /// Number of indexed windows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no windows were indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The multiply-shift hash shift (serialized by the persist layer).
    pub(crate) fn shift(&self) -> u32 {
        self.shift
    }

    /// The bucket-starts table (serialized by the persist layer).
    pub(crate) fn bucket_starts(&self) -> &[u32] {
        &self.bucket_starts
    }

    /// The flat entries (serialized by the persist layer).
    pub(crate) fn entries(&self) -> &[(u64, u32)] {
        &self.entries
    }

    /// Resident heap bytes of the built index (table + entries).
    pub fn heap_bytes(&self) -> usize {
        self.bucket_starts.len() * std::mem::size_of::<u32>()
            + self.entries.len() * std::mem::size_of::<(u64, u32)>()
    }

    /// All target positions whose seed word equals `word`.
    #[inline]
    pub fn lookup(&self, word: u64) -> impl Iterator<Item = u32> + '_ {
        let h = hash_word(word, self.shift);
        let lo = self.bucket_starts[h] as usize;
        let hi = self.bucket_starts[h + 1] as usize;
        self.entries[lo..hi]
            .iter()
            .filter(move |&&(w, _)| w == word)
            .map(|&(_, pos)| pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastz_genome::evolve::random_sequence;

    fn seq(ascii: &[u8]) -> Sequence {
        Sequence::from_ascii("t", ascii).unwrap()
    }

    #[test]
    fn index_finds_all_occurrences() {
        let s = seq(b"ACGTACGTACGT");
        let idx = SeedIndex::build(&s, SeedShape::exact(4));
        let word = idx.shape().word_at(s.codes(), 0).unwrap();
        let mut hits: Vec<u32> = idx.lookup(word).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 4, 8]);
    }

    #[test]
    fn index_lookup_misses() {
        let s = seq(b"AAAAAAAA");
        let idx = SeedIndex::build(&s, SeedShape::exact(4));
        // Word for "TTTT" does not occur.
        let probe = seq(b"TTTT");
        let word = idx.shape().word_at(probe.codes(), 0).unwrap();
        assert_eq!(idx.lookup(word).count(), 0);
    }

    #[test]
    fn n_windows_are_excluded() {
        let s = seq(b"ACGTNACGT");
        let idx = SeedIndex::build(&s, SeedShape::exact(4));
        // Windows at 1..=4 all cover the N; only 0 and 5 index.
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn empty_and_short_sequences() {
        let s = seq(b"AC");
        let idx = SeedIndex::build(&s, SeedShape::exact(4));
        assert!(idx.is_empty());
        let e = Sequence::from_codes("e", vec![]);
        assert!(SeedIndex::build(&e, SeedShape::exact(4)).is_empty());
    }

    #[test]
    fn exhaustive_agreement_with_naive_scan() {
        let t = random_sequence("t", 4_000, 0.5, 99);
        let shape = SeedShape::lastz_12of19();
        let idx = SeedIndex::build(&t, shape.clone());
        // Probe 200 windows of the same sequence: index hits must equal a
        // naive all-positions scan.
        for probe in (0..2_000).step_by(10) {
            let Some(word) = shape.word_at(t.codes(), probe) else {
                continue;
            };
            let mut from_index: Vec<u32> = idx.lookup(word).collect();
            from_index.sort_unstable();
            let naive: Vec<u32> = (0..t.len() - shape.span() + 1)
                .filter(|&p| shape.word_at(t.codes(), p) == Some(word))
                .map(|p| p as u32)
                .collect();
            assert_eq!(from_index, naive, "probe {probe}");
        }
    }

    #[test]
    fn bucket_positions_ascend_within_each_bucket() {
        // The scatter walks positions in ascending order, so every bucket
        // (and therefore every lookup) yields ascending target positions —
        // the property sharded concatenation relies on.
        let t = random_sequence("t", 3_000, 0.5, 17);
        let idx = SeedIndex::build(&t, SeedShape::exact(8));
        for h in 0..idx.bucket_starts.len() - 1 {
            let lo = idx.bucket_starts[h] as usize;
            let hi = idx.bucket_starts[h + 1] as usize;
            let bucket = &idx.entries[lo..hi];
            assert!(
                bucket.windows(2).all(|w| w[0].1 < w[1].1),
                "bucket {h} positions not ascending"
            );
        }
    }

    #[test]
    fn interval_builds_partition_the_full_index() {
        let t = random_sequence("t", 2_500, 0.5, 41);
        let shape = SeedShape::lastz_12of19();
        let full = SeedIndex::build(&t, shape.clone());
        let n_windows = t.len() - shape.span() + 1;
        let mid = n_windows / 3;
        let left = SeedIndex::try_build_interval(&t, shape.clone(), 0, mid).unwrap();
        let right = SeedIndex::try_build_interval(&t, shape.clone(), mid, n_windows).unwrap();
        assert_eq!(full.len(), left.len() + right.len());
        for probe in (0..n_windows).step_by(7) {
            let Some(word) = shape.word_at(t.codes(), probe) else {
                continue;
            };
            let mut whole: Vec<u32> = full.lookup(word).collect();
            whole.sort_unstable();
            let mut split: Vec<u32> = left.lookup(word).chain(right.lookup(word)).collect();
            split.sort_unstable();
            assert_eq!(whole, split, "probe {probe}");
        }
    }

    #[test]
    fn over_limit_target_is_a_structured_error() {
        // The boundary check itself (no 4 GiB allocation needed).
        assert!(check_target_len(MAX_TARGET_LEN).is_ok());
        let err = check_target_len(MAX_TARGET_LEN + 1).unwrap_err();
        assert_eq!(
            err,
            IndexBuildError::TargetTooLarge {
                len: MAX_TARGET_LEN + 1,
                max: MAX_TARGET_LEN,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("4294967295"), "error names the limit: {msg}");
        // In-range targets build fine through the fallible path.
        let t = random_sequence("t", 500, 0.5, 7);
        assert!(SeedIndex::try_build(&t, SeedShape::exact(8)).is_ok());
    }

    #[test]
    fn peak_build_accounting_beats_legacy() {
        let t = random_sequence("t", 10_000, 0.5, 5);
        let idx = SeedIndex::build(&t, SeedShape::exact(12));
        let n_windows = t.len() - 12 + 1;
        let n_buckets = idx.bucket_starts.len() - 1;
        let new_peak = build_peak_bytes(idx.len(), n_buckets);
        let old_peak = legacy_build_peak_bytes(n_windows, idx.len(), n_buckets);
        assert!(
            new_peak * 2 <= old_peak + 1,
            "single-table build should at least halve peak bytes: {new_peak} vs {old_peak}"
        );
        assert_eq!(new_peak, idx.heap_bytes());
    }
}
