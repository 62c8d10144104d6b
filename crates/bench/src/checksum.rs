//! The FNV-1a checksum the harness binaries use to show that two runs
//! produced the same output before either is timed.

use fastz_align::Alignment;
use fastz_genome::hash;

/// 64-bit FNV-1a over `words`, each hashed as its eight little-endian
/// bytes. Order-sensitive.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(hash::FNV1A_BASIS, |h, v| hash::fnv1a(h, &v.to_le_bytes()))
}

/// [`fnv1a`] over each alignment's coordinates, score and edit-script
/// length, in order (dedupe first for a canonical order).
pub fn alignment_checksum(alignments: &[Alignment]) -> u64 {
    fnv1a(alignments.iter().flat_map(|a| {
        [
            a.target_start as u64,
            a.target_end as u64,
            a.query_start as u64,
            a.query_end as u64,
            a.score as u64,
            a.ops.len() as u64,
        ]
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_values() {
        // The empty input hashes to the offset basis; one zero word is
        // FNV-1a 64 of eight zero bytes.
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a([0u64]), 0xa8c7_f832_281a_39c5);
        assert_ne!(fnv1a([1, 2]), fnv1a([2, 1]), "order-sensitive");
    }
}
