//! Anchors (seed matches) and stage-2 seed filtering.
//!
//! An anchor is one seed match: a (target position, query position) pair
//! for which the seed shape matches. Stage 2 of the pipeline (paper §2)
//! filters the raw anchors to a shorter list of promising sites with one
//! per-diagonal-band spacing rule ([`band_filter`]), followed by optional
//! deterministic subsampling to the harness's seed budget.

use crate::index::SeedIndex;
use crate::shape::SeedShape;
use fastz_genome::Sequence;
use std::collections::HashMap;

/// Width in diagonals of one [`band_filter`] band.
pub const BAND_WIDTH: u32 = 64;

/// [`band_filter`]'s spacing window in bp: within a band, an anchor that
/// starts less than this far past a kept one is suppressed.
pub const BAND_WINDOW: u32 = 4_096;

/// A seed index anchors are enumerated from: the in-memory [`SeedIndex`]
/// and the persisted [`crate::persist::ShardedSeedIndex`] both implement
/// it, so anchor enumeration is one code path for either (and provably
/// identical across them).
pub trait AnchorSource {
    /// The seed shape the index was built with.
    fn shape(&self) -> &SeedShape;
    /// Every target position whose seed word equals `word`, ascending.
    fn lookup(&self, word: u64) -> impl Iterator<Item = u32> + '_;
}

impl AnchorSource for SeedIndex {
    fn shape(&self) -> &SeedShape {
        SeedIndex::shape(self)
    }

    fn lookup(&self, word: u64) -> impl Iterator<Item = u32> + '_ {
        SeedIndex::lookup(self, word)
    }
}

/// One seed match.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Anchor {
    /// Start of the seed window in the target.
    pub target_pos: u32,
    /// Start of the seed window in the query.
    pub query_pos: u32,
}

impl Anchor {
    /// The anchor's diagonal (`target_pos - query_pos`).
    #[inline]
    pub fn diagonal(&self) -> i64 {
        self.target_pos as i64 - self.query_pos as i64
    }

    /// The anti-diagonal (`target_pos + query_pos`), which orders anchors
    /// along a diagonal.
    #[inline]
    pub fn anti_diagonal(&self) -> u64 {
        self.target_pos as u64 + self.query_pos as u64
    }
}

/// Enumerates all anchors between the indexed target and `query`.
///
/// Anchors come out in query-position order, and in target-position
/// order within one query position: the index's lookup already yields
/// ascending positions, so no per-window sort is needed.
pub fn find_anchors<S: AnchorSource>(index: &S, query: &Sequence) -> Vec<Anchor> {
    let shape = index.shape();
    let codes = query.codes();
    let mut anchors = Vec::new();
    let n_windows = codes.len().saturating_sub(shape.span().saturating_sub(1));
    for q in 0..n_windows {
        let Some(word) = shape.word_at(codes, q) else {
            continue;
        };
        let first = anchors.len();
        anchors.extend(index.lookup(word).map(|t| Anchor {
            target_pos: t,
            query_pos: q as u32,
        }));
        debug_assert!(
            anchors[first..]
                .windows(2)
                .all(|w| w[0].target_pos < w[1].target_pos),
            "seed index lookup out of position order at query window {q}"
        );
    }
    anchors
}

/// Per-diagonal-band spacing filter (stage 2).
///
/// Whole-genome seed lists are extremely dense inside long conserved
/// segments — hundreds of seeds all re-discovering the same alignment.
/// The paper's seed statistics (Table 2: only tens of seeds reach the
/// largest bins out of a million) show the filtering stage passes very
/// few seeds per long alignment, while short-segment and chance seeds
/// pass essentially untouched. This filter reproduces that: diagonals
/// are quantized into bands of [`BAND_WIDTH`] diagonals, and within a
/// band a new anchor is suppressed when a kept anchor started within
/// [`BAND_WINDOW`] bp before it (indels shift an alignment across nearby
/// diagonals, which the banding absorbs). Segments shorter than the
/// window keep ~1 anchor per diagonal band; chance anchors on scattered
/// diagonals are kept. Input order is preserved.
pub fn band_filter(anchors: &[Anchor]) -> Vec<Anchor> {
    let reach = 2 * BAND_WINDOW as u64;
    let mut last_kept: HashMap<i64, u64> = HashMap::new();
    let mut kept = Vec::with_capacity(anchors.len() / 2 + 1);
    for &a in anchors {
        let bucket = a.diagonal().div_euclid(BAND_WIDTH as i64);
        let ad = a.anti_diagonal();
        // Check this band and both neighbours (a segment straddling a
        // bucket boundary would otherwise pass two anchors).
        let suppressed = [bucket - 1, bucket, bucket + 1]
            .iter()
            .any(|b| last_kept.get(b).is_some_and(|&prev| ad < prev + reach));
        if !suppressed {
            last_kept.insert(bucket, ad);
            kept.push(a);
        }
    }
    kept
}

/// Deterministically subsamples `anchors` down to at most `max` entries,
/// evenly spaced over the input (preserving order and the head/tail).
pub fn sample_anchors(anchors: &[Anchor], max: usize) -> Vec<Anchor> {
    if anchors.len() <= max || max == 0 {
        return anchors.to_vec();
    }
    let stride = anchors.len() as f64 / max as f64;
    (0..max)
        .map(|i| anchors[(i as f64 * stride) as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::SeedShape;
    use fastz_genome::evolve::random_sequence;
    use fastz_genome::Sequence;

    fn seq(ascii: &[u8]) -> Sequence {
        Sequence::from_ascii("t", ascii).unwrap()
    }

    #[test]
    fn anchors_found_for_shared_kmer() {
        let target = seq(b"TTTTACGTACGGTTTT");
        let query = seq(b"GGGGACGTACGGGGGG");
        let idx = SeedIndex::build(&target, SeedShape::exact(8));
        let anchors = find_anchors(&idx, &query);
        assert!(anchors.contains(&Anchor {
            target_pos: 4,
            query_pos: 4
        }));
    }

    #[test]
    fn no_anchors_between_disjoint_sequences() {
        let target = seq(b"AAAAAAAAAAAA");
        let query = seq(b"CCCCCCCCCCCC");
        let idx = SeedIndex::build(&target, SeedShape::exact(6));
        assert!(find_anchors(&idx, &query).is_empty());
    }

    #[test]
    fn anchors_are_exhaustive_vs_naive() {
        let target = random_sequence("t", 1_500, 0.5, 21);
        let query = random_sequence("q", 1_500, 0.5, 22);
        let shape = SeedShape::exact(7); // short seed → some chance hits
        let idx = SeedIndex::build(&target, shape.clone());
        let found = find_anchors(&idx, &query);

        let mut naive = Vec::new();
        for q in 0..query.len() - shape.span() + 1 {
            for t in 0..target.len() - shape.span() + 1 {
                if shape.matches(target.codes(), t, query.codes(), q) {
                    naive.push(Anchor {
                        target_pos: t as u32,
                        query_pos: q as u32,
                    });
                }
            }
        }
        // The naive scan emits in (query, target) order: so must the index.
        assert_eq!(found, naive);
    }

    #[test]
    fn diagonal_and_antidiagonal() {
        let a = Anchor {
            target_pos: 10,
            query_pos: 4,
        };
        assert_eq!(a.diagonal(), 6);
        assert_eq!(a.anti_diagonal(), 14);
    }

    #[test]
    fn band_filter_suppresses_nearby_anchors_in_neighbouring_bands() {
        let at = |target_pos, query_pos| Anchor {
            target_pos,
            query_pos,
        };
        let anchors = vec![
            at(0, 0),
            at(5, 5),           // same diagonal, close
            at(70, 0),          // neighbouring band, close
            at(10_000, 10_000), // same diagonal, past the window
            at(1_000, 100),     // a distant band
        ];
        assert_eq!(
            band_filter(&anchors),
            vec![at(0, 0), at(10_000, 10_000), at(1_000, 100)]
        );
    }

    #[test]
    fn sample_is_even_and_deterministic() {
        let anchors: Vec<Anchor> = (0..1000)
            .map(|i| Anchor {
                target_pos: i,
                query_pos: 0,
            })
            .collect();
        let s1 = sample_anchors(&anchors, 10);
        let s2 = sample_anchors(&anchors, 10);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 10);
        assert_eq!(s1[0].target_pos, 0);
        assert!(s1[9].target_pos >= 900);
        // No-op when under budget.
        assert_eq!(sample_anchors(&anchors, 2000).len(), 1000);
    }

    #[test]
    fn spaced_seed_tolerates_wildcard_mismatches() {
        // Two sequences differing only at a wildcard position of the
        // 12-of-19 seed still anchor.
        let shape = SeedShape::lastz_12of19();
        let mut t_ascii = b"ACGTACGTACGTACGTACG".to_vec();
        let mut q_ascii = t_ascii.clone();
        // Position 3 is a wildcard in 1110100110010101111.
        q_ascii[3] = b'T';
        t_ascii[3] = b'A';
        let target = seq(&t_ascii);
        let query = seq(&q_ascii);
        let idx = SeedIndex::build(&target, shape);
        let anchors = find_anchors(&idx, &query);
        assert_eq!(
            anchors,
            vec![Anchor {
                target_pos: 0,
                query_pos: 0
            }]
        );
    }
}
