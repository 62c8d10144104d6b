//! Property tests for seeding: index exactness, anchor enumeration, and
//! filter invariants.

use fastz_genome::Sequence;
use fastz_seed::{
    band_filter, find_anchors, Anchor, SeedIndex, SeedShape, ShardedSeedIndex, BAND_WIDTH,
    BAND_WINDOW,
};
use proptest::prelude::*;

fn seq_strategy(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 20..max)
}

/// Codes `0..=4`: `N` (4) included, so windows covering one are skipped.
fn n_seq_strategy(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..5, 20..max)
}

fn anchors_strategy() -> impl Strategy<Value = Vec<Anchor>> {
    proptest::collection::vec((0u32..20_000, 0u32..20_000), 0..200).prop_map(|mut v| {
        // find_anchors order: by query_pos, then target_pos.
        v.sort_by_key(|&(t, q)| (q, t));
        v.into_iter()
            .map(|(target_pos, query_pos)| Anchor {
                target_pos,
                query_pos,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every anchor the index reports is a true seed match, no true
    /// match is missed, and anchors come out in the brute-force scan's
    /// (query, target) order — through the whole-target index and
    /// through every shard count, with `N`s in both sequences.
    #[test]
    fn index_is_exact(
        t in n_seq_strategy(400),
        q in n_seq_strategy(200),
        k in 4usize..9,
        n_shards in 1usize..6,
    ) {
        let target = Sequence::from_codes("t", t);
        let query = Sequence::from_codes("q", q);
        let shape = SeedShape::exact(k);
        let mut naive = Vec::new();
        if target.len() >= shape.span() && query.len() >= shape.span() {
            for qpos in 0..=query.len() - shape.span() {
                for tpos in 0..=target.len() - shape.span() {
                    let (tc, qc) = (target.codes(), query.codes());
                    let hit = shape
                        .care_positions()
                        .iter()
                        .all(|&c| tc[tpos + c] < 4 && tc[tpos + c] == qc[qpos + c]);
                    if hit {
                        naive.push(Anchor { target_pos: tpos as u32, query_pos: qpos as u32 });
                    }
                }
            }
        }
        let whole = SeedIndex::build(&target, shape.clone());
        prop_assert_eq!(&find_anchors(&whole, &query), &naive);
        let sharded = ShardedSeedIndex::build(&target, shape, n_shards).unwrap();
        prop_assert_eq!(&find_anchors(&sharded, &query), &naive);
    }

    /// The filter only ever removes anchors, keeps their order, and is
    /// idempotent; every removed anchor lies within the window past a
    /// kept anchor in its band or a neighbouring one.
    #[test]
    fn band_filter_shrinks_preserves_order_and_is_idempotent(anchors in anchors_strategy()) {
        let kept = band_filter(&anchors);
        let band = |a: &Anchor| a.diagonal().div_euclid(BAND_WIDTH as i64);
        let mut it = kept.iter().peekable();
        let mut kept_before: Vec<Anchor> = Vec::new();
        for a in &anchors {
            if it.peek() == Some(&a) {
                it.next();
                kept_before.push(*a);
                continue;
            }
            prop_assert!(
                kept_before.iter().any(|k| band(k).abs_diff(band(a)) <= 1
                    && a.anti_diagonal() < k.anti_diagonal() + 2 * BAND_WINDOW as u64),
                "{a:?} removed with no kept anchor nearby"
            );
        }
        prop_assert!(it.next().is_none(), "filter output not a subsequence");
        prop_assert_eq!(band_filter(&kept), kept);
    }

    /// Seed words are position-independent: equal windows yield equal
    /// words, differing care positions yield differing words.
    #[test]
    fn word_equality_iff_care_positions_match(t in seq_strategy(100)) {
        let shape = SeedShape::lastz_12of19();
        if t.len() < 2 * shape.span() {
            return Ok(());
        }
        let w0 = shape.word_at(&t, 0);
        for pos in 0..t.len() - shape.span() {
            let w = shape.word_at(&t, pos);
            let care_equal = shape
                .care_positions()
                .iter()
                .all(|&c| t[c] == t[pos + c]);
            prop_assert_eq!(w == w0, care_equal, "pos {}", pos);
        }
    }
}
