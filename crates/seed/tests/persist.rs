//! Property tests for the persistent sharded seed index: a
//! persisted-then-loaded index must agree with a freshly built one for
//! every probed word, across shapes, shard counts, and shard boundaries
//! straddling bucket edges — and damaged files must never load.

use fastz_genome::Sequence;
use fastz_seed::{find_anchors, PersistError, SeedIndex, SeedShape, ShardedSeedIndex};
use proptest::prelude::*;

fn seq_strategy(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 40..max)
}

/// One of the two drilled shapes: contiguous exact seeds of varying k,
/// or the LASTZ 12-of-19 spaced seed.
fn shape_strategy() -> impl Strategy<Value = SeedShape> {
    (0usize..6).prop_map(|pick| {
        if pick == 5 {
            SeedShape::lastz_12of19()
        } else {
            SeedShape::exact(4 + pick)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Persist → load → lookup is bit-identical to a fresh in-memory
    /// build for EVERY word occurring in the target, at every shard
    /// count (including counts that slice buckets mid-run and shard
    /// counts exceeding the window count, which leaves empty shards).
    #[test]
    fn persisted_index_agrees_with_fresh_build(
        t in seq_strategy(600),
        shape in shape_strategy(),
        n_shards in 1usize..9,
    ) {
        let target = Sequence::from_codes("prop-target", t);
        let whole = SeedIndex::build(&target, shape.clone());
        let built = ShardedSeedIndex::build(&target, shape.clone(), n_shards).unwrap();
        let loaded = ShardedSeedIndex::from_bytes(&built.to_bytes()).unwrap();
        prop_assert_eq!(loaded.checksum(), built.checksum());
        prop_assert_eq!(loaded.fingerprint(), built.fingerprint());
        if target.len() >= shape.span() {
            for pos in 0..=target.len() - shape.span() {
                let Some(word) = shape.word_at(target.codes(), pos) else { continue };
                let fresh: Vec<u32> = whole.lookup(word).collect();
                let shard: Vec<u32> = built.lookup(word).collect();
                let disk: Vec<u32> = loaded.lookup(word).collect();
                prop_assert_eq!(&fresh, &shard, "in-memory sharded diverged at pos {}", pos);
                prop_assert_eq!(&fresh, &disk, "loaded sharded diverged at pos {}", pos);
            }
        }
    }

    /// Anchor enumeration through a loaded sharded index equals the
    /// in-memory path exactly (same anchors, same order) — the contract
    /// `Workload::build_with_index` relies on.
    #[test]
    fn anchors_via_loaded_index_match_in_memory(
        t in seq_strategy(500),
        q in seq_strategy(300),
        n_shards in 1usize..6,
    ) {
        let target = Sequence::from_codes("prop-target", t);
        let query = Sequence::from_codes("prop-query", q);
        let shape = SeedShape::exact(6);
        let whole = SeedIndex::build(&target, shape.clone());
        let built = ShardedSeedIndex::build(&target, shape.clone(), n_shards).unwrap();
        let loaded = ShardedSeedIndex::from_bytes(&built.to_bytes()).unwrap();
        let a = find_anchors(&whole, &query);
        let b = find_anchors(&loaded, &query);
        prop_assert_eq!(a, b);
    }

    /// Any strict prefix of an artifact is rejected as truncated — the
    /// checkpoint-trailer discipline applied to the binary format.
    #[test]
    fn truncated_artifacts_never_load(
        t in seq_strategy(300),
        n_shards in 1usize..5,
        frac in 0.0f64..1.0,
    ) {
        let target = Sequence::from_codes("prop-target", t);
        let bytes = ShardedSeedIndex::build(&target, SeedShape::exact(5), n_shards)
            .unwrap()
            .to_bytes();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        let err = ShardedSeedIndex::from_bytes(&bytes[..cut]).unwrap_err();
        prop_assert!(
            matches!(
                err,
                PersistError::Truncated { .. }
                    | PersistError::BadMagic
                    | PersistError::Malformed(_)
            ),
            "cut at {}/{}: {:?}", cut, bytes.len(), err
        );
    }

    /// A single flipped bit anywhere in the artifact is rejected
    /// (checksum, structural validation, or version gate — never a
    /// silent wrong load).
    #[test]
    fn bit_flips_never_load_silently(
        t in seq_strategy(300),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let target = Sequence::from_codes("prop-target", t);
        let idx = ShardedSeedIndex::build(&target, SeedShape::exact(5), 3).unwrap();
        let mut bytes = idx.to_bytes();
        let at = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        bytes[at] ^= 1 << bit;
        // FNV-1a's per-byte update is invertible (odd multiplier, XOR),
        // so a single-byte change always changes the checksum: every
        // flip must be caught by some gate.
        let res = ShardedSeedIndex::from_bytes(&bytes);
        prop_assert!(
            res.is_err(),
            "flipped byte {} bit {} loaded silently: {:?}", at, bit, res.ok()
        );
    }
}
