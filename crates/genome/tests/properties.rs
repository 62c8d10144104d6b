//! Property tests for the genome substrate: sequence containers, FASTA
//! round-trips, scoring invariants, and the synthetic evolver.

use fastz_genome::evolve::{generate_pair, mutate, MutationRates, PairParams};
use fastz_genome::{read_fasta, write_fasta, Scoring, Sequence, SubstMatrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn codes_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..5, 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reverse_complement_involution(codes in codes_strategy()) {
        let s = Sequence::from_codes("p", codes);
        let rc_rc = s.reverse_complement().reverse_complement();
        prop_assert_eq!(rc_rc.codes(), s.codes());
    }

    #[test]
    fn fasta_round_trip(codes in codes_strategy(), width in 1usize..100) {
        let records = vec![Sequence::from_codes("rec1", codes)];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records, width).unwrap();
        let parsed = read_fasta(std::io::Cursor::new(&buf)).unwrap();
        prop_assert_eq!(parsed, records);
    }

    #[test]
    fn hoxd70_symmetry_under_complement(a in 0u8..4, b in 0u8..4) {
        // HOXD70 scores are invariant under complementing both bases —
        // the property strand symmetry rests on.
        let m = SubstMatrix::hoxd70();
        prop_assert_eq!(m.score(a, b), m.score(3 - a, 3 - b));
        prop_assert_eq!(m.score(a, b), m.score(b, a));
    }

    #[test]
    fn gap_cost_is_affine(len in 1usize..1000) {
        let s = Scoring::lastz_default();
        let c1 = s.gaps.gap_cost(len);
        let c2 = s.gaps.gap_cost(len + 1);
        prop_assert_eq!(c2 - c1, s.gaps.extend);
        prop_assert_eq!(s.gaps.gap_cost(len), s.gaps.open + s.gaps.extend * len as i32);
    }

    #[test]
    fn mutation_without_indels_preserves_length(sub in 0.0f64..0.5, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let anc = fastz_genome::evolve::random_codes(500, 0.5, &mut rng);
        let rates = MutationRates { substitution: sub, indel: 0.0, mean_indel_len: 1.0 };
        let out = mutate(&anc, &rates, 0.5, &mut rng);
        prop_assert_eq!(out.len(), anc.len());
        prop_assert!(out.iter().all(|&b| b < 4));
    }

    #[test]
    fn generated_pairs_are_deterministic_and_in_bounds(seed in any::<u64>()) {
        let params = PairParams {
            target_len: 25_000,
            query_len: 25_000,
            segments: 40,
            rng_seed: seed,
            ..PairParams::small_demo("prop", 0)
        };
        let a = match std::panic::catch_unwind(|| generate_pair(&params)) {
            Ok(p) => p,
            Err(_) => return Ok(()), // over-budget draw: rejected loudly
        };
        let b = generate_pair(&params);
        prop_assert_eq!(a.target.codes(), b.target.codes());
        prop_assert_eq!(a.query.codes(), b.query.codes());
        for seg in &a.truth {
            prop_assert!(seg.target_start + seg.target_len <= a.target.len());
            prop_assert!(seg.query_start + seg.query_len <= a.query.len());
        }
        // Segments are ordered and non-overlapping in both sequences.
        for w in a.truth.windows(2) {
            prop_assert!(w[0].target_start + w[0].target_len <= w[1].target_start);
            prop_assert!(w[0].query_start + w[0].query_len <= w[1].query_start);
        }
    }
}
