//! Property-based tests for traffic-pattern invariants.

use std::sync::Arc;

use hxtopo::{HyperX, Topology};
use hxtraffic::{pattern_by_name, FIG6_PATTERNS};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn hyperx_strategy() -> impl Strategy<Value = Arc<HyperX>> {
    // Uniform power-of-two widths: BC needs 2^k terminals and DCR needs
    // reversal-symmetric widths.
    (
        prop::sample::select(vec![2usize, 4]),
        prop::sample::select(vec![2usize, 4]),
    )
        .prop_map(|(w, t)| Arc::new(HyperX::uniform(3, w, t)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every Figure 6 pattern yields in-range destinations for every
    /// source.
    #[test]
    fn destinations_in_range(
        hx in hyperx_strategy(),
        src_seed in any::<u64>(),
        rng_seed in any::<u64>(),
    ) {
        let n = hx.num_terminals();
        let src = (src_seed % n as u64) as usize;
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        for name in FIG6_PATTERNS {
            let p = pattern_by_name(name, hx.clone())
                .unwrap_or_else(|e| panic!("{name} unavailable: {e}"));
            for _ in 0..20 {
                let d = p.dest(src, &mut rng);
                prop_assert!(d < n, "{name}: dest {d} out of range {n}");
            }
        }
    }

    /// The deterministic patterns (BC, S2) are permutations.
    #[test]
    fn deterministic_patterns_are_permutations(hx in hyperx_strategy()) {
        let n = hx.num_terminals();
        let mut rng = SmallRng::seed_from_u64(0);
        for name in ["BC", "S2"] {
            let p = pattern_by_name(name, hx.clone()).unwrap();
            let mut hit = vec![false; n];
            for src in 0..n {
                let d = p.dest(src, &mut rng);
                prop_assert!(!hit[d], "{name}: not a permutation");
                hit[d] = true;
            }
        }
    }

    /// URB complements exactly its target dimension and never the others
    /// deterministically (the others are randomized).
    #[test]
    fn urb_targets_one_dimension(
        hx in hyperx_strategy(),
        src_seed in any::<u64>(),
        rng_seed in any::<u64>(),
    ) {
        let n = hx.num_terminals();
        let src = (src_seed % n as u64) as usize;
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let t = hx.terms_per_router();
        for (name, dim) in [("URBx", 0usize), ("URBy", 1), ("URBz", 2)] {
            let p = pattern_by_name(name, hx.clone()).unwrap();
            let sc = hx.coord_of(src / t);
            for _ in 0..10 {
                let d = p.dest(src, &mut rng);
                let dc = hx.coord_of(d / t);
                prop_assert_eq!(
                    dc.get(dim),
                    hx.width(dim) - 1 - sc.get(dim),
                    "{} must complement dim {}", name, dim
                );
            }
        }
    }

    /// DCR sends every source's traffic to a single (reversed-complement)
    /// router row: the first dims are deterministic, the last is free.
    #[test]
    fn dcr_row_is_deterministic(
        hx in hyperx_strategy(),
        src_seed in any::<u64>(),
        rng_seed in any::<u64>(),
    ) {
        let n = hx.num_terminals();
        let src = (src_seed % n as u64) as usize;
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let t = hx.terms_per_router();
        let p = pattern_by_name("DCR", hx.clone()).unwrap();
        let sc = hx.coord_of(src / t);
        let nd = hx.dims();
        for _ in 0..10 {
            let d = p.dest(src, &mut rng);
            let dc = hx.coord_of(d / t);
            for dim in 0..nd - 1 {
                let from = nd - 1 - dim;
                prop_assert_eq!(dc.get(dim), hx.width(from) - 1 - sc.get(from));
            }
        }
    }
}
