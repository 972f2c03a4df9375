//! Property-based tests for routing-algorithm invariants: every algorithm
//! on every reachable state emits valid, deadlock-class-respecting
//! candidates.

use std::sync::Arc;

use hxcore::weight::{candidate_congestion, port_congestion};
use hxcore::{
    hyperx_algorithm, mock::MockView, ClassMap, PacketRouteState, RouteCtx, RouterView,
    HYPERX_ALGORITHMS, NO_INTERMEDIATE,
};
use hxtopo::{HyperX, Topology};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn hyperx_strategy() -> impl Strategy<Value = Arc<HyperX>> {
    (prop::collection::vec(2usize..=5, 2..=3), 1usize..=3)
        .prop_map(|(widths, t)| Arc::new(HyperX::new(&widths, t)))
}

/// One step of the tests' congestion-state generator.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x
}

/// A random congestion state for the router's view.
fn congest(view: &mut MockView, ports: usize, seed: u64) {
    let mut x = seed | 1;
    for p in 0..ports {
        let r = lcg(&mut x);
        view.congest_port(p, (r >> 33) as usize % 150);
        view.queues[p] = (r >> 21) as usize % 60;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// At the source router (from a terminal) every algorithm emits at
    /// least one candidate; all candidates use real network ports in
    /// unaligned dimensions, legal classes, and sane hop counts.
    #[test]
    fn source_candidates_always_valid(
        hx in hyperx_strategy(),
        src_seed in any::<u64>(),
        dst_seed in any::<u64>(),
        cong_seed in any::<u64>(),
        rng_seed in any::<u64>(),
    ) {
        let nr = hx.num_routers() as u64;
        let src = (src_seed % nr) as usize;
        let dst = (dst_seed % nr) as usize;
        prop_assume!(src != dst);
        let mut view = MockView::idle(hx.max_ports(), 8, 160);
        congest(&mut view, hx.max_ports(), cong_seed);
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let h_min = hx.min_router_hops(src, dst);

        for name in HYPERX_ALGORITHMS {
            let algo = hyperx_algorithm(name, hx.clone(), 8).unwrap();
            let map = ClassMap::new(8, algo.num_classes());
            let ctx = RouteCtx {
                router: src,
                input_port: 0,
                input_vc: 0,
                from_terminal: true,
                dst_router: dst,
                dst_terminal: dst * hx.terms_per_router(),
                pkt_len: 8,
                state: PacketRouteState::default(),
                view: &view,
            };
            let mut out = Vec::new();
            algo.route(&ctx, &mut rng, &mut out);
            prop_assert!(!out.is_empty(), "{name}: no candidates");
            for c in &out {
                // Port must be a network port toward an unaligned dim.
                let (d, to) = hx
                    .port_dim_target(src, c.port as usize)
                    .unwrap_or_else(|| panic!("{name}: candidate uses terminal port"));
                let (sc, dc) = (hx.coord_of(src), hx.coord_of(dst));
                // Topology-agnostic Valiant (VAL, UGAL) may route away
                // from an aligned dimension toward its random intermediate;
                // every LCA-respecting algorithm must not.
                if !matches!(*name, "VAL" | "UGAL") {
                    prop_assert!(!sc.aligned(&dc, d), "{name}: routed in aligned dim");
                }
                prop_assert!(to != sc.get(d));
                // Class legal for the algorithm's map.
                prop_assert!((c.class as usize) < algo.num_classes(), "{name}");
                prop_assert!(!map.vcs_of(c.class as usize).is_empty());
                // Hop estimate between minimal and a deroute per dim + val.
                prop_assert!((c.hops as usize) >= h_min, "{name}");
                prop_assert!((c.hops as usize) <= 2 * hx.dims(), "{name}: hops {}", c.hops);
            }
        }
    }

    /// DimWAR candidates all live in the first unaligned dimension, and a
    /// packet arriving on the deroute class is offered only the minimal
    /// hop.
    #[test]
    fn dimwar_dimension_order_property(
        hx in hyperx_strategy(),
        src_seed in any::<u64>(),
        dst_seed in any::<u64>(),
        rng_seed in any::<u64>(),
    ) {
        let nr = hx.num_routers() as u64;
        let src = (src_seed % nr) as usize;
        let dst = (dst_seed % nr) as usize;
        prop_assume!(src != dst);
        let algo = hyperx_algorithm("DimWAR", hx.clone(), 8).unwrap();
        let map = ClassMap::new(8, 2);
        let view = MockView::idle(hx.max_ports(), 8, 160);
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let first = hx.coord_of(src).first_unaligned(&hx.coord_of(dst)).unwrap();

        for (from_terminal, vc) in [(true, 0), (false, map.first_vc(0)), (false, map.first_vc(1))] {
            let ctx = RouteCtx {
                router: src,
                input_port: if from_terminal { 0 } else { hx.terms_per_router() },
                input_vc: vc,
                from_terminal,
                dst_router: dst,
                dst_terminal: dst * hx.terms_per_router(),
                pkt_len: 4,
                state: PacketRouteState::default(),
                view: &view,
            };
            let mut out = Vec::new();
            algo.route(&ctx, &mut rng, &mut out);
            for c in &out {
                let (d, _) = hx.port_dim_target(src, c.port as usize).unwrap();
                prop_assert_eq!(d, first, "DimWAR left the current dimension");
            }
            if !from_terminal && map.class_of(vc) == 1 {
                prop_assert_eq!(out.len(), 1, "deroute after deroute offered");
                prop_assert_eq!(out[0].class, 0);
            }
        }
    }

    /// OmniWAR's distance-class accounting: the outgoing class always
    /// leaves enough classes for the remaining minimal hops.
    #[test]
    fn omniwar_distance_class_budget(
        hx in hyperx_strategy(),
        src_seed in any::<u64>(),
        dst_seed in any::<u64>(),
        class_seed in any::<u64>(),
        rng_seed in any::<u64>(),
    ) {
        let nr = hx.num_routers() as u64;
        let src = (src_seed % nr) as usize;
        let dst = (dst_seed % nr) as usize;
        prop_assume!(src != dst);
        let algo = hyperx_algorithm("OmniWAR", hx.clone(), 8).unwrap();
        let classes = algo.num_classes();
        let map = ClassMap::new(8, classes);
        let view = MockView::idle(hx.max_ports(), 8, 160);
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let remaining = hx.min_router_hops(src, dst);
        // Any input class that could legally occur: hop index h with
        // enough budget left for `remaining` minimal hops.
        let max_in = classes - remaining; // out class = in + 1 <= classes - remaining
        prop_assume!(max_in >= 1);
        let in_class = (class_seed % max_in as u64) as usize;
        let ctx = RouteCtx {
            router: src,
            input_port: hx.terms_per_router(),
            input_vc: map.first_vc(in_class),
            from_terminal: false,
            dst_router: dst,
            dst_terminal: dst * hx.terms_per_router(),
            pkt_len: 4,
            state: PacketRouteState::default(),
            view: &view,
        };
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        prop_assert!(!out.is_empty());
        for c in &out {
            prop_assert_eq!(c.class as usize, in_class + 1, "VC_out = VC_in + 1");
            // After this hop: remaining' = remaining or remaining - 1.
            let after = if (c.hops as usize) == remaining { remaining - 1 } else { remaining };
            prop_assert!(
                classes - 1 - (in_class + 1) >= after,
                "class budget violated: classes={classes} out={} after={after}",
                in_class + 1
            );
        }
    }

    /// The WARs never commit packet state; the Valiant family always
    /// commits a decision at the source.
    #[test]
    fn commit_discipline(
        hx in hyperx_strategy(),
        dst_seed in any::<u64>(),
        rng_seed in any::<u64>(),
    ) {
        let nr = hx.num_routers() as u64;
        let dst = 1 + (dst_seed % (nr - 1)) as usize;
        let view = MockView::idle(hx.max_ports(), 8, 160);
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        fn mk<'a>(view: &'a MockView, dst: usize, terms: usize) -> RouteCtx<'a> {
            RouteCtx {
                router: 0,
                input_port: 0,
                input_vc: 0,
                from_terminal: true,
                dst_router: dst,
                dst_terminal: dst * terms,
                pkt_len: 4,
                state: PacketRouteState::default(),
                view,
            }
        }
        for name in ["DimWAR", "OmniWAR", "DOR", "MinAD"] {
            let algo = hyperx_algorithm(name, hx.clone(), 8).unwrap();
            let mut out = Vec::new();
            algo.route(&mk(&view, dst, hx.terms_per_router()), &mut rng, &mut out);
            prop_assert!(
                out.iter().all(|c| c.commit == hxcore::Commit::None),
                "{name} stored packet state"
            );
        }
        for name in ["VAL", "UGAL", "Clos-AD"] {
            let algo = hyperx_algorithm(name, hx.clone(), 8).unwrap();
            let mut out = Vec::new();
            algo.route(&mk(&view, dst, hx.terms_per_router()), &mut rng, &mut out);
            for c in &out {
                match c.commit {
                    hxcore::Commit::SetValiant { intermediate, .. } => {
                        prop_assert!(intermediate != NO_INTERMEDIATE);
                        prop_assert!((intermediate as usize) < hx.num_routers());
                    }
                    other => prop_assert!(false, "{name}: unexpected commit {other:?}"),
                }
            }
        }
    }

    /// The weight terms are built on the view's aggregate reads; on any
    /// view they must equal the formula written out per VC (queue backlog
    /// and health penalty inside both arms of the maximum), and the
    /// aggregates' provided defaults must equal the per-VC sums.
    #[test]
    fn congestion_matches_per_vc_reference(vcs in 1usize..=16, seed in any::<u64>()) {
        let (ports, cap) = (6, 160);
        let mut view = MockView::idle(ports, vcs, cap);
        let mut x = seed | 1;
        let mut draw = |modulus: usize| (lcg(&mut x) >> 33) as usize % modulus;
        for p in 0..ports {
            for vc in 0..vcs {
                view.occ[p][vc] = draw(cap + 1);
            }
            view.queues[p] = draw(60);
            view.health[p] = [0, 0, draw(2_000) as u64, 1_000_000][draw(4)];
            if draw(4) == 0 {
                view.kill_port(p);
            }
        }
        for p in 0..ports {
            let occ: Vec<u64> = (0..vcs).map(|vc| view.occupancy(p, vc) as u64).collect();
            let shared = view.queue_len(p) as u64 + view.link_health_penalty(p);
            let port_ref = occ.iter().sum::<u64>() + shared;
            prop_assert_eq!(view.port_occupancy(p) as u64, occ.iter().sum::<u64>());
            prop_assert_eq!(port_congestion(&view, p), port_ref);
            for classes in 1..=vcs {
                let map = ClassMap::new(vcs, classes);
                for class in 0..classes {
                    let range = map.vcs_of(class);
                    let occ_cls: u64 = occ[range.clone()].iter().sum();
                    prop_assert_eq!(view.range_occupancy(p, range.clone()) as u64, occ_cls);
                    let class_ref = occ_cls * vcs as u64 / range.len().max(1) as u64 + shared;
                    prop_assert_eq!(
                        candidate_congestion(&view, p, &map, class),
                        class_ref.max(port_ref),
                        "vcs {} classes {} class {} port {}", vcs, classes, class, p
                    );
                }
            }
        }
    }
}
