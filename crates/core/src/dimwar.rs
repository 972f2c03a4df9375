//! Dimensionally-ordered Weighted Adaptive Routing (DimWAR) — paper
//! Section 5.1. The light-weight incremental adaptive algorithm.
//!
//! DimWAR moves through the network in dimension order, making a weighted
//! adaptive decision at *every* hop: within the current (lowest unaligned)
//! dimension it may either take the minimal hop straight to the
//! destination's coordinate, or deroute laterally to any other coordinate
//! of that dimension — at most once per dimension.
//!
//! Deadlock avoidance uses only **two resource classes** regardless of the
//! dimension count: minimal hops ride class 0, deroute hops ride class 1.
//! Within a dimension the only intra-dimension dependency is
//! `class 1 -> class 0` (a deroute is always followed by the forced minimal
//! hop), and dimension ordering makes cross-dimension dependencies acyclic,
//! so the class pair is safely reused in every dimension — the HyperX
//! analogue of dateline routing on a torus.
//!
//! Whether a deroute is allowed is read off the *input VC class* (class 0
//! or injection = may deroute; class 1 = just derouted, must route
//! minimally), so no state is carried in the packet — the paper's
//! practicality claim.

use std::sync::Arc;

use hxtopo::HyperX;
use rand::rngs::SmallRng;

use crate::api::{Candidate, Commit, Hop, RoutingAlgorithm};

/// The resource class minimal hops ride on.
pub(crate) const CLASS_MINIMAL: usize = 0;
/// The resource class deroute hops ride on.
pub(crate) const CLASS_DEROUTE: usize = 1;

/// Dimensionally-ordered weighted adaptive routing.
pub struct DimWar {
    hx: Arc<HyperX>,
}

impl DimWar {
    /// Creates DimWAR for `hx`. The simulator splits its VCs into the two
    /// resource classes (spares relieve head-of-line blocking), so the VC
    /// count is the simulation's, not the algorithm's.
    pub fn new(hx: Arc<HyperX>, _num_vcs: usize) -> Self {
        DimWar { hx }
    }
}

impl RoutingAlgorithm for DimWar {
    fn name(&self) -> &'static str {
        "DimWAR"
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn candidates(&self, hop: &Hop<'_>, _rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        let hx = &self.hx;
        let cur = hx.coord_of(hop.router);
        let dst = hx.coord_of(hop.dst_router);
        let d = cur
            .first_unaligned(&dst)
            .expect("never asked at the destination router");
        let h = cur.unaligned_count(&dst);

        // Minimal hop: straight to the destination's coordinate in the
        // current dimension, class 0.
        let min_port = hx.port_towards(hop.router, d, dst.get(d));
        let min_live = hop.live[min_port];
        if min_live {
            out.push(Candidate::new(min_port, CLASS_MINIMAL, h, Commit::None));
        }

        // Deroutes are permitted only from the first resource class: a
        // packet arriving on class 1 just derouted and must route
        // minimally (paper Section 5.1 step 2). Exception under faults: a
        // minimally-forced packet whose minimal port is dead may take one
        // fault-escape deroute instead of stalling. This adds a
        // class-1 -> class-1 dependency only at routers adjacent to a
        // failure; with a single dead link per dimension row the next
        // minimal hop is live again, so no dependency cycle closes (under
        // heavier correlated failures the watchdog reports any stall).
        let may_deroute = hop.from_terminal || hop.input_class == CLASS_MINIMAL;
        if may_deroute || !min_live {
            for c in 0..hx.width(d) {
                if c == cur.get(d) || c == dst.get(d) {
                    continue;
                }
                let port = hx.port_towards(hop.router, d, c);
                if hop.live[port] {
                    out.push(Candidate::new(port, CLASS_DEROUTE, h + 1, Commit::None));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ClassMap, PacketRouteState, RouteCtx};
    use crate::mock::MockView;
    use hxtopo::{Coord, Topology};
    use rand::SeedableRng;

    fn make_ctx<'a>(
        hx: &HyperX,
        router: usize,
        dst_router: usize,
        from_terminal: bool,
        input_vc: usize,
        view: &'a MockView,
    ) -> RouteCtx<'a> {
        RouteCtx {
            router,
            input_port: if from_terminal {
                0
            } else {
                hx.terms_per_router()
            },
            input_vc,
            from_terminal,
            dst_router,
            dst_terminal: dst_router * hx.terms_per_router(),
            pkt_len: 4,
            state: PacketRouteState::default(),
            view,
        }
    }

    #[test]
    fn offers_minimal_plus_all_deroutes() {
        let hx = Arc::new(HyperX::uniform(3, 8, 8));
        let algo = DimWar::new(hx.clone(), 8);
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[0, 0, 0]));
        let dst = hx.router_at(&Coord::new(&[5, 3, 0]));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(&make_ctx(&hx, src, dst, true, 0, &view), &mut rng, &mut out);
        // 1 minimal + 6 deroutes (width 8, excluding own and dest coords).
        assert_eq!(out.len(), 7);
        assert_eq!(
            out.iter()
                .filter(|c| c.class as usize == CLASS_MINIMAL)
                .count(),
            1
        );
        assert_eq!(
            out.iter()
                .filter(|c| c.class as usize == CLASS_DEROUTE)
                .count(),
            6
        );
        // All candidates stay in dimension 0 (dimension-ordered).
        for c in &out {
            let (d, _) = hx.port_dim_target(src, c.port as usize).unwrap();
            assert_eq!(d, 0);
        }
    }

    #[test]
    fn no_deroute_after_deroute() {
        let hx = Arc::new(HyperX::uniform(3, 8, 8));
        let algo = DimWar::new(hx.clone(), 8);
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[1, 0, 0]));
        let dst = hx.router_at(&Coord::new(&[5, 3, 0]));
        let map = ClassMap::new(8, 2);
        // Arriving on a deroute-class VC: minimal only.
        let vc1 = map.first_vc(CLASS_DEROUTE);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, false, vc1, &view),
            &mut rng,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].class as usize, CLASS_MINIMAL);
        let (d, to) = hx.port_dim_target(src, out[0].port as usize).unwrap();
        assert_eq!((d, to), (0, 5));
    }

    #[test]
    fn deroute_weight_carries_extra_hop() {
        let hx = Arc::new(HyperX::uniform(2, 4, 2));
        let algo = DimWar::new(hx.clone(), 8);
        let mut view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[0, 0]));
        let dst = hx.router_at(&Coord::new(&[2, 2]));
        // Equal congestion on all dimension-0 ports.
        for c in [1, 2, 3] {
            view.congest_port(hx.port_towards(src, 0, c), 10);
        }
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(&make_ctx(&hx, src, dst, true, 0, &view), &mut rng, &mut out);
        let min = out
            .iter()
            .find(|c| c.class as usize == CLASS_MINIMAL)
            .unwrap();
        let der = out
            .iter()
            .find(|c| c.class as usize == CLASS_DEROUTE)
            .unwrap();
        let q = 10 * 8 + 100; // 10 flits on 8 VCs + the 100-cycle hop term
        assert_eq!(min.weight, q * 2);
        assert_eq!(der.weight, q * 3, "deroute pays for the extra hop");
    }

    #[test]
    fn deroutes_around_congestion() {
        let hx = Arc::new(HyperX::uniform(2, 4, 2));
        let algo = DimWar::new(hx.clone(), 8);
        let mut view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[0, 0]));
        let dst = hx.router_at(&Coord::new(&[2, 0]));
        let min_port = hx.port_towards(src, 0, 2);
        view.congest_port(min_port, 60);
        view.queues[min_port] = 40;
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(&make_ctx(&hx, src, dst, true, 0, &view), &mut rng, &mut out);
        let best = out.iter().min_by_key(|c| (c.weight, c.hops)).unwrap();
        assert_eq!(best.class as usize, CLASS_DEROUTE);
        assert_ne!(best.port as usize, min_port);
    }

    #[test]
    fn dead_ports_filtered_from_candidates() {
        let hx = Arc::new(HyperX::uniform(2, 4, 2));
        let algo = DimWar::new(hx.clone(), 8);
        let mut view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[0, 0]));
        let dst = hx.router_at(&Coord::new(&[2, 0]));
        let min_port = hx.port_towards(src, 0, 2);
        let dead_deroute = hx.port_towards(src, 0, 1);
        view.kill_port(min_port);
        view.kill_port(dead_deroute);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(&make_ctx(&hx, src, dst, true, 0, &view), &mut rng, &mut out);
        // Only the one live deroute (to coordinate 3) remains.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].class as usize, CLASS_DEROUTE);
        assert_eq!(out[0].port as usize, hx.port_towards(src, 0, 3));
    }

    /// A minimally-forced (class 1) packet whose minimal port is dead gets
    /// the fault-escape deroutes instead of stalling.
    #[test]
    fn dead_minimal_port_enables_escape_deroute() {
        let hx = Arc::new(HyperX::uniform(2, 4, 2));
        let algo = DimWar::new(hx.clone(), 8);
        let mut view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[0, 0]));
        let dst = hx.router_at(&Coord::new(&[2, 0]));
        view.kill_port(hx.port_towards(src, 0, 2));
        let map = ClassMap::new(8, 2);
        let vc1 = map.first_vc(CLASS_DEROUTE);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, false, vc1, &view),
            &mut rng,
            &mut out,
        );
        assert!(!out.is_empty(), "escape deroute must be offered");
        assert!(out.iter().all(|c| c.class as usize == CLASS_DEROUTE));
        assert!(out
            .iter()
            .all(|c| c.port as usize != hx.port_towards(src, 0, 2)));
    }

    /// Simulated walk: at most one deroute per dimension, dimensions in
    /// order, path length <= 2 * dims.
    #[test]
    fn path_property_one_deroute_per_dim() {
        let hx = Arc::new(HyperX::uniform(3, 5, 1));
        let algo = DimWar::new(hx.clone(), 8);
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let map = ClassMap::new(8, 2);
        let mut rng = SmallRng::seed_from_u64(42);
        for (src, dst) in [(0usize, 124usize), (7, 93), (31, 32)] {
            let mut cur = src;
            let mut vc = 0usize;
            let mut first = true;
            let mut hops = 0;
            let mut last_dim = 0;
            while cur != dst {
                let mut out = Vec::new();
                algo.route(
                    &make_ctx(&hx, cur, dst, first, vc, &view),
                    &mut rng,
                    &mut out,
                );
                // Pick the worst case for the property: always prefer a
                // deroute when offered.
                let cand = out.iter().max_by_key(|c| c.class).copied().unwrap();
                let (d, to) = hx.port_dim_target(cur, cand.port as usize).unwrap();
                assert!(d >= last_dim, "dimension order violated");
                last_dim = d;
                cur = hx.router_at(&hx.coord_of(cur).with(d, to));
                vc = map.first_vc(cand.class as usize);
                first = false;
                hops += 1;
                assert!(hops <= 2 * hx.dims(), "path exceeded one deroute per dim");
            }
        }
    }
}
