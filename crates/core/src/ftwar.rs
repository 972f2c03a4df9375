//! Fault-Tolerant Weighted Adaptive Routing (FT-WAR) — the fault-tolerant
//! HyperX baseline, following the approach of Camarero, Cano, Martínez and
//! Beivide, *"Achieving High-Performance Fault-Tolerant Routing in HyperX
//! Interconnection Networks"* (arXiv 2404.04315).
//!
//! FT-WAR *is* OmniWAR (back-to-back restriction on) plus one lazy
//! extension: routing only deviates at routers that are locally blocked,
//! so the fault-free fast path pays nothing — the practicality argument of
//! the source paper carried over to fault handling.
//!
//! When every port that makes progress is dead — the minimal port *and*
//! all lateral coordinates of every unaligned dimension — OmniWAR offers
//! nothing. FT-WAR instead **escapes through an aligned dimension** to any
//! live coordinate of it, reaching a router whose view of the faulty
//! dimensions is different. The escape un-aligns a dimension, so it costs
//! two extra hops and is affordable only while `classes_left > remaining`.
//! Escapes ride the same strictly-incrementing distance classes as every
//! other hop, so the channel dependency graph stays acyclic — fault
//! tolerance costs no extra VCs, only deroute budget. No routing state
//! lives in the packet.

use std::sync::Arc;

use hxtopo::HyperX;
use rand::rngs::SmallRng;

use crate::api::{Candidate, Commit, Hop, RoutingAlgorithm};
use crate::omniwar::OmniWar;

/// Fault-tolerant omni-dimensional weighted adaptive routing.
pub struct FtWar {
    /// The normal pass, back-to-back restriction included.
    omni: OmniWar,
}

impl FtWar {
    /// Creates FT-WAR with `num_vcs` VCs and `deroutes` allowed deroutes
    /// (`M`); the class count is `dims + deroutes` and must fit in
    /// `num_vcs`. Escapes through aligned dimensions draw from the same
    /// deroute budget (an escape consumes two of it).
    ///
    /// # Panics
    /// Panics if `dims + deroutes > num_vcs`.
    pub(crate) fn new(hx: Arc<HyperX>, num_vcs: usize, deroutes: usize) -> Self {
        FtWar {
            omni: OmniWar::new(hx, num_vcs, deroutes),
        }
    }

    /// Creates FT-WAR using every VC as a distance class, i.e.
    /// `M = num_vcs - dims` deroutes — the deepest escape budget the VC
    /// set affords.
    pub(crate) fn max_deroutes(hx: Arc<HyperX>, num_vcs: usize) -> Self {
        let dims = hx.dims();
        assert!(num_vcs >= dims, "need at least one VC per dimension");
        Self::new(hx, num_vcs, num_vcs - dims)
    }
}

impl RoutingAlgorithm for FtWar {
    fn name(&self) -> &'static str {
        "FT-WAR"
    }

    fn num_classes(&self) -> usize {
        self.omni.num_classes()
    }

    fn candidates(&self, hop: &Hop<'_>, rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        self.omni.candidates(hop, rng, out);
        if !out.is_empty() {
            return;
        }
        // Every port making progress is dead. Escape if the class budget
        // can absorb un-aligning a dimension; any live lateral move in an
        // aligned dimension qualifies, and the weights steer among them.
        let hx = &self.omni.hx;
        let cur = hx.coord_of(hop.router);
        let dst = hx.coord_of(hop.dst_router);
        let remaining = cur.unaligned_count(&dst);
        let (out_class, classes_left) = self.omni.hop_classes(hop);
        if classes_left <= remaining {
            return;
        }
        for d in (0..hx.dims()).filter(|&d| cur.aligned(&dst, d)) {
            for c in (0..hx.width(d)).filter(|&c| c != cur.get(d)) {
                let port = hx.port_towards(hop.router, d, c);
                if hop.live[port] {
                    out.push(Candidate::new(port, out_class, remaining + 2, Commit::None));
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
        input_port: usize,
        input_vc: usize,
        view: &'a MockView,
    ) -> RouteCtx<'a> {
        RouteCtx {
            router,
            input_port,
            input_vc,
            from_terminal,
            dst_router,
            dst_terminal: dst_router * hx.terms_per_router(),
            pkt_len: 4,
            state: PacketRouteState::default(),
            view,
        }
    }

    /// Kills every dimension-`d` port of `router`.
    fn kill_dim(hx: &HyperX, view: &mut MockView, router: usize, d: usize) {
        let cur = hx.coord_of(router);
        for c in 0..hx.width(d) {
            if c != cur.get(d) {
                view.kill_port(hx.port_towards(router, d, c));
            }
        }
    }

    /// Fault-free, FT-WAR offers the same candidate set shape as OmniWAR:
    /// per unaligned dimension one minimal hop plus all deroutes, class 0
    /// from the terminal, and no aligned-dimension escapes.
    #[test]
    fn fault_free_matches_omniwar_shape() {
        let hx = Arc::new(HyperX::uniform(3, 4, 2));
        let algo = FtWar::max_deroutes(hx.clone(), 8);
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[0, 0, 0]));
        let dst = hx.router_at(&Coord::new(&[1, 2, 0]));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, true, 0, 0, &view),
            &mut rng,
            &mut out,
        );
        // 2 unaligned dims x (1 minimal + 2 deroutes); dim 2 aligned and
        // untouched.
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|c| c.class == 0));
        for c in &out {
            let (d, _) = hx.port_dim_target(src, c.port as usize).unwrap();
            assert_ne!(d, 2, "no escape through the aligned dimension");
        }
    }

    /// With the last unaligned dimension completely severed at this
    /// router, FT-WAR escapes laterally through an aligned dimension —
    /// the candidates OmniWAR cannot offer.
    #[test]
    fn escapes_through_aligned_dimension_when_blocked() {
        let hx = Arc::new(HyperX::uniform(2, 4, 2));
        let algo = FtWar::max_deroutes(hx.clone(), 8);
        let mut view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[0, 1]));
        let dst = hx.router_at(&Coord::new(&[3, 1]));
        // Sever all of dimension 0 at src: minimal and every deroute dead.
        kill_dim(&hx, &mut view, src, 0);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, true, 0, 0, &view),
            &mut rng,
            &mut out,
        );
        assert!(!out.is_empty(), "escape candidates must be offered");
        for c in &out {
            let (d, _) = hx.port_dim_target(src, c.port as usize).unwrap();
            assert_eq!(d, 1, "escapes go through the aligned dimension");
            // Un-aligning dim 1 costs two extra hops over minimal.
            assert_eq!(c.hops, 3);
        }
        // Width 4: three lateral coordinates to escape to.
        assert_eq!(out.len(), 3);
    }

    /// Escapes are a last resort: while any progress port lives, no
    /// aligned-dimension candidate appears.
    #[test]
    fn no_escape_while_progress_possible() {
        let hx = Arc::new(HyperX::uniform(2, 4, 2));
        let algo = FtWar::max_deroutes(hx.clone(), 8);
        let mut view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[0, 1]));
        let dst = hx.router_at(&Coord::new(&[3, 1]));
        // Kill the minimal port but leave one lateral dim-0 port alive.
        view.kill_port(hx.port_towards(src, 0, 3));
        view.kill_port(hx.port_towards(src, 0, 1));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, true, 0, 0, &view),
            &mut rng,
            &mut out,
        );
        assert_eq!(out.len(), 1, "only the surviving in-dimension deroute");
        let (d, to) = hx.port_dim_target(src, out[0].port as usize).unwrap();
        assert_eq!((d, to), (0, 2));
    }

    /// An escape is affordable only while the class budget can pay the
    /// two-hop detour: with exactly enough classes to finish minimally,
    /// a blocked router offers nothing (the packet waits for revival or
    /// the transport retransmits).
    #[test]
    fn escape_respects_class_budget() {
        let hx = Arc::new(HyperX::uniform(2, 4, 2));
        // N + M = 2 + 1 = 3 classes: one deroute total.
        let algo = FtWar::new(hx.clone(), 8, 1);
        let mut view = MockView::idle(hx.max_ports(), 8, 64);
        let map = ClassMap::new(8, 3);
        let src = hx.router_at(&Coord::new(&[0, 1]));
        let dst = hx.router_at(&Coord::new(&[3, 1]));
        kill_dim(&hx, &mut view, src, 0);
        // Arrived on class 0 via dim 1: next hop is class 1, leaving one
        // class for one remaining hop — minimal only, escape (needing
        // remaining + 1 = 2) unaffordable.
        let in_port = hx.port_towards(src, 1, 0);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, false, in_port, map.first_vc(0), &view),
            &mut rng,
            &mut out,
        );
        assert!(out.is_empty(), "escape must respect the class budget");
        // From the terminal (class 0, two classes left) the same blockage
        // is escapable.
        let mut out2 = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, true, 0, 0, &view),
            &mut rng,
            &mut out2,
        );
        assert!(!out2.is_empty(), "budget allows the escape from class 0");
    }

    /// Walk the algorithm around a blocked router: the packet must reach
    /// the destination within the N + M class budget, using an escape
    /// where OmniWAR would stall. `MockView` is port-indexed (one
    /// router's perspective), so the walk swaps views by router: the
    /// source router sees its dimension-0 row severed, every other
    /// router is healthy — a single-router fault, not a severed column.
    #[test]
    fn walk_routes_around_blocked_router() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let algo = FtWar::max_deroutes(hx.clone(), 8);
        let map = ClassMap::new(8, 8);
        let src = hx.router_at(&Coord::new(&[0, 1]));
        let dst = hx.router_at(&Coord::new(&[3, 1]));
        let healthy = MockView::idle(hx.max_ports(), 8, 64);
        let mut blocked = healthy.clone();
        kill_dim(&hx, &mut blocked, src, 0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut cur = src;
        let mut in_port = 0usize;
        let mut vc = 0usize;
        let mut first = true;
        let mut hops = 0usize;
        let mut escaped = false;
        while cur != dst {
            let view: &MockView = if cur == src { &blocked } else { &healthy };
            let mut out = Vec::new();
            algo.route(
                &make_ctx(&hx, cur, dst, first, in_port, vc, view),
                &mut rng,
                &mut out,
            );
            assert!(!out.is_empty(), "stalled at router {cur} after {hops} hops");
            // Deterministic greedy: cheapest (weight, hops, port).
            let cand = out
                .iter()
                .min_by_key(|c| (c.weight, c.hops, c.port))
                .copied()
                .unwrap();
            let (d, to) = hx.port_dim_target(cur, cand.port as usize).unwrap();
            if hx.coord_of(cur).aligned(&hx.coord_of(dst), d) {
                escaped = true;
            }
            let next = hx.router_at(&hx.coord_of(cur).with(d, to));
            in_port = hx.port_towards(next, d, hx.coord_of(cur).get(d));
            cur = next;
            vc = map.first_vc(cand.class as usize);
            first = false;
            hops += 1;
            assert!(hops <= 8, "exceeded the N+M distance-class budget");
        }
        assert!(escaped, "the walk had to use an aligned-dimension escape");
    }
}
