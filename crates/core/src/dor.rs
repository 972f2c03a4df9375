//! Dimension Order Routing (DOR) — the deterministic minimal baseline
//! (Dally & Seitz's Torus Routing Chip lineage, Table 2 row 1).
//!
//! On a HyperX, DOR aligns dimensions lowest-first, taking exactly one hop
//! per unaligned dimension. Because no packet ever moves twice in the same
//! dimension and dimensions are visited in a fixed order, the channel
//! dependency graph is acyclic and a single resource class suffices.

use std::sync::Arc;

use hxtopo::HyperX;
use rand::rngs::SmallRng;

use crate::api::{Candidate, Commit, Hop, RoutingAlgorithm};
use crate::hyperx_common::{dor_port, hops};

/// Deterministic dimension-order routing.
pub struct Dor {
    hx: Arc<HyperX>,
}

impl Dor {
    /// Creates DOR for `hx` (every VC is spent on head-of-line-blocking
    /// relief — DOR needs only one class).
    pub(crate) fn new(hx: Arc<HyperX>) -> Self {
        Dor { hx }
    }
}

impl RoutingAlgorithm for Dor {
    fn name(&self) -> &'static str {
        "DOR"
    }

    fn num_classes(&self) -> usize {
        1
    }

    fn candidates(&self, hop: &Hop<'_>, _rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        let port = dor_port(&self.hx, hop.router, hop.dst_router)
            .expect("never asked at the destination router");
        // DOR is deterministic: with its one legal port down the packet
        // can only wait for a revival (fault-oblivious baselines degrade
        // under failures; the watchdog reports permanent stalls).
        if !hop.live[port] {
            return;
        }
        let h = hops(&self.hx, hop.router, hop.dst_router);
        out.push(Candidate::new(port, 0, h, Commit::None));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{PacketRouteState, RouteCtx};
    use crate::mock::MockView;
    use hxtopo::{Coord, Topology};
    use rand::SeedableRng;

    fn ctx<'a>(hx: &HyperX, router: usize, dst_router: usize, view: &'a MockView) -> RouteCtx<'a> {
        RouteCtx {
            router,
            input_port: 0,
            input_vc: 0,
            from_terminal: true,
            dst_router,
            dst_terminal: dst_router * hx.terms_per_router(),
            pkt_len: 4,
            state: PacketRouteState::default(),
            view,
        }
    }

    #[test]
    fn routes_lowest_dimension_first() {
        let hx = Arc::new(HyperX::uniform(3, 4, 2));
        let dor = Dor::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 16);
        let src = hx.router_at(&Coord::new(&[0, 0, 0]));
        let dst = hx.router_at(&Coord::new(&[2, 3, 1]));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        dor.route(&ctx(&hx, src, dst, &view), &mut rng, &mut out);
        assert_eq!(out.len(), 1, "DOR is deterministic");
        let expect = hx.port_towards(src, 0, 2);
        assert_eq!(out[0].port as usize, expect);
        assert_eq!(out[0].class, 0);
        assert_eq!(out[0].hops, 3);
        assert_eq!(out[0].commit, Commit::None);
    }

    #[test]
    fn skips_aligned_dimensions() {
        let hx = Arc::new(HyperX::uniform(3, 4, 2));
        let dor = Dor::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 16);
        let src = hx.router_at(&Coord::new(&[1, 0, 0]));
        let dst = hx.router_at(&Coord::new(&[1, 0, 3]));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        dor.route(&ctx(&hx, src, dst, &view), &mut rng, &mut out);
        assert_eq!(out[0].port as usize, hx.port_towards(src, 2, 3));
        assert_eq!(out[0].hops, 1);
    }

    #[test]
    fn full_path_visits_each_dim_once() {
        let hx = Arc::new(HyperX::uniform(3, 4, 1));
        let dor = Dor::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 16);
        let mut rng = SmallRng::seed_from_u64(1);
        let dst = hx.router_at(&Coord::new(&[3, 2, 1]));
        let mut cur = hx.router_at(&Coord::new(&[0, 0, 0]));
        let mut hops = 0;
        while cur != dst {
            let mut out = Vec::new();
            dor.route(&ctx(&hx, cur, dst, &view), &mut rng, &mut out);
            let (d, to) = hx.port_dim_target(cur, out[0].port as usize).unwrap();
            cur = hx.router_at(&hx.coord_of(cur).with(d, to));
            hops += 1;
            assert!(hops <= 3, "DOR path too long");
        }
        assert_eq!(hops, 3);
    }

    #[test]
    fn dead_minimal_port_yields_no_candidates() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let dor = Dor::new(hx.clone());
        let mut view = MockView::idle(hx.max_ports(), 4, 16);
        let src = hx.router_at(&Coord::new(&[0, 0]));
        let dst = hx.router_at(&Coord::new(&[2, 2]));
        view.kill_port(hx.port_towards(src, 0, 2));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        dor.route(&ctx(&hx, src, dst, &view), &mut rng, &mut out);
        assert!(out.is_empty(), "DOR cannot route around a dead port");
    }

    #[test]
    fn weight_reflects_congestion_times_hops() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let dor = Dor::new(hx.clone());
        let mut view = MockView::idle(hx.max_ports(), 4, 16);
        let src = hx.router_at(&Coord::new(&[0, 0]));
        let dst = hx.router_at(&Coord::new(&[2, 2]));
        let port = hx.port_towards(src, 0, 2);
        view.congest_port(port, 6); // 6 flits on each of the 4 VCs
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        dor.route(&ctx(&hx, src, dst, &view), &mut rng, &mut out);
        // 6 flits on each of 4 VCs plus the 100-cycle hop latency, x 2 hops.
        assert_eq!(out[0].weight, (6 * 4 + 100) * 2);
    }
}
