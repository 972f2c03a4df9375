//! Minimal Adaptive routing (MinAD) — the adaptive-but-minimal baseline
//! discussed in Section 2.2, and the "underlying minimal algorithm" of
//! OmniWAR (Section 6.1).
//!
//! At every hop the packet may align *any* unaligned dimension, choosing
//! the least-weighted minimal port. Because dimensions are visited in
//! arbitrary order, restricted routes do not apply; distance classes (one
//! per hop, at most N hops) provide deadlock freedom. Equivalent to
//! OmniWAR with `M = 0`, but kept as its own type so benches can compare
//! the code paths.

use std::sync::Arc;

use hxtopo::HyperX;
use rand::rngs::SmallRng;

use crate::api::{Candidate, Commit, Hop, RoutingAlgorithm};
use crate::meta::{AlgoMeta, RoutingStyle};

/// Minimal adaptive routing over distance classes.
pub struct MinAd {
    hx: Arc<HyperX>,
}

impl MinAd {
    /// Creates MinAD for `hx` (`dims` distance classes).
    pub(crate) fn new(hx: Arc<HyperX>) -> Self {
        MinAd { hx }
    }
}

impl RoutingAlgorithm for MinAd {
    fn name(&self) -> &'static str {
        "MinAD"
    }

    fn num_classes(&self) -> usize {
        self.hx.dims()
    }

    fn candidates(&self, hop: &Hop<'_>, _rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        let hx = &self.hx;
        let cur = hx.coord_of(hop.router);
        let dst = hx.coord_of(hop.dst_router);
        let remaining = cur.unaligned_count(&dst);
        let out_class = if hop.from_terminal {
            0
        } else {
            hop.input_class + 1
        };
        debug_assert!(out_class < self.num_classes());
        for d in 0..hx.dims() {
            if cur.aligned(&dst, d) {
                continue;
            }
            let port = hx.port_towards(hop.router, d, dst.get(d));
            out.push(Candidate::new(port, out_class, remaining, Commit::None));
        }
    }

    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "MinAD",
            dimension_ordered: false,
            style: RoutingStyle::Incremental,
            vcs_required: "N",
            deadlock: "R.R. & D.C.",
            arch_requirements: "none",
            packet_contents: "none",
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

    #[test]
    fn offers_only_minimal_ports_in_all_unaligned_dims() {
        let hx = Arc::new(HyperX::uniform(3, 4, 2));
        let algo = MinAd::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[0, 0, 0]));
        let dst = hx.router_at(&Coord::new(&[1, 2, 0]));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        let ctx = RouteCtx {
            router: src,
            input_port: 0,
            input_vc: 0,
            from_terminal: true,
            dst_router: dst,
            dst_terminal: dst * 2,
            pkt_len: 4,
            state: PacketRouteState::default(),
            view: &view,
        };
        algo.route(&ctx, &mut rng, &mut out);
        assert_eq!(out.len(), 2);
        for c in &out {
            let (d, to) = hx.port_dim_target(src, c.port as usize).unwrap();
            assert_eq!(to, hx.coord_of(dst).get(d), "non-minimal port offered");
            assert_eq!(c.hops, 2);
        }
    }

    #[test]
    fn class_is_hop_index() {
        let hx = Arc::new(HyperX::uniform(3, 4, 2));
        let algo = MinAd::new(hx.clone());
        let map = ClassMap::new(9, 3);
        let view = MockView::idle(hx.max_ports(), 9, 64);
        let src = hx.router_at(&Coord::new(&[1, 1, 0]));
        let dst = hx.router_at(&Coord::new(&[1, 2, 3]));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        let ctx = RouteCtx {
            router: src,
            input_port: hx.port_towards(src, 0, 0),
            input_vc: map.first_vc(0),
            from_terminal: false,
            dst_router: dst,
            dst_terminal: dst * 2,
            pkt_len: 4,
            state: PacketRouteState::default(),
            view: &view,
        };
        algo.route(&ctx, &mut rng, &mut out);
        assert!(out.iter().all(|c| c.class == 1));
    }
}
