//! Adaptive up / deterministic down routing for the folded-Clos fat tree
//! (Figure 4's second baseline).
//!
//! Going up, every up-port reaches a valid least-common-ancestor, so the
//! algorithm picks the least congested one (this is the fat tree's whole
//! adaptivity). Coming down, the path to a terminal is unique. Up\*/down\*
//! routing is inherently deadlock-free, so a single resource class spans
//! all VCs.

use std::sync::Arc;

use hxtopo::FatTree;
use rand::rngs::SmallRng;

use crate::api::{Candidate, Commit, Hop, RoutingAlgorithm};
use crate::meta::{AlgoMeta, RoutingStyle};

/// Adaptive-up/deterministic-down fat-tree routing.
pub struct FatTreeRouting {
    ft: Arc<FatTree>,
}

impl FatTreeRouting {
    /// Creates fat-tree routing with `num_vcs` VCs (one class).
    pub fn new(ft: Arc<FatTree>, _num_vcs: usize) -> Self {
        FatTreeRouting { ft }
    }
}

impl RoutingAlgorithm for FatTreeRouting {
    fn name(&self) -> &'static str {
        "FT-ADAPTIVE"
    }

    fn num_classes(&self) -> usize {
        1
    }

    fn candidates(&self, hop: &Hop<'_>, _rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        let ft = &self.ft;
        let h = ft.radix() / 2;
        let (dst_edge, _) = ft.terminal_edge(hop.dst_terminal);
        let dst_pod = ft.pod_of(dst_edge);
        // Every candidate rides the single class, which spans all VCs.
        let mut push = |port, hops| out.push(Candidate::new(port, 0, hops, Commit::None));
        match ft.level(hop.router) {
            0 => {
                debug_assert_ne!(hop.router, dst_edge, "ejection handled by the router");
                // Remaining hops: up to agg, then 1 (same pod) or 3 (via core).
                let hops = if ft.pod_of(hop.router) == dst_pod {
                    2
                } else {
                    4
                };
                (h..2 * h).for_each(|p| push(p, hops));
            }
            // Aggregation: deterministic down to the destination edge in
            // its own pod, else adaptive up.
            1 if ft.pod_of(hop.router) == dst_pod => push(dst_edge % h, 1),
            1 => (h..2 * h).for_each(|p| push(p, 3)),
            // Core: deterministic down into the destination pod.
            _ => push(dst_pod, 2),
        }
    }

    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "FT-ADAPTIVE",
            dimension_ordered: false,
            style: RoutingStyle::Incremental,
            vcs_required: "1",
            deadlock: "up*/down*",
            arch_requirements: "none",
            packet_contents: "none",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{PacketRouteState, RouteCtx};
    use crate::mock::MockView;
    use hxtopo::{PortTarget, Topology};
    use rand::SeedableRng;

    fn ctx<'a>(
        ft: &FatTree,
        router: usize,
        dst_terminal: usize,
        view: &'a MockView,
    ) -> RouteCtx<'a> {
        RouteCtx {
            router,
            input_port: 0,
            input_vc: 0,
            from_terminal: ft.level(router) == 0,
            dst_router: ft.terminal_edge(dst_terminal).0,
            dst_terminal,
            pkt_len: 4,
            state: PacketRouteState::default(),
            view,
        }
    }

    /// Every greedy walk (always pick first candidate) must reach the
    /// destination edge within 4 hops.
    #[test]
    fn all_walks_terminate() {
        let ft = Arc::new(FatTree::new(4));
        let algo = FatTreeRouting::new(ft.clone(), 8);
        let view = MockView::idle(ft.max_ports(), 8, 64);
        let mut rng = SmallRng::seed_from_u64(0);
        for src_t in 0..ft.num_terminals() {
            for dst_t in 0..ft.num_terminals() {
                let (src_e, _) = ft.terminal_edge(src_t);
                let (dst_e, _) = ft.terminal_edge(dst_t);
                if src_e == dst_e {
                    continue;
                }
                let mut cur = src_e;
                let mut hops = 0;
                while cur != dst_e {
                    let mut out = Vec::new();
                    algo.route(&ctx(&ft, cur, dst_t, &view), &mut rng, &mut out);
                    assert!(!out.is_empty());
                    match ft.port_target(cur, out[0].port as usize) {
                        PortTarget::Router { router, .. } => cur = router,
                        other => panic!("routing led to {other:?}"),
                    }
                    hops += 1;
                    assert!(hops <= 4, "fat-tree path exceeded diameter");
                }
                assert_eq!(hops, ft.min_router_hops(src_e, dst_e));
            }
        }
    }

    #[test]
    fn up_ports_all_offered_at_edge() {
        let ft = Arc::new(FatTree::new(8));
        let algo = FatTreeRouting::new(ft.clone(), 8);
        let view = MockView::idle(ft.max_ports(), 8, 64);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        // terminal far away (other pod)
        let dst_t = ft.num_terminals() - 1;
        algo.route(&ctx(&ft, 0, dst_t, &view), &mut rng, &mut out);
        assert_eq!(out.len(), 4, "k/2 up candidates");
    }

    #[test]
    fn adaptive_up_avoids_congested_port() {
        let ft = Arc::new(FatTree::new(4));
        let algo = FatTreeRouting::new(ft.clone(), 8);
        let mut view = MockView::idle(ft.max_ports(), 8, 64);
        view.congest_port(2, 30); // first up port congested
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        let dst_t = ft.num_terminals() - 1;
        algo.route(&ctx(&ft, 0, dst_t, &view), &mut rng, &mut out);
        let best = out.iter().min_by_key(|c| (c.weight, c.hops)).unwrap();
        assert_eq!(best.port, 3, "congested up-port chosen");
    }
}
