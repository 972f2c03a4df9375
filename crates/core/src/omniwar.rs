//! Omni-dimensional Weighted Adaptive Routing (OmniWAR) — paper
//! Section 5.2. The heavy-weight incremental adaptive algorithm.
//!
//! OmniWAR traverses *any* unaligned dimension at any time and may take up
//! to `M` deroutes anywhere along the path, exploiting all of HyperX's path
//! diversity. Deadlock avoidance uses **distance classes**: every
//! router-to-router hop moves to the next VC (`VC_out = VC_in + 1`), which
//! makes the channel dependency graph trivially acyclic. With `N + M`
//! classes (N = dimensions) a packet can afford `M` deroutes; derouting is
//! allowed exactly while the remaining classes exceed the remaining
//! minimal hops (Section 5.2 step 2).
//!
//! Like DimWAR, no routing state lives in the packet: the hop index *is*
//! the input VC class.
//!
//! The optional `restrict_backtoback` optimization (Section 5.2, last
//! paragraph) forbids a second consecutive deroute in the same dimension.
//! It needs no packet state either: arriving on a dimension-`d` channel
//! with dimension `d` still unaligned proves the previous hop was a
//! deroute in `d` (a minimal hop would have aligned it).

use std::sync::Arc;

use hxtopo::HyperX;
use rand::rngs::SmallRng;

use crate::api::{Candidate, Commit, Hop, RoutingAlgorithm};
use crate::meta::{AlgoMeta, RoutingStyle};

/// Omni-dimensional weighted adaptive routing.
pub struct OmniWar {
    pub(crate) hx: Arc<HyperX>,
    /// Total distance classes (N + M).
    classes: usize,
    restrict_backtoback: bool,
}

impl OmniWar {
    /// Creates OmniWAR with `num_vcs` VCs and `deroutes` allowed deroutes
    /// (`M`); the class count is `dims + deroutes` and must fit in
    /// `num_vcs`. Back-to-back same-dimension deroutes are restricted.
    ///
    /// # Panics
    /// Panics if `dims + deroutes > num_vcs`.
    pub fn new(hx: Arc<HyperX>, num_vcs: usize, deroutes: usize) -> Self {
        Self::with_options(hx, num_vcs, deroutes, true)
    }

    /// Creates OmniWAR using every VC as a distance class, i.e.
    /// `M = num_vcs - dims` deroutes — the configuration the paper
    /// evaluates (8 VCs on a 3D network: M = 5).
    pub fn max_deroutes(hx: Arc<HyperX>, num_vcs: usize) -> Self {
        let dims = hx.dims();
        assert!(num_vcs >= dims, "need at least one VC per dimension");
        Self::new(hx, num_vcs, num_vcs - dims)
    }

    /// Full-control constructor (see [`Self::new`]).
    pub fn with_options(
        hx: Arc<HyperX>,
        num_vcs: usize,
        deroutes: usize,
        restrict_backtoback: bool,
    ) -> Self {
        let classes = hx.dims() + deroutes;
        assert!(
            classes <= num_vcs,
            "N+M = {classes} distance classes cannot fit in {num_vcs} VCs"
        );
        OmniWar {
            hx,
            classes,
            restrict_backtoback,
        }
    }

    /// Distance class of `hop`'s outgoing hop (0 at the source router,
    /// input class + 1 afterwards) and the classes still available after
    /// it.
    pub(crate) fn hop_classes(&self, hop: &Hop<'_>) -> (usize, usize) {
        let out_class = if hop.from_terminal {
            0
        } else {
            hop.input_class + 1
        };
        debug_assert!(
            out_class < self.classes,
            "distance classes exhausted: the deroute guard was violated"
        );
        (out_class, self.classes - 1 - out_class)
    }
}

impl RoutingAlgorithm for OmniWar {
    fn name(&self) -> &'static str {
        "OmniWAR"
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn candidates(&self, hop: &Hop<'_>, _rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        let hx = &self.hx;
        let cur = hx.coord_of(hop.router);
        let dst = hx.coord_of(hop.dst_router);
        let remaining = cur.unaligned_count(&dst);
        debug_assert!(remaining > 0, "never asked at the destination router");

        let (out_class, classes_left) = self.hop_classes(hop);
        // Derouting keeps `remaining` unchanged, so it needs a full
        // `remaining` classes afterwards; minimal hops need remaining - 1.
        let may_deroute = classes_left >= remaining;
        debug_assert!(
            classes_left >= remaining - 1,
            "cannot even finish minimally"
        );

        // Back-to-back restriction: arriving on a network channel of
        // dimension d with d still unaligned implies the last hop was a
        // deroute in d.
        let blocked_dim = if self.restrict_backtoback && !hop.from_terminal {
            hx.port_dim_target(hop.router, hop.input_port)
                .map(|(d, _)| d)
                .filter(|&d| !cur.aligned(&dst, d))
        } else {
            None
        };

        for d in 0..hx.dims() {
            if cur.aligned(&dst, d) {
                continue;
            }
            // Minimal hop in this dimension.
            let min_port = hx.port_towards(hop.router, d, dst.get(d));
            let min_live = hop.live[min_port];
            if min_live {
                out.push(Candidate::new(min_port, out_class, remaining, Commit::None));
            }
            // Deroutes in this dimension. The back-to-back restriction is
            // an optimization, not a correctness requirement, so it is
            // waived when the dimension's minimal port is dead (otherwise
            // a one-dimension-left packet could stall with deroute budget
            // to spare). A packet whose budget is exhausted cannot escape
            // a dead minimal port — the watchdog reports it.
            if may_deroute && (blocked_dim != Some(d) || !min_live) {
                for c in 0..hx.width(d) {
                    if c == cur.get(d) || c == dst.get(d) {
                        continue;
                    }
                    let port = hx.port_towards(hop.router, d, c);
                    if hop.live[port] {
                        out.push(Candidate::new(port, out_class, remaining + 1, Commit::None));
                    }
                }
            }
        }
    }

    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "OmniWAR",
            dimension_ordered: false,
            style: RoutingStyle::Incremental,
            vcs_required: "N+M",
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

    #[test]
    fn offers_all_unaligned_dimensions() {
        let hx = Arc::new(HyperX::uniform(3, 4, 2));
        let algo = OmniWar::max_deroutes(hx.clone(), 8);
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[0, 0, 0]));
        let dst = hx.router_at(&Coord::new(&[1, 2, 3]));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, true, 0, 0, &view),
            &mut rng,
            &mut out,
        );
        // Per unaligned dim (3 of them): 1 minimal + 2 deroutes.
        assert_eq!(out.len(), 9);
        let dims: std::collections::HashSet<usize> = out
            .iter()
            .map(|c| hx.port_dim_target(src, c.port as usize).unwrap().0)
            .collect();
        assert_eq!(dims.len(), 3, "candidates span all unaligned dims");
        // First hop from a terminal rides distance class 0.
        assert!(out.iter().all(|c| c.class == 0));
    }

    #[test]
    fn distance_class_increments_per_hop() {
        let hx = Arc::new(HyperX::uniform(3, 4, 2));
        let algo = OmniWar::max_deroutes(hx.clone(), 8);
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let map = ClassMap::new(8, 8);
        let src = hx.router_at(&Coord::new(&[1, 0, 0]));
        let dst = hx.router_at(&Coord::new(&[2, 2, 0]));
        let net_port = hx.port_towards(src, 2, 1); // arrived via some dim-2 channel
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, false, net_port, map.first_vc(2), &view),
            &mut rng,
            &mut out,
        );
        assert!(out.iter().all(|c| c.class == 3), "VC_out = VC_in + 1");
    }

    #[test]
    fn deroutes_forbidden_when_classes_run_out() {
        let hx = Arc::new(HyperX::uniform(3, 4, 2));
        // N + M = 3 + 1: one deroute total.
        let algo = OmniWar::new(hx.clone(), 8, 1);
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let map = ClassMap::new(8, 4);
        let src = hx.router_at(&Coord::new(&[0, 0, 0]));
        let dst = hx.router_at(&Coord::new(&[1, 2, 3]));
        // At the source: 3 remaining minimal hops, 4 classes -> the single
        // deroute is still affordable.
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, true, 0, 0, &view),
            &mut rng,
            &mut out,
        );
        assert!(out.iter().any(|c| c.hops as usize == 4), "deroute offered");
        // After one (derouted) hop the packet sits on class 0 (the class
        // that hop used); the next hop is class 1, leaving 2 classes for 3
        // remaining minimal hops -> minimal only.
        let src2 = hx.router_at(&Coord::new(&[3, 0, 0]));
        let in_port = hx.port_towards(src2, 0, 0);
        let mut out2 = Vec::new();
        algo.route(
            &make_ctx(&hx, src2, dst, false, in_port, map.first_vc(0), &view),
            &mut rng,
            &mut out2,
        );
        assert_eq!(out2.len(), 3, "one minimal candidate per unaligned dim");
        assert!(
            out2.iter().all(|c| c.hops as usize == 3),
            "no deroutes left"
        );
    }

    #[test]
    fn backtoback_same_dim_deroute_restricted() {
        let hx = Arc::new(HyperX::uniform(2, 5, 2));
        let algo = OmniWar::max_deroutes(hx.clone(), 8);
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let map = ClassMap::new(8, 8);
        // Packet at (2,0) heading to (4,4); arrived via a dim-0 channel and
        // dim 0 is still unaligned => last hop was a dim-0 deroute.
        let src = hx.router_at(&Coord::new(&[2, 0]));
        let dst = hx.router_at(&Coord::new(&[4, 4]));
        let in_port = hx.port_towards(src, 0, 0);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, false, in_port, map.first_vc(0), &view),
            &mut rng,
            &mut out,
        );
        for c in &out {
            let (d, to) = hx.port_dim_target(src, c.port as usize).unwrap();
            if d == 0 {
                assert_eq!(to, 4, "only the minimal hop allowed in dim 0");
            }
        }
        // Dim 1 deroutes are still offered.
        assert!(out.iter().any(|c| {
            let (d, to) = hx.port_dim_target(src, c.port as usize).unwrap();
            d == 1 && to != 4
        }));
    }

    #[test]
    fn unrestricted_variant_allows_backtoback() {
        let hx = Arc::new(HyperX::uniform(2, 5, 2));
        let algo = OmniWar::with_options(hx.clone(), 8, 6, false);
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let map = ClassMap::new(8, 8);
        let src = hx.router_at(&Coord::new(&[2, 0]));
        let dst = hx.router_at(&Coord::new(&[4, 4]));
        let in_port = hx.port_towards(src, 0, 0);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, false, in_port, map.first_vc(0), &view),
            &mut rng,
            &mut out,
        );
        assert!(out.iter().any(|c| {
            let (d, to) = hx.port_dim_target(src, c.port as usize).unwrap();
            d == 0 && to != 4
        }));
    }

    #[test]
    fn dead_ports_filtered_from_candidates() {
        let hx = Arc::new(HyperX::uniform(2, 4, 2));
        let algo = OmniWar::max_deroutes(hx.clone(), 8);
        let mut view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[0, 0]));
        let dst = hx.router_at(&Coord::new(&[2, 2]));
        let dead = hx.port_towards(src, 0, 2); // dim-0 minimal
        view.kill_port(dead);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, true, 0, 0, &view),
            &mut rng,
            &mut out,
        );
        assert!(out.iter().all(|c| c.port as usize != dead));
        // Dim-1 minimal plus deroutes in both dims still offered.
        assert!(out
            .iter()
            .any(|c| c.port as usize == hx.port_towards(src, 1, 2)));
        assert!(out.iter().any(|c| c.hops as usize == 3), "deroutes remain");
    }

    /// The back-to-back same-dimension deroute restriction is waived when
    /// the dimension's minimal port is dead, so a one-dimension-left
    /// packet can still escape.
    #[test]
    fn backtoback_restriction_waived_on_dead_minimal() {
        let hx = Arc::new(HyperX::uniform(2, 5, 2));
        let algo = OmniWar::max_deroutes(hx.clone(), 8);
        let mut view = MockView::idle(hx.max_ports(), 8, 64);
        let map = ClassMap::new(8, 8);
        // Arrived via dim 0 with dim 0 still unaligned (= just derouted
        // there), and dim 0 is the only unaligned dimension.
        let src = hx.router_at(&Coord::new(&[2, 4]));
        let dst = hx.router_at(&Coord::new(&[4, 4]));
        let in_port = hx.port_towards(src, 0, 0);
        view.kill_port(hx.port_towards(src, 0, 4));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, false, in_port, map.first_vc(1), &view),
            &mut rng,
            &mut out,
        );
        assert!(!out.is_empty(), "escape deroutes must be offered");
        assert!(out.iter().all(|c| {
            let (d, to) = hx.port_dim_target(src, c.port as usize).unwrap();
            d == 0 && to != 4
        }));
    }

    /// Walk the algorithm greedily preferring deroutes: the path must
    /// terminate within N + M hops (the distance-class budget).
    #[test]
    fn path_always_terminates_within_class_budget() {
        let hx = Arc::new(HyperX::uniform(3, 4, 1));
        let algo = OmniWar::max_deroutes(hx.clone(), 8);
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let map = ClassMap::new(8, 8);
        let mut rng = SmallRng::seed_from_u64(9);
        for (src, dst) in [(0usize, 63usize), (5, 58), (21, 42)] {
            let mut cur = src;
            let mut hops = 0usize;
            let mut in_port = 0usize;
            let mut vc = 0usize;
            let mut first = true;
            while cur != dst {
                let mut out = Vec::new();
                algo.route(
                    &make_ctx(&hx, cur, dst, first, in_port, vc, &view),
                    &mut rng,
                    &mut out,
                );
                // Adversarial choice: longest hops first (take deroutes).
                let cand = out.iter().max_by_key(|c| c.hops).copied().unwrap();
                let (d, to) = hx.port_dim_target(cur, cand.port as usize).unwrap();
                let next = hx.router_at(&hx.coord_of(cur).with(d, to));
                // Input port on the next router is the reverse channel.
                in_port = hx.port_towards(next, d, hx.coord_of(cur).get(d));
                cur = next;
                vc = map.first_vc(cand.class as usize);
                first = false;
                hops += 1;
                assert!(hops <= 8, "exceeded the N+M distance-class budget");
            }
        }
    }
}
