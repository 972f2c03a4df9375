//! Adaptive Clos (Clos-AD) routing, a.k.a. UGAL+ — UGAL optimized for
//! fully-connected-dimension topologies (Kim et al., Flattened Butterfly,
//! ISCA'07; Table 2 row 4).
//!
//! Clos-AD is *dimension-ordered* (Table 1): at the source router it
//! weighs every output port of the **first unaligned dimension**. A
//! minimal port commits the packet to pure DOR; a non-minimal port selects
//! a random Valiant intermediate "that would use that output port" under
//! the least-common-ancestor methodology — the intermediate sits at the
//! port's coordinate in the first dimension, keeps the destination's
//! coordinate in aligned dimensions, and is uniformly random in the
//! remaining unaligned dimensions (so one source decision load-balances
//! every dimension, Valiant-style, without ever routing away from an
//! aligned dimension).
//!
//! Per the paper (Section 4.1 / footnote 5), the *sequential allocation*
//! the original Clos-AD relied on is infeasible in high-radix routers and
//! is not modelled as such: no packet reserves a share of a port ahead of
//! its grant. The simulator does weigh a router's heads one after another
//! (oldest first) against its live output state, so a packet's candidates
//! see the credits that older packets' grants took earlier in the same
//! cycle — the same rule every algorithm gets, not a cycle-start snapshot.

use std::sync::Arc;

use hxtopo::HyperX;
use rand::rngs::SmallRng;
use rand::RngExt;

use crate::api::{Candidate, Commit, Hop, RoutingAlgorithm, NO_INTERMEDIATE};
use crate::valiant::valiant_continue;

/// Clos-AD / UGAL+ source-adaptive routing.
pub struct ClosAd {
    hx: Arc<HyperX>,
}

impl ClosAd {
    /// Creates Clos-AD for `hx` (two phase classes).
    pub(crate) fn new(hx: Arc<HyperX>) -> Self {
        ClosAd { hx }
    }
}

impl RoutingAlgorithm for ClosAd {
    fn name(&self) -> &'static str {
        "Clos-AD"
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn candidates(&self, hop: &Hop<'_>, rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        if !(hop.from_terminal && hop.state.intermediate == NO_INTERMEDIATE) {
            valiant_continue(&self.hx, hop, out);
            return;
        }
        let hx = &self.hx;
        let cur = hx.coord_of(hop.router);
        let dst = hx.coord_of(hop.dst_router);
        let h_min = cur.unaligned_count(&dst);
        let d = cur
            .first_unaligned(&dst)
            .expect("never asked at the destination router");
        // Minimal candidate: pure DOR from here, entirely in phase 1.
        let min_port = hx.port_towards(hop.router, d, dst.get(d));
        let commit = Commit::SetValiant {
            intermediate: hop.router as u32,
            phase: 1,
        };
        out.push(Candidate::new(min_port, 1, h_min, commit));
        // Non-minimal candidates: every other port of the first unaligned
        // dimension, with an LCA-consistent random intermediate behind it.
        for c in 0..hx.width(d) {
            if c == cur.get(d) || c == dst.get(d) {
                continue;
            }
            let port = hx.port_towards(hop.router, d, c);
            let mut x = cur.with(d, c);
            for e in (d + 1)..hx.dims() {
                if !cur.aligned(&dst, e) {
                    x.set(e, rng.random_range(0..hx.width(e)));
                }
            }
            let xr = hx.router_at(&x);
            let hops = cur.unaligned_count(&x) + x.unaligned_count(&dst);
            // The whole leg to the intermediate rides class 0; the DOR leg
            // from the intermediate rides class 1.
            let commit = Commit::SetValiant {
                intermediate: xr as u32,
                phase: 0,
            };
            out.push(Candidate::new(port, 0, hops, commit));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{PacketRouteState, RouteCtx};
    use crate::mock::MockView;
    use hxtopo::{Coord, Topology};
    use rand::SeedableRng;

    fn source_ctx<'a>(
        hx: &HyperX,
        router: usize,
        dst_router: usize,
        view: &'a MockView,
    ) -> RouteCtx<'a> {
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
    fn evaluates_first_unaligned_dimension_only() {
        let hx = Arc::new(HyperX::uniform(3, 4, 1));
        let algo = ClosAd::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 16);
        let src = hx.router_at(&Coord::new(&[0, 0, 0]));
        let dst = hx.router_at(&Coord::new(&[1, 2, 0])); // dims 0,1 unaligned
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(&source_ctx(&hx, src, dst, &view), &mut rng, &mut out);
        // Dimension-ordered: 1 minimal + 2 deroutes, all in dimension 0.
        assert_eq!(out.len(), 3);
        for c in &out {
            let (d, _) = hx.port_dim_target(src, c.port as usize).unwrap();
            assert_eq!(d, 0, "Clos-AD is dimension-ordered (Table 1)");
        }
    }

    #[test]
    fn minimal_candidate_and_valiant_hops() {
        let hx = Arc::new(HyperX::uniform(3, 4, 1));
        let algo = ClosAd::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 16);
        let src = hx.router_at(&Coord::new(&[0, 0, 0]));
        let dst = hx.router_at(&Coord::new(&[1, 2, 3]));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(&source_ctx(&hx, src, dst, &view), &mut rng, &mut out);
        // One minimal (class 1, h_min hops) + two deroutes (class 0).
        let minimal: Vec<_> = out.iter().filter(|c| c.class == 1).collect();
        assert_eq!(minimal.len(), 1);
        assert_eq!(minimal[0].hops, 3);
        assert_eq!(
            minimal[0].port as usize,
            hx.port_towards(src, 0, 1),
            "minimal first hop is the DOR hop"
        );
        // Non-minimal paths cost between h_min + 1 and 2 * dims hops.
        for c in out.iter().filter(|c| c.class == 0) {
            assert!(c.hops >= 4 && c.hops <= 6, "hops {}", c.hops);
        }
    }

    #[test]
    fn intermediate_randomizes_higher_unaligned_dims() {
        let hx = Arc::new(HyperX::uniform(3, 4, 1));
        let algo = ClosAd::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 16);
        let src = hx.router_at(&Coord::new(&[0, 0, 2]));
        let dst = hx.router_at(&Coord::new(&[1, 2, 2])); // dim 2 aligned
        let mut rng = SmallRng::seed_from_u64(4);
        let mut seen_y = std::collections::HashSet::new();
        for _ in 0..100 {
            let mut out = Vec::new();
            algo.route(&source_ctx(&hx, src, dst, &view), &mut rng, &mut out);
            for c in &out {
                if let Commit::SetValiant {
                    intermediate,
                    phase: 0,
                } = c.commit
                {
                    let xc = hx.coord_of(intermediate as usize);
                    assert_eq!(xc.get(2), 2, "aligned dim must stay at dst coord");
                    seen_y.insert(xc.get(1));
                }
            }
        }
        assert!(seen_y.len() >= 3, "unaligned dim 1 should be randomized");
    }

    #[test]
    fn intermediate_matches_first_hop_port() {
        let hx = Arc::new(HyperX::uniform(3, 4, 1));
        let algo = ClosAd::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 16);
        let src = hx.router_at(&Coord::new(&[1, 1, 1]));
        let dst = hx.router_at(&Coord::new(&[2, 3, 1]));
        let mut rng = SmallRng::seed_from_u64(4);
        let mut out = Vec::new();
        algo.route(&source_ctx(&hx, src, dst, &view), &mut rng, &mut out);
        for c in &out {
            match c.commit {
                Commit::SetValiant {
                    intermediate,
                    phase: 0,
                } => {
                    // DOR toward the intermediate must start with this port.
                    assert_eq!(
                        crate::hyperx_common::dor_port(&hx, src, intermediate as usize).unwrap(),
                        c.port as usize,
                        "intermediate inconsistent with evaluated port"
                    );
                }
                Commit::SetValiant { phase: 1, .. } => {
                    // The minimal candidate: already "at" its intermediate.
                    assert_eq!(c.class, 1);
                }
                other => panic!("unexpected commit {other:?}"),
            }
        }
    }

    #[test]
    fn deroutes_around_congested_minimal_port() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let algo = ClosAd::new(hx.clone());
        let mut view = MockView::idle(hx.max_ports(), 8, 16);
        let src = hx.router_at(&Coord::new(&[0, 0]));
        let dst = hx.router_at(&Coord::new(&[2, 0])); // only dim 0 unaligned
        let min_port = hx.port_towards(src, 0, 2);
        view.congest_port(min_port, 16);
        view.queues[min_port] = 20;
        let mut rng = SmallRng::seed_from_u64(5);
        let mut out = Vec::new();
        algo.route(&source_ctx(&hx, src, dst, &view), &mut rng, &mut out);
        let best = out.iter().min_by_key(|c| (c.weight, c.hops)).unwrap();
        assert_ne!(best.port as usize, min_port, "failed to avoid congestion");
        assert_eq!(best.hops, 2, "deroute adds exactly one hop");
    }
}
