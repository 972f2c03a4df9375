//! Universal Global Adaptive Load-balancing (UGAL, Singh '05; Table 2
//! row 3).
//!
//! At the *source router only*, UGAL weighs the minimal (DOR) path against
//! one Valiant path through a random intermediate using source-local
//! congestion (`congestion x hopcount` per path first hop) and commits to
//! the cheaper. Once committed the packet is oblivious: this is exactly the
//! deficiency the paper's incremental algorithms fix — congestion that is
//! not visible at the source router (e.g. the URBy pattern, Figure 6d)
//! cannot influence the decision.

use std::sync::Arc;

use hxtopo::{HyperX, Topology};
use rand::rngs::SmallRng;
use rand::RngExt;

use crate::api::{Candidate, Commit, Hop, RoutingAlgorithm, NO_INTERMEDIATE};
use crate::hyperx_common::{dor_port, hops};
use crate::valiant::valiant_continue;

/// Topology-agnostic UGAL: minimal vs one random Valiant candidate.
pub struct Ugal {
    hx: Arc<HyperX>,
}

impl Ugal {
    /// Creates UGAL for `hx` (two phase classes).
    pub(crate) fn new(hx: Arc<HyperX>) -> Self {
        Ugal { hx }
    }
}

impl RoutingAlgorithm for Ugal {
    fn name(&self) -> &'static str {
        "UGAL"
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn candidates(&self, hop: &Hop<'_>, rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        if !(hop.from_terminal && hop.state.intermediate == NO_INTERMEDIATE) {
            valiant_continue(&self.hx, hop, out);
            return;
        }
        let hx = &*self.hx;
        // Minimal candidate: pure DOR, entirely in phase 1 / class 1.
        let min_port =
            dor_port(hx, hop.router, hop.dst_router).expect("never asked at the destination");
        if hop.live[min_port] {
            let commit = Commit::SetValiant {
                intermediate: hop.router as u32, // trivially "reached"
                phase: 1,
            };
            let h_min = hops(hx, hop.router, hop.dst_router);
            out.push(Candidate::new(min_port, 1, h_min, commit));
        }
        // Valiant candidate through one uniformly random intermediate
        // (skipped when its first hop is dead; redrawn next cycle).
        let x = rng.random_range(0..hx.num_routers() as u32) as usize;
        if x != hop.router && x != hop.dst_router {
            let val_port = dor_port(hx, hop.router, x).expect("x != router");
            if hop.live[val_port] {
                let commit = Commit::SetValiant {
                    intermediate: x as u32,
                    phase: 0,
                };
                let h_val = hops(hx, hop.router, x) + hops(hx, x, hop.dst_router);
                out.push(Candidate::new(val_port, 0, h_val, commit));
            }
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

    /// With an idle network, the minimal candidate has weight 0 and fewer
    /// hops, so any (weight, hops)-minimizing selector picks minimal.
    #[test]
    fn idle_network_prefers_minimal() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let ugal = Ugal::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 16);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        ugal.route(&source_ctx(&hx, 0, 15, &view), &mut rng, &mut out);
        assert!(!out.is_empty());
        let best = out.iter().min_by_key(|c| (c.weight, c.hops)).unwrap();
        assert_eq!(best.class, 1, "minimal candidate is the phase-1 one");
        assert!(matches!(best.commit, Commit::SetValiant { phase: 1, .. }));
    }

    /// Congesting the minimal first hop makes the Valiant candidate win —
    /// but *only* when the congestion is at the source (the paper's point).
    #[test]
    fn source_congestion_triggers_valiant() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let ugal = Ugal::new(hx.clone());
        let mut view = MockView::idle(hx.max_ports(), 8, 16);
        let src = hx.router_at(&Coord::new(&[0, 0]));
        let dst = hx.router_at(&Coord::new(&[1, 0]));
        // Congest the single minimal port heavily.
        let min_port = hx.port_towards(src, 0, 1);
        view.congest_port(min_port, 16);
        view.queues[min_port] = 600; // deep backlog: minimal clearly loses
        let mut rng = SmallRng::seed_from_u64(2);
        // Sample many decisions; most should pick a Valiant route whose
        // first hop avoids the congested port.
        let mut val_wins = 0;
        for _ in 0..100 {
            let mut out = Vec::new();
            ugal.route(&source_ctx(&hx, src, dst, &view), &mut rng, &mut out);
            let best = out.iter().min_by_key(|c| (c.weight, c.hops)).unwrap();
            if let Commit::SetValiant { phase: 0, .. } = best.commit {
                assert_ne!(best.port as usize, min_port);
                val_wins += 1;
            }
        }
        assert!(val_wins > 60, "only {val_wins}/100 decisions load-balanced");
    }

    /// A committed packet continues with plain Valiant mechanics.
    #[test]
    fn committed_packet_is_oblivious() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let ugal = Ugal::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 16);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut ctx = source_ctx(&hx, 5, 15, &view);
        ctx.from_terminal = false;
        ctx.state = PacketRouteState {
            intermediate: 10,
            phase: 0,
            deroute_mask: 0,
        };
        let mut out = Vec::new();
        ugal.route(&ctx, &mut rng, &mut out);
        assert_eq!(out.len(), 1, "no adaptivity after the source decision");
        assert_eq!(out[0].class, 0);
    }
}
