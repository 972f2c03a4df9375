//! Valiant's randomized routing (VAL, Table 2 row 2).
//!
//! Every packet is routed minimally (DOR) to a uniformly random
//! intermediate router, then minimally to its destination. This perfectly
//! load-balances any admissible traffic pattern at the cost of doubling
//! bandwidth consumption and latency. Two resource classes — one per DOR
//! phase — give deadlock freedom; the intermediate address rides in the
//! packet (the header field Table 1 charges VAL-family algorithms with).

use std::sync::Arc;

use hxtopo::{HyperX, Topology};
use rand::rngs::SmallRng;
use rand::RngExt;

use crate::api::{Candidate, Commit, Hop, RoutingAlgorithm, NO_INTERMEDIATE};
use crate::hyperx_common::{dor_port, hops};

/// Valiant's randomized two-phase routing.
pub struct Valiant {
    hx: Arc<HyperX>,
}

impl Valiant {
    /// Creates VAL for `hx` (two phase classes).
    pub(crate) fn new(hx: Arc<HyperX>) -> Self {
        Valiant { hx }
    }
}

/// Emits the single mid-path Valiant candidate: DOR toward the intermediate
/// in phase 0 (switching to phase 1 upon arrival), DOR toward the
/// destination in phase 1. Shared with UGAL and Clos-AD, whose packets
/// behave identically once the source decision is made.
pub(crate) fn valiant_continue(hx: &HyperX, hop: &Hop<'_>, out: &mut Vec<Candidate>) {
    let (target, phase) = if hop.state.phase == 0 {
        let x = hop.state.intermediate as usize;
        debug_assert_ne!(hop.state.intermediate, NO_INTERMEDIATE);
        if x == hop.router {
            (hop.dst_router, 1)
        } else {
            (x, 0)
        }
    } else {
        (hop.dst_router, 1)
    };
    let port = dor_port(hx, hop.router, target).expect("phase target differs from current router");
    // The two-phase DOR path is committed; with its next hop down the
    // packet waits for a revival (the watchdog reports permanent stalls).
    if !hop.live[port] {
        return;
    }
    let h = hops(hx, hop.router, target)
        + if phase == 0 {
            hops(hx, target, hop.dst_router)
        } else {
            0
        };
    let commit = if phase != hop.state.phase as usize {
        Commit::SetPhase(1)
    } else {
        Commit::None
    };
    out.push(Candidate::new(port, phase, h, commit));
}

impl RoutingAlgorithm for Valiant {
    fn name(&self) -> &'static str {
        "VAL"
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn candidates(&self, hop: &Hop<'_>, rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        if !(hop.from_terminal && hop.state.intermediate == NO_INTERMEDIATE) {
            valiant_continue(&self.hx, hop, out);
            return;
        }
        // Source router: draw a fresh intermediate (re-drawn every cycle
        // the head waits; only the granted candidate commits). A
        // degenerate draw (this router) makes the whole path phase 1.
        let x = rng.random_range(0..self.hx.num_routers() as u32);
        let (target, phase) = if x as usize == hop.router {
            (hop.dst_router, 1)
        } else {
            (x as usize, 0)
        };
        let port = dor_port(&self.hx, hop.router, target).expect("target differs from router");
        if !hop.live[port] {
            // Dead first hop: emit nothing and redraw next cycle.
            return;
        }
        let h = hops(&self.hx, hop.router, target) + hops(&self.hx, target, hop.dst_router);
        let commit = Commit::SetValiant {
            intermediate: x,
            phase: phase as u8,
        };
        out.push(Candidate::new(port, phase, h, commit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{PacketRouteState, RouteCtx};
    use crate::mock::MockView;
    use hxtopo::Topology;
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
    fn source_commits_an_intermediate() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let val = Valiant::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 16);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut out = Vec::new();
        val.route(&source_ctx(&hx, 0, 15, &view), &mut rng, &mut out);
        assert_eq!(out.len(), 1);
        match out[0].commit {
            Commit::SetValiant { intermediate, .. } => {
                assert!((intermediate as usize) < hx.num_routers());
            }
            other => panic!("expected SetValiant, got {other:?}"),
        }
    }

    #[test]
    fn phase0_routes_toward_intermediate() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let val = Valiant::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 16);
        let mut rng = SmallRng::seed_from_u64(7);
        let x = 10usize;
        let mut ctx = source_ctx(&hx, 0, 15, &view);
        ctx.from_terminal = false;
        ctx.state = PacketRouteState {
            intermediate: x as u32,
            phase: 0,
            deroute_mask: 0,
        };
        let mut out = Vec::new();
        val.route(&ctx, &mut rng, &mut out);
        assert_eq!(out[0].port as usize, dor_port(&hx, 0, x).unwrap());
        assert_eq!(out[0].class, 0);
    }

    #[test]
    fn switches_to_phase1_at_intermediate() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let val = Valiant::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 16);
        let mut rng = SmallRng::seed_from_u64(7);
        let x = 10usize;
        let mut ctx = source_ctx(&hx, x, 15, &view);
        ctx.from_terminal = false;
        ctx.state = PacketRouteState {
            intermediate: x as u32,
            phase: 0,
            deroute_mask: 0,
        };
        let mut out = Vec::new();
        val.route(&ctx, &mut rng, &mut out);
        assert_eq!(out[0].class, 1, "phase 1 uses the second resource class");
        assert_eq!(out[0].commit, Commit::SetPhase(1));
        assert_eq!(out[0].port as usize, dor_port(&hx, x, 15).unwrap());
    }

    #[test]
    fn intermediates_are_spread_out() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let val = Valiant::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 16);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let mut out = Vec::new();
            val.route(&source_ctx(&hx, 0, 15, &view), &mut rng, &mut out);
            if let Commit::SetValiant { intermediate, .. } = out[0].commit {
                seen.insert(intermediate);
            }
        }
        assert!(
            seen.len() > hx.num_routers() / 2,
            "only {} distinct intermediates",
            seen.len()
        );
    }
}
