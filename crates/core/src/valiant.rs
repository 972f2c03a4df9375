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

use crate::api::{Candidate, Commit, RouteCtx, RoutingAlgorithm, NO_INTERMEDIATE};
use crate::hyperx_common::HxBase;
use crate::meta::{AlgoMeta, RoutingStyle};

/// Valiant's randomized two-phase routing.
pub struct Valiant {
    base: HxBase,
}

impl Valiant {
    /// Creates VAL for `hx` with `num_vcs` virtual channels split into the
    /// two phase classes.
    pub(crate) fn new(hx: Arc<HyperX>, num_vcs: usize) -> Self {
        Valiant {
            base: HxBase::new(hx, num_vcs, 2),
        }
    }
}

/// Emits the single mid-path Valiant candidate: DOR toward the intermediate
/// in phase 0 (switching to phase 1 upon arrival), DOR toward the
/// destination in phase 1. Shared with UGAL and Clos-AD, whose packets
/// behave identically once the source decision is made.
pub(crate) fn valiant_continue(base: &HxBase, ctx: &RouteCtx<'_>, out: &mut Vec<Candidate>) {
    let (target, phase) = if ctx.state.phase == 0 {
        let x = ctx.state.intermediate as usize;
        debug_assert_ne!(ctx.state.intermediate, NO_INTERMEDIATE);
        if x == ctx.router {
            (ctx.dst_router, 1)
        } else {
            (x, 0)
        }
    } else {
        (ctx.dst_router, 1)
    };
    let port = base
        .dor_port(ctx.router, target)
        .expect("phase target differs from current router");
    // The two-phase DOR path is committed; with its next hop down the
    // packet waits for a revival (the watchdog reports permanent stalls).
    if !ctx.view.port_live(port) {
        return;
    }
    let hops = base.hops(ctx.router, target)
        + if phase == 0 {
            base.hops(target, ctx.dst_router)
        } else {
            0
        };
    let commit = if phase != ctx.state.phase as usize {
        Commit::SetPhase(1)
    } else {
        Commit::None
    };
    out.push(base.candidate(ctx.view, port, phase, hops, commit));
}

impl RoutingAlgorithm for Valiant {
    fn name(&self) -> &'static str {
        "VAL"
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn route(&self, ctx: &RouteCtx<'_>, rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        if ctx.from_terminal && ctx.state.intermediate == NO_INTERMEDIATE {
            // Source router: draw a fresh intermediate (re-drawn every cycle
            // the head waits; only the granted candidate commits).
            let x = rng.random_range(0..self.base.hx.num_routers() as u32);
            if x as usize == ctx.router {
                // Degenerate intermediate: the whole path is phase 1.
                let port = self
                    .base
                    .dor_port(ctx.router, ctx.dst_router)
                    .expect("route() not called at destination");
                if !ctx.view.port_live(port) {
                    // Dead first hop: emit nothing and redraw next cycle.
                    return;
                }
                let hops = self.base.hops(ctx.router, ctx.dst_router);
                out.push(self.base.candidate(
                    ctx.view,
                    port,
                    1,
                    hops,
                    Commit::SetValiant {
                        intermediate: x,
                        phase: 1,
                    },
                ));
            } else {
                let port = self
                    .base
                    .dor_port(ctx.router, x as usize)
                    .expect("x differs from current router");
                if !ctx.view.port_live(port) {
                    // Dead first hop: emit nothing and redraw next cycle.
                    return;
                }
                let hops = self.base.hops(ctx.router, x as usize)
                    + self.base.hops(x as usize, ctx.dst_router);
                out.push(self.base.candidate(
                    ctx.view,
                    port,
                    0,
                    hops,
                    Commit::SetValiant {
                        intermediate: x,
                        phase: 0,
                    },
                ));
            }
            return;
        }
        valiant_continue(&self.base, ctx, out);
    }

    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "VAL",
            dimension_ordered: true,
            style: RoutingStyle::Oblivious,
            vcs_required: "2",
            deadlock: "R.R. & R.C.",
            arch_requirements: "none",
            packet_contents: "int. addr.",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{PacketRouteState, RouterView};
    use crate::mock::MockView;
    use hxtopo::Topology;
    use rand::SeedableRng;

    fn source_ctx<'a>(
        hx: &HyperX,
        router: usize,
        dst_router: usize,
        view: &'a dyn RouterView,
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
        let val = Valiant::new(hx.clone(), 8);
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
        let val = Valiant::new(hx.clone(), 8);
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
        let base = HxBase::new(hx.clone(), 8, 2);
        assert_eq!(out[0].port as usize, base.dor_port(0, x).unwrap());
        assert_eq!(out[0].class, 0);
    }

    #[test]
    fn switches_to_phase1_at_intermediate() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let val = Valiant::new(hx.clone(), 8);
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
        let base = HxBase::new(hx.clone(), 8, 2);
        assert_eq!(out[0].port as usize, base.dor_port(x, 15).unwrap());
    }

    #[test]
    fn intermediates_are_spread_out() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let val = Valiant::new(hx.clone(), 8);
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
