//! Routing algorithms for the Dragonfly baseline topology (Figure 4's
//! head-to-head comparison).
//!
//! Three classic policies: deterministic minimal (local-global-local),
//! Valiant through a random intermediate router, and source-adaptive UGAL
//! choosing between them. All use distance classes — the hop index is the
//! VC class — which is acyclic by construction; minimal paths need 3
//! classes and Valiant paths 6, comfortably inside the 8 VCs the paper's
//! methodology grants every algorithm.

use std::sync::Arc;

use hxtopo::{Dragonfly, Topology};
use rand::rngs::SmallRng;
use rand::RngExt;

use crate::api::{Candidate, ClassMap, Commit, RouteCtx, RoutingAlgorithm, NO_INTERMEDIATE};
use crate::meta::{AlgoMeta, RoutingStyle};
use crate::weight::{candidate_congestion, weight};

/// Distance classes needed by a two-phase (Valiant) Dragonfly path.
const DF_CLASSES: usize = 6;

/// Which policy a [`DragonflyRouting`] instance applies at the source.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DfPolicy {
    /// Always minimal.
    Min,
    /// Always Valiant.
    Val,
    /// UGAL: weigh minimal against one random Valiant candidate.
    Ugal,
}

/// Dragonfly routing with distance-class deadlock avoidance.
pub struct DragonflyRouting {
    df: Arc<Dragonfly>,
    map: ClassMap,
    policy: DfPolicy,
}

impl DragonflyRouting {
    /// Creates a Dragonfly router for `df` with `num_vcs` VCs.
    ///
    /// # Panics
    /// Panics if `num_vcs < 6` (the Valiant distance-class requirement).
    pub fn new(df: Arc<Dragonfly>, num_vcs: usize, policy: DfPolicy) -> Self {
        DragonflyRouting {
            df,
            map: ClassMap::new(num_vcs, DF_CLASSES),
            policy,
        }
    }

    /// The minimal next-hop port from `router` toward `target`
    /// (local-global-local). `None` when already there.
    pub(crate) fn min_port(&self, router: usize, target: usize) -> Option<usize> {
        if router == target {
            return None;
        }
        let df = &self.df;
        let (g_cur, g_tgt) = (df.group_of(router), df.group_of(target));
        if g_cur == g_tgt {
            return Some(df.local_port_towards(router, df.index_in_group(target)));
        }
        let (gw_router, gw_port) = df
            .global_attach(g_cur, g_tgt)
            .expect("dragonfly groups fully connected");
        if gw_router == router {
            Some(gw_port)
        } else {
            Some(df.local_port_towards(router, df.index_in_group(gw_router)))
        }
    }

    fn push(
        &self,
        ctx: &RouteCtx<'_>,
        port: usize,
        class: usize,
        hops: usize,
        commit: Commit,
        out: &mut Vec<Candidate>,
    ) {
        let q = candidate_congestion(ctx.view, port, &self.map, class);
        out.push(Candidate {
            port: port as u32,
            class: class as u8,
            weight: weight(q, hops),
            hops: hops as u8,
            commit,
        });
    }
}

impl RoutingAlgorithm for DragonflyRouting {
    fn name(&self) -> &'static str {
        match self.policy {
            DfPolicy::Min => "DF-MIN",
            DfPolicy::Val => "DF-VAL",
            DfPolicy::Ugal => "DF-UGAL",
        }
    }

    fn num_classes(&self) -> usize {
        DF_CLASSES
    }

    fn route(&self, ctx: &RouteCtx<'_>, rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        let df = &self.df;
        let out_class = if ctx.from_terminal {
            0
        } else {
            self.map.class_of(ctx.input_vc) + 1
        };
        debug_assert!(out_class < DF_CLASSES, "dragonfly path exceeded 6 hops");

        if ctx.from_terminal && ctx.state.intermediate == NO_INTERMEDIATE {
            let h_min = df.min_router_hops(ctx.router, ctx.dst_router);
            let min_port = self
                .min_port(ctx.router, ctx.dst_router)
                .expect("not at dst");
            let min_commit = Commit::SetValiant {
                intermediate: ctx.router as u32,
                phase: 1,
            };
            let want_min = matches!(self.policy, DfPolicy::Min | DfPolicy::Ugal);
            if want_min {
                self.push(ctx, min_port, out_class, h_min, min_commit, out);
            }
            if matches!(self.policy, DfPolicy::Val | DfPolicy::Ugal) {
                let x = rng.random_range(0..df.num_routers() as u32) as usize;
                if x != ctx.router && x != ctx.dst_router {
                    let port = self.min_port(ctx.router, x).expect("x != router");
                    let hops =
                        df.min_router_hops(ctx.router, x) + df.min_router_hops(x, ctx.dst_router);
                    self.push(
                        ctx,
                        port,
                        out_class,
                        hops,
                        Commit::SetValiant {
                            intermediate: x as u32,
                            phase: 0,
                        },
                        out,
                    );
                } else if !want_min {
                    // Degenerate Valiant draw for the pure-VAL policy:
                    // fall back to the minimal path this cycle.
                    self.push(ctx, min_port, out_class, h_min, min_commit, out);
                }
            }
            return;
        }

        // Committed packet: minimal toward the current phase target.
        let (target, phase) = if ctx.state.phase == 0 {
            let x = ctx.state.intermediate as usize;
            if x == ctx.router {
                (ctx.dst_router, 1u8)
            } else {
                (x, 0)
            }
        } else {
            (ctx.dst_router, 1)
        };
        let port = self
            .min_port(ctx.router, target)
            .expect("phase target differs");
        let hops = df.min_router_hops(ctx.router, target)
            + if phase == 0 {
                df.min_router_hops(target, ctx.dst_router)
            } else {
                0
            };
        let commit = if phase != ctx.state.phase {
            Commit::SetPhase(1)
        } else {
            Commit::None
        };
        self.push(ctx, port, out_class, hops, commit, out);
    }

    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "DF-UGAL",
            dimension_ordered: false,
            style: match self.policy {
                DfPolicy::Ugal => RoutingStyle::Source,
                _ => RoutingStyle::Oblivious,
            },
            vcs_required: "6",
            deadlock: "D.C.",
            arch_requirements: "none",
            packet_contents: "int. addr.",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PacketRouteState;
    use crate::mock::MockView;
    use rand::SeedableRng;

    fn ctx<'a>(
        df: &Dragonfly,
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
                df.terms_per_router()
            },
            input_vc,
            from_terminal,
            dst_router,
            dst_terminal: dst_router * df.terms_per_router(),
            pkt_len: 4,
            state: PacketRouteState::default(),
            view,
        }
    }

    /// Follow the minimal next-hop function until arrival; it must match
    /// the topology's min_router_hops.
    #[test]
    fn min_route_matches_min_hops() {
        let df = Arc::new(Dragonfly::maximal(2, 4, 2));
        let r = DragonflyRouting::new(df.clone(), 8, DfPolicy::Min);
        for a in 0..df.num_routers() {
            for b in 0..df.num_routers() {
                let mut cur = a;
                let mut hops = 0;
                while cur != b {
                    let p = r.min_port(cur, b).unwrap();
                    match df.port_target(cur, p) {
                        hxtopo::PortTarget::Router { router, .. } => cur = router,
                        other => panic!("min port led to {other:?}"),
                    }
                    hops += 1;
                    assert!(hops <= 3, "dragonfly minimal path exceeded diameter");
                }
                assert_eq!(hops, df.min_router_hops(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn ugal_offers_min_and_val() {
        let df = Arc::new(Dragonfly::maximal(2, 4, 2));
        let algo = DragonflyRouting::new(df.clone(), 8, DfPolicy::Ugal);
        let view = MockView::idle(df.max_ports(), 8, 64);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut seen_val = false;
        for _ in 0..50 {
            let mut out = Vec::new();
            algo.route(&ctx(&df, 0, 20, true, 0, &view), &mut rng, &mut out);
            assert!(!out.is_empty());
            // Minimal candidate present with least hops.
            let best = out.iter().min_by_key(|c| (c.weight, c.hops)).unwrap();
            assert!(matches!(best.commit, Commit::SetValiant { phase: 1, .. }));
            if out.len() == 2 {
                seen_val = true;
            }
        }
        assert!(seen_val, "valiant candidate never drawn");
    }

    #[test]
    fn distance_class_increments() {
        let df = Arc::new(Dragonfly::maximal(2, 4, 2));
        let algo = DragonflyRouting::new(df.clone(), 8, DfPolicy::Min);
        let map = ClassMap::new(8, 6);
        let view = MockView::idle(df.max_ports(), 8, 64);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut c = ctx(&df, 5, 20, false, map.first_vc(1), &view);
        c.state.phase = 1;
        let mut out = Vec::new();
        algo.route(&c, &mut rng, &mut out);
        assert!(out.iter().all(|cand| cand.class == 2));
    }
}
