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

use crate::api::{Candidate, Commit, Hop, RoutingAlgorithm, NO_INTERMEDIATE};

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
    policy: DfPolicy,
}

impl DragonflyRouting {
    /// Creates Dragonfly routing for `df`. Its six distance classes (the
    /// Valiant requirement) must fit in the simulation's VC count, which
    /// `Sim::new` checks.
    pub fn new(df: Arc<Dragonfly>, _num_vcs: usize, policy: DfPolicy) -> Self {
        DragonflyRouting { df, policy }
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

    fn candidates(&self, hop: &Hop<'_>, rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        let df = &self.df;
        let out_class = if hop.from_terminal {
            0
        } else {
            hop.input_class + 1
        };
        debug_assert!(out_class < DF_CLASSES, "dragonfly path exceeded 6 hops");

        if hop.from_terminal && hop.state.intermediate == NO_INTERMEDIATE {
            let h_min = df.min_router_hops(hop.router, hop.dst_router);
            let min_port = self
                .min_port(hop.router, hop.dst_router)
                .expect("not at dst");
            let min_commit = Commit::SetValiant {
                intermediate: hop.router as u32,
                phase: 1,
            };
            let want_min = matches!(self.policy, DfPolicy::Min | DfPolicy::Ugal);
            if want_min {
                out.push(Candidate::new(min_port, out_class, h_min, min_commit));
            }
            if matches!(self.policy, DfPolicy::Val | DfPolicy::Ugal) {
                let x = rng.random_range(0..df.num_routers() as u32) as usize;
                if x != hop.router && x != hop.dst_router {
                    let port = self.min_port(hop.router, x).expect("x != router");
                    let hops =
                        df.min_router_hops(hop.router, x) + df.min_router_hops(x, hop.dst_router);
                    let commit = Commit::SetValiant {
                        intermediate: x as u32,
                        phase: 0,
                    };
                    out.push(Candidate::new(port, out_class, hops, commit));
                } else if !want_min {
                    // Degenerate Valiant draw for the pure-VAL policy:
                    // fall back to the minimal path this cycle.
                    out.push(Candidate::new(min_port, out_class, h_min, min_commit));
                }
            }
            return;
        }

        // Committed packet: minimal toward the current phase target.
        let (target, phase) = if hop.state.phase == 0 {
            let x = hop.state.intermediate as usize;
            if x == hop.router {
                (hop.dst_router, 1u8)
            } else {
                (x, 0)
            }
        } else {
            (hop.dst_router, 1)
        };
        let port = self
            .min_port(hop.router, target)
            .expect("phase target differs");
        let hops = df.min_router_hops(hop.router, target)
            + if phase == 0 {
                df.min_router_hops(target, hop.dst_router)
            } else {
                0
            };
        let commit = if phase != hop.state.phase {
            Commit::SetPhase(1)
        } else {
            Commit::None
        };
        out.push(Candidate::new(port, out_class, hops, commit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ClassMap, PacketRouteState, RouteCtx};
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
