//! Dimensionally Adaptive Load-balancing (DAL) — the original HyperX
//! routing algorithm (Ahn et al., SC'09), reproduced for the Section 4.2
//! analysis of *why it is impractical*.
//!
//! DAL deroutes at most once per dimension, in any dimension order,
//! tracking derouted dimensions in an N-bit packet field. Deadlock freedom
//! relies on Duato-style *escape paths*: a dedicated DOR escape class whose
//! correctness on large-scale routers requires **atomic queue allocation**
//! (a downstream VC must be completely empty before a packet may claim it).
//! Under realistic channel latencies atomic allocation caps channel
//! utilization at `PktSize x NumVcs / CreditRoundTrip` — the paper's
//! Section 4.2 throughput ceiling, reproduced by the `sec42_atomic_queue`
//! bench. The simulator's `atomic_queue_allocation` config models this.
//!
//! For this reason DAL is excluded from the Figure 6/8 comparisons, exactly
//! as in the paper.

use std::sync::Arc;

use hxtopo::HyperX;
use rand::rngs::SmallRng;

use crate::api::{Candidate, Commit, Hop, RoutingAlgorithm};
use crate::hyperx_common::dor_port;

/// The adaptive resource class.
pub(crate) const CLASS_ADAPTIVE: usize = 0;
/// The escape (DOR) resource class.
pub(crate) const CLASS_ESCAPE: usize = 1;

/// Weight preloaded on the escape candidate while adaptive candidates are
/// viable, keeping packets off the escape class (escape is a last resort
/// by construction); weighing adds the congestion term on top.
const ESCAPE_BIAS: u64 = 1 << 20;

/// Dimensionally adaptive load-balancing with an escape class.
pub struct Dal {
    hx: Arc<HyperX>,
}

impl Dal {
    /// Creates DAL for `hx` (an adaptive and an escape class).
    pub(crate) fn new(hx: Arc<HyperX>) -> Self {
        Dal { hx }
    }
}

impl RoutingAlgorithm for Dal {
    fn name(&self) -> &'static str {
        "DAL"
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn candidates(&self, hop: &Hop<'_>, _rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        let hx = &self.hx;
        let cur = hx.coord_of(hop.router);
        let dst = hx.coord_of(hop.dst_router);
        let remaining = cur.unaligned_count(&dst);
        debug_assert!(remaining > 0);

        let on_escape = !hop.from_terminal && hop.input_class == CLASS_ESCAPE;

        if !on_escape {
            for d in 0..hx.dims() {
                if cur.aligned(&dst, d) {
                    continue;
                }
                // Minimal hop.
                let min_port = hx.port_towards(hop.router, d, dst.get(d));
                out.push(Candidate::new(
                    min_port,
                    CLASS_ADAPTIVE,
                    remaining,
                    Commit::None,
                ));
                // One deroute per dimension, tracked in the packet's N-bit
                // field (Table 1's "packet contents" for DAL).
                if hop.state.deroute_mask & (1 << d) == 0 {
                    for c in 0..hx.width(d) {
                        if c == cur.get(d) || c == dst.get(d) {
                            continue;
                        }
                        let port = hx.port_towards(hop.router, d, c);
                        let commit = Commit::Deroute { dim: d as u8 };
                        out.push(Candidate::new(port, CLASS_ADAPTIVE, remaining + 1, commit));
                    }
                }
            }
        }

        // Escape candidate: DOR on the escape class. Once a packet is on
        // the escape class it stays there (simplest sound Duato variant).
        let esc_port = dor_port(hx, hop.router, hop.dst_router).expect("not at destination");
        let mut esc = Candidate::new(esc_port, CLASS_ESCAPE, remaining, Commit::None);
        if !on_escape {
            esc.weight = ESCAPE_BIAS;
        }
        out.push(esc);
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
        input_vc: usize,
        deroute_mask: u8,
        view: &'a MockView,
    ) -> RouteCtx<'a> {
        RouteCtx {
            router,
            input_port: if from_terminal {
                0
            } else {
                hx.terms_per_router()
            },
            input_vc,
            from_terminal,
            dst_router,
            dst_terminal: dst_router * hx.terms_per_router(),
            pkt_len: 4,
            state: PacketRouteState {
                deroute_mask,
                ..PacketRouteState::default()
            },
            view,
        }
    }

    #[test]
    fn derouted_dims_offer_no_more_deroutes() {
        let hx = Arc::new(HyperX::uniform(2, 4, 2));
        let algo = Dal::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[0, 0]));
        let dst = hx.router_at(&Coord::new(&[2, 2]));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        // Dimension 0 already derouted.
        algo.route(
            &make_ctx(&hx, src, dst, false, 0, 0b01, &view),
            &mut rng,
            &mut out,
        );
        for c in &out {
            if c.class as usize == CLASS_ADAPTIVE {
                let (d, to) = hx.port_dim_target(src, c.port as usize).unwrap();
                if d == 0 {
                    assert_eq!(to, 2, "deroute in already-derouted dim offered");
                }
            }
        }
        // Dim 1 deroutes still available, and commits record the dimension.
        let dim1_deroutes: Vec<_> = out
            .iter()
            .filter(|c| matches!(c.commit, Commit::Deroute { dim: 1 }))
            .collect();
        assert_eq!(dim1_deroutes.len(), 2);
    }

    #[test]
    fn escape_candidate_always_present_and_biased() {
        let hx = Arc::new(HyperX::uniform(2, 4, 2));
        let algo = Dal::new(hx.clone());
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let src = 0;
        let dst = hx.router_at(&Coord::new(&[3, 3]));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, true, 0, 0, &view),
            &mut rng,
            &mut out,
        );
        let escapes: Vec<_> = out
            .iter()
            .filter(|c| c.class as usize == CLASS_ESCAPE)
            .collect();
        assert_eq!(escapes.len(), 1);
        assert!(escapes[0].weight >= ESCAPE_BIAS, "escape not biased away");
        // In an idle network the best candidate is adaptive.
        let best = out.iter().min_by_key(|c| (c.weight, c.hops)).unwrap();
        assert_eq!(best.class as usize, CLASS_ADAPTIVE);
    }

    #[test]
    fn once_on_escape_stays_on_escape() {
        let hx = Arc::new(HyperX::uniform(2, 4, 2));
        let algo = Dal::new(hx.clone());
        let map = ClassMap::new(8, 2);
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let src = hx.router_at(&Coord::new(&[1, 0]));
        let dst = hx.router_at(&Coord::new(&[3, 3]));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        algo.route(
            &make_ctx(&hx, src, dst, false, map.first_vc(CLASS_ESCAPE), 0, &view),
            &mut rng,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].class as usize, CLASS_ESCAPE);
        // Escape follows DOR exactly.
        let (d, to) = hx.port_dim_target(src, out[0].port as usize).unwrap();
        assert_eq!((d, to), (0, 3));
    }
}
