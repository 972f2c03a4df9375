//! Helpers shared by the HyperX routing algorithms.

use std::sync::Arc;

use hxtopo::HyperX;

use crate::api::{Candidate, ClassMap, Commit, RouterView};
use crate::weight::{candidate_congestion, weight};

/// Topology + class-map bundle every HyperX algorithm carries.
#[derive(Clone)]
pub(crate) struct HxBase {
    pub(crate) hx: Arc<HyperX>,
    pub(crate) map: ClassMap,
}

impl HxBase {
    pub(crate) fn new(hx: Arc<HyperX>, num_vcs: usize, num_classes: usize) -> Self {
        HxBase {
            hx,
            map: ClassMap::new(num_vcs, num_classes),
        }
    }

    /// The dimension-order-routing next hop from `router` toward `target`:
    /// the port aligning the lowest-indexed unaligned dimension.
    /// Returns `None` when already at the target.
    pub(crate) fn dor_port(&self, router: usize, target: usize) -> Option<usize> {
        let cur = self.hx.coord_of(router);
        let dst = self.hx.coord_of(target);
        let d = cur.first_unaligned(&dst)?;
        Some(self.hx.port_towards(router, d, dst.get(d)))
    }

    /// Builds a weighted candidate for `(port, class)` with `hops` total
    /// remaining hops (including this one).
    #[inline]
    pub(crate) fn candidate(
        &self,
        view: &dyn RouterView,
        port: usize,
        class: usize,
        hops: usize,
        commit: Commit,
    ) -> Candidate {
        let q = candidate_congestion(view, port, &self.map, class);
        Candidate {
            port: port as u32,
            class: class as u8,
            weight: weight(q, hops),
            hops: hops as u8,
            commit,
        }
    }

    /// Minimal router-hop distance between two routers.
    #[inline]
    pub(crate) fn hops(&self, a: usize, b: usize) -> usize {
        self.hx.coord_of(a).unaligned_count(&self.hx.coord_of(b))
    }
}
