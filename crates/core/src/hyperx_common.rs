//! Topology helpers shared by the HyperX routing algorithms.

use hxtopo::HyperX;

/// The dimension-order-routing next hop from `router` toward `target`:
/// the port aligning the lowest-indexed unaligned dimension. Returns
/// `None` when already at the target.
pub(crate) fn dor_port(hx: &HyperX, router: usize, target: usize) -> Option<usize> {
    let cur = hx.coord_of(router);
    let dst = hx.coord_of(target);
    let d = cur.first_unaligned(&dst)?;
    Some(hx.port_towards(router, d, dst.get(d)))
}

/// Minimal router-hop distance between two routers.
#[inline]
pub(crate) fn hops(hx: &HyperX, a: usize, b: usize) -> usize {
    hx.coord_of(a).unaligned_count(&hx.coord_of(b))
}
