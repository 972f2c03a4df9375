//! The HyperX topology (Ahn et al., SC'09).
//!
//! A HyperX is an integer lattice in which every dimension is *fully
//! connected*: a router at position `c` in dimension `d` has a direct link
//! to every other position in that dimension. The HyperCube (width 2) and
//! the Flattened Butterfly are special cases. The minimal path length
//! between two routers equals the number of dimensions in which their
//! coordinates differ ("unaligned" dimensions), so the diameter equals the
//! number of dimensions.

use crate::coord::Coord;
use crate::traits::{ChannelKind, PortTarget, Topology};

/// A (possibly non-uniform width) HyperX network.
///
/// Port layout per router:
/// * ports `[0, t)` — terminals,
/// * then for each dimension `d` (ascending), `width[d] - 1` ports, one per
///   other coordinate in that dimension, ordered by coordinate with the
///   router's own coordinate skipped.
#[derive(Clone, Debug)]
pub struct HyperX {
    widths: Vec<usize>,
    terms_per_router: usize,
    /// Port index where each dimension's link block begins.
    dim_port_base: Vec<usize>,
    /// Little-endian mixed-radix strides for coordinate <-> id conversion.
    strides: Vec<usize>,
    num_routers: usize,
    ports_per_router: usize,
}

impl HyperX {
    /// Creates a HyperX with per-dimension widths `widths` and
    /// `terms_per_router` terminals on every router.
    ///
    /// # Panics
    /// Panics if there are no dimensions, any width is < 2, or the dimension
    /// count exceeds [`crate::MAX_DIMS`].
    pub fn new(widths: &[usize], terms_per_router: usize) -> Self {
        assert!(!widths.is_empty(), "HyperX needs at least one dimension");
        assert!(
            widths.len() <= crate::MAX_DIMS,
            "HyperX supports at most {} dimensions",
            crate::MAX_DIMS
        );
        assert!(
            widths.iter().all(|&s| s >= 2),
            "every HyperX dimension must have width >= 2"
        );
        let mut dim_port_base = Vec::with_capacity(widths.len());
        let mut base = terms_per_router;
        for &s in widths {
            dim_port_base.push(base);
            base += s - 1;
        }
        let mut strides = Vec::with_capacity(widths.len());
        let mut stride = 1usize;
        for &s in widths {
            strides.push(stride);
            stride *= s;
        }
        HyperX {
            widths: widths.to_vec(),
            terms_per_router,
            dim_port_base,
            strides,
            num_routers: stride,
            ports_per_router: base,
        }
    }

    /// Creates a HyperX with `dims` dimensions, all of width `width`.
    pub fn uniform(dims: usize, width: usize, terms_per_router: usize) -> Self {
        Self::new(&vec![width; dims], terms_per_router)
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.widths.len()
    }

    /// Width (number of router positions) of dimension `d`.
    #[inline]
    pub fn width(&self, d: usize) -> usize {
        self.widths[d]
    }

    /// All per-dimension widths.
    #[inline]
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Terminals attached to each router.
    #[inline]
    pub fn terms_per_router(&self) -> usize {
        self.terms_per_router
    }

    /// Coordinate of router `r` (little-endian mixed radix).
    #[inline]
    pub fn coord_of(&self, r: usize) -> Coord {
        debug_assert!(r < self.num_routers);
        let mut c = Coord::zeros(self.dims());
        let mut rem = r;
        for d in 0..self.dims() {
            c.set(d, rem % self.widths[d]);
            rem /= self.widths[d];
        }
        c
    }

    /// Router id at coordinate `c`.
    #[inline]
    pub fn router_at(&self, c: &Coord) -> usize {
        debug_assert_eq!(c.dims(), self.dims());
        let mut r = 0;
        for d in 0..self.dims() {
            debug_assert!(c.get(d) < self.widths[d]);
            r += c.get(d) * self.strides[d];
        }
        r
    }

    /// The port on router `r` that leads to coordinate `to` in dimension
    /// `d`. `to` must differ from the router's own coordinate in `d`.
    #[inline]
    pub fn port_towards(&self, r: usize, d: usize, to: usize) -> usize {
        let own = (r / self.strides[d]) % self.widths[d];
        debug_assert_ne!(own, to, "port_towards requires a different coordinate");
        debug_assert!(to < self.widths[d]);
        self.dim_port_base[d] + if to < own { to } else { to - 1 }
    }

    /// Inverse of [`Self::port_towards`]: which `(dimension, coordinate)` a
    /// network port leads to, or `None` for terminal ports.
    #[inline]
    pub fn port_dim_target(&self, r: usize, p: usize) -> Option<(usize, usize)> {
        if p < self.terms_per_router {
            return None;
        }
        // Find the dimension whose block contains p.
        let mut d = self.dims() - 1;
        for (i, &base) in self.dim_port_base.iter().enumerate() {
            if p < base {
                d = i - 1;
                break;
            }
            d = i;
        }
        let off = p - self.dim_port_base[d];
        let own = (r / self.strides[d]) % self.widths[d];
        let to = if off < own { off } else { off + 1 };
        Some((d, to))
    }

    /// Terminal id of the `k`-th terminal on router `r`.
    #[inline]
    pub fn terminal_id(&self, r: usize, k: usize) -> usize {
        debug_assert!(k < self.terms_per_router);
        r * self.terms_per_router + k
    }

    /// Router coordinate position of router `r` in dimension `d`.
    #[inline]
    pub(crate) fn coord_in_dim(&self, r: usize, d: usize) -> usize {
        (r / self.strides[d]) % self.widths[d]
    }
}

impl Topology for HyperX {
    fn num_routers(&self) -> usize {
        self.num_routers
    }

    fn num_terminals(&self) -> usize {
        self.num_routers * self.terms_per_router
    }

    fn num_ports(&self, _r: usize) -> usize {
        self.ports_per_router
    }

    fn max_ports(&self) -> usize {
        self.ports_per_router
    }

    fn port_target(&self, r: usize, p: usize) -> PortTarget {
        if p < self.terms_per_router {
            return PortTarget::Terminal(self.terminal_id(r, p));
        }
        match self.port_dim_target(r, p) {
            Some((d, to)) => {
                let own = self.coord_in_dim(r, d);
                let mut c = self.coord_of(r);
                c.set(d, to);
                let neighbor = self.router_at(&c);
                PortTarget::Router {
                    router: neighbor,
                    port: self.port_towards(neighbor, d, own),
                }
            }
            None => PortTarget::Unused,
        }
    }

    fn terminal_attach(&self, t: usize) -> (usize, usize) {
        (t / self.terms_per_router, t % self.terms_per_router)
    }

    fn channel_kind(&self, _r: usize, p: usize) -> ChannelKind {
        if p < self.terms_per_router {
            ChannelKind::Terminal
        } else {
            ChannelKind::Long
        }
    }

    fn min_router_hops(&self, a: usize, b: usize) -> usize {
        self.coord_of(a).unaligned_count(&self.coord_of(b))
    }

    fn diameter(&self) -> usize {
        self.dims()
    }

    fn name(&self) -> String {
        let dims: Vec<String> = self.widths.iter().map(|s| s.to_string()).collect();
        format!("HyperX({},t={})", dims.join("x"), self.terms_per_router)
    }

    fn port_dim(&self, r: usize, p: usize) -> Option<usize> {
        self.port_dim_target(r, p).map(|(d, _)| d)
    }
}

/// Relative bisection capacity, counted off the wiring: for each dimension,
/// the router-to-router channels crossing a cut of that dimension in half
/// (one direction), over the `N/2` channels uniform random traffic needs;
/// the minimum over dimensions.
#[cfg(test)]
pub(crate) fn cut_bisection(hx: &HyperX) -> f64 {
    (0..hx.dims())
        .map(|d| {
            let half = hx.width(d) / 2;
            let crossing = (0..hx.num_routers())
                .filter(|&r| hx.coord_in_dim(r, d) < half)
                .flat_map(|r| (0..hx.num_ports(r)).map(move |p| (r, p)))
                .filter(|&(r, p)| match hx.port_target(r, p) {
                    PortTarget::Router { router, .. } => hx.coord_in_dim(router, d) >= half,
                    _ => false,
                })
                .count();
            crossing as f64 / (hx.num_terminals() as f64 / 2.0)
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{check_distance_metric, check_wiring};

    #[test]
    fn sizes_8x8x8_t8_match_paper() {
        let hx = HyperX::uniform(3, 8, 8);
        assert_eq!(hx.num_routers(), 512);
        assert_eq!(hx.num_terminals(), 4096, "the paper's 4,096-node network");
        // 8 terminals + 3 dims * 7 links = 29 ports.
        assert_eq!(hx.num_ports(0), 29);
    }

    #[test]
    fn coord_roundtrip() {
        let hx = HyperX::new(&[3, 4, 5], 2);
        for r in 0..hx.num_routers() {
            assert_eq!(hx.router_at(&hx.coord_of(r)), r);
        }
    }

    #[test]
    fn port_towards_roundtrip() {
        let hx = HyperX::new(&[4, 3], 2);
        for r in 0..hx.num_routers() {
            for d in 0..hx.dims() {
                let own = hx.coord_in_dim(r, d);
                for to in 0..hx.width(d) {
                    if to == own {
                        continue;
                    }
                    let p = hx.port_towards(r, d, to);
                    assert_eq!(hx.port_dim_target(r, p), Some((d, to)));
                }
            }
        }
    }

    #[test]
    fn wiring_consistent() {
        check_wiring(&HyperX::new(&[3, 4], 2));
        check_wiring(&HyperX::uniform(3, 3, 1));
        check_wiring(&HyperX::uniform(1, 5, 3));
    }

    #[test]
    fn distance_metric_consistent() {
        check_distance_metric(&HyperX::new(&[3, 3, 2], 1));
    }

    #[test]
    fn min_hops_is_unaligned_dims() {
        let hx = HyperX::uniform(3, 4, 1);
        let a = hx.router_at(&Coord::new(&[0, 0, 0]));
        let b = hx.router_at(&Coord::new(&[1, 0, 2]));
        assert_eq!(hx.min_router_hops(a, b), 2);
        assert_eq!(hx.diameter(), 3);
    }

    #[test]
    fn hypercube_is_width_two_hyperx() {
        let hc = HyperX::uniform(4, 2, 1);
        assert_eq!(hc.num_routers(), 16);
        assert_eq!(hc.diameter(), 4);
        // Each router: 1 terminal + 4 links.
        assert_eq!(hc.num_ports(0), 5);
        check_wiring(&hc);
    }

    #[test]
    fn bisection_matches_design_rule() {
        // Paper's design point: s=17, t=16 gives ~50% bisection in each dim.
        let hx = HyperX::uniform(3, 17, 16);
        let b = cut_bisection(&hx);
        assert!((0.5..0.56).contains(&b), "bisection {b} out of range");
        // t == s gives >= 0.5 for even widths.
        let hx2 = HyperX::uniform(2, 8, 8);
        assert!((cut_bisection(&hx2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn terminal_ids_partition_routers() {
        let hx = HyperX::uniform(2, 3, 4);
        for t in 0..hx.num_terminals() {
            let (r, p) = hx.terminal_attach(t);
            assert_eq!(hx.terminal_id(r, p), t);
        }
    }
}
