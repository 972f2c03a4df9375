//! The Dragonfly topology (Kim et al., ISCA'08).
//!
//! Routers are organized into fully-connected *groups*; groups are connected
//! by *global* channels so that the group graph is (up to) fully connected.
//! Used here as the cost and performance baseline the paper compares HyperX
//! against (Figures 2, 3 and 4).

use crate::traits::{ChannelKind, PortTarget, Topology};

/// A canonical Dragonfly: `p` terminals per router, `a` routers per group,
/// `h` global channels per router, `g` groups.
///
/// Port layout per router:
/// * ports `[0, p)` — terminals,
/// * ports `[p, p + a - 1)` — local channels to the other routers in the
///   group (ordered by in-group index, own index skipped),
/// * ports `[p + a - 1, p + a - 1 + h)` — global channels.
///
/// Global wiring uses the *absolute/consecutive* arrangement: group `G`'s
/// global channel with in-group index `i` (`i = router_in_group * h +
/// port_offset`) connects to group `i` if `i < G`, else group `i + 1`. With
/// `g == a*h + 1` the group graph is complete; smaller `g` leaves trailing
/// global ports unused.
#[derive(Clone, Debug)]
pub struct Dragonfly {
    p: usize,
    a: usize,
    h: usize,
    g: usize,
}

impl Dragonfly {
    /// Creates a Dragonfly. `groups` may be at most `a*h + 1`.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn new(p: usize, a: usize, h: usize, groups: usize) -> Self {
        assert!(p >= 1 && a >= 2 && h >= 1, "degenerate dragonfly");
        assert!(groups >= 2, "need at least two groups");
        assert!(
            groups <= a * h + 1,
            "at most a*h+1 = {} groups supported",
            a * h + 1
        );
        Dragonfly { p, a, h, g: groups }
    }

    /// Creates the balanced maximal Dragonfly for the given per-router
    /// parameters: `g = a*h + 1` groups.
    pub fn maximal(p: usize, a: usize, h: usize) -> Self {
        Self::new(p, a, h, a * h + 1)
    }

    /// Terminals per router.
    pub fn terms_per_router(&self) -> usize {
        self.p
    }
    /// Routers per group.
    pub fn routers_per_group(&self) -> usize {
        self.a
    }
    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.g
    }

    /// Group of router `r`.
    #[inline]
    pub fn group_of(&self, r: usize) -> usize {
        r / self.a
    }

    /// In-group index of router `r`.
    #[inline]
    pub fn index_in_group(&self, r: usize) -> usize {
        r % self.a
    }

    /// Router id from `(group, in-group index)`.
    #[inline]
    pub(crate) fn router_id(&self, group: usize, idx: usize) -> usize {
        group * self.a + idx
    }

    /// Global channel index (within the group's `a*h` channels) that leads
    /// from group `from` to group `to`, or `None` if the groups are not
    /// directly connected (only possible when `g < a*h + 1`... never for
    /// valid indices, since every pair is wired when both indices are in
    /// range).
    #[inline]
    pub(crate) fn global_index_to(&self, from: usize, to: usize) -> Option<usize> {
        debug_assert_ne!(from, to);
        let idx = if to < from { to } else { to - 1 };
        (idx < self.a * self.h).then_some(idx)
    }

    /// The `(router, port)` within group `from` that owns the global channel
    /// to group `to`, or `None` if unconnected.
    pub fn global_attach(&self, from: usize, to: usize) -> Option<(usize, usize)> {
        let idx = self.global_index_to(from, to)?;
        let router = self.router_id(from, idx / self.h);
        let port = self.p + self.a - 1 + idx % self.h;
        Some((router, port))
    }

    /// Which group a global port on router `r` leads to.
    pub(crate) fn global_port_group(&self, r: usize, port: usize) -> Option<usize> {
        let base = self.p + self.a - 1;
        if port < base || port >= base + self.h {
            return None;
        }
        let idx = self.index_in_group(r) * self.h + (port - base);
        let from = self.group_of(r);
        let to = if idx < from { idx } else { idx + 1 };
        (to < self.g).then_some(to)
    }

    /// Port on router `r` leading to in-group router index `to`.
    #[inline]
    pub fn local_port_towards(&self, r: usize, to: usize) -> usize {
        let own = self.index_in_group(r);
        debug_assert_ne!(own, to);
        self.p + if to < own { to } else { to - 1 }
    }

    /// Which in-group router index a local port leads to.
    pub(crate) fn local_port_target(&self, r: usize, port: usize) -> Option<usize> {
        if port < self.p || port >= self.p + self.a - 1 {
            return None;
        }
        let off = port - self.p;
        let own = self.index_in_group(r);
        Some(if off < own { off } else { off + 1 })
    }
}

impl Topology for Dragonfly {
    fn num_routers(&self) -> usize {
        self.g * self.a
    }

    fn num_terminals(&self) -> usize {
        self.g * self.a * self.p
    }

    fn num_ports(&self, _r: usize) -> usize {
        self.p + self.a - 1 + self.h
    }

    fn max_ports(&self) -> usize {
        self.p + self.a - 1 + self.h
    }

    fn port_target(&self, r: usize, port: usize) -> PortTarget {
        if port < self.p {
            return PortTarget::Terminal(r * self.p + port);
        }
        if let Some(to_idx) = self.local_port_target(r, port) {
            let nbr = self.router_id(self.group_of(r), to_idx);
            return PortTarget::Router {
                router: nbr,
                port: self.local_port_towards(nbr, self.index_in_group(r)),
            };
        }
        match self.global_port_group(r, port) {
            Some(to_group) => {
                let from_group = self.group_of(r);
                let (nbr, nbr_port) = self
                    .global_attach(to_group, from_group)
                    .expect("paired global channel must exist");
                PortTarget::Router {
                    router: nbr,
                    port: nbr_port,
                }
            }
            None => PortTarget::Unused,
        }
    }

    fn terminal_attach(&self, t: usize) -> (usize, usize) {
        (t / self.p, t % self.p)
    }

    fn channel_kind(&self, _r: usize, port: usize) -> ChannelKind {
        if port < self.p {
            ChannelKind::Terminal
        } else if port < self.p + self.a - 1 {
            ChannelKind::Short
        } else {
            ChannelKind::Long
        }
    }

    fn min_router_hops(&self, a: usize, b: usize) -> usize {
        if a == b {
            return 0;
        }
        let (ga, gb) = (self.group_of(a), self.group_of(b));
        if ga == gb {
            return 1;
        }
        // local? + global + local?: depends on which routers own the global
        // channel between the two groups.
        let (src_r, _) = self.global_attach(ga, gb).expect("groups connected");
        let (dst_r, _) = self.global_attach(gb, ga).expect("groups connected");
        1 + usize::from(src_r != a) + usize::from(dst_r != b)
    }

    fn diameter(&self) -> usize {
        3
    }

    fn name(&self) -> String {
        format!(
            "Dragonfly(p={},a={},h={},g={})",
            self.p, self.a, self.h, self.g
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{check_distance_metric, check_wiring};

    #[test]
    fn maximal_sizes() {
        // Balanced k=7 router: p=2, a=4, h=2 -> g = 9, N = 72.
        let df = Dragonfly::maximal(2, 4, 2);
        assert_eq!(df.groups(), 9);
        assert_eq!(df.num_routers(), 36);
        assert_eq!(df.num_terminals(), 72);
        assert_eq!(df.num_ports(0), 2 + 3 + 2);
    }

    #[test]
    fn wiring_consistent() {
        check_wiring(&Dragonfly::maximal(2, 4, 2));
        check_wiring(&Dragonfly::new(1, 2, 1, 3));
        check_wiring(&Dragonfly::new(2, 3, 2, 5)); // non-maximal
    }

    #[test]
    fn distance_metric_consistent() {
        check_distance_metric(&Dragonfly::maximal(1, 2, 1));
        check_distance_metric(&Dragonfly::maximal(2, 4, 2));
    }

    #[test]
    fn min_hops_cases() {
        let df = Dragonfly::maximal(2, 4, 2);
        // Same group: 1 hop.
        assert_eq!(df.min_router_hops(0, 3), 1);
        // The router owning the global channel to group 1 from group 0:
        let (r01, _) = df.global_attach(0, 1).unwrap();
        let (r10, _) = df.global_attach(1, 0).unwrap();
        assert_eq!(df.min_router_hops(r01, r10), 1);
        // Worst case local-global-local = 3.
        let far_a = (0..4)
            .map(|i| df.router_id(0, i))
            .find(|&r| r != r01)
            .unwrap();
        let far_b = (0..4)
            .map(|i| df.router_id(1, i))
            .find(|&r| r != r10)
            .unwrap();
        assert_eq!(df.min_router_hops(far_a, far_b), 3);
    }

    #[test]
    fn global_channels_pair_uniquely() {
        let df = Dragonfly::maximal(2, 4, 2);
        for g1 in 0..df.groups() {
            for g2 in 0..df.groups() {
                if g1 == g2 {
                    continue;
                }
                let (r, p) = df.global_attach(g1, g2).unwrap();
                assert_eq!(df.group_of(r), g1);
                assert_eq!(df.global_port_group(r, p), Some(g2));
            }
        }
    }
}
