//! Three-level folded-Clos ("fat tree") built from a single router radix.
//!
//! The classic k-ary fat tree: `k` pods, each with `k/2` edge and `k/2`
//! aggregation routers, plus `(k/2)^2` core routers; `k^3/4` terminals.
//! Used as the second performance/cost baseline (Figures 2 and 4).

use crate::traits::{ChannelKind, PortTarget, Topology};

/// A 3-level k-ary fat tree. `k` must be even and >= 2.
///
/// Router id layout:
/// * edges  `[0, k*k/2)` — edge `pod * k/2 + i`,
/// * aggs   `[k*k/2, k*k)` — agg  `pod * k/2 + j`,
/// * cores  `[k*k, k*k + (k/2)^2)` — core `c`.
///
/// Port layout: the lower `k/2` ports of edge and aggregation routers face
/// *down* (terminals / edges), the upper `k/2` face *up*; core routers have
/// `k` down ports, one per pod.
#[derive(Clone, Debug)]
pub struct FatTree {
    k: usize,
}

impl FatTree {
    /// Creates a 3-level fat tree from radix-`k` routers.
    ///
    /// # Panics
    /// Panics unless `k` is even and at least 2.
    pub fn new(k: usize) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat tree radix must be even and >= 2"
        );
        FatTree { k }
    }

    /// Router radix.
    pub fn radix(&self) -> usize {
        self.k
    }

    #[inline]
    fn half(&self) -> usize {
        self.k / 2
    }

    /// Number of edge routers.
    pub(crate) fn num_edges(&self) -> usize {
        self.k * self.half()
    }
    /// Number of aggregation routers.
    pub(crate) fn num_aggs(&self) -> usize {
        self.k * self.half()
    }
    /// Number of core routers.
    pub(crate) fn num_cores(&self) -> usize {
        self.half() * self.half()
    }

    /// Level of a router: 0 = edge, 1 = aggregation, 2 = core.
    pub fn level(&self, r: usize) -> usize {
        if r < self.num_edges() {
            0
        } else if r < self.num_edges() + self.num_aggs() {
            1
        } else {
            2
        }
    }

    /// Pod of an edge or aggregation router.
    pub fn pod_of(&self, r: usize) -> usize {
        match self.level(r) {
            0 => r / self.half(),
            1 => (r - self.num_edges()) / self.half(),
            _ => panic!("core routers belong to no pod"),
        }
    }

    /// Edge router id for `(pod, index)`.
    pub(crate) fn edge_id(&self, pod: usize, i: usize) -> usize {
        pod * self.half() + i
    }
    /// Aggregation router id for `(pod, index)`.
    pub(crate) fn agg_id(&self, pod: usize, j: usize) -> usize {
        self.num_edges() + pod * self.half() + j
    }
    /// Core router id for core index `c` in `[0, (k/2)^2)`.
    pub(crate) fn core_id(&self, c: usize) -> usize {
        self.num_edges() + self.num_aggs() + c
    }

    /// Edge router of terminal `t` and the down-port it occupies.
    pub fn terminal_edge(&self, t: usize) -> (usize, usize) {
        (t / self.half(), t % self.half())
    }
}

impl Topology for FatTree {
    fn num_routers(&self) -> usize {
        self.num_edges() + self.num_aggs() + self.num_cores()
    }

    fn num_terminals(&self) -> usize {
        self.num_edges() * self.half()
    }

    fn num_ports(&self, _r: usize) -> usize {
        self.k
    }

    fn max_ports(&self) -> usize {
        self.k
    }

    fn port_target(&self, r: usize, p: usize) -> PortTarget {
        let h = self.half();
        match self.level(r) {
            0 => {
                let pod = self.pod_of(r);
                let i = r % h;
                if p < h {
                    PortTarget::Terminal(r * h + p)
                } else {
                    // Up port j -> agg (pod, j), whose down port i faces us.
                    let j = p - h;
                    PortTarget::Router {
                        router: self.agg_id(pod, j),
                        port: i,
                    }
                }
            }
            1 => {
                let pod = self.pod_of(r);
                let j = (r - self.num_edges()) % h;
                if p < h {
                    // Down port i -> edge (pod, i), whose up port j faces us.
                    PortTarget::Router {
                        router: self.edge_id(pod, p),
                        port: h + j,
                    }
                } else {
                    // Up port m -> core j*h + m, whose port `pod` faces us.
                    let m = p - h;
                    PortTarget::Router {
                        router: self.core_id(j * h + m),
                        port: pod,
                    }
                }
            }
            _ => {
                // Core c: port `pod` -> agg (pod, c / h), up port c % h.
                let c = r - self.num_edges() - self.num_aggs();
                if p < self.k {
                    PortTarget::Router {
                        router: self.agg_id(p, c / h),
                        port: h + c % h,
                    }
                } else {
                    PortTarget::Unused
                }
            }
        }
    }

    fn terminal_attach(&self, t: usize) -> (usize, usize) {
        self.terminal_edge(t)
    }

    fn channel_kind(&self, r: usize, p: usize) -> ChannelKind {
        match self.level(r) {
            0 => {
                if p < self.half() {
                    ChannelKind::Terminal
                } else {
                    ChannelKind::Short
                }
            }
            1 => {
                if p < self.half() {
                    ChannelKind::Short
                } else {
                    ChannelKind::Long
                }
            }
            _ => ChannelKind::Long,
        }
    }

    fn min_router_hops(&self, a: usize, b: usize) -> usize {
        assert!(
            self.level(a) == 0 && self.level(b) == 0,
            "distances are edge-to-edge"
        );
        if a == b {
            0
        } else if self.pod_of(a) == self.pod_of(b) {
            2
        } else {
            4
        }
    }

    fn diameter(&self) -> usize {
        4
    }

    fn name(&self) -> String {
        format!("FatTree(k={})", self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::check_wiring;

    #[test]
    fn k4_sizes() {
        let ft = FatTree::new(4);
        assert_eq!(ft.num_terminals(), 16);
        assert_eq!(ft.num_edges(), 8);
        assert_eq!(ft.num_aggs(), 8);
        assert_eq!(ft.num_cores(), 4);
        assert_eq!(ft.num_routers(), 20);
    }

    #[test]
    fn wiring_consistent() {
        check_wiring(&FatTree::new(4));
        check_wiring(&FatTree::new(6));
        check_wiring(&FatTree::new(8));
    }

    #[test]
    fn levels_and_pods() {
        let ft = FatTree::new(4);
        assert_eq!(ft.level(0), 0);
        assert_eq!(ft.level(8), 1);
        assert_eq!(ft.level(16), 2);
        assert_eq!(ft.pod_of(ft.edge_id(3, 1)), 3);
        assert_eq!(ft.pod_of(ft.agg_id(2, 0)), 2);
    }

    #[test]
    fn distances() {
        let ft = FatTree::new(4);
        let e00 = ft.edge_id(0, 0);
        let e01 = ft.edge_id(0, 1);
        let e10 = ft.edge_id(1, 0);
        assert_eq!(ft.min_router_hops(e00, e00), 0);
        assert_eq!(ft.min_router_hops(e00, e01), 2);
        assert_eq!(ft.min_router_hops(e00, e10), 4);
    }

    #[test]
    fn terminal_count_is_k_cubed_over_four() {
        for k in [4usize, 6, 8, 16] {
            let ft = FatTree::new(k);
            assert_eq!(ft.num_terminals(), k * k * k / 4);
        }
    }
}
