//! Fault injection at the topology level: failed links and routers, and a
//! degraded-topology view whose distance metric reflects the surviving
//! wiring.
//!
//! A [`FaultSet`] names the components to fail; [`DegradedTopology`] wraps
//! any base [`Topology`] and presents the surviving network: failed ports
//! report [`PortTarget::Unused`], and `min_router_hops` / `diameter` are
//! recomputed by BFS over the surviving graph (so the wrapper still passes
//! `check_distance_metric` for link-only fault sets). Construction fails
//! with [`FaultError::Disconnected`] when the surviving routers no longer
//! form one component — a degraded topology is only returned when every
//! surviving router can still reach every other.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::traits::{ChannelKind, PortTarget, Topology};

/// Why a [`DegradedTopology`] could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// A failed link endpoint does not name a router-to-router channel
    /// (terminal links and unused ports cannot be failed).
    NotARouterLink { router: usize, port: usize },
    /// A failed link endpoint or failed router is out of range.
    OutOfRange { router: usize },
    /// The surviving routers do not form a single connected component.
    Disconnected { reachable: usize, surviving: usize },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::NotARouterLink { router, port } => write!(
                f,
                "port {port} of router {router} is not a router-to-router link"
            ),
            FaultError::OutOfRange { router } => {
                write!(f, "router {router} out of range for this topology")
            }
            FaultError::Disconnected {
                reachable,
                surviving,
            } => write!(
                f,
                "fault set disconnects the network: only {reachable} of {surviving} \
                 surviving routers reachable"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// A set of failed components: router-to-router links (named by either
/// directed endpoint — the set is symmetrized when applied) and whole
/// routers (all of whose network links fail; their terminals stay wired
/// but unreachable).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSet {
    /// Failed link endpoints as `(router, port)`.
    links: BTreeSet<(usize, usize)>,
    /// Failed routers.
    routers: BTreeSet<usize>,
}

impl FaultSet {
    /// An empty fault set.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Fails the link attached to `port` of `router` (both directions).
    pub(crate) fn fail_link(&mut self, router: usize, port: usize) -> &mut Self {
        self.links.insert((router, port));
        self
    }

    /// Fails `router`: every network link it terminates goes down.
    pub(crate) fn fail_router(&mut self, router: usize) -> &mut Self {
        self.routers.insert(router);
        self
    }

    /// Failed link endpoints as given (not yet symmetrized).
    pub fn links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.links.iter().copied()
    }

    /// Failed routers.
    pub fn routers(&self) -> impl Iterator<Item = usize> + '_ {
        self.routers.iter().copied()
    }

    /// Number of failed links named (distinct endpoints; opposite
    /// directions of one cable count once after symmetrization).
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Whether nothing is failed.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.routers.is_empty()
    }

    /// Draws `n` distinct router-to-router links of `topo`, uniformly at
    /// random under `seed`, such that removing all of them keeps the
    /// router graph connected. Returns a fault set with as many links as
    /// could be removed (up to `n` — fewer only if the topology runs out
    /// of removable links).
    pub fn random_links(topo: &dyn Topology, n: usize, seed: u64) -> FaultSet {
        let mut set = FaultSet::new();
        let mut dead: BTreeSet<(usize, usize)> = BTreeSet::new();
        let none = BTreeSet::new();
        // No cut keeps a disconnected graph connected.
        if n == 0 || surviving_component(topo, &dead, &none) != Some(topo.num_routers()) {
            return set;
        }
        // Canonical (lower-endpoint-first) list of all router-router links.
        let mut cables: Vec<(usize, usize)> = Vec::new();
        for r in 0..topo.num_routers() {
            for p in 0..topo.num_ports(r) {
                if let PortTarget::Router { router, port } = topo.port_target(r, p) {
                    if (r, p) < (router, port) {
                        cables.push((r, p));
                    }
                }
            }
        }
        shuffle(&mut cables, seed ^ 0x9E37_79B9_7F4A_7C15);
        for (r, p) in cables {
            if set.links.len() >= n {
                break;
            }
            let PortTarget::Router { router, port } = topo.port_target(r, p) else {
                unreachable!("cable list only holds router links");
            };
            dead.insert((r, p));
            dead.insert((router, port));
            // The graph was connected, so it still is iff the cable's two
            // ends still reach each other.
            if reach(topo, &dead, &none, r, Some(router)).1 {
                set.fail_link(r, p);
            } else {
                dead.remove(&(r, p));
                dead.remove(&(router, port));
            }
        }
        set
    }

    /// Draws `n` distinct routers of `topo` uniformly at random under
    /// `seed` and adds them to this fault set, such that the routers
    /// *surviving* the combined set (these routers plus any links already
    /// in the set) still form one connected component. Returns the number
    /// of routers actually added (fewer than `n` only when the topology
    /// runs out of safely removable routers). The router stream is salted
    /// differently from [`FaultSet::random_links`], so the same seed
    /// yields independent link and router draws.
    pub fn extend_random_routers(&mut self, topo: &dyn Topology, n: usize, seed: u64) -> usize {
        // Dead ports implied by the links already in the set (symmetrized).
        let mut dead_ports: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (r, p) in self.links.iter().copied() {
            if let PortTarget::Router { router, port } = topo.port_target(r, p) {
                dead_ports.insert((r, p));
                dead_ports.insert((router, port));
            }
        }

        let mut candidates: Vec<usize> = (0..topo.num_routers()).collect();
        shuffle(&mut candidates, seed ^ 0xA076_1D64_78BD_642F); // distinct salt from random_links

        let mut added = 0usize;
        let mut dead_routers = self.routers.clone();
        for r in candidates {
            if added >= n {
                break;
            }
            if dead_routers.contains(&r) {
                continue;
            }
            dead_routers.insert(r);
            let surviving = topo.num_routers() - dead_routers.len();
            if surviving > 0
                && surviving_component(topo, &dead_ports, &dead_routers) == Some(surviving)
            {
                self.fail_router(r);
                added += 1;
            } else {
                dead_routers.remove(&r);
            }
        }
        added
    }
}

/// Deterministic Fisher-Yates shuffle of `items` under a SplitMix64 stream
/// starting from `state` (no RNG dependency in this crate).
fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// Size of the connected component containing the first surviving router,
/// walking only live links; `None` when no router survives.
fn surviving_component(
    topo: &dyn Topology,
    dead_ports: &BTreeSet<(usize, usize)>,
    dead_routers: &BTreeSet<usize>,
) -> Option<usize> {
    let start = (0..topo.num_routers()).find(|r| !dead_routers.contains(r))?;
    Some(reach(topo, dead_ports, dead_routers, start, None).0)
}

/// Breadth-first walk from `start` over live links and surviving routers:
/// the routers it reaches, and whether it reached `goal`, where it stops.
fn reach(
    topo: &dyn Topology,
    dead_ports: &BTreeSet<(usize, usize)>,
    dead_routers: &BTreeSet<usize>,
    start: usize,
    goal: Option<usize>,
) -> (usize, bool) {
    let mut seen = vec![false; topo.num_routers()];
    seen[start] = true;
    let mut queue = std::collections::VecDeque::from([start]);
    let mut count = 1usize;
    while let Some(r) = queue.pop_front() {
        for p in 0..topo.num_ports(r) {
            if dead_ports.contains(&(r, p)) {
                continue;
            }
            if let PortTarget::Router { router, .. } = topo.port_target(r, p) {
                if !seen[router] && !dead_routers.contains(&router) {
                    if goal == Some(router) {
                        return (count + 1, true);
                    }
                    seen[router] = true;
                    count += 1;
                    queue.push_back(router);
                }
            }
        }
    }
    (count, goal == Some(start))
}

/// A base topology with a [`FaultSet`] applied.
///
/// Failed ports report [`PortTarget::Unused`]; everything else delegates.
/// `min_router_hops` and `diameter` come from an all-pairs BFS over the
/// surviving graph, so shortest paths lengthen around the failures.
/// Distances involving a *failed router* are undefined and panic — with
/// router failures present, use the metric only between surviving routers
/// (`check_distance_metric` is valid for link-only fault sets).
pub struct DegradedTopology {
    base: Arc<dyn Topology>,
    /// `dead[r][p]`: the network link out of `(r, p)` is down.
    dead: Vec<Vec<bool>>,
    failed_router: Vec<bool>,
    /// All-pairs distances over the surviving graph; `u32::MAX` for pairs
    /// involving a failed router.
    dist: Vec<u32>,
    diameter: usize,
    /// Distinct failed cables after symmetrization.
    num_failed_cables: usize,
}

impl DegradedTopology {
    /// Applies `faults` to `base`.
    ///
    /// Validates that every failed link names a router-to-router channel,
    /// symmetrizes the set (failing either end fails both directions),
    /// fails every network link of each failed router, and recomputes the
    /// distance metric. Errors if any name is out of range or the
    /// surviving routers are disconnected.
    pub fn new(base: Arc<dyn Topology>, faults: FaultSet) -> Result<Self, FaultError> {
        let n = base.num_routers();
        let mut dead = vec![Vec::new(); n];
        for (r, d) in dead.iter_mut().enumerate() {
            d.resize(base.num_ports(r), false);
        }
        let mut failed_router = vec![false; n];

        let kill = |dead: &mut Vec<Vec<bool>>, r: usize, p: usize| -> Result<(), FaultError> {
            if r >= n {
                return Err(FaultError::OutOfRange { router: r });
            }
            match base.port_target(r, p) {
                PortTarget::Router { router, port } => {
                    dead[r][p] = true;
                    dead[router][port] = true;
                    Ok(())
                }
                _ => Err(FaultError::NotARouterLink { router: r, port: p }),
            }
        };
        for (r, p) in faults.links() {
            kill(&mut dead, r, p)?;
        }
        for r in faults.routers() {
            if r >= n {
                return Err(FaultError::OutOfRange { router: r });
            }
            failed_router[r] = true;
            for p in 0..base.num_ports(r) {
                if matches!(base.port_target(r, p), PortTarget::Router { .. }) {
                    kill(&mut dead, r, p)?;
                }
            }
        }
        let num_failed_cables = dead
            .iter()
            .enumerate()
            .flat_map(|(r, d)| {
                d.iter()
                    .enumerate()
                    .filter(|&(_, &x)| x)
                    .map(move |(p, _)| (r, p))
            })
            .filter(|&(r, p)| match base.port_target(r, p) {
                PortTarget::Router { router, port } => (r, p) < (router, port),
                _ => false,
            })
            .count();

        // All-pairs BFS over the surviving graph.
        let surviving = failed_router.iter().filter(|&&f| !f).count();
        if surviving == 0 {
            return Err(FaultError::Disconnected {
                reachable: 0,
                surviving: 0,
            });
        }
        let mut dist = vec![u32::MAX; n * n];
        let mut diameter = 0usize;
        for src in 0..n {
            if failed_router[src] {
                continue;
            }
            let d = &mut dist[src * n..(src + 1) * n];
            d[src] = 0;
            let mut queue = std::collections::VecDeque::from([src]);
            while let Some(r) = queue.pop_front() {
                for (p, &port_dead) in dead[r].iter().enumerate() {
                    if port_dead {
                        continue;
                    }
                    if let PortTarget::Router { router, .. } = base.port_target(r, p) {
                        if d[router] == u32::MAX {
                            d[router] = d[r] + 1;
                            diameter = diameter.max(d[router] as usize);
                            queue.push_back(router);
                        }
                    }
                }
            }
            // A surviving router unable to reach every surviving router
            // means disconnection (failed routers are legitimately
            // unreachable).
            let reachable_surviving = d
                .iter()
                .zip(failed_router.iter())
                .filter(|&(&dd, &f)| !f && dd != u32::MAX)
                .count();
            if reachable_surviving < surviving {
                return Err(FaultError::Disconnected {
                    reachable: reachable_surviving,
                    surviving,
                });
            }
        }

        Ok(DegradedTopology {
            base,
            dead,
            failed_router,
            dist,
            diameter,
            num_failed_cables,
        })
    }

    /// Distinct failed cables (each bidirectional link counted once).
    pub fn num_failed_cables(&self) -> usize {
        self.num_failed_cables
    }
}

impl Topology for DegradedTopology {
    fn num_routers(&self) -> usize {
        self.base.num_routers()
    }

    fn num_terminals(&self) -> usize {
        self.base.num_terminals()
    }

    fn num_ports(&self, r: usize) -> usize {
        self.base.num_ports(r)
    }

    fn max_ports(&self) -> usize {
        self.base.max_ports()
    }

    fn port_target(&self, r: usize, p: usize) -> PortTarget {
        if self.dead[r][p] {
            PortTarget::Unused
        } else {
            self.base.port_target(r, p)
        }
    }

    fn terminal_attach(&self, t: usize) -> (usize, usize) {
        self.base.terminal_attach(t)
    }

    fn channel_kind(&self, r: usize, p: usize) -> ChannelKind {
        self.base.channel_kind(r, p)
    }

    fn min_router_hops(&self, a: usize, b: usize) -> usize {
        let d = self.dist[a * self.base.num_routers() + b];
        assert!(
            d != u32::MAX,
            "min_router_hops({a}, {b}) undefined: a failed router is involved"
        );
        d as usize
    }

    fn diameter(&self) -> usize {
        self.diameter
    }

    fn name(&self) -> String {
        format!(
            "{}-degraded(links={},routers={})",
            self.base.name(),
            self.num_failed_cables,
            self.failed_router.iter().filter(|&&f| f).count()
        )
    }

    fn port_dim(&self, r: usize, p: usize) -> Option<usize> {
        // Dead ports keep their dimension label: observability wants to
        // attribute traffic shifts to the dimension that lost capacity.
        self.base.port_dim(r, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperx::HyperX;
    use crate::traits::{check_distance_metric, check_wiring};

    fn first_network_port(topo: &dyn Topology, r: usize) -> usize {
        (0..topo.num_ports(r))
            .find(|&p| matches!(topo.port_target(r, p), PortTarget::Router { .. }))
            .expect("router has no network ports")
    }

    #[test]
    fn single_link_failure_stays_consistent() {
        let hx = Arc::new(HyperX::uniform(3, 3, 2));
        let p = first_network_port(&*hx, 0);
        let mut faults = FaultSet::new();
        faults.fail_link(0, p);
        let deg = DegradedTopology::new(hx.clone(), faults).unwrap();
        assert_eq!(deg.port_target(0, p), PortTarget::Unused);
        assert!(deg.name().ends_with("-degraded(links=1,routers=0)"));
        assert_eq!(deg.num_failed_cables(), 1);
        check_wiring(&deg);
        check_distance_metric(&deg);
        // In a width-3 dimension the failed direct hop detours in 2 hops.
        let PortTarget::Router { router, .. } = hx.port_target(0, p) else {
            unreachable!()
        };
        assert_eq!(deg.min_router_hops(0, router), 2);
        assert!(deg.diameter() >= hx.diameter());
    }

    #[test]
    fn symmetrization_covers_both_directions() {
        let hx = Arc::new(HyperX::uniform(2, 4, 1));
        let p = first_network_port(&*hx, 5);
        let PortTarget::Router { router, port } = hx.port_target(5, p) else {
            unreachable!()
        };
        let mut faults = FaultSet::new();
        faults.fail_link(5, p);
        let deg = DegradedTopology::new(hx.clone(), faults).unwrap();
        assert_eq!(deg.port_target(router, port), PortTarget::Unused);
    }

    #[test]
    fn failed_router_loses_all_network_links() {
        let hx = Arc::new(HyperX::uniform(2, 3, 1));
        let mut faults = FaultSet::new();
        faults.fail_router(4);
        let deg = DegradedTopology::new(hx.clone(), faults).unwrap();
        assert!(deg.name().ends_with(",routers=1)"));
        for p in 0..deg.num_ports(4) {
            match hx.port_target(4, p) {
                PortTarget::Router { .. } => {
                    assert_eq!(deg.port_target(4, p), PortTarget::Unused)
                }
                // Terminals stay wired so `check_wiring` round-trips.
                other => assert_eq!(deg.port_target(4, p), other),
            }
        }
        check_wiring(&deg);
        // Distances between surviving routers are still defined.
        assert!(deg.min_router_hops(0, 8) >= 1);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn distance_to_failed_router_panics() {
        let hx = Arc::new(HyperX::uniform(2, 3, 1));
        let mut faults = FaultSet::new();
        faults.fail_router(4);
        let deg = DegradedTopology::new(hx, faults).unwrap();
        let _ = deg.min_router_hops(0, 4);
    }

    #[test]
    fn disconnection_is_an_error() {
        // Width-2 1D HyperX: routers 0-1 joined by a single cable.
        let hx = Arc::new(HyperX::uniform(1, 2, 1));
        let p = first_network_port(&*hx, 0);
        let mut faults = FaultSet::new();
        faults.fail_link(0, p);
        match DegradedTopology::new(hx, faults) {
            Err(FaultError::Disconnected { .. }) => {}
            Err(e) => panic!("expected Disconnected, got {e:?}"),
            Ok(_) => panic!("expected Disconnected, got a degraded topology"),
        }
    }

    #[test]
    fn terminal_link_cannot_fail() {
        let hx = Arc::new(HyperX::uniform(2, 3, 1));
        let (r, p) = hx.terminal_attach(0);
        let mut faults = FaultSet::new();
        faults.fail_link(r, p);
        match DegradedTopology::new(hx, faults) {
            Err(e) => assert_eq!(e, FaultError::NotARouterLink { router: r, port: p }),
            Ok(_) => panic!("failing a terminal link should be rejected"),
        }
    }

    #[test]
    fn random_links_respects_count_and_connectivity() {
        let hx = Arc::new(HyperX::uniform(3, 3, 2));
        for seed in 0..5u64 {
            let faults = FaultSet::random_links(&*hx, 6, seed);
            assert_eq!(faults.num_links(), 6, "seed {seed}");
            let deg = DegradedTopology::new(hx.clone(), faults).unwrap();
            assert_eq!(deg.num_failed_cables(), 6);
            check_wiring(&deg);
        }
        // Deterministic under a fixed seed.
        let a = FaultSet::random_links(&*hx, 4, 9);
        let b = FaultSet::random_links(&*hx, 4, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn random_routers_respects_count_and_connectivity() {
        let hx = Arc::new(HyperX::uniform(3, 3, 2));
        for seed in 0..5u64 {
            let mut faults = FaultSet::new();
            assert_eq!(faults.extend_random_routers(&*hx, 3, seed), 3);
            assert_eq!(faults.routers().count(), 3, "seed {seed}");
            let deg = DegradedTopology::new(hx.clone(), faults).unwrap();
            check_wiring(&deg);
        }
        // Deterministic under a fixed seed.
        let draw = |seed| {
            let mut set = FaultSet::new();
            set.extend_random_routers(&*hx, 2, seed);
            set
        };
        let (a, b) = (draw(9), draw(9));
        assert_eq!(a, b);
        // Decorrelated from the link draw of the same seed.
        assert!(FaultSet::random_links(&*hx, 2, 9) != a);
    }

    #[test]
    fn extend_random_routers_respects_existing_links() {
        let hx = Arc::new(HyperX::uniform(3, 3, 2));
        for seed in 0..5u64 {
            let mut faults = FaultSet::random_links(&*hx, 4, seed);
            let added = faults.extend_random_routers(&*hx, 2, seed);
            assert_eq!(added, 2, "seed {seed}");
            // Combined set still leaves the survivors connected.
            let deg = DegradedTopology::new(hx.clone(), faults).unwrap();
            check_wiring(&deg);
        }
    }

    #[test]
    fn empty_fault_set_is_transparent() {
        let hx = Arc::new(HyperX::uniform(2, 3, 2));
        let deg = DegradedTopology::new(hx.clone(), FaultSet::new()).unwrap();
        assert_eq!(deg.diameter(), hx.diameter());
        for a in 0..hx.num_routers() {
            for b in 0..hx.num_routers() {
                assert_eq!(deg.min_router_hops(a, b), hx.min_router_hops(a, b));
            }
        }
        check_wiring(&deg);
        check_distance_metric(&deg);
    }
}
