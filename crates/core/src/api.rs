//! The routing-algorithm abstraction.
//!
//! A [`RoutingAlgorithm`] is consulted by a router whenever the head flit of
//! a packet sits unrouted at the front of an input virtual channel. It
//! receives a local [`RouterView`] (congestion of this router's output side
//! only — adaptive decisions use *local* information, exactly as in the
//! paper) and emits a set of [`Candidate`] output choices. The simulator
//! grants the cheapest *feasible* candidate under virtual cut-through flow
//! control, applying the candidate's [`Commit`] to the packet's routing
//! state when the grant happens.
//!
//! Resource classes, not concrete VCs, appear in candidates: the simulator
//! maps a class to its share of the physical VCs via [`ClassMap`]
//! (algorithms needing fewer classes than VCs spread each class over the
//! spare VCs for head-of-line-blocking relief, per the paper's evaluation
//! methodology, footnote 4).

use rand::rngs::SmallRng;

/// Sentinel meaning "no Valiant intermediate router".
pub const NO_INTERMEDIATE: u32 = u32::MAX;

/// Mutable per-packet routing state.
///
/// DimWAR and OmniWAR leave this untouched — their whole point is that all
/// routing state is encoded in the VC identifier. The baselines (UGAL,
/// Clos-AD, VAL) store the Valiant intermediate address here, which models
/// the extra packet-header field Table 1 of the paper charges them with.
/// DAL stores its per-dimension deroute bitmask (the "N-bit field").
#[derive(Clone, Copy, Debug)]
pub struct PacketRouteState {
    /// Valiant intermediate router id, or [`NO_INTERMEDIATE`].
    pub intermediate: u32,
    /// Valiant phase: 0 = heading to the intermediate, 1 = heading to the
    /// destination.
    pub phase: u8,
    /// DAL: bitmask of dimensions already derouted in.
    pub deroute_mask: u8,
}

impl Default for PacketRouteState {
    fn default() -> Self {
        PacketRouteState {
            intermediate: NO_INTERMEDIATE,
            phase: 0,
            deroute_mask: 0,
        }
    }
}

/// State update applied to a packet when a candidate wins allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Commit {
    /// No state change (DimWAR/OmniWAR always use this).
    None,
    /// Record a Valiant decision made at the source router.
    SetValiant { intermediate: u32, phase: u8 },
    /// Advance to Valiant phase 1 (intermediate reached).
    SetPhase(u8),
    /// DAL: record a deroute taken in `dim`.
    Deroute { dim: u8 },
}

/// One possible `(output port, resource class)` choice for a packet,
/// weighted by estimated latency to the destination.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// Output port on the current router.
    pub port: u32,
    /// Resource class of the next channel (mapped to VCs by [`ClassMap`]).
    pub class: u8,
    /// `congestion x hopcount` estimate; lower is better.
    pub weight: u64,
    /// Remaining hop count if this candidate is taken (tie-breaker: fewer
    /// hops preferred, so uncongested networks route minimally).
    pub hops: u8,
    /// State update applied if this candidate is granted.
    pub commit: Commit,
}

/// Read-only congestion view of a single router's output side.
///
/// Implemented by the simulator; all quantities are in flits. "Free space"
/// is the credit count for the downstream buffer of `(port, vc)`.
///
/// Per-VC quantities (`free_space`, `capacity`, `occupancy`) are the
/// primitives. [`Self::range_occupancy`] and [`Self::port_occupancy`] are
/// aggregates over them: the weight function reads only those two, once
/// per candidate, so a view that keeps the sums (the simulator's router
/// maintains a per-port occupied-flits counter next to its credit array)
/// answers in one call instead of one per VC. An override must return
/// exactly what the provided per-VC loop would.
pub trait RouterView {
    /// Number of virtual channels per port.
    fn num_vcs(&self) -> usize;
    /// Remaining downstream buffer space (credits) of `(port, vc)`.
    fn free_space(&self, port: usize, vc: usize) -> usize;
    /// Total downstream buffer capacity of `(port, vc)`.
    fn capacity(&self, port: usize, vc: usize) -> usize;
    /// Backlog of the output queue feeding `port`'s channel.
    fn queue_len(&self, port: usize) -> usize;

    /// Whether `port`'s outgoing link is currently usable. Fault-aware
    /// algorithms skip candidates on dead ports; a packet whose every
    /// legal next hop is down emits no candidates and waits for a revival
    /// (the simulator's watchdog flags permanent stalls). Defaults to
    /// `true` so fault-oblivious views need no changes.
    fn port_live(&self, _port: usize) -> bool {
        true
    }

    /// Occupied downstream space of `(port, vc)` (derived).
    fn occupancy(&self, port: usize, vc: usize) -> usize {
        self.capacity(port, vc) - self.free_space(port, vc)
    }

    /// Occupied downstream space of `port` summed over the VCs in `vcs`
    /// (aggregate; a resource class's share of the port).
    fn range_occupancy(&self, port: usize, vcs: std::ops::Range<usize>) -> usize {
        vcs.map(|vc| self.occupancy(port, vc)).sum()
    }

    /// Occupied downstream space of `port` summed over all its VCs
    /// (aggregate).
    fn port_occupancy(&self, port: usize) -> usize {
        self.range_occupancy(port, 0..self.num_vcs())
    }

    /// Health penalty of `port`'s outgoing link, in equivalent flits of
    /// congestion. Nonzero when the link's retry sublayer has seen recent
    /// CRC errors or flaps, its replay buffer is filling, or the link runs
    /// degraded — the weight function folds it in so adaptive algorithms
    /// steer around lossy links *before* they die. Defaults to 0 for
    /// views without link-health tracking.
    fn link_health_penalty(&self, _port: usize) -> u64 {
        0
    }
}

/// Everything a routing algorithm may inspect when making a decision.
pub struct RouteCtx<'a> {
    /// Router making the decision.
    pub router: usize,
    /// Input port the packet arrived on (meaningless if `from_terminal`).
    pub input_port: usize,
    /// Input VC the packet occupies (meaningless if `from_terminal`).
    pub input_vc: usize,
    /// True at the packet's source router (arrived from a terminal).
    pub from_terminal: bool,
    /// Destination router.
    pub dst_router: usize,
    /// Destination terminal.
    pub dst_terminal: usize,
    /// Packet length in flits.
    pub pkt_len: usize,
    /// Current per-packet routing state.
    pub state: PacketRouteState,
    /// Congestion view of this router.
    pub view: &'a dyn RouterView,
}

/// A routing algorithm instance, bound to one topology + VC configuration.
///
/// Implementations are immutable and shared across all routers of a
/// simulation; any per-decision randomness comes from the caller's RNG so
/// simulations stay deterministic under a fixed seed.
pub trait RoutingAlgorithm: Send + Sync {
    /// Short name, e.g. `"DimWAR"`.
    fn name(&self) -> &'static str;

    /// Number of resource classes this algorithm requires for deadlock
    /// freedom (the `ClassMap` divisor).
    fn num_classes(&self) -> usize;

    /// Produce candidates for the packet described by `ctx` into `out`
    /// (cleared by the caller). Must emit at least one candidate; the
    /// destination router case is handled by the simulator (ejection) and
    /// never reaches `route`.
    fn route(&self, ctx: &RouteCtx<'_>, rng: &mut SmallRng, out: &mut Vec<Candidate>);

    /// Static implementation-comparison metadata (Table 1).
    fn meta(&self) -> crate::meta::AlgoMeta;
}

/// Maps resource classes onto physical VCs.
///
/// Class `c` of `C` owns VCs `[c*V/C, (c+1)*V/C)`; when `V` is not a
/// multiple of `C` the remainder spreads over the lowest classes so every
/// class owns at least one VC.
#[derive(Clone, Copy, Debug)]
pub struct ClassMap {
    num_vcs: usize,
    num_classes: usize,
}

impl ClassMap {
    /// Creates a map of `num_classes` classes over `num_vcs` VCs.
    ///
    /// # Panics
    /// Panics if `num_classes` is zero or exceeds `num_vcs`.
    pub fn new(num_vcs: usize, num_classes: usize) -> Self {
        assert!(num_classes >= 1, "need at least one class");
        assert!(
            num_classes <= num_vcs,
            "{num_classes} classes cannot fit in {num_vcs} VCs"
        );
        ClassMap {
            num_vcs,
            num_classes,
        }
    }

    /// First VC of class `c`.
    #[inline]
    pub fn first_vc(&self, c: usize) -> usize {
        debug_assert!(c < self.num_classes);
        c * self.num_vcs / self.num_classes
    }

    /// The VC range `[start, end)` owned by class `c`.
    #[inline]
    pub fn vcs_of(&self, c: usize) -> std::ops::Range<usize> {
        debug_assert!(c < self.num_classes);
        self.first_vc(c)..(c + 1) * self.num_vcs / self.num_classes
    }

    /// Which class a VC belongs to.
    ///
    /// Exact inverse of [`Self::first_vc`]: the largest `c` with
    /// `first_vc(c) <= vc`, i.e. `ceil((vc+1)*C/V) - 1`.
    #[inline]
    pub fn class_of(&self, vc: usize) -> usize {
        debug_assert!(vc < self.num_vcs);
        ((vc + 1) * self.num_classes).div_ceil(self.num_vcs) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classmap_even_split() {
        let m = ClassMap::new(8, 2);
        assert_eq!(m.vcs_of(0), 0..4);
        assert_eq!(m.vcs_of(1), 4..8);
        for vc in 0..4 {
            assert_eq!(m.class_of(vc), 0);
        }
        for vc in 4..8 {
            assert_eq!(m.class_of(vc), 1);
        }
    }

    #[test]
    fn classmap_identity() {
        let m = ClassMap::new(8, 8);
        for vc in 0..8 {
            assert_eq!(m.vcs_of(vc), vc..vc + 1);
            assert_eq!(m.class_of(vc), vc);
        }
    }

    #[test]
    fn classmap_uneven_split_covers_all_vcs() {
        for v in 1..=16usize {
            for c in 1..=v {
                let m = ClassMap::new(v, c);
                let mut seen = vec![false; v];
                for cls in 0..c {
                    let r = m.vcs_of(cls);
                    assert!(!r.is_empty(), "class {cls} of {c} over {v} VCs is empty");
                    for vc in r {
                        assert!(!seen[vc], "vc {vc} in two classes");
                        seen[vc] = true;
                        assert_eq!(m.class_of(vc), cls, "v={v} c={c} vc={vc}");
                    }
                }
                assert!(seen.iter().all(|&s| s), "v={v} c={c}: uncovered vc");
            }
        }
    }

    #[test]
    fn classmap_class_ranges_are_monotone() {
        let m = ClassMap::new(8, 3);
        assert!(m.vcs_of(0).end <= m.vcs_of(1).start + 1);
        let all: Vec<usize> = (0..3).flat_map(|c| m.vcs_of(c)).collect();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn classmap_too_many_classes_panics() {
        let _ = ClassMap::new(2, 3);
    }

    #[test]
    fn default_state_has_no_intermediate() {
        let s = PacketRouteState::default();
        assert_eq!(s.intermediate, NO_INTERMEDIATE);
        assert_eq!(s.phase, 0);
        assert_eq!(s.deroute_mask, 0);
    }
}
