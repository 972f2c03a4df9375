//! The routing-algorithm abstraction.
//!
//! A [`RoutingAlgorithm`] is consulted by a router whenever the head flit of
//! a packet sits unrouted at the front of an input virtual channel. Given
//! the packet's [`Hop`] — where it is, where it goes, the resource class it
//! arrived on and which of this router's links are up — it enumerates the
//! legal `(port, resource class)` next hops as unweighted [`Candidate`]s
//! (paper Sections 5.1 and 5.2, step 2). It reads no congestion. The
//! router then weighs every candidate by one rule, "minimal congestion x
//! hop count" ([`crate::weight::weigh`]), from its own output state, and
//! grants the cheapest *feasible* one under virtual cut-through flow
//! control, applying the candidate's [`Commit`] to the packet's routing
//! state when the grant happens.
//!
//! Resource classes, not concrete VCs, appear in candidates: the simulator
//! maps a class to its share of the physical VCs via [`ClassMap`]
//! (algorithms needing fewer classes than VCs spread each class over the
//! spare VCs for head-of-line-blocking relief, per the paper's evaluation
//! methodology, footnote 4).

use rand::rngs::SmallRng;

use crate::mock::MockView;

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

/// One possible `(output port, resource class)` choice for a packet.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// Output port on the current router.
    pub port: u32,
    /// Resource class of the next channel (mapped to VCs by [`ClassMap`]).
    pub class: u8,
    /// Estimated latency to the destination; lower is better. An
    /// algorithm leaves it 0 or preloads a bias; weighing
    /// ([`crate::weight::weigh`]) adds `congestion x hopcount` to it.
    pub weight: u64,
    /// Remaining hop count if this candidate is taken (tie-breaker: fewer
    /// hops preferred, so uncongested networks route minimally).
    pub hops: u8,
    /// State update applied if this candidate is granted.
    pub commit: Commit,
}

impl Candidate {
    /// An unweighted candidate for `(port, class)` with `hops` total
    /// remaining hops (including this one).
    #[inline]
    pub(crate) fn new(port: usize, class: usize, hops: usize, commit: Commit) -> Self {
        Candidate {
            port: port as u32,
            class: class as u8,
            weight: 0,
            hops: hops as u8,
            commit,
        }
    }
}

/// Everything an algorithm's candidate set may depend on: one packet's
/// head at one router. There is no congestion here — the router weighs.
pub struct Hop<'a> {
    /// Router making the decision.
    pub router: usize,
    /// Input port the packet arrived on (meaningless if `from_terminal`).
    pub input_port: usize,
    /// Resource class of the input VC the packet occupies, under the
    /// algorithm's [`ClassMap`] (meaningless if `from_terminal`).
    pub input_class: usize,
    /// True at the packet's source router (arrived from a terminal).
    pub from_terminal: bool,
    /// Destination router.
    pub dst_router: usize,
    /// Destination terminal.
    pub dst_terminal: usize,
    /// Current per-packet routing state.
    pub state: PacketRouteState,
    /// Whether each port's outgoing link is up. Fault-aware algorithms
    /// skip candidates on dead ports; a packet whose every legal next hop
    /// is down gets no candidates and waits for a revival (the
    /// simulator's watchdog flags permanent stalls).
    pub live: &'a [bool],
}

/// A routing decision against a table-driven congestion state, for unit
/// tests and micro-benchmarks ([`RoutingAlgorithm::route`]).
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
    /// Packet length in flits. No algorithm reads it (a [`Hop`] has no
    /// length); `hxperf`'s routing driver still sets it.
    pub pkt_len: usize,
    /// Current per-packet routing state.
    pub state: PacketRouteState,
    /// Congestion and liveness of this router's output side.
    pub view: &'a MockView,
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

    /// Emits the unweighted candidates for the packet described by `hop`
    /// into `out` (cleared by the caller). Must emit at least one
    /// candidate while every port is up; the destination router case is
    /// handled by the simulator (ejection) and never reaches here.
    fn candidates(&self, hop: &Hop<'_>, rng: &mut SmallRng, out: &mut Vec<Candidate>);

    /// Static implementation-comparison metadata (Table 1).
    fn meta(&self) -> crate::meta::AlgoMeta;

    /// [`Self::candidates`] weighed against `ctx.view` by the rule the
    /// simulator's router applies to its own output state (the view's
    /// classes laid out by a [`ClassMap`] built per call). `out` is
    /// cleared by the caller.
    fn route(&self, ctx: &RouteCtx<'_>, rng: &mut SmallRng, out: &mut Vec<Candidate>) {
        let view = ctx.view;
        let map = ClassMap::new(view.num_vcs(), self.num_classes());
        let hop = Hop {
            router: ctx.router,
            input_port: ctx.input_port,
            input_class: map.class_of(ctx.input_vc),
            from_terminal: ctx.from_terminal,
            dst_router: ctx.dst_router,
            dst_terminal: ctx.dst_terminal,
            state: ctx.state,
            live: view.live(),
        };
        self.candidates(&hop, rng, out);
        for c in out.iter_mut() {
            view.weigh(c, &map);
        }
    }
}

/// The most VCs a [`ClassMap`] tabulates (the simulator's per-port VC
/// masks are one `u64` word, so it caps `num_vcs` at the same 64).
const MAP_MAX_VCS: usize = 64;

/// Maps resource classes onto physical VCs.
///
/// Class `c` of `C` owns VCs `[c*V/C, (c+1)*V/C)`; when `V` is not a
/// multiple of `C` the remainder spreads over the lowest classes so every
/// class owns at least one VC.
///
/// Every answer is tabulated at construction (`V <= 64`): the class
/// bounds, each VC's class and each class's occupancy scale, as bytes. A
/// candidate's weight reads the map once or twice, and this way no read
/// divides; the map stays a small `Copy` value.
#[derive(Clone, Copy, Debug)]
pub struct ClassMap {
    num_vcs: usize,
    num_classes: usize,
    /// `bounds[c] = c*V/C` for `c` in `0..=C`: class `c` owns
    /// `bounds[c]..bounds[c + 1]`.
    bounds: [u8; MAP_MAX_VCS + 1],
    /// The class of each VC.
    class: [u8; MAP_MAX_VCS],
    /// `V / n` for a class of `n` VCs when `n` divides `V`, else 0.
    scale: [u8; MAP_MAX_VCS],
}

impl ClassMap {
    /// Creates a map of `num_classes` classes over `num_vcs` VCs.
    ///
    /// # Panics
    /// Panics if `num_classes` is zero or exceeds `num_vcs`, or if
    /// `num_vcs` exceeds 64.
    pub fn new(num_vcs: usize, num_classes: usize) -> Self {
        assert!(num_classes >= 1, "need at least one class");
        assert!(
            num_classes <= num_vcs,
            "{num_classes} classes cannot fit in {num_vcs} VCs"
        );
        assert!(
            num_vcs <= MAP_MAX_VCS,
            "a class map covers at most {MAP_MAX_VCS} VCs, not {num_vcs}"
        );
        let mut map = ClassMap {
            num_vcs,
            num_classes,
            bounds: [0; MAP_MAX_VCS + 1],
            class: [0; MAP_MAX_VCS],
            scale: [0; MAP_MAX_VCS],
        };
        for c in 0..=num_classes {
            map.bounds[c] = (c * num_vcs / num_classes) as u8;
        }
        for c in 0..num_classes {
            let vcs = map.vcs_of(c);
            if num_vcs.is_multiple_of(vcs.len()) {
                map.scale[c] = (num_vcs / vcs.len()) as u8;
            }
            for vc in vcs {
                map.class[vc] = c as u8;
            }
        }
        map
    }

    /// First VC of class `c`.
    #[inline]
    pub fn first_vc(&self, c: usize) -> usize {
        debug_assert!(c < self.num_classes);
        self.bounds[c] as usize
    }

    /// The VC range `[start, end)` owned by class `c`.
    #[inline]
    pub fn vcs_of(&self, c: usize) -> std::ops::Range<usize> {
        debug_assert!(c < self.num_classes);
        self.bounds[c] as usize..self.bounds[c + 1] as usize
    }

    /// Which class a VC belongs to.
    ///
    /// Exact inverse of [`Self::first_vc`]: the largest `c` with
    /// `first_vc(c) <= vc`, i.e. `ceil((vc+1)*C/V) - 1`.
    #[inline]
    pub fn class_of(&self, vc: usize) -> usize {
        debug_assert!(vc < self.num_vcs);
        self.class[vc] as usize
    }

    /// Class `c`'s occupancy `occ` scaled to the whole port: `occ * V / n`
    /// for a class of `n` VCs, rounded down. A multiply when `n` divides
    /// `V` (every class of an even split), the division otherwise.
    #[inline]
    pub(crate) fn scale_to_port(&self, c: usize, occ: u64) -> u64 {
        match self.scale[c] {
            0 => occ * self.num_vcs as u64 / self.vcs_of(c).len() as u64,
            k => occ * k as u64,
        }
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

    /// Every map the simulator can build (`V` in 1..=64, `C` in 1..=V):
    /// the classes cover the VCs, and every table entry equals its closed
    /// form.
    #[test]
    fn classmap_uneven_split_covers_all_vcs() {
        for v in 1..=64usize {
            for c in 1..=v {
                let m = ClassMap::new(v, c);
                let mut seen = vec![false; v];
                for cls in 0..c {
                    let r = m.vcs_of(cls);
                    assert_eq!(m.first_vc(cls), cls * v / c, "v={v} c={c}");
                    assert_eq!(r, cls * v / c..(cls + 1) * v / c);
                    let n = r.len() as u64;
                    for cap in [1u64, 7, 32, 100] {
                        for occ in 0..=n * cap {
                            assert_eq!(m.scale_to_port(cls, occ), occ * v as u64 / n);
                        }
                    }
                    assert!(!r.is_empty(), "class {cls} of {c} over {v} VCs is empty");
                    for vc in r {
                        assert!(!seen[vc], "vc {vc} in two classes");
                        seen[vc] = true;
                        assert_eq!(m.class_of(vc), cls, "v={v} c={c} vc={vc}");
                        assert_eq!(cls, ((vc + 1) * c).div_ceil(v) - 1);
                    }
                }
                assert!(seen.iter().all(|&s| s), "v={v} c={c}: uncovered vc");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 VCs")]
    fn classmap_over_64_vcs_panics() {
        let _ = ClassMap::new(65, 2);
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
