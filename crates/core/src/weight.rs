//! The one weighing rule every candidate is ranked by: "minimal
//! congestion x hop count" (paper Sections 5.1 step 3 and 5.2 step 4).
//!
//! Algorithms enumerate candidates and never read congestion; the
//! simulator's router (from its credit, occupancy and backlog arrays and
//! its channels' link health) and [`crate::mock::MockView`] (from its
//! tables) both reduce a candidate's output to the same three plain
//! numbers and call [`weigh`]. It is the only place the rule is computed.
//!
//! **Congestion** of a `(port, class)` candidate, in flits, is the larger
//! of two occupancies plus one shared pressure:
//!
//! - *Port occupancy*: the downstream buffer occupancy summed over *all*
//!   VCs of the port. Port-level sensing matches the paper's routers,
//!   which "assess all valid outputs with their current detected
//!   congestion": the channel drains every VC at the same 1 flit/cycle,
//!   so the queued work ahead of a new flit is the whole port's backlog.
//!   It is also what gives source-adaptive routing its characteristic
//!   blindness on URBy (Figure 6d): remote congestion back-pressures
//!   *all* of the source's first-hop ports equally, so the minimal path
//!   never looks worse than the Valiant one and UGAL degenerates to DOR.
//! - *Class occupancy*: the occupancy of the candidate class's own VCs,
//!   scaled to the port range (`occ x V / n` for a class of `n` of the
//!   port's `V` VCs, read off the [`ClassMap`]'s table). It matters for
//!   algorithms whose classes own few VCs (OmniWAR's distance classes own
//!   exactly one): a full class is a full channel *for this packet* even
//!   while the port's other VCs sit idle, so without it the signal
//!   saturates at `n / V` of its true level and the algorithm
//!   under-deroutes (visible as S2 throughput loss). A class spanning
//!   every VC (fat-tree routing's single class) weighs exactly its port
//!   occupancy.
//! - *Pressure*: the backlog of the output queue feeding the channel plus
//!   the link-health penalty (nonzero when the link's retry sublayer has
//!   seen recent CRC errors or flaps, its replay buffer is filling, or the
//!   link runs degraded). Gray-failing links are priced like congested
//!   ones, so adaptive algorithms steer around them before they die; on
//!   healthy links the penalty is zero.

use crate::api::{Candidate, ClassMap};

/// Fixed per-hop latency folded into the weight, in cycles: roughly one
/// channel traversal (50) plus one crossbar traversal (50) at the paper's
/// timing. This is the "tuning" the paper alludes to (Section 6.2: "all 4
/// adaptive routing algorithms have been tuned to react quickly to
/// change"): without a fixed-latency term, a single queued flit of
/// congestion difference would trigger a deroute whose extra hop costs
/// ~100 cycles — adaptive algorithms would burn bandwidth and latency on
/// transient noise and lose to DOR on latency-sensitive phases.
pub(crate) const HOP_LATENCY: u64 = 100;

/// Weighs `c` in place: adds `(congestion + HOP_LATENCY) x c.hops` to the
/// weight the algorithm preloaded (0, or a bias such as DAL's escape
/// penalty; the sum saturates).
///
/// `class_occ` is the occupancy of `c`'s class VCs (`map.vcs_of(class)`)
/// and `port_occ` that of all the port's VCs, both in flits; `pressure`
/// is the port's output backlog plus its link-health penalty. Congestion
/// is `max(scaled class_occ, port_occ) + pressure` (module docs).
///
/// `c.hops` is the total remaining hop count *including* the candidate
/// hop. The congestion term is the paper's `congestion x hopcount`; the
/// `HOP_LATENCY x hopcount` term accounts for the pipeline latency of the
/// hops themselves, so in an idle network minimal paths strictly win and
/// a deroute is only taken once the minimal path's queueing exceeds about
/// one hop's worth of latency.
#[inline]
pub fn weigh(c: &mut Candidate, map: &ClassMap, class_occ: u64, port_occ: u64, pressure: u64) {
    let class_occ = map.scale_to_port(c.class as usize, class_occ);
    let congestion = class_occ.max(port_occ) + pressure;
    c.weight = c
        .weight
        .saturating_add((congestion + HOP_LATENCY) * u64::from(c.hops));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Commit;

    /// The weight of a fresh `hops`-hop candidate in class `class` of `map`.
    fn weight(map: &ClassMap, class: usize, hops: usize, occ: [u64; 3]) -> u64 {
        let mut c = Candidate::new(0, class, hops, Commit::None);
        weigh(&mut c, map, occ[0], occ[1], occ[2]);
        c.weight
    }

    #[test]
    fn idle_weight_is_hop_latency_times_hops() {
        let map = ClassMap::new(8, 2);
        assert_eq!(weight(&map, 0, 3, [0; 3]), HOP_LATENCY * 3);
        assert_eq!(weight(&map, 1, 0, [5, 9, 7]), 0);
    }

    #[test]
    fn congestion_is_the_larger_occupancy_plus_pressure() {
        let map = ClassMap::new(8, 2);
        // Port occupancy 12 over 4 class flits scaled x2 = 8: the port wins.
        assert_eq!(weight(&map, 1, 2, [4, 12, 5]), (12 + 5 + HOP_LATENCY) * 2);
        // A full class (16 flits x2 = 32) outweighs its port's 20.
        assert_eq!(weight(&map, 0, 1, [16, 20, 0]), 32 + HOP_LATENCY);
        // A class spanning the port weighs the port occupancy exactly.
        let one = ClassMap::new(8, 1);
        assert_eq!(weight(&one, 0, 2, [12, 12, 3]), (12 + 3 + HOP_LATENCY) * 2);
    }

    #[test]
    fn link_health_pressure_outweighs_light_congestion() {
        // A gray-failing idle port must weigh worse than a lightly
        // congested healthy one.
        let map = ClassMap::new(4, 1);
        assert!(weight(&map, 0, 1, [0, 0, 250]) > weight(&map, 0, 1, [5, 5, 0]));
    }

    #[test]
    fn preloaded_bias_is_added_and_saturates() {
        let map = ClassMap::new(8, 2);
        let mut c = Candidate::new(0, 1, 2, Commit::None);
        c.weight = 1 << 20;
        weigh(&mut c, &map, 0, 3, 0);
        assert_eq!(c.weight, (1 << 20) + (3 + HOP_LATENCY) * 2);
        c.weight = u64::MAX - 1;
        weigh(&mut c, &map, 0, 0, 0);
        assert_eq!(c.weight, u64::MAX);
    }

    #[test]
    fn idle_minimal_strictly_beats_idle_deroute() {
        // The tuning property: at zero congestion, fewer hops wins by a
        // full HOP_LATENCY margin, not just a tie-break.
        let map = ClassMap::new(8, 2);
        assert!(weight(&map, 0, 3, [0; 3]) + HOP_LATENCY <= weight(&map, 1, 4, [0; 3]));
    }
}
