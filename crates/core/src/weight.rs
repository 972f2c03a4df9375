//! The `congestion x hopcount` weight function shared by all adaptive
//! algorithms (paper Sections 5.1 step 3 and 5.2 step 4).

use crate::api::{ClassMap, RouterView};

/// Flits of pressure every class of `port` shares: the backlog of the
/// output queue feeding the channel plus the link-health penalty
/// ([`RouterView::link_health_penalty`]). A link shedding CRC errors or
/// flapping costs replay bandwidth that plain occupancy cannot see yet,
/// so gray-failing links are priced like congested ones and adaptive
/// algorithms steer around them before they die. Zero on healthy links,
/// so fault-free behaviour is unchanged.
#[inline]
fn shared_pressure(view: &dyn RouterView, port: usize) -> u64 {
    view.queue_len(port) as u64 + view.link_health_penalty(port)
}

/// Congestion estimate of sending through `port`: the total downstream
/// buffer occupancy across *all* VCs of the port
/// ([`RouterView::port_occupancy`], an aggregate the view maintains) plus
/// the output-queue backlog and link-health penalty. Units are flits.
///
/// Port-level (rather than per-VC-class) sensing matches the paper's
/// routers, which "assess all valid outputs with their current detected
/// congestion": the channel drains every VC at the same 1 flit/cycle, so
/// the queued work ahead of a new flit is the whole port's backlog. This
/// is also what gives source-adaptive routing its characteristic blindness
/// on URBy (Figure 6d): remote congestion back-pressures *all* of the
/// source's first-hop ports equally, so the minimal path never looks worse
/// than the Valiant one and UGAL degenerates to DOR.
#[inline]
pub fn port_congestion(view: &dyn RouterView, port: usize) -> u64 {
    view.port_occupancy(port) as u64 + shared_pressure(view, port)
}

/// Congestion estimate for a specific `(port, class)` candidate: the
/// larger of the port-level pressure ([`port_congestion`]) and the
/// candidate class's own pressure scaled to the port range.
///
/// The class term matters for algorithms whose resource classes own few
/// VCs (OmniWAR's distance classes own exactly one): a full class is a
/// full channel *for this packet* even while the port's other VCs sit
/// idle, so without it the congestion signal saturates at
/// `class_vcs / num_vcs` of its true level and the algorithm under-
/// deroutes (visible as S2 throughput loss). The port term preserves the
/// source-adaptive blindness property above: back-pressure seen by *any*
/// class of a port is pressure for all of them.
///
/// Both terms carry the same queue backlog and health penalty, so those
/// are read once and added after the maximum: `max(c + s, p + s) =
/// max(c, p) + s`. Per candidate this is two aggregate reads
/// ([`RouterView::range_occupancy`], [`RouterView::port_occupancy`]),
/// independent of the VC count. The class term's scale `V / n` is read
/// off the class map's table: a multiply whenever `n` divides `V`, the
/// exact `occ * V / n` division otherwise (uneven splits).
#[inline]
pub fn candidate_congestion(
    view: &dyn RouterView,
    port: usize,
    map: &ClassMap,
    class: usize,
) -> u64 {
    debug_assert_eq!(
        view.num_vcs(),
        map.num_vcs(),
        "view and class map disagree on V"
    );
    let class_occ = map.scale_to_port(class, view.range_occupancy(port, map.vcs_of(class)) as u64);
    class_occ.max(view.port_occupancy(port) as u64) + shared_pressure(view, port)
}

/// Fixed per-hop latency folded into the weight, in cycles: roughly one
/// channel traversal (50) plus one crossbar traversal (50) at the paper's
/// timing. This is the "tuning" the paper alludes to (Section 6.2: "all 4
/// adaptive routing algorithms have been tuned to react quickly to
/// change"): without a fixed-latency term, a single queued flit of
/// congestion difference would trigger a deroute whose extra hop costs
/// ~100 cycles — adaptive algorithms would burn bandwidth and latency on
/// transient noise and lose to DOR on latency-sensitive phases.
pub(crate) const HOP_LATENCY: u64 = 100;

/// The latency estimate all adaptive algorithms minimize:
/// `(congestion + HOP_LATENCY) x hopcount`.
///
/// `hops` is the total remaining hop count *including* the candidate hop.
/// The congestion term is the paper's `congestion x hopcount`; the
/// `HOP_LATENCY x hopcount` term accounts for the pipeline latency of the
/// hops themselves, so in an idle network minimal paths strictly win and a
/// deroute is only taken once the minimal path's queueing exceeds about
/// one hop's worth of latency.
#[inline]
pub(crate) fn weight(congestion: u64, hops: usize) -> u64 {
    (congestion + HOP_LATENCY) * hops as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::MockView;

    #[test]
    fn idle_congestion_is_zero() {
        let v = MockView::idle(4, 8, 16);
        assert_eq!(port_congestion(&v, 0), 0);
        assert_eq!(port_congestion(&v, 3), 0);
    }

    #[test]
    fn congestion_sums_all_vcs() {
        let mut v = MockView::idle(2, 4, 16);
        v.occ[1][0] = 8;
        v.occ[1][1] = 4;
        assert_eq!(port_congestion(&v, 1), 12);
        assert_eq!(port_congestion(&v, 0), 0);
    }

    #[test]
    fn congestion_includes_output_queue() {
        let mut v = MockView::idle(2, 4, 16);
        v.queues[0] = 5;
        v.occ[0][2] = 3;
        assert_eq!(port_congestion(&v, 0), 8);
    }

    #[test]
    fn congestion_includes_link_health_penalty() {
        let mut v = MockView::idle(2, 4, 16);
        v.health[1] = 250;
        assert_eq!(port_congestion(&v, 0), 0);
        assert_eq!(port_congestion(&v, 1), 250);
        // A gray-failing idle port must weigh worse than a lightly
        // congested healthy one.
        v.queues[0] = 5;
        assert!(port_congestion(&v, 1) > port_congestion(&v, 0));
    }

    #[test]
    fn weight_combines_congestion_and_hop_latency() {
        assert_eq!(weight(0, 3), HOP_LATENCY * 3);
        assert_eq!(weight(7, 2), (7 + HOP_LATENCY) * 2);
        assert_eq!(weight(3, 0), 0);
    }

    #[test]
    fn idle_minimal_strictly_beats_idle_deroute() {
        // The tuning property: at zero congestion, fewer hops wins by a
        // full HOP_LATENCY margin, not just a tie-break.
        assert!(weight(0, 3) + HOP_LATENCY <= weight(0, 4));
    }
}
