//! Per-packet path tracing.
//!
//! When enabled, the simulator records every VC-allocation grant — which
//! router sent which packet out of which port on which VC. This is how the
//! test-suite verifies the paper's Figure 5 semantics *inside the running
//! network* (DimWAR's dimension-ordered class reuse, OmniWAR's strictly
//! increasing distance classes, the Valiant family's two-phase class
//! split), rather than only at the algorithm level.

use crate::packet::PacketId;

/// One VC-allocation grant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopRecord {
    /// The packet granted (pool slot — recycled after ejection; use `tag`
    /// to identify packets across a whole run).
    pub(crate) pkt: PacketId,
    /// The packet's workload tag (unique per packet for the synthetic
    /// workloads; message id for the stencil model).
    pub(crate) tag: u64,
    /// Router making the grant.
    pub router: u32,
    /// Output port granted.
    pub out_port: u16,
    /// Output VC granted.
    pub out_vc: u8,
    /// Whether this grant ejects the packet to its terminal.
    pub ejection: bool,
    /// Grant cycle.
    pub(crate) cycle: u64,
}

/// Why a packet was dropped by fault injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Struck by a link failure (flits on the dead wire, committed to the
    /// dead port, or partially received across it).
    LinkFailed,
    /// Exceeded the configured `max_packet_hops` livelock guard.
    HopCap,
}

/// One packet drop caused by fault injection or the livelock guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DropRecord {
    /// The dropped packet (pool slot; see [`HopRecord::pkt`]).
    pub(crate) pkt: PacketId,
    /// The packet's workload tag.
    pub tag: u64,
    /// Cycle the drop was decided.
    pub cycle: u64,
    /// What killed it.
    pub reason: DropReason,
}

/// An append-only hop log.
#[derive(Default, Debug)]
pub struct Trace {
    hops: Vec<HopRecord>,
    drops: Vec<DropRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one grant (called by routers).
    #[inline]
    pub(crate) fn record(&mut self, rec: HopRecord) {
        self.hops.push(rec);
    }

    /// Records one fault-caused packet drop.
    #[inline]
    pub(crate) fn record_drop(&mut self, rec: DropRecord) {
        self.drops.push(rec);
    }

    /// All recorded packet drops, in drop order.
    pub fn drops(&self) -> &[DropRecord] {
        &self.drops
    }

    /// All per-packet paths, grouped in one pass (hop order preserved
    /// within each path), in order of each packet's first hop.
    pub fn paths(&self) -> Vec<Vec<HopRecord>> {
        let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut out: Vec<Vec<HopRecord>> = Vec::new();
        for h in &self.hops {
            let i = *index.entry(h.tag).or_insert_with(|| {
                out.push(Vec::new());
                out.len() - 1
            });
            out[i].push(*h);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_group_by_packet_and_preserve_order() {
        let mut t = Trace::new();
        for (pkt, router) in [(1u32, 0u32), (2, 0), (1, 3), (1, 7)] {
            t.record(HopRecord {
                pkt,
                tag: pkt as u64,
                router,
                out_port: 0,
                out_vc: 0,
                ejection: false,
                cycle: router as u64,
            });
        }
        let paths = t.paths();
        let routers = |p: &[HopRecord]| p.iter().map(|h| h.router).collect::<Vec<_>>();
        assert_eq!(paths.len(), 2);
        assert!(paths[0].iter().all(|h| h.tag == 1));
        assert_eq!(routers(&paths[0]), vec![0, 3, 7]);
        assert_eq!(paths[1].len(), 1);
        assert_eq!(paths[1][0].tag, 2);
    }
}
