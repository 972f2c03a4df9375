//! Packets, flits, and the packet arena.
//!
//! Flits are tiny `Copy` values carrying only their packet id and position;
//! per-packet metadata lives in a slab-style [`PacketPool`] whose slots are
//! recycled after ejection, so steady-state simulations allocate nothing on
//! the hot path.
//!
//! The pool is laid out struct-of-arrays: the fields the routing/forwarding
//! path touches every cycle ([`PacketHot`]: destination, length, route
//! state, birth for age arbitration) live in one dense array, the fields
//! read only at injection/delivery/trace boundaries ([`PacketCold`]: tag,
//! sequence number, injection cycle, source) in another, and the per-slot
//! alive/poisoned flags in packed [`BitSet`]s. At 100k+ terminals this
//! roughly halves the bytes the age-arbitration scan drags through cache
//! and shrinks the flag arrays 8×.

use crate::bitset::BitSet;
use hxcore::PacketRouteState;

/// Index into the [`PacketPool`].
pub type PacketId = u32;

/// One flow-control unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flit {
    /// Owning packet.
    pub pkt: PacketId,
    /// Position within the packet (0 = head).
    pub idx: u16,
    /// Packet length (duplicated here so head/tail checks avoid an arena
    /// lookup).
    pub len: u16,
}

impl Flit {
    /// Whether this is the packet's head flit.
    #[inline]
    pub(crate) fn is_head(&self) -> bool {
        self.idx == 0
    }

    /// Whether this is the packet's tail flit (a 1-flit packet is both).
    #[inline]
    pub(crate) fn is_tail(&self) -> bool {
        self.idx + 1 == self.len
    }
}

/// Per-packet metadata, as handed to [`PacketPool::alloc`]. Stored
/// internally split into [`PacketHot`] / [`PacketCold`] arrays.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Source terminal.
    pub(crate) src: u32,
    /// Destination terminal.
    pub(crate) dst: u32,
    /// Destination router (cached from the topology at creation).
    pub(crate) dst_router: u32,
    /// Length in flits.
    pub(crate) len: u16,
    /// Router-to-router hops taken so far (statistics).
    pub(crate) hops: u8,
    /// Cycle the packet was created (entered the source terminal queue).
    pub(crate) birth: u64,
    /// Cycle the head flit left the terminal (u64::MAX until then).
    pub(crate) inject: u64,
    /// Mutable routing state (Valiant intermediate, DAL deroute mask, ...).
    pub(crate) route: PacketRouteState,
    /// Workload-defined tag (e.g. message id for multi-packet messages).
    pub(crate) tag: u64,
    /// Transport sequence number: identifies the logical packet across
    /// retransmitted copies for receiver-side duplicate suppression.
    /// 0 when the retransmission transport is disabled.
    pub(crate) seq: u64,
}

/// Fields read on the per-cycle routing/forwarding path (32 bytes).
#[derive(Clone, Debug)]
pub struct PacketHot {
    /// Cycle the packet was created (age arbitration key).
    pub(crate) birth: u64,
    /// Mutable routing state (Valiant intermediate, DAL deroute mask, ...).
    pub(crate) route: PacketRouteState,
    /// Destination terminal.
    pub(crate) dst: u32,
    /// Destination router (cached from the topology at creation).
    pub(crate) dst_router: u32,
    /// Length in flits.
    pub len: u16,
    /// Router-to-router hops taken so far (statistics).
    pub(crate) hops: u8,
}

/// Fields read only at injection/delivery/trace boundaries (32 bytes).
#[derive(Clone, Debug)]
pub struct PacketCold {
    /// Workload-defined tag (e.g. message id for multi-packet messages).
    pub(crate) tag: u64,
    /// Transport sequence number (0 when retransmission is disabled).
    pub(crate) seq: u64,
    /// Cycle the head flit left the terminal (u64::MAX until then).
    pub(crate) inject: u64,
    /// Source terminal.
    pub(crate) src: u32,
}

/// Slab allocator for in-flight packets.
///
/// Fault support: a packet struck by a link failure is *poisoned* rather
/// than freed — its flits may still sit in buffers, crossbar pipes, and
/// wires, and the slot must not be recycled while any of them reference
/// it. Every materialized flit is counted ([`Self::note_flit_created`] /
/// [`Self::note_flit_gone`]); the slot is released automatically when the
/// last flit of a poisoned packet is discarded or consumed.
///
/// Determinism note: the free-list order is simulation-visible (PacketIds
/// feed age-arbitration salt tie-breaks), so the SoA layout keeps the
/// original alloc/release/poison ordering semantics byte-for-byte.
#[derive(Default)]
pub struct PacketPool {
    hot: Vec<PacketHot>,
    cold: Vec<PacketCold>,
    /// Per-slot liveness (parallel to `hot`/`cold`).
    alive: BitSet,
    /// Per-slot materialized-flit refcount (parallel to `hot`/`cold`).
    flits_out: Vec<u32>,
    /// Per-slot poison flag (parallel to `hot`/`cold`).
    poisoned: BitSet,
    num_poisoned: usize,
    free: Vec<PacketId>,
    live: usize,
}

impl PacketPool {
    /// Creates an empty pool.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Allocates a packet, reusing a retired slot when possible.
    pub(crate) fn alloc(&mut self, pkt: Packet) -> PacketId {
        let hot = PacketHot {
            birth: pkt.birth,
            route: pkt.route,
            dst: pkt.dst,
            dst_router: pkt.dst_router,
            len: pkt.len,
            hops: pkt.hops,
        };
        let cold = PacketCold {
            tag: pkt.tag,
            seq: pkt.seq,
            inject: pkt.inject,
            src: pkt.src,
        };
        self.live += 1;
        if let Some(id) = self.free.pop() {
            let i = id as usize;
            self.hot[i] = hot;
            self.cold[i] = cold;
            self.alive.set(i, true);
            self.flits_out[i] = 0;
            debug_assert!(!self.poisoned.get(i));
            id
        } else {
            let id = self.hot.len() as PacketId;
            self.hot.push(hot);
            self.cold.push(cold);
            self.alive.push(true);
            self.flits_out.push(0);
            self.poisoned.push(false);
            id
        }
    }

    /// Read access to a live packet's hot fields.
    #[inline]
    pub(crate) fn hot(&self, id: PacketId) -> &PacketHot {
        &self.hot[id as usize]
    }

    /// Write access to a live packet's hot fields.
    #[inline]
    pub(crate) fn hot_mut(&mut self, id: PacketId) -> &mut PacketHot {
        &mut self.hot[id as usize]
    }

    /// Read access to a live packet's cold fields.
    #[inline]
    pub(crate) fn cold(&self, id: PacketId) -> &PacketCold {
        &self.cold[id as usize]
    }

    /// Write access to a live packet's cold fields.
    #[inline]
    pub(crate) fn cold_mut(&mut self, id: PacketId) -> &mut PacketCold {
        &mut self.cold[id as usize]
    }

    /// Retires a packet after its tail flit is consumed at the destination.
    pub(crate) fn release(&mut self, id: PacketId) {
        let i = id as usize;
        debug_assert!(self.live > 0);
        debug_assert!(self.alive.get(i), "double release of packet {id}");
        self.live -= 1;
        self.alive.set(i, false);
        if self.poisoned.get(i) {
            self.poisoned.set(i, false);
            self.num_poisoned -= 1;
        }
        self.free.push(id);
    }

    /// Marks a packet as struck by a fault. Returns `true` the first time
    /// (callers count the packet drop then). If none of its flits are
    /// materialized anywhere, the slot is released immediately; otherwise
    /// it is held until the last flit is discarded.
    pub(crate) fn poison(&mut self, id: PacketId) -> bool {
        let i = id as usize;
        if !self.alive.get(i) || self.poisoned.get(i) {
            return false;
        }
        self.poisoned.set(i, true);
        self.num_poisoned += 1;
        if self.flits_out[i] == 0 {
            self.release(id);
        }
        true
    }

    /// Whether `id` is a poisoned, not-yet-drained packet.
    #[inline]
    pub(crate) fn is_poisoned(&self, id: PacketId) -> bool {
        self.poisoned.get(id as usize)
    }

    /// Whether any poisoned packet still has flits in the network.
    #[inline]
    pub fn any_poisoned(&self) -> bool {
        self.num_poisoned > 0
    }

    /// Records a reference to `id` entering the network: a materialized
    /// flit, or a holder structure (a router's per-packet input buffer, a
    /// terminal's in-progress injection) that may outlive the packet's
    /// buffered flits and must pin the slot.
    #[inline]
    pub(crate) fn note_flit_created(&mut self, id: PacketId) {
        self.flits_out[id as usize] += 1;
    }

    /// Records that a reference to `id` left the network (flit consumed at
    /// the destination or discarded by fault fallout; holder structure
    /// dismantled). Releases the slot when the last reference to a
    /// poisoned packet disappears.
    pub(crate) fn note_flit_gone(&mut self, id: PacketId) {
        let i = id as usize;
        debug_assert!(self.flits_out[i] > 0, "flit refcount underflow");
        self.flits_out[i] -= 1;
        if self.flits_out[i] == 0 && self.poisoned.get(i) {
            self.release(id);
        }
    }

    /// Number of packets currently alive inside the network or queues.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Iterates live packets (watchdog diagnostics).
    pub fn live_packets(&self) -> impl Iterator<Item = (PacketId, &PacketHot, &PacketCold)> + '_ {
        self.hot
            .iter()
            .zip(self.cold.iter())
            .enumerate()
            .filter(|&(i, _)| self.alive.get(i))
            .map(|(i, (h, c))| (i as PacketId, h, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(len: u16) -> Packet {
        Packet {
            src: 0,
            dst: 1,
            dst_router: 0,
            len,
            hops: 0,
            birth: 0,
            inject: u64::MAX,
            route: PacketRouteState::default(),
            tag: 0,
            seq: 0,
        }
    }

    #[test]
    fn head_tail_flags() {
        let f0 = Flit {
            pkt: 0,
            idx: 0,
            len: 3,
        };
        let f2 = Flit {
            pkt: 0,
            idx: 2,
            len: 3,
        };
        let single = Flit {
            pkt: 1,
            idx: 0,
            len: 1,
        };
        assert!(f0.is_head() && !f0.is_tail());
        assert!(!f2.is_head() && f2.is_tail());
        assert!(single.is_head() && single.is_tail());
    }

    #[test]
    fn hot_cold_split_preserves_fields() {
        let mut pool = PacketPool::new();
        let a = pool.alloc(Packet {
            src: 7,
            dst: 9,
            dst_router: 3,
            len: 5,
            hops: 2,
            birth: 11,
            inject: 13,
            route: PacketRouteState::default(),
            tag: 42,
            seq: 17,
        });
        assert_eq!(pool.hot(a).dst, 9);
        assert_eq!(pool.hot(a).dst_router, 3);
        assert_eq!(pool.hot(a).len, 5);
        assert_eq!(pool.hot(a).hops, 2);
        assert_eq!(pool.hot(a).birth, 11);
        assert_eq!(pool.cold(a).src, 7);
        assert_eq!(pool.cold(a).inject, 13);
        assert_eq!(pool.cold(a).tag, 42);
        assert_eq!(pool.cold(a).seq, 17);
    }

    #[test]
    fn pool_recycles_slots() {
        let mut pool = PacketPool::new();
        let a = pool.alloc(pkt(4));
        let b = pool.alloc(pkt(8));
        assert_eq!(pool.live(), 2);
        pool.release(a);
        assert_eq!(pool.live(), 1);
        let c = pool.alloc(pkt(2));
        assert_eq!(c, a, "slot not recycled");
        assert_eq!(pool.hot.len(), 2, "slot high-water grew");
        assert_eq!(pool.hot(b).len, 8);
        assert_eq!(pool.hot(c).len, 2);
    }

    #[test]
    fn get_mut_updates_state() {
        let mut pool = PacketPool::new();
        let a = pool.alloc(pkt(4));
        pool.hot_mut(a).hops = 3;
        assert_eq!(pool.hot(a).hops, 3);
    }

    #[test]
    fn poison_without_flits_releases_immediately() {
        let mut pool = PacketPool::new();
        let a = pool.alloc(pkt(4));
        assert!(pool.poison(a));
        assert_eq!(pool.live(), 0);
        assert!(!pool.any_poisoned());
        assert!(!pool.poison(a), "already released");
    }

    #[test]
    fn poison_waits_for_outstanding_flits() {
        let mut pool = PacketPool::new();
        let a = pool.alloc(pkt(2));
        pool.note_flit_created(a);
        pool.note_flit_created(a);
        assert!(pool.poison(a));
        assert!(pool.is_poisoned(a));
        assert_eq!(pool.live(), 1, "slot held while flits are out");
        pool.note_flit_gone(a);
        assert!(pool.any_poisoned());
        pool.note_flit_gone(a);
        assert_eq!(pool.live(), 0, "released with the last flit");
        assert!(!pool.any_poisoned());
        // The slot is recyclable again.
        let b = pool.alloc(pkt(1));
        assert_eq!(b, a);
        assert!(!pool.is_poisoned(b));
    }

    #[test]
    fn delivered_packets_are_not_poison_released() {
        let mut pool = PacketPool::new();
        let a = pool.alloc(pkt(1));
        pool.note_flit_created(a);
        pool.note_flit_gone(a); // consumed at destination, not poisoned
        assert_eq!(pool.live(), 1, "normal delivery releases explicitly");
        pool.release(a);
        assert_eq!(pool.live(), 0);
    }
}
