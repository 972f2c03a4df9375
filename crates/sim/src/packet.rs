//! Packets, flits, and the packet arena.
//!
//! Flits are tiny `Copy` values carrying only their packet id and position;
//! per-packet metadata lives in a slab-style [`PacketPool`] whose slots are
//! recycled after ejection, so steady-state simulations allocate nothing on
//! the hot path.
//!
//! A slot is one 64-byte record: the packet, its reference count and its
//! alive/poisoned flags. The per-cycle allocation scan does not read the
//! pool at all — a router's `Head` list carries its own copy of the
//! routing fields (birth, route state, destination router, length) — so
//! the pool is touched only when a head is listed, a route is committed,
//! or a packet is injected, delivered or dropped.

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

/// Per-packet metadata (56 bytes).
#[derive(Clone, Debug)]
pub struct Packet {
    /// Source terminal.
    pub(crate) src: u32,
    /// Destination terminal.
    pub(crate) dst: u32,
    /// Destination router (cached from the topology at creation).
    pub(crate) dst_router: u32,
    /// Length in flits.
    pub len: u16,
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

/// One pool slot: a packet and its bookkeeping, one cache line.
struct Slot {
    pkt: Packet,
    /// References in the network: materialized flits plus holder
    /// structures (see [`PacketPool::note_flit_created`]).
    refs: u32,
    alive: bool,
    poisoned: bool,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 64);

/// Slab allocator for in-flight packets.
///
/// Fault support: a packet struck by a link failure is *poisoned* rather
/// than freed — its flits may still sit in buffers, crossbars, and
/// wires, and the slot must not be recycled while any of them reference
/// it. Every materialized flit is counted ([`Self::note_flit_created`] /
/// [`Self::note_flit_gone`]); the slot is released automatically when the
/// last flit of a poisoned packet is discarded or consumed.
///
/// Determinism note: the free list is LIFO and its order is
/// simulation-visible (PacketIds feed age-arbitration salt tie-breaks).
#[derive(Default)]
pub struct PacketPool {
    slots: Vec<Slot>,
    free: Vec<PacketId>,
    live: usize,
    num_poisoned: usize,
}

impl PacketPool {
    /// Creates an empty pool.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Allocates a packet, reusing the most recently retired slot when
    /// possible. A full pool grows by a quarter (at least 8 slots), not by
    /// doubling, so it stays near the peak count of packets alive at once.
    pub(crate) fn alloc(&mut self, pkt: Packet) -> PacketId {
        let slot = Slot {
            pkt,
            refs: 0,
            alive: true,
            poisoned: false,
        };
        self.live += 1;
        if let Some(id) = self.free.pop() {
            debug_assert!(!self.slots[id as usize].poisoned);
            self.slots[id as usize] = slot;
            id
        } else {
            if self.slots.len() == self.slots.capacity() {
                self.slots.reserve_exact((self.slots.len() / 4).max(8));
            }
            self.slots.push(slot);
            (self.slots.len() - 1) as PacketId
        }
    }

    /// Read access to a live packet.
    #[inline]
    pub(crate) fn get(&self, id: PacketId) -> &Packet {
        &self.slots[id as usize].pkt
    }

    /// Write access to a live packet.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        &mut self.slots[id as usize].pkt
    }

    /// Retires a packet after its tail flit is consumed at the destination.
    pub(crate) fn release(&mut self, id: PacketId) {
        let slot = &mut self.slots[id as usize];
        debug_assert!(self.live > 0);
        debug_assert!(slot.alive, "double release of packet {id}");
        self.live -= 1;
        slot.alive = false;
        if slot.poisoned {
            slot.poisoned = false;
            self.num_poisoned -= 1;
        }
        self.free.push(id);
    }

    /// Marks a packet as struck by a fault. Returns `true` the first time
    /// (callers count the packet drop then). If none of its flits are
    /// materialized anywhere, the slot is released immediately; otherwise
    /// it is held until the last flit is discarded.
    pub(crate) fn poison(&mut self, id: PacketId) -> bool {
        let slot = &mut self.slots[id as usize];
        if !slot.alive || slot.poisoned {
            return false;
        }
        slot.poisoned = true;
        self.num_poisoned += 1;
        if slot.refs == 0 {
            self.release(id);
        }
        true
    }

    /// Whether `id` is a poisoned, not-yet-drained packet.
    #[inline]
    pub(crate) fn is_poisoned(&self, id: PacketId) -> bool {
        self.slots[id as usize].poisoned
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
        self.slots[id as usize].refs += 1;
    }

    /// Records that a reference to `id` left the network (flit consumed at
    /// the destination or discarded by fault fallout; holder structure
    /// dismantled). Releases the slot when the last reference to a
    /// poisoned packet disappears.
    pub(crate) fn note_flit_gone(&mut self, id: PacketId) {
        let slot = &mut self.slots[id as usize];
        debug_assert!(slot.refs > 0, "flit refcount underflow");
        slot.refs -= 1;
        if slot.refs == 0 && slot.poisoned {
            self.release(id);
        }
    }

    /// Number of packets currently alive inside the network or queues.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Iterates live packets (watchdog diagnostics). The `()` third field
    /// only keeps the benchmark crate's three-field destructuring
    /// compiling; drop it when the benchmark next changes.
    pub fn live_packets(&self) -> impl Iterator<Item = (PacketId, &Packet, ())> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, s)| (i as PacketId, &s.pkt, ()))
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
    fn scripted_run_pins_the_id_sequence() {
        // Recycled ids feed the age-arbitration tie-break salt, so the
        // order the free list hands slots back is simulation-visible: it
        // must be LIFO, and a poisoned slot freed by its last reference
        // must rejoin the free list at that moment.
        let mut pool = PacketPool::new();
        let mut ids = Vec::new();
        for len in 1..=4 {
            ids.push(pool.alloc(pkt(len)));
        }
        pool.note_flit_created(ids[1]);
        pool.note_flit_created(ids[3]);
        pool.release(ids[0]);
        assert!(pool.poison(ids[1]), "held by one flit");
        pool.release(ids[2]);
        assert!(pool.poison(ids[3]), "held by one flit");
        pool.note_flit_gone(ids[1]); // last reference: 1 is freed now
        ids.extend((0..3).map(|_| pool.alloc(pkt(1))));
        pool.note_flit_gone(ids[3]);
        ids.extend((0..3).map(|_| pool.alloc(pkt(1))));
        assert_eq!(ids, [0, 1, 2, 3, 1, 2, 0, 3, 4, 5]);
        assert_eq!(pool.live(), 6);
        assert!(!pool.any_poisoned());
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
        assert_eq!(pool.slots.len(), 2, "slot high-water grew");
        assert_eq!(pool.get(b).len, 8);
        assert_eq!(pool.get(c).len, 2);
    }

    /// A full pool grows by a quarter of its length, at least 8 slots.
    #[test]
    fn a_full_pool_grows_by_a_quarter() {
        let mut pool = PacketPool::new();
        let mut caps = Vec::new();
        for _ in 0..100 {
            pool.alloc(pkt(1));
            if caps.last() != Some(&pool.slots.capacity()) {
                caps.push(pool.slots.capacity());
            }
        }
        assert_eq!(caps, [8, 16, 24, 32, 40, 50, 62, 77, 96, 120]);
    }

    #[test]
    fn get_mut_updates_state() {
        let mut pool = PacketPool::new();
        let a = pool.alloc(pkt(4));
        pool.get_mut(a).hops = 3;
        assert_eq!(pool.get(a).hops, 3);
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
