//! Network terminals: packet sources (injection queue feeding the attached
//! router at one flit per cycle under credit flow control) and sinks
//! (immediate consumption with instant credit return).

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::channel::Channel;
use crate::config::SimConfig;
use crate::packet::{Flit, PacketId, PacketPool};
use crate::sink::{PoolOp, TickSink};
use crate::workload::Delivered;

/// One compute endpoint.
pub struct Terminal {
    id: usize,
    /// Generated packets waiting to enter the network.
    inj_q: VecDeque<PacketId>,
    /// Packet currently being serialized onto the wire:
    /// (packet, next flit index, claimed VC).
    cur: Option<(PacketId, u16, u8)>,
    /// Credits for the attached router's input buffers, per VC.
    credits: Vec<u32>,
    /// Router input-buffer depth per VC (atomic allocation needs to know
    /// when a VC is completely empty).
    buf_cap: u32,
    /// Atomic queue allocation (Section 4.2): injection, like the routers'
    /// `pick_vc`, may only claim a completely empty VC.
    atomic: bool,
    /// Channel toward the router (injection).
    pub(crate) out_chan: usize,
    /// Channel from the router (ejection).
    pub(crate) in_chan: usize,
    rng: SmallRng,
}

impl Terminal {
    /// Creates terminal `id` wired to `out_chan` / `in_chan`.
    pub fn new(id: usize, cfg: &SimConfig, out_chan: usize, in_chan: usize, seed: u64) -> Self {
        Terminal {
            id,
            inj_q: VecDeque::new(),
            cur: None,
            credits: vec![cfg.buf_flits as u32; cfg.num_vcs],
            buf_cap: cfg.buf_flits as u32,
            atomic: cfg.atomic_queue_alloc,
            out_chan,
            in_chan,
            rng: SmallRng::seed_from_u64(
                seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(id as u64 + 1),
            ),
        }
    }

    /// Terminal id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Packets waiting (plus the one in flight) at this source.
    pub fn queued(&self) -> usize {
        self.inj_q.len() + usize::from(self.cur.is_some())
    }

    /// Enqueues a freshly allocated packet for injection.
    pub fn enqueue(&mut self, pkt: PacketId) {
        self.inj_q.push_back(pkt);
    }

    /// Event engine: whether this terminal must tick next cycle. An active
    /// terminal (serializing or with queued packets) draws randomness and
    /// may send a flit every cycle; an inactive one only reacts to arrivals
    /// (flits to eject, credits to absorb), which arrival wakes cover —
    /// absorbed credits alone never create work without a queued packet.
    pub(crate) fn is_active(&self) -> bool {
        self.cur.is_some() || !self.inj_q.is_empty()
    }

    /// One simulation cycle's compute phase: absorb credits, consume
    /// arriving flits (recording deliveries), and push at most one flit
    /// into the network. Like `Router::tick`, reads the pre-cycle channel
    /// and pool state and defers all shared-state effects into `sink`.
    pub(crate) fn tick(
        &mut self,
        now: u64,
        pool: &PacketPool,
        channels: &[Channel],
        sink: &mut TickSink,
    ) {
        // Returning credits from the router.
        for vc in channels[self.out_chan].arrived_credits(now) {
            self.credits[vc as usize] += 1;
        }

        // Ejection: consume everything that arrived; credits go straight
        // back (the terminal is an infinite sink).
        for (flit, vc) in channels[self.in_chan].arrived_flits(now) {
            sink.credits.push((self.in_chan, vc));
            sink.stats.flit_moves += 1;
            if flit.is_tail() && !pool.is_poisoned(flit.pkt) {
                let hot = pool.hot(flit.pkt);
                let cold = pool.cold(flit.pkt);
                debug_assert_eq!(hot.dst as usize, self.id, "misrouted packet");
                let latency = now - hot.birth;
                let net_latency = now - cold.inject;
                sink.stats
                    .record_delivery(latency, net_latency, hot.hops, hot.len);
                sink.delivered.push(Delivered {
                    src: cold.src,
                    dst: hot.dst,
                    len: hot.len,
                    tag: cold.tag,
                    birth: hot.birth,
                    inject: cold.inject,
                    latency,
                    net_latency,
                    hops: hot.hops,
                    seq: cold.seq,
                });
                sink.pool_ops.push(PoolOp::Gone(flit.pkt));
                sink.pool_ops.push(PoolOp::Release(flit.pkt));
            } else {
                // Body flit, or the remnant of a fault-killed packet.
                sink.pool_ops.push(PoolOp::Gone(flit.pkt));
            }
        }

        // Injection: claim a VC for the next packet if idle (virtual
        // cut-through: reserve credits for the whole packet; under atomic
        // queue allocation the VC must be completely empty, matching the
        // routers' `pick_vc`), then send one flit per cycle.
        if self.cur.is_none() {
            if let Some(&pkt_id) = self.inj_q.front() {
                let len = pool.hot(pkt_id).len as u32;
                // Most-credits VC that can hold the whole packet; random
                // tie-break across fully-idle VCs avoids biasing VC 0.
                let mut best: Option<(u32, u32, usize)> = None;
                for (vc, &cr) in self.credits.iter().enumerate() {
                    let ok = if self.atomic {
                        cr == self.buf_cap
                    } else {
                        cr >= len
                    };
                    if ok {
                        let salt = rand::RngExt::random::<u32>(&mut self.rng);
                        if best.is_none_or(|(b, s, _)| (cr, salt) > (b, s)) {
                            best = Some((cr, salt, vc));
                        }
                    }
                }
                if let Some((_, _, vc)) = best {
                    self.inj_q.pop_front();
                    self.credits[vc] -= len;
                    self.cur = Some((pkt_id, 0, vc as u8));
                    sink.pool_ops.push(PoolOp::Inject {
                        pkt: pkt_id,
                        cycle: now,
                    });
                    // The in-progress injection pins the packet slot.
                    sink.pool_ops.push(PoolOp::Created(pkt_id));
                }
            }
        }
        // A full LLR replay window on the injection link holds the flit
        // for a cycle; `is_active` keeps the terminal awake until the
        // window reopens.
        if channels[self.out_chan].ready_for_flit() {
            if let Some((pkt_id, idx, vc)) = self.cur {
                let len = pool.hot(pkt_id).len;
                let flit = Flit {
                    pkt: pkt_id,
                    idx,
                    len,
                };
                sink.pool_ops.push(PoolOp::Created(pkt_id));
                sink.flits.push((self.out_chan, flit, vc));
                sink.stats.record_injection();
                sink.stats.flit_moves += 1;
                if flit.is_tail() {
                    self.cur = None;
                    sink.pool_ops.push(PoolOp::Gone(pkt_id)); // drop the injection pin
                } else {
                    self.cur = Some((pkt_id, idx + 1, vc));
                }
            }
        }
    }

    /// Fault fallout: abandons an in-progress injection whose packet was
    /// poisoned, refunding the credit reservation for the unsent flits.
    /// (Flits already sent return their credits through the router.)
    pub(crate) fn reap_poisoned(&mut self, pool: &mut PacketPool) {
        if let Some((pkt_id, idx, vc)) = self.cur {
            if pool.is_poisoned(pkt_id) {
                let len = pool.hot(pkt_id).len;
                self.credits[vc as usize] += (len - idx) as u32;
                self.cur = None;
                pool.note_flit_gone(pkt_id); // drop the injection pin
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn mk_pkt(len: u16) -> Packet {
        Packet {
            src: 0,
            dst: 0,
            dst_router: 0,
            len,
            hops: 0,
            birth: 0,
            inject: u64::MAX,
            route: Default::default(),
            tag: 0,
            seq: 0,
        }
    }

    fn cfg(atomic: bool) -> SimConfig {
        SimConfig {
            num_vcs: 1,
            buf_flits: 16,
            atomic_queue_alloc: atomic,
            ..SimConfig::default()
        }
    }

    /// Runs `term` for one cycle and reports whether it put a flit on the
    /// wire.
    fn tick_once(term: &mut Terminal, now: u64, pool: &PacketPool, channels: &[Channel]) -> bool {
        let mut sink = TickSink::default();
        sink.reset(false, false, false);
        term.tick(now, pool, channels, &mut sink);
        !sink.flits.is_empty()
    }

    /// Regression for the Section 4.2 atomic-queue-allocation contract at
    /// the injection side: a terminal may only claim a VC whose downstream
    /// buffer is *completely empty* (all credits present), exactly like the
    /// routers' `pick_vc`. A partially-credited VC that could hold the
    /// packet must be refused under atomic allocation (and accepted
    /// without it).
    #[test]
    fn atomic_injection_requires_fully_credited_vc() {
        for atomic in [false, true] {
            let mut pool = PacketPool::new();
            let p1 = pool.alloc(mk_pkt(4));
            let p2 = pool.alloc(mk_pkt(4));
            let channels = vec![Channel::new(1), Channel::new(1)];
            let c = cfg(atomic);
            let mut term = Terminal::new(0, &c, 0, 1, 1);
            term.enqueue(p1);
            term.enqueue(p2);

            // Serialize the first packet fully: 4 flits over cycles 0..4.
            for now in 0..4 {
                assert!(tick_once(&mut term, now, &pool, &channels));
            }
            assert_eq!(term.credits[0], 12, "4 credits reserved, none returned");

            // The single VC is only partially credited (12 of 16): atomic
            // allocation must refuse the second packet, non-atomic takes it.
            let sent = tick_once(&mut term, 4, &pool, &channels);
            assert_eq!(
                sent, !atomic,
                "atomic={atomic}: injection into a partially-credited VC"
            );

            if atomic {
                // Returning only part of the reservation is not enough.
                let mut ch = Channel::new(1);
                for _ in 0..2 {
                    ch.send_credit(4, 0);
                }
                let channels = vec![ch, Channel::new(1)];
                assert!(!tick_once(&mut term, 5, &pool, &channels));
                assert_eq!(term.credits[0], 14);
                // Once every credit is home the claim goes through.
                let mut ch = Channel::new(1);
                for _ in 0..2 {
                    ch.send_credit(5, 0);
                }
                let channels = vec![ch, Channel::new(1)];
                assert!(tick_once(&mut term, 6, &pool, &channels));
                assert_eq!(term.credits[0], 12, "whole-packet reservation taken");
            }
        }
    }
}
