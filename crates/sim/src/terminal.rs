//! Network terminals: packet sources (injection queue feeding the attached
//! router at one flit per cycle under credit flow control) and sinks
//! (immediate consumption, each flit's credit sent straight back).

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::config::SimConfig;
use crate::network::TickCtx;
use crate::packet::{Flit, PacketId, PacketPool};
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
    pub(crate) fn new(
        id: usize,
        cfg: &SimConfig,
        out_chan: usize,
        in_chan: usize,
        seed: u64,
    ) -> Self {
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
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// Packets waiting (plus the one in flight) at this source.
    pub(crate) fn queued(&self) -> usize {
        self.inj_q.len() + usize::from(self.cur.is_some())
    }

    /// Enqueues a freshly allocated packet for injection.
    pub(crate) fn enqueue(&mut self, pkt: PacketId) {
        self.inj_q.push_back(pkt);
    }

    /// Event engine: whether this terminal must tick next cycle. An active
    /// terminal (serializing or with queued packets) draws randomness and
    /// may send a flit every cycle; an inactive one only reacts to flits
    /// to eject, which arrival wakes cover. Returning credits wake nobody:
    /// they create no work without a queued packet.
    pub(crate) fn is_active(&self) -> bool {
        self.cur.is_some() || !self.inj_q.is_empty()
    }

    /// Absorbs one returning credit for the router's input VC `vc` (the
    /// credit wheel applies it before the cycle's first tick).
    #[inline]
    pub(crate) fn absorb_credit(&mut self, vc: u8) {
        self.credits[vc as usize] += 1;
        debug_assert!(self.credits[vc as usize] <= self.buf_cap, "credit overflow");
    }

    /// Credits held for the router's input VC `vc` (invariant support).
    pub(crate) fn credits(&self, vc: usize) -> u32 {
        self.credits[vc]
    }

    /// Flits of the packet being injected on VC `vc` not yet sent: the
    /// part of its whole-packet credit reservation still at the terminal
    /// (invariant support).
    pub(crate) fn unsent_on(&self, vc: usize, pool: &PacketPool) -> usize {
        self.cur
            .filter(|&(_, _, v)| v as usize == vc)
            .map_or(0, |(pkt, idx, _)| (pool.get(pkt).len - idx) as usize)
    }

    /// One simulation cycle: consume arriving flits (recording
    /// deliveries), and push at most one flit into the network. Like
    /// `Router::tick`, writes every effect straight into `ctx`.
    pub(crate) fn tick(&mut self, ctx: &mut TickCtx) {
        let now = ctx.now;
        // Ejection: consume everything that arrived; credits go straight
        // back (the terminal is an infinite sink).
        while let Some((flit, vc)) = ctx.channels[self.in_chan].pop_flit(ctx.wire, now) {
            ctx.send_credit(self.in_chan, vc);
            ctx.stats.flit_moves += 1;
            let pool = &mut *ctx.pool;
            if flit.is_tail() && !pool.is_poisoned(flit.pkt) {
                let p = pool.get(flit.pkt);
                debug_assert_eq!(p.dst as usize, self.id, "misrouted packet");
                let latency = now - p.birth;
                let net_latency = now - p.inject;
                ctx.stats
                    .record_delivery(latency, net_latency, p.hops, p.len);
                ctx.delivered.push(Delivered {
                    src: p.src,
                    dst: p.dst,
                    len: p.len,
                    tag: p.tag,
                    birth: p.birth,
                    inject: p.inject,
                    latency,
                    net_latency,
                    hops: p.hops,
                    seq: p.seq,
                });
                pool.note_flit_gone(flit.pkt);
                pool.release(flit.pkt);
            } else {
                // Body flit, or the remnant of a fault-killed packet.
                pool.note_flit_gone(flit.pkt);
            }
        }

        // Injection: claim a VC for the next packet if idle (virtual
        // cut-through: reserve credits for the whole packet; under atomic
        // queue allocation the VC must be completely empty, matching the
        // routers' `pick_vc`), then send one flit per cycle.
        if self.cur.is_none() {
            if let Some(&pkt_id) = self.inj_q.front() {
                let len = ctx.pool.get(pkt_id).len as u32;
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
                    ctx.pool.get_mut(pkt_id).inject = now;
                    // The in-progress injection pins the packet slot.
                    ctx.pool.note_flit_created(pkt_id);
                }
            }
        }
        // A full LLR replay window on the injection link holds the flit
        // for a cycle; `is_active` keeps the terminal awake until the
        // window reopens.
        if ctx.channels[self.out_chan].ready_for_flit() {
            if let Some((pkt_id, idx, vc)) = self.cur {
                let len = ctx.pool.get(pkt_id).len;
                let flit = Flit {
                    pkt: pkt_id,
                    idx,
                    len,
                };
                ctx.pool.note_flit_created(pkt_id);
                ctx.send_flit(self.out_chan, flit, vc);
                ctx.stats.record_injection();
                ctx.stats.flit_moves += 1;
                if flit.is_tail() {
                    self.cur = None;
                    ctx.pool.note_flit_gone(pkt_id); // drop the injection pin
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
                let len = pool.get(pkt_id).len;
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
    use crate::channel::{Channel, WireSlab};
    use crate::credit::CreditWheel;
    use crate::packet::Packet;
    use crate::stats::Stats;

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
    fn tick_once(
        term: &mut Terminal,
        now: u64,
        pool: &mut PacketPool,
        (channels, wire): (&mut [Channel], &mut WireSlab),
    ) -> bool {
        let sent = channels[term.out_chan].flits_sent();
        term.tick(&mut TickCtx {
            now,
            channels,
            wire,
            xbar: &mut crate::xbar::XbarFifo::new(0),
            pool,
            stats: &mut Stats::default(),
            delivered: &mut Vec::new(),
            trace: None,
            metrics: None,
            hop_capped: &mut Vec::new(),
            lost: &mut Vec::new(),
            timed: false,
            timers: Default::default(),
            wakes: None,
            llr_due: None,
            credits: &mut CreditWheel::from_cycle(now, 1),
        });
        channels[term.out_chan].flits_sent() > sent
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
            let mut channels = vec![Channel::new(1), Channel::new(1)];
            let mut wire = WireSlab::new();
            let c = cfg(atomic);
            let mut term = Terminal::new(0, &c, 0, 1, 1);
            term.enqueue(p1);
            term.enqueue(p2);

            // Serialize the first packet fully: 4 flits over cycles 0..4.
            for now in 0..4 {
                assert!(tick_once(
                    &mut term,
                    now,
                    &mut pool,
                    (&mut channels, &mut wire)
                ));
            }
            assert_eq!(term.credits[0], 12, "4 credits reserved, none returned");

            // The single VC is only partially credited (12 of 16): atomic
            // allocation must refuse the second packet, non-atomic takes it.
            let sent = tick_once(&mut term, 4, &mut pool, (&mut channels, &mut wire));
            assert_eq!(
                sent, !atomic,
                "atomic={atomic}: injection into a partially-credited VC"
            );

            if atomic {
                // Returning only part of the reservation is not enough.
                for _ in 0..2 {
                    term.absorb_credit(0);
                }
                assert!(!tick_once(
                    &mut term,
                    5,
                    &mut pool,
                    (&mut channels, &mut wire)
                ));
                assert_eq!(term.credits[0], 14);
                // Once every credit is home the claim goes through.
                for _ in 0..2 {
                    term.absorb_credit(0);
                }
                assert!(tick_once(
                    &mut term,
                    6,
                    &mut pool,
                    (&mut channels, &mut wire)
                ));
                assert_eq!(term.credits[0], 12, "whole-packet reservation taken");
            }
        }
    }
}
