//! The credit wheel: every returning credit in the network, in one place.
//!
//! Credit-based flow control sends a credit back for every flit that
//! leaves a buffer, and the credit rides the reverse direction of the
//! flit's channel with the channel's latency. A credit's only effect is
//! `+1` on a counter at the channel's sending end, read by that endpoint's
//! own allocation or injection. So credits are not wire traffic here: a
//! send pushes `(channel, vc)` onto the wheel row of the cycle it matures,
//! and [`CreditWheel::settle`] applies every matured row as counter
//! increments through a per-channel sink table — before any endpoint
//! ticks that cycle. No endpoint wakes for a credit, and increments
//! commute, so the order entries sit in a row is immaterial.

use crate::channel::Channel;
use hxcore::MAX_VCS;

/// Who absorbs a channel's returning credits: the channel's sending
/// endpoint, by id (routers `0..nr`, then terminals), and for a router the
/// output port it sends on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct CreditSink {
    pub(crate) endpoint: u32,
    pub(crate) port: u32,
}

/// Bits of an entry's key that hold the VC: enough for [`MAX_VCS`].
const VC_BITS: u32 = 6;
const _: () = assert!(MAX_VCS <= 1 << VC_BITS);

/// The channels an entry's key can name, above its VC bits in a `u32`.
/// `Network::new` asserts fewer.
pub(crate) const MAX_CHANNELS: usize = 1 << (32 - VC_BITS);

/// One credit in flight (4 bytes in release builds): its channel and VC
/// packed as `channel << 6 | vc`.
#[derive(Clone, Copy, Debug)]
struct Entry {
    key: u32,
    /// Debug builds: the cycle it matures, which its row must say too.
    #[cfg(debug_assertions)]
    at: u64,
}

#[cfg(not(debug_assertions))]
const _: () = assert!(std::mem::size_of::<Entry>() == 4);

impl Entry {
    /// The channel the credit returns over.
    #[inline]
    fn ch(self) -> usize {
        (self.key >> VC_BITS) as usize
    }

    /// The VC it frees.
    #[inline]
    fn vc(self) -> u8 {
        (self.key & ((1 << VC_BITS) - 1)) as u8
    }
}

/// Every returning credit in flight, filed by the cycle it matures.
pub(crate) struct CreditWheel {
    /// Row `c % rows.len()` holds the credits maturing at cycle `c`, for
    /// the cycles `next..next + rows.len()`. There are `max latency + 1`
    /// rows, so a send at or after `next` never lands in a row that is
    /// still due. Rows keep their capacity: the steady state allocates
    /// nothing.
    rows: Vec<Vec<Entry>>,
    /// First cycle not yet settled.
    next: u64,
    /// Per channel: the endpoint its credits return to.
    sinks: Vec<CreditSink>,
}

impl CreditWheel {
    /// A wheel for channels whose latencies are at most `max_latency`,
    /// returning each channel's credits to `sinks[channel]`.
    pub(crate) fn new(max_latency: u64, sinks: Vec<CreditSink>) -> Self {
        CreditWheel {
            rows: (0..=max_latency).map(|_| Vec::new()).collect(),
            next: 0,
            sinks,
        }
    }

    /// Test support: an empty wheel with no sinks whose first unsettled
    /// cycle is `now`, for driving one endpoint by hand at `now`.
    #[cfg(test)]
    pub(crate) fn from_cycle(now: u64, max_latency: u64) -> Self {
        let mut w = CreditWheel::new(max_latency, Vec::new());
        w.next = now;
        w
    }

    /// Returns one credit for `vc` over channel `ch` (`chan`) at cycle
    /// `now`: it matures one channel latency later. A credit sent into a
    /// dead channel is dropped; revival rebuilds the sender's credits from
    /// the receiver's occupancy.
    #[inline]
    pub(crate) fn send(&mut self, now: u64, ch: usize, chan: &Channel, vc: u8) {
        if !chan.is_alive() {
            return;
        }
        let at = now + chan.latency();
        debug_assert!(
            (self.next..self.next + self.rows.len() as u64).contains(&at),
            "credit sent at cycle {now} matures at {at}, outside the wheel's turn from {}",
            self.next
        );
        let row = (at % self.rows.len() as u64) as usize;
        debug_assert!(ch < MAX_CHANNELS && usize::from(vc) < MAX_VCS);
        self.rows[row].push(Entry {
            key: (ch as u32) << VC_BITS | u32::from(vc),
            #[cfg(debug_assertions)]
            at,
        });
    }

    /// Applies every credit maturing at or before `through` to its sink,
    /// `apply(sink, vc)`, and empties those rows. Every pending credit
    /// matures inside one turn of the wheel from `next`, so a span longer
    /// than the wheel walks each row once.
    pub(crate) fn settle(&mut self, through: u64, mut apply: impl FnMut(CreditSink, u8)) {
        let end = through + 1;
        if end <= self.next {
            return;
        }
        let n = self.rows.len() as u64;
        for c in self.next..end.min(self.next + n) {
            for e in self.rows[(c % n) as usize].drain(..) {
                #[cfg(debug_assertions)]
                assert_eq!(
                    e.at, c,
                    "credit wheel: a credit maturing at cycle {} sat in cycle {c}'s row",
                    e.at
                );
                apply(self.sinks[e.ch()], e.vc());
            }
        }
        self.next = end;
    }

    /// Drops every credit in flight on channel `ch` (the channel died).
    pub(crate) fn purge(&mut self, ch: usize) {
        for row in &mut self.rows {
            row.retain(|e| e.ch() != ch);
        }
    }

    /// Whether no credit is in flight.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.iter().all(Vec::is_empty)
    }

    /// Every credit in flight as `(channel, vc)`, in no particular order
    /// (invariant support).
    pub(crate) fn in_flight(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.rows.iter().flatten().map(|e| (e.ch(), e.vc()))
    }

    /// Debug builds: every credit in flight matures after `now`, in the
    /// row of its own cycle — what [`Self::settle`] through `now` leaves
    /// behind. Returns the first violation.
    #[cfg(debug_assertions)]
    pub(crate) fn audit(&self, now: u64) -> Result<(), String> {
        let n = self.rows.len() as u64;
        for (row, entries) in self.rows.iter().enumerate() {
            if let Some(e) = entries
                .iter()
                .find(|e| e.at <= now || e.at % n != row as u64)
            {
                return Err(format!(
                    "channel {} vc {} credit maturing at cycle {} sits in row {row} at cycle {now}",
                    e.ch(),
                    e.vc(),
                    e.at
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Channel 0 returns credits to router 4's port 2, channel 1 to
    /// terminal endpoint 9.
    fn wheel(max_latency: u64) -> CreditWheel {
        let sinks = vec![
            CreditSink {
                endpoint: 4,
                port: 2,
            },
            CreditSink {
                endpoint: 9,
                port: 0,
            },
        ];
        CreditWheel::new(max_latency, sinks)
    }

    /// Settles through `through` and lists what was applied.
    fn settle(w: &mut CreditWheel, through: u64) -> Vec<(u32, u32, u8)> {
        let mut got = Vec::new();
        w.settle(through, |s, vc| got.push((s.endpoint, s.port, vc)));
        got.sort_unstable();
        got
    }

    #[test]
    fn credits_flow_backwards_with_latency() {
        let mut w = wheel(7);
        let ch = Channel::new(7);
        w.send(0, 0, &ch, 3);
        assert!(!w.is_empty());
        assert!(settle(&mut w, 6).is_empty(), "applied early");
        assert_eq!(settle(&mut w, 7), vec![(4, 2, 3)]);
        assert!(w.is_empty());
    }

    /// Credits on two channels of different latencies, settled in one
    /// span that covers more than a whole turn of the wheel (a dead-cycle
    /// skip): each reaches its own sink exactly once.
    #[test]
    fn a_long_span_settles_every_credit_once() {
        let mut w = wheel(5);
        let (slow, fast) = (Channel::new(5), Channel::new(2));
        w.settle(9, |_, _| unreachable!("nothing sent yet"));
        w.send(10, 0, &slow, 1);
        w.send(10, 1, &fast, 6);
        w.send(10, 1, &fast, 6);
        assert_eq!(w.in_flight().count(), 3);
        assert_eq!(settle(&mut w, 100), vec![(4, 2, 1), (9, 0, 6), (9, 0, 6)]);
        assert!(w.is_empty());
        // The wheel turns on from the settled cycle.
        w.send(101, 0, &slow, 0);
        assert!(settle(&mut w, 105).is_empty());
        assert_eq!(settle(&mut w, 106), vec![(4, 2, 0)]);
    }

    #[test]
    fn dead_channels_drop_and_purge_their_credits() {
        let mut w = wheel(3);
        let mut ch = Channel::new(3);
        w.send(0, 0, &ch, 2);
        w.send(0, 1, &Channel::new(3), 1);
        ch.kill(&mut crate::channel::WireSlab::new(), &mut Vec::new());
        w.purge(0);
        assert_eq!(w.in_flight().collect::<Vec<_>>(), vec![(1, 1)]);
        // Sends into the dead channel are dropped.
        w.send(1, 0, &ch, 0);
        assert_eq!(settle(&mut w, 100), vec![(9, 0, 1)]);
        ch.revive();
        w.send(101, 0, &ch, 0);
        assert_eq!(settle(&mut w, 104), vec![(4, 2, 0)]);
    }

    /// The highest channel the key can name, with the highest VC, keeps
    /// both fields, next to a credit on channel 0: neither bleeds into the
    /// other, and a purge of the one leaves the other.
    #[test]
    fn the_key_holds_the_last_channel_and_vc() {
        let mut w = CreditWheel::from_cycle(0, 3);
        let last = MAX_CHANNELS - 1;
        let ch = Channel::new(3);
        w.send(0, last, &ch, 63);
        w.send(0, 0, &ch, 63);
        w.send(0, last, &ch, 0);
        let mut got: Vec<_> = w.in_flight().collect();
        got.sort_unstable();
        assert_eq!(got, [(0, 63), (last, 0), (last, 63)]);
        w.purge(last);
        assert_eq!(w.in_flight().collect::<Vec<_>>(), [(0, 63)]);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn audit_passes_settled_wheels_only() {
        let mut w = wheel(4);
        w.send(0, 0, &Channel::new(4), 0);
        assert_eq!(w.audit(3), Ok(()));
        let err = w.audit(4).expect_err("matured, unsettled");
        assert!(err.contains("maturing at cycle 4"), "{err}");
        settle(&mut w, 4);
        assert_eq!(w.audit(4), Ok(()));
    }
}
