//! Source-retransmission transport: end-to-end reliability on top of the
//! lossy fault-injected network.
//!
//! When enabled (`SimConfig::retransmit_timeout > 0`), every logical
//! packet injected by the workload is tracked by a monotonically
//! increasing sequence number until its first delivery. A packet that is
//! not delivered within its timeout is re-sent from the source terminal
//! with capped exponential backoff (`timeout << attempt`, bounded by
//! `SimConfig::effective_backoff_cap`) up to
//! `SimConfig::retransmit_max_retries` times; after the final timeout
//! expires undelivered the packet is *abandoned* (the transport stops
//! resending, but a straggling copy that arrives later still counts as
//! delivered). The receiver side suppresses duplicates by (source,
//! sequence) tracking: only the first copy of a sequence reaches
//! [`Workload::on_delivered`](crate::Workload::on_delivered); later
//! copies are counted in [`TransportStats::duplicates_dropped`].
//!
//! Timeouts are the only loss signal — sources are never told a fault
//! poisoned their packet, exactly like a real NIC. A retransmitted copy
//! races the original: if the original was merely slow (e.g. parked
//! inside a dead router until revival), both arrive and one is dropped as
//! a duplicate, which is why duplicate suppression is load-bearing and
//! not just an accounting nicety.
//!
//! All transport work happens in the serial sections of
//! [`Sim::step`](crate::Sim::step) (pre-cycle pumping, post-tick delivery
//! filtering), and the pending set is iterated in sequence order, so the
//! transport preserves the simulator's bit-identical-across-engines
//! guarantee by construction.

use std::collections::{BTreeMap, HashSet};

use crate::config::SimConfig;
use crate::metrics::LogHist;
use crate::workload::{Delivered, PacketDesc};

/// One tracked logical packet awaiting its first delivery.
#[derive(Clone, Copy, Debug)]
struct Pending {
    desc: PacketDesc,
    /// Cycle the logical packet was first enqueued.
    birth: u64,
    /// Retransmissions already sent.
    attempts: u32,
    /// Cycle the next timeout fires (`u64::MAX` once abandoned).
    deadline: u64,
}

/// Transport counters and the recovery-latency histogram, exposed through
/// [`Sim::transport_stats`](crate::Sim::transport_stats) and (as a summary
/// row) through `hxsim::metrics`.
#[derive(Clone, Debug, Default)]
pub struct TransportStats {
    /// Logical packets accepted from the workload.
    pub(crate) logical_sent: u64,
    /// Logical packets delivered at least once.
    pub(crate) logical_delivered: u64,
    /// Retransmitted copies injected.
    pub(crate) retransmits: u64,
    /// Flits those copies added to the network (goodput overhead).
    pub(crate) retransmitted_flits: u64,
    /// Deliveries suppressed because their sequence had already arrived.
    pub(crate) duplicates_dropped: u64,
    /// Packets the transport gave up on (retry budget exhausted). A
    /// straggling copy may still arrive and count as delivered.
    pub(crate) abandoned: u64,
    /// Packets delivered after at least one retransmission.
    pub(crate) recovered: u64,
    /// Cycle of the most recent such recovery (0 if none).
    pub(crate) last_recovery_cycle: u64,
    /// End-to-end latency (first enqueue to first delivery) of recovered
    /// packets.
    pub(crate) recovery_latency: LogHist,
}

/// Deterministic summary row of [`TransportStats`], embedded in
/// [`MetricsSummary`](crate::MetricsSummary) when the transport is active.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct TransportSummary {
    /// Logical packets accepted from the workload.
    pub logical_sent: u64,
    /// Logical packets delivered at least once.
    pub logical_delivered: u64,
    /// Retransmitted copies injected.
    pub retransmits: u64,
    /// Flits those copies added to the network.
    pub retransmitted_flits: u64,
    /// Deliveries suppressed as duplicates.
    pub duplicates_dropped: u64,
    /// Packets whose retry budget ran out.
    pub abandoned: u64,
    /// Packets delivered after at least one retransmission.
    pub recovered: u64,
    /// Cycle of the most recent recovery (0 if none).
    pub last_recovery_cycle: u64,
    /// Median recovery latency in cycles (0 with no recoveries).
    pub recovery_p50: f64,
    /// 99th-percentile recovery latency in cycles.
    pub recovery_p99: f64,
}

impl TransportStats {
    /// The serializable summary row.
    pub fn summary(&self) -> TransportSummary {
        TransportSummary {
            logical_sent: self.logical_sent,
            logical_delivered: self.logical_delivered,
            retransmits: self.retransmits,
            retransmitted_flits: self.retransmitted_flits,
            duplicates_dropped: self.duplicates_dropped,
            abandoned: self.abandoned,
            recovered: self.recovered,
            last_recovery_cycle: self.last_recovery_cycle,
            recovery_p50: self.recovery_latency.quantile(0.5),
            recovery_p99: self.recovery_latency.quantile(0.99),
        }
    }
}

/// The source-retransmission state machine, owned by
/// [`Sim`](crate::Sim) when `SimConfig::retransmit_enabled()`.
pub struct Transport {
    timeout: u64,
    backoff_cap: u64,
    max_retries: u32,
    /// Last assigned sequence number (0 is reserved for "no transport").
    next_seq: u64,
    /// Undelivered logical packets, in sequence order (deterministic
    /// pump iteration).
    pending: BTreeMap<u64, Pending>,
    /// Pending entries still scheduled for retransmission (deadline not
    /// `u64::MAX`).
    active: usize,
    /// Sequences delivered at least once (duplicate suppression).
    delivered: HashSet<u64>,
    /// Earliest active deadline — gates the pump scan.
    next_due: u64,
    /// Counters and histograms.
    pub(crate) stats: TransportStats,
}

impl Transport {
    /// Builds the transport from the simulator configuration. Panics if
    /// retransmission is disabled in `cfg`.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        assert!(cfg.retransmit_enabled(), "transport requires a timeout");
        Transport {
            timeout: cfg.retransmit_timeout,
            backoff_cap: cfg.effective_backoff_cap(),
            max_retries: cfg.retransmit_max_retries,
            next_seq: 0,
            pending: BTreeMap::new(),
            active: 0,
            delivered: HashSet::new(),
            next_due: u64::MAX,
            stats: TransportStats::default(),
        }
    }

    /// Backoff interval after `attempts` retransmissions: `timeout <<
    /// attempts`, capped.
    fn interval(&self, attempts: u32) -> u64 {
        Self::interval_of(self.timeout, self.backoff_cap, attempts)
    }

    fn interval_of(timeout: u64, cap: u64, attempts: u32) -> u64 {
        let mult = 1u64.checked_shl(attempts.min(63)).unwrap_or(u64::MAX);
        timeout.saturating_mul(mult).min(cap)
    }

    /// Registers a freshly accepted logical packet and returns its
    /// sequence number (to stamp into the [`Packet`](crate::Packet)).
    pub(crate) fn register(&mut self, desc: PacketDesc, now: u64) -> u64 {
        self.next_seq += 1;
        let deadline = now + self.interval(0);
        self.pending.insert(
            self.next_seq,
            Pending {
                desc,
                birth: now,
                attempts: 0,
                deadline,
            },
        );
        self.active += 1;
        self.next_due = self.next_due.min(deadline);
        self.stats.logical_sent += 1;
        self.next_seq
    }

    /// Fires due timeouts: re-injects copies through `inject(desc, seq,
    /// birth)` (which reports source-queue refusals by returning false —
    /// refused copies retry next cycle without burning an attempt) and
    /// abandons packets whose retry budget ran out. Called once per cycle
    /// from the serial pre-cycle section.
    pub(crate) fn pump(&mut self, now: u64, inject: &mut dyn FnMut(PacketDesc, u64, u64) -> bool) {
        if self.active == 0 || now < self.next_due {
            return;
        }
        let (timeout, cap) = (self.timeout, self.backoff_cap);
        let mut next = u64::MAX;
        for (&seq, p) in self.pending.iter_mut() {
            if p.deadline == u64::MAX {
                continue;
            }
            if p.deadline > now {
                next = next.min(p.deadline);
                continue;
            }
            if p.attempts >= self.max_retries {
                // The final timeout expired undelivered: give up.
                p.deadline = u64::MAX;
                self.active -= 1;
                self.stats.abandoned += 1;
                continue;
            }
            if inject(p.desc, seq, p.birth) {
                p.attempts += 1;
                self.stats.retransmits += 1;
                self.stats.retransmitted_flits += p.desc.len as u64;
                p.deadline = now + Self::interval_of(timeout, cap, p.attempts);
            } else {
                p.deadline = now + 1;
            }
            next = next.min(p.deadline);
        }
        self.next_due = next;
    }

    /// Filters one delivery: returns `true` when the workload should see
    /// it (first arrival of its sequence) and `false` for a suppressed
    /// duplicate.
    pub(crate) fn on_delivered(&mut self, d: &Delivered, now: u64) -> bool {
        debug_assert!(d.seq != 0, "transport-enabled packets carry a sequence");
        if !self.delivered.insert(d.seq) {
            self.stats.duplicates_dropped += 1;
            return false;
        }
        self.stats.logical_delivered += 1;
        if let Some(p) = self.pending.remove(&d.seq) {
            if p.deadline != u64::MAX {
                // `next_due` may now be stale (pointing at this packet's
                // deadline); the next pump scan recomputes it.
                self.active -= 1;
            }
            if p.attempts > 0 {
                self.stats.recovered += 1;
                self.stats.last_recovery_cycle = now;
                self.stats
                    .recovery_latency
                    .record(now.saturating_sub(p.birth));
            }
        }
        true
    }

    /// Whether the transport has nothing left to do: no pending packet is
    /// still scheduled for retransmission. Abandoned packets count as
    /// settled — their budget is spent.
    pub(crate) fn is_idle(&self) -> bool {
        self.active == 0
    }

    /// Earliest cycle a retransmission can fire (`u64::MAX` when idle).
    /// May be conservatively *early* after a delivery (the pump scan
    /// recomputes it), never late — so the event engine can safely skip
    /// dead cycles up to this bound.
    pub(crate) fn next_due(&self) -> u64 {
        if self.active == 0 {
            u64::MAX
        } else {
            self.next_due
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(timeout: u64, retries: u32, cap: u64) -> SimConfig {
        SimConfig {
            retransmit_timeout: timeout,
            retransmit_max_retries: retries,
            retransmit_backoff_cap: cap,
            ..SimConfig::default()
        }
    }

    fn desc(src: u32, len: u16) -> PacketDesc {
        PacketDesc {
            src,
            dst: src + 1,
            len,
            tag: 7,
        }
    }

    fn delivered(seq: u64, now: u64) -> Delivered {
        Delivered {
            src: 0,
            dst: 1,
            len: 4,
            tag: 7,
            birth: 0,
            inject: 0,
            latency: now,
            net_latency: now,
            hops: 1,
            seq,
        }
    }

    #[test]
    fn timely_delivery_never_retransmits() {
        let mut t = Transport::new(&cfg(100, 4, 0));
        let seq = t.register(desc(0, 4), 0);
        let mut sent = Vec::new();
        for now in 0..100 {
            t.pump(now, &mut |d, s, b| {
                sent.push((d, s, b));
                true
            });
        }
        assert!(sent.is_empty(), "no timeout before 100 cycles");
        assert!(t.on_delivered(&delivered(seq, 60), 60), "first copy passes");
        assert!(t.is_idle());
        t.pump(200, &mut |_, _, _| panic!("nothing pending"));
        assert_eq!(t.stats.retransmits, 0);
        assert_eq!(t.stats.logical_delivered, 1);
        assert_eq!(
            t.stats.recovered, 0,
            "no-retransmit delivery is not a recovery"
        );
    }

    #[test]
    fn timeout_backoff_and_budget() {
        // timeout 10, cap 40, 3 retries: resends at 10, then +20, +40
        // (capped), then the final 40-cycle wait expires -> abandoned.
        let mut t = Transport::new(&cfg(10, 3, 40));
        let seq = t.register(desc(2, 3), 0);
        let mut fired = Vec::new();
        for now in 0..200 {
            t.pump(now, &mut |d, s, b| {
                assert_eq!((s, b, d.src, d.len), (seq, 0, 2, 3));
                fired.push(now);
                true
            });
        }
        assert_eq!(fired, vec![10, 30, 70], "exponential backoff, capped");
        assert_eq!(t.stats.retransmits, 3);
        assert_eq!(t.stats.retransmitted_flits, 9);
        assert_eq!(t.stats.abandoned, 1);
        assert!(t.is_idle(), "abandoned packets stop the clock");
        // A straggler still counts as the one delivery.
        assert!(t.on_delivered(&delivered(seq, 150), 150));
        assert_eq!(t.stats.logical_delivered, 1);
        assert_eq!(
            t.stats.recovered, 1,
            "post-abandon delivery after retransmits"
        );
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut t = Transport::new(&cfg(10, 4, 0));
        let seq = t.register(desc(0, 4), 0);
        // Time out once so a copy is in flight.
        let mut copies = 0;
        t.pump(10, &mut |_, _, _| {
            copies += 1;
            true
        });
        assert_eq!(copies, 1);
        assert!(t.on_delivered(&delivered(seq, 12), 12), "original arrives");
        assert!(!t.on_delivered(&delivered(seq, 20), 20), "copy suppressed");
        assert_eq!(t.stats.duplicates_dropped, 1);
        assert_eq!(t.stats.logical_delivered, 1);
        assert_eq!(t.stats.recovered, 1);
        assert_eq!(t.stats.last_recovery_cycle, 12);
        assert_eq!(t.stats.recovery_latency.count(), 1);
    }

    #[test]
    fn refused_injection_retries_next_cycle_without_burning_budget() {
        let mut t = Transport::new(&cfg(10, 1, 0));
        t.register(desc(0, 4), 0);
        let mut refuse = true;
        let mut fired = Vec::new();
        for now in 10..15 {
            t.pump(now, &mut |_, _, _| {
                fired.push(now);
                !std::mem::take(&mut refuse)
            });
        }
        assert_eq!(fired, vec![10, 11], "refusal retried the very next cycle");
        assert_eq!(t.stats.retransmits, 1, "refused copies are not retransmits");
    }

    #[test]
    fn pump_iterates_in_sequence_order() {
        let mut t = Transport::new(&cfg(5, 2, 0));
        let s1 = t.register(desc(3, 1), 0);
        let s2 = t.register(desc(1, 1), 0);
        let s3 = t.register(desc(2, 1), 0);
        let mut order = Vec::new();
        t.pump(5, &mut |_, s, _| {
            order.push(s);
            true
        });
        assert_eq!(order, vec![s1, s2, s3]);
    }
}
