//! Runtime fault injection and watchdog diagnostics.
//!
//! A [`FaultSchedule`] kills and revives router-to-router links — or whole
//! routers — at given cycles while a simulation runs. Killing a link drops
//! everything in flight on the wire and *poisons* every packet that was
//! committed to or partially received across it; poisoned packets drain
//! out of the network (their flits are discarded wherever they surface,
//! with credits restored), are counted in `Stats::dropped_flits` /
//! `Stats::dropped_packets`, and leave [`DropRecord`]s in an attached
//! trace. Reviving a link rebuilds the sender's credit state from the
//! receiver's actual buffer occupancy. Killing a router atomically applies
//! the link-kill treatment to every router-to-router cable attached to it
//! (terminal links stay wired, matching `DegradedTopology` semantics);
//! reviving a router brings all of its cables back up.
//!
//! The watchdog complements fault injection: when no flit moves anywhere
//! for a configured number of cycles while packets are live, the
//! simulation aborts with a [`WatchdogReport`] naming the stuck packets
//! and each router's buffer/claim state — a wedged network fails loudly
//! instead of burning cycles to a max-cycle timeout.

use std::fmt;

use crate::packet::PacketId;

/// What a [`FaultEvent`] does to the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill the bidirectional link attached to `port` of `router`.
    KillLink { router: usize, port: usize },
    /// Revive a previously killed link.
    ReviveLink { router: usize, port: usize },
    /// Kill every router-to-router link of `router` at once. Terminal
    /// links stay wired (their traffic is simply unroutable while the
    /// router is down), matching `DegradedTopology` semantics.
    KillRouter { router: usize },
    /// Revive every router-to-router link of a previously killed router,
    /// including any that were individually killed beforehand.
    ReviveRouter { router: usize },
    /// Transient link-down edge of a flap: the wire silently loses frames
    /// in flight, but — unlike [`FaultAction::KillLink`] — nothing is
    /// poisoned and routing state is untouched; the LLR sublayer replays
    /// the lost frames after [`FaultAction::FlapUp`]. Requires
    /// `SimConfig::llr_enabled`.
    FlapDown { router: usize, port: usize },
    /// Transient link-up edge of a flap; the LLR sender rewinds to its
    /// oldest unacked frame and replays.
    FlapUp { router: usize, port: usize },
    /// Gray degradation: the channel keeps working but every frame takes
    /// `extra_latency` additional cycles and, when `half_bw` is set, the
    /// sender serializes one frame every other cycle. Requires
    /// `SimConfig::llr_enabled` (the degradation rides the LLR transmit
    /// path).
    DegradeLink {
        router: usize,
        port: usize,
        extra_latency: u64,
        half_bw: bool,
    },
    /// Clears a [`FaultAction::DegradeLink`] back to nominal timing.
    RestoreLink { router: usize, port: usize },
}

impl FaultAction {
    /// Whether this action is a *transient* (gray) fault: it perturbs
    /// timing or loses frames that LLR recovers, but never poisons packets
    /// or changes routing liveness. Transient-only schedules must deliver
    /// 100% of traffic with zero transport retransmissions.
    pub(crate) fn is_transient(&self) -> bool {
        matches!(
            self,
            FaultAction::FlapDown { .. }
                | FaultAction::FlapUp { .. }
                | FaultAction::DegradeLink { .. }
                | FaultAction::RestoreLink { .. }
        )
    }
}

/// One scheduled fault action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle the action applies (at the start of that cycle).
    pub(crate) cycle: u64,
    /// The action.
    pub(crate) action: FaultAction,
}

/// A time-ordered list of fault actions applied while the simulation runs.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    next: usize,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a link kill at `cycle`.
    pub fn kill_link_at(mut self, cycle: u64, router: usize, port: usize) -> Self {
        self.events.push(FaultEvent {
            cycle,
            action: FaultAction::KillLink { router, port },
        });
        self
    }

    /// Schedules a link revival at `cycle`.
    pub fn revive_link_at(mut self, cycle: u64, router: usize, port: usize) -> Self {
        self.events.push(FaultEvent {
            cycle,
            action: FaultAction::ReviveLink { router, port },
        });
        self
    }

    /// Schedules a whole-router kill at `cycle`.
    pub fn kill_router_at(mut self, cycle: u64, router: usize) -> Self {
        self.events.push(FaultEvent {
            cycle,
            action: FaultAction::KillRouter { router },
        });
        self
    }

    /// Schedules a whole-router revival at `cycle`.
    pub fn revive_router_at(mut self, cycle: u64, router: usize) -> Self {
        self.events.push(FaultEvent {
            cycle,
            action: FaultAction::ReviveRouter { router },
        });
        self
    }

    /// Schedules a periodic link flap: `count` down/up pairs starting at
    /// `first_down`, one per `period` cycles, each holding the link down
    /// for `down_cycles`.
    ///
    /// # Panics
    /// Unless `count >= 1` and `0 < down_cycles < period`: a zero-width or
    /// always-down flap never recovers.
    pub fn flap_link(
        mut self,
        router: usize,
        port: usize,
        first_down: u64,
        period: u64,
        down_cycles: u64,
        count: u32,
    ) -> Self {
        assert!(
            count >= 1 && 0 < down_cycles && down_cycles < period,
            "flap on router {router} port {port}: need count >= 1 ({count}) and \
             0 < down_cycles ({down_cycles}) < period ({period})"
        );
        for i in 0..count as u64 {
            let down = first_down + i * period;
            self.events.push(FaultEvent {
                cycle: down,
                action: FaultAction::FlapDown { router, port },
            });
            self.events.push(FaultEvent {
                cycle: down + down_cycles,
                action: FaultAction::FlapUp { router, port },
            });
        }
        self
    }

    /// Schedules a gray degradation (extra latency and/or half bandwidth)
    /// at `cycle`.
    pub fn degrade_link_at(
        mut self,
        cycle: u64,
        router: usize,
        port: usize,
        extra_latency: u64,
        half_bw: bool,
    ) -> Self {
        self.events.push(FaultEvent {
            cycle,
            action: FaultAction::DegradeLink {
                router,
                port,
                extra_latency,
                half_bw,
            },
        });
        self
    }

    /// Clears a degradation at `cycle`.
    pub fn restore_link_at(mut self, cycle: u64, router: usize, port: usize) -> Self {
        self.events.push(FaultEvent {
            cycle,
            action: FaultAction::RestoreLink { router, port },
        });
        self
    }

    /// Whether any scheduled action is transient (needs LLR to recover).
    pub(crate) fn has_transient(&self) -> bool {
        self.events.iter().any(|e| e.action.is_transient())
    }

    /// Sorts events by cycle (stable, so same-cycle actions keep insertion
    /// order). Called once when the schedule is attached; idempotent.
    pub(crate) fn finalize(&mut self) {
        self.events.sort_by_key(|e| e.cycle);
        self.next = 0;
    }

    /// The cycle of the next pending event, if any (the event engine skips
    /// dead cycles only up to this bound).
    pub(crate) fn next_cycle(&self) -> Option<u64> {
        self.events.get(self.next).map(|e| e.cycle)
    }

    /// Pops the next action due at or before `now`, if any.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<FaultAction> {
        let e = self.events.get(self.next)?;
        if e.cycle > now {
            return None;
        }
        self.next += 1;
        Some(e.action)
    }
}

/// Per-router state snapshot inside a [`WatchdogReport`].
#[derive(Clone, Debug)]
pub struct RouterDiag {
    /// Router id.
    pub router: usize,
    /// Total flits buffered anywhere inside the router.
    pub(crate) buffered_flits: usize,
    /// Input-side VC occupancy: `(port, vc, flits)` for non-empty VCs.
    pub(crate) occupancy: Vec<(u16, u8, usize)>,
    /// Downstream VC claims held: `(port, vc, owner packet)`.
    pub(crate) claimed: Vec<(u16, u8, PacketId)>,
}

/// Diagnostic dump produced when the watchdog aborts a wedged simulation.
#[derive(Clone, Debug)]
pub struct WatchdogReport {
    /// Cycle the abort fired.
    pub(crate) cycle: u64,
    /// Consecutive cycles without a single flit movement.
    pub stall_cycles: u64,
    /// Packets still live (queued or in the network).
    pub live_packets: usize,
    /// Workload tag of the oldest live packet.
    pub(crate) oldest_tag: u64,
    /// Age in cycles of the oldest live packet.
    pub(crate) oldest_age: u64,
    /// Routers holding flits or claims (empty routers are omitted).
    pub routers: Vec<RouterDiag>,
}

impl fmt::Display for WatchdogReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "watchdog abort at cycle {}: no flit moved for {} cycles with {} live packets \
             (oldest tag {} is {} cycles old)",
            self.cycle, self.stall_cycles, self.live_packets, self.oldest_tag, self.oldest_age
        )?;
        for r in &self.routers {
            writeln!(
                f,
                "  router {} ({} flits buffered):",
                r.router, r.buffered_flits
            )?;
            for &(port, vc, n) in &r.occupancy {
                writeln!(f, "    in  port {port} vc {vc}: {n} flits")?;
            }
            for &(port, vc, pkt) in &r.claimed {
                writeln!(f, "    out port {port} vc {vc}: claimed by packet {pkt}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_pops_in_time_order() {
        let mut s = FaultSchedule::new()
            .kill_link_at(50, 1, 2)
            .revive_link_at(10, 3, 4);
        s.finalize();
        assert!(s.pop_due(5).is_none());
        assert_eq!(
            s.pop_due(10),
            Some(FaultAction::ReviveLink { router: 3, port: 4 })
        );
        assert!(s.pop_due(49).is_none());
        assert_eq!(
            s.pop_due(100),
            Some(FaultAction::KillLink { router: 1, port: 2 })
        );
        assert!(s.pop_due(u64::MAX).is_none(), "schedule not exhausted");
        assert!(s.pop_due(u64::MAX).is_none());
    }

    #[test]
    fn router_events_interleave_with_link_events() {
        let mut s = FaultSchedule::new()
            .kill_router_at(20, 7)
            .kill_link_at(10, 1, 2)
            .revive_router_at(30, 7);
        s.finalize();
        assert_eq!(
            s.pop_due(10),
            Some(FaultAction::KillLink { router: 1, port: 2 })
        );
        assert_eq!(s.pop_due(25), Some(FaultAction::KillRouter { router: 7 }));
        assert!(s.pop_due(29).is_none());
        assert_eq!(s.pop_due(30), Some(FaultAction::ReviveRouter { router: 7 }));
        assert!(s.pop_due(u64::MAX).is_none(), "schedule not exhausted");
    }

    #[test]
    fn flap_specs_expand_into_paired_edges() {
        let mut s = FaultSchedule::new().flap_link(2, 1, 100, 50, 10, 2);
        assert!(s.has_transient());
        s.finalize();
        assert_eq!(
            s.pop_due(100),
            Some(FaultAction::FlapDown { router: 2, port: 1 })
        );
        assert_eq!(
            s.pop_due(110),
            Some(FaultAction::FlapUp { router: 2, port: 1 })
        );
        assert_eq!(
            s.pop_due(150),
            Some(FaultAction::FlapDown { router: 2, port: 1 })
        );
        assert_eq!(
            s.pop_due(160),
            Some(FaultAction::FlapUp { router: 2, port: 1 })
        );
        assert!(s.pop_due(u64::MAX).is_none(), "schedule not exhausted");
        // finalize is idempotent: re-finalizing rewinds, nothing doubles.
        s.finalize();
        assert!(s.pop_due(100).is_some());
        assert!(s.pop_due(160).is_some());
        assert!(s.pop_due(160).is_some());
        assert!(s.pop_due(160).is_some());
        assert!(s.pop_due(u64::MAX).is_none(), "schedule not exhausted");
    }

    #[test]
    #[should_panic(expected = "0 < down_cycles (20) < period (20)")]
    fn flap_link_refuses_an_always_down_flap() {
        let _ = FaultSchedule::new().flap_link(0, 1, 10, 20, 20, 2);
    }

    #[test]
    fn transient_classification() {
        assert!(FaultAction::FlapDown { router: 0, port: 1 }.is_transient());
        assert!(FaultAction::RestoreLink { router: 0, port: 1 }.is_transient());
        assert!(!FaultAction::KillLink { router: 0, port: 1 }.is_transient());
        assert!(!FaultAction::ReviveRouter { router: 0 }.is_transient());
    }

    #[test]
    fn report_display_mentions_everything() {
        let rep = WatchdogReport {
            cycle: 123,
            stall_cycles: 45,
            live_packets: 2,
            oldest_tag: 7,
            oldest_age: 99,
            routers: vec![RouterDiag {
                router: 3,
                buffered_flits: 4,
                occupancy: vec![(1, 0, 4)],
                claimed: vec![(2, 5, 11)],
            }],
        };
        let s = rep.to_string();
        assert!(s.contains("cycle 123"));
        assert!(s.contains("45 cycles"));
        assert!(s.contains("router 3"));
        assert!(s.contains("in  port 1 vc 0: 4 flits"));
        assert!(s.contains("claimed by packet 11"));
    }
}
