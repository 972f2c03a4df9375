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

/// A periodic link-flap specification: starting at `first_down`, the link
/// at (`router`, `port`) goes down for `down_cycles` out of every `period`
/// cycles, `count` times. Expanded into paired
/// [`FaultAction::FlapDown`]/[`FaultAction::FlapUp`] events at
/// [`FaultSchedule::finalize`] time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlapSpec {
    pub(crate) router: usize,
    pub(crate) port: usize,
    pub(crate) first_down: u64,
    pub(crate) period: u64,
    pub(crate) down_cycles: u64,
    pub(crate) count: u32,
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
    /// Flap specs pending expansion into events (drained by `finalize`;
    /// retained for `validate`'s period checks).
    flaps: Vec<FlapSpec>,
    expanded: bool,
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
    /// for `down_cycles`. Expanded into events at attach time.
    pub fn flap_link(
        mut self,
        router: usize,
        port: usize,
        first_down: u64,
        period: u64,
        down_cycles: u64,
        count: u32,
    ) -> Self {
        self.flaps.push(FlapSpec {
            router,
            port,
            first_down,
            period,
            down_cycles,
            count,
        });
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
        !self.flaps.is_empty() || self.events.iter().any(|e| e.action.is_transient())
    }

    /// The expansion of every flap spec into down/up event pairs.
    fn flap_events(&self) -> Vec<FaultEvent> {
        let mut out = Vec::new();
        for f in &self.flaps {
            for i in 0..f.count as u64 {
                let down = f.first_down + i * f.period;
                out.push(FaultEvent {
                    cycle: down,
                    action: FaultAction::FlapDown {
                        router: f.router,
                        port: f.port,
                    },
                });
                out.push(FaultEvent {
                    cycle: down + f.down_cycles,
                    action: FaultAction::FlapUp {
                        router: f.router,
                        port: f.port,
                    },
                });
            }
        }
        out
    }

    /// Checks the schedule for mistakes that would otherwise surface as
    /// silent no-ops or runtime panics deep in a run: events scheduled
    /// past `max_cycles` (they would never fire), doubled kills or flaps
    /// without an intervening revive/up on the same target, revives of
    /// targets that are not down, and malformed flap specs (zero period,
    /// down time not shorter than the period, zero repetitions).
    pub fn validate(&self, max_cycles: u64) -> Result<(), String> {
        for f in &self.flaps {
            if f.period == 0 {
                return Err(format!(
                    "flap on router {} port {}: period must be nonzero",
                    f.router, f.port
                ));
            }
            if f.down_cycles == 0 || f.down_cycles >= f.period {
                return Err(format!(
                    "flap on router {} port {}: down_cycles ({}) must be in 1..period ({})",
                    f.router, f.port, f.down_cycles, f.period
                ));
            }
            if f.count == 0 {
                return Err(format!(
                    "flap on router {} port {}: count must be nonzero",
                    f.router, f.port
                ));
            }
        }
        // Replay the schedule in the exact order finalize() would apply it.
        let mut all = self.events.clone();
        if !self.expanded {
            all.extend(self.flap_events());
        }
        all.sort_by_key(|e| e.cycle);
        let mut link_down: Vec<(usize, usize)> = Vec::new();
        let mut link_flapped: Vec<(usize, usize)> = Vec::new();
        let mut router_down: Vec<usize> = Vec::new();
        for e in &all {
            if e.cycle > max_cycles {
                return Err(format!(
                    "event {:?} at cycle {} is past max_cycles ({}) and would never fire",
                    e.action, e.cycle, max_cycles
                ));
            }
            match e.action {
                FaultAction::KillLink { router, port } => {
                    if link_down.contains(&(router, port)) {
                        return Err(format!(
                            "cycle {}: link (router {router}, port {port}) killed twice \
                             without an intervening revive",
                            e.cycle
                        ));
                    }
                    link_down.push((router, port));
                }
                FaultAction::ReviveLink { router, port } => {
                    let Some(i) = link_down.iter().position(|&l| l == (router, port)) else {
                        return Err(format!(
                            "cycle {}: revive of link (router {router}, port {port}) \
                             which is not down",
                            e.cycle
                        ));
                    };
                    link_down.swap_remove(i);
                }
                FaultAction::KillRouter { router } => {
                    if router_down.contains(&router) {
                        return Err(format!(
                            "cycle {}: router {router} killed twice without an \
                             intervening revive",
                            e.cycle
                        ));
                    }
                    router_down.push(router);
                }
                FaultAction::ReviveRouter { router } => {
                    let Some(i) = router_down.iter().position(|&r| r == router) else {
                        return Err(format!(
                            "cycle {}: revive of router {router} which is not down",
                            e.cycle
                        ));
                    };
                    router_down.swap_remove(i);
                }
                FaultAction::FlapDown { router, port } => {
                    if link_flapped.contains(&(router, port)) {
                        return Err(format!(
                            "cycle {}: overlapping flaps on link (router {router}, \
                             port {port})",
                            e.cycle
                        ));
                    }
                    link_flapped.push((router, port));
                }
                FaultAction::FlapUp { router, port } => {
                    let Some(i) = link_flapped.iter().position(|&l| l == (router, port)) else {
                        return Err(format!(
                            "cycle {}: flap-up of link (router {router}, port {port}) \
                             which is not flapped down",
                            e.cycle
                        ));
                    };
                    link_flapped.swap_remove(i);
                }
                FaultAction::DegradeLink { .. } | FaultAction::RestoreLink { .. } => {}
            }
        }
        Ok(())
    }

    /// Expands flap specs and sorts events by cycle (stable, so same-cycle
    /// actions keep insertion order). Called once when the schedule is
    /// attached; idempotent.
    pub(crate) fn finalize(&mut self) {
        if !self.expanded {
            let flap_events = self.flap_events();
            self.events.extend(flap_events);
            self.expanded = true;
        }
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
        // finalize is idempotent: re-finalizing must not re-expand.
        s.finalize();
        assert!(s.pop_due(100).is_some());
        assert!(s.pop_due(160).is_some());
        assert!(s.pop_due(160).is_some());
        assert!(s.pop_due(160).is_some());
        assert!(s.pop_due(u64::MAX).is_none(), "schedule not exhausted");
    }

    #[test]
    fn validate_accepts_a_well_formed_schedule() {
        let s = FaultSchedule::new()
            .kill_link_at(10, 1, 2)
            .revive_link_at(50, 1, 2)
            .kill_router_at(20, 7)
            .revive_router_at(80, 7)
            .flap_link(3, 0, 30, 40, 5, 3)
            .degrade_link_at(5, 4, 1, 10, true)
            .restore_link_at(90, 4, 1);
        assert_eq!(s.validate(200), Ok(()));
    }

    #[test]
    fn validate_rejects_events_past_max_cycles() {
        let s = FaultSchedule::new().kill_link_at(500, 1, 2);
        let err = s.validate(100).unwrap_err();
        assert!(err.contains("past max_cycles"), "{err}");
        // Flap repetitions that run off the end are caught too.
        let s = FaultSchedule::new().flap_link(0, 0, 90, 100, 10, 3);
        let err = s.validate(200).unwrap_err();
        assert!(err.contains("past max_cycles"), "{err}");
    }

    #[test]
    fn validate_rejects_double_kills_and_orphan_revives() {
        let s = FaultSchedule::new()
            .kill_link_at(10, 1, 2)
            .kill_link_at(20, 1, 2);
        let err = s.validate(100).unwrap_err();
        assert!(err.contains("killed twice"), "{err}");

        let s = FaultSchedule::new().revive_link_at(10, 1, 2);
        let err = s.validate(100).unwrap_err();
        assert!(err.contains("not down"), "{err}");

        let s = FaultSchedule::new()
            .kill_router_at(10, 3)
            .kill_router_at(40, 3);
        let err = s.validate(100).unwrap_err();
        assert!(err.contains("killed twice"), "{err}");

        // A revive between the kills makes it legal again.
        let s = FaultSchedule::new()
            .kill_link_at(10, 1, 2)
            .revive_link_at(20, 1, 2)
            .kill_link_at(30, 1, 2)
            .revive_link_at(40, 1, 2);
        assert_eq!(s.validate(100), Ok(()));
    }

    #[test]
    fn validate_rejects_malformed_flaps() {
        let s = FaultSchedule::new().flap_link(0, 1, 10, 0, 5, 2);
        let err = s.validate(100).unwrap_err();
        assert!(err.contains("period must be nonzero"), "{err}");

        let s = FaultSchedule::new().flap_link(0, 1, 10, 20, 20, 2);
        let err = s.validate(100).unwrap_err();
        assert!(err.contains("down_cycles"), "{err}");

        // Two specs flapping the same link with overlapping down windows.
        let s = FaultSchedule::new()
            .flap_link(0, 1, 10, 100, 50, 1)
            .flap_link(0, 1, 30, 100, 50, 1);
        let err = s.validate(200).unwrap_err();
        assert!(err.contains("overlapping flaps"), "{err}");
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
