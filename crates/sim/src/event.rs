//! The deterministic event queue driving the event-driven engine.
//!
//! Endpoints (routers first, then terminals — the same id order the
//! two-phase commit replays in) schedule *wakes*: "tick me at cycle `t`".
//! The engine pops every wake due at the current cycle and ticks exactly
//! that endpoint set; cycles with no due wake, no workload activity, and
//! no transport deadline are skipped wholesale.
//!
//! ## Representation: a calendar of bit rows
//!
//! Nearly every wake lands within one channel latency of `now`, and the
//! engine schedules and pops hundreds per cycle. The calendar is
//! [`HORIZON`] rows of one bit per endpoint: `schedule` sets bit
//! `endpoint` of row `t % HORIZON`, `pop_due` reads the due rows back out
//! by `trailing_zeros`. A wake is therefore a bit, not an entry: scheduling
//! an endpoint twice for one cycle sets the same bit twice, and reading a
//! row upwards yields ids ascending — the due set comes out in order and
//! free of duplicates because the representation cannot hold anything
//! else. The
//! order is the same whatever order the wakes were scheduled in; all
//! scheduling happens in the commit phase anyway.
//! The rows are allocated once (`HORIZON × endpoints / 8` bytes) and never
//! grow.
//!
//! Duplicate and spurious wakes are harmless: a wake for an endpoint with
//! nothing to do is a no-op tick by construction (idle routers and
//! terminals touch no state and draw no randomness).
//!
//! Wakes farther than [`HORIZON`] cycles out (a channel or crossbar
//! latency above it) overflow into a small heap of `(t, endpoint)` that
//! migrates into the rows as the cursor advances.
//!
//! The `next_drain` cursor only moves forward. A schedule at or behind the
//! cursor (the post-tick fault resync does this) lands in the cursor's own
//! row, preserving "never dropped, delivered at the first opportunity"
//! semantics.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::bitset::BitRows;

/// Calendar length in cycles. Wakes farther out than this go through the
/// overflow heap, so this trades memory against heap traffic and is not a
/// correctness bound.
const HORIZON: u64 = 256;

/// Why an endpoint is being woken. Documentation at the call site only:
/// the queue does not store it — an endpoint woken for several reasons in
/// one cycle is one bit and ticks once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A flit on an incoming channel matures this cycle.
    FlitArrival,
    /// A credit on an outgoing channel matures this cycle.
    CreditArrival,
    /// Self-scheduled wake (buffered work, crossbar maturity, injection).
    Wake,
    /// Fault-schedule action or fault-fallout resynchronization.
    Fault,
}

/// A deterministic calendar of endpoint wakes.
#[derive(Debug)]
pub struct EventQueue {
    /// Row `c % HORIZON` holds the endpoints waking at cycle `c`, for the
    /// cycles `next_drain..next_drain + HORIZON`.
    rows: BitRows,
    /// Per row: whether it may hold a set bit. Lets `next_time` and
    /// `pop_due` skip empty rows without reading them.
    occupied: [bool; HORIZON as usize],
    /// Next cycle to drain; rows of earlier cycles are empty.
    next_drain: u64,
    /// Wakes at or beyond `next_drain + HORIZON` when scheduled.
    far: BinaryHeap<Reverse<(u64, u32)>>,
    endpoints: usize,
}

impl EventQueue {
    /// An empty queue over `endpoints` endpoint ids (`0..endpoints`).
    pub fn new(endpoints: usize) -> Self {
        EventQueue {
            rows: BitRows::new(HORIZON as usize, endpoints),
            occupied: [false; HORIZON as usize],
            next_drain: 0,
            far: BinaryHeap::new(),
            endpoints,
        }
    }

    /// Schedules a wake for `endpoint` at cycle `t`. Scheduling the same
    /// endpoint again for the same cycle changes nothing. Times at or
    /// behind the drain cursor are delivered by the next `pop_due` that
    /// reaches the cursor. `_kind` is not stored (see [`EventKind`]).
    #[inline]
    pub fn schedule(&mut self, t: u64, endpoint: u32, _kind: EventKind) {
        debug_assert!((endpoint as usize) < self.endpoints, "unknown endpoint");
        let cycle = t.max(self.next_drain);
        if cycle >= self.next_drain + HORIZON {
            self.far.push(Reverse((t, endpoint)));
        } else {
            self.set(cycle, endpoint);
        }
    }

    #[inline]
    fn set(&mut self, cycle: u64, endpoint: u32) {
        let row = (cycle % HORIZON) as usize;
        self.rows.set(row, endpoint);
        self.occupied[row] = true;
    }

    /// Whether no wake is pending.
    pub fn is_empty(&self) -> bool {
        self.next_time().is_none()
    }

    /// The cycle of the earliest pending wake — the first cycle `pop_due`
    /// would return a non-empty set for (wakes scheduled behind the cursor
    /// report the cursor).
    pub fn next_time(&self) -> Option<u64> {
        let (wrapped, ahead) = self.occupied.split_at((self.next_drain % HORIZON) as usize);
        let near = ahead.iter().chain(wrapped).position(|&occupied| occupied);
        // No far wake is earlier than a row's: `pop_due` leaves the heap
        // nothing before the calendar's last cycle.
        near.map(|i| self.next_drain + i as u64)
            .or(self.far.peek().map(|&Reverse((t, _))| t))
    }

    /// Pops every wake due at or before `now` into `out` as an ascending,
    /// duplicate-free endpoint set — the cycle's tick set, in the exact
    /// order the serial commit phase replays endpoints. A `now` behind the
    /// cursor pops nothing.
    pub fn pop_due(&mut self, now: u64, out: &mut Vec<u32>) {
        out.clear();
        if now < self.next_drain {
            return;
        }
        // Fold every earlier due row into `now`'s. A gap of HORIZON or
        // more makes every row due; the HORIZON - 1 cycles before `now`
        // name all of the other rows.
        let dst = (now % HORIZON) as usize;
        for c in self.next_drain.max((now + 1).saturating_sub(HORIZON))..now {
            let src = (c % HORIZON) as usize;
            if std::mem::take(&mut self.occupied[src]) {
                self.rows.merge(src, dst);
                self.occupied[dst] = true;
            }
        }
        // Far wakes that are due join `now`'s row; those that now fit the
        // calendar move into their own row (strictly inside the window, so
        // never the row being drained), keeping the heap tiny however long
        // the run is.
        while let Some(&Reverse((t, e))) = self.far.peek() {
            if t >= now + HORIZON {
                break;
            }
            self.far.pop();
            self.set(t.max(now), e);
        }
        if std::mem::take(&mut self.occupied[dst]) {
            self.rows.drain(dst, |e| out.push(e));
        }
        self.next_drain = now + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_due_is_ascending_and_unique() {
        let mut q = EventQueue::new(10);
        q.schedule(1, 9, EventKind::Wake);
        q.schedule(1, 2, EventKind::FlitArrival);
        q.schedule(1, 9, EventKind::CreditArrival);
        q.schedule(0, 4, EventKind::Wake);
        q.schedule(3, 5, EventKind::Wake);
        let mut out = Vec::new();
        q.pop_due(1, &mut out);
        assert_eq!(out, vec![2, 4, 9]);
        assert_eq!(q.next_time(), Some(3));
        q.pop_due(2, &mut out);
        assert!(out.is_empty());
        q.pop_due(3, &mut out);
        assert_eq!(out, vec![5]);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_entries_survive_the_horizon() {
        let mut q = EventQueue::new(4);
        q.schedule(3, 1, EventKind::Wake);
        q.schedule(HORIZON * 5 + 7, 2, EventKind::Wake);
        let mut out = Vec::new();
        q.pop_due(3, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(q.next_time(), Some(HORIZON * 5 + 7));
        // Walk the cursor forward in sub-horizon hops; the far entry must
        // migrate in and drain at exactly its cycle.
        let mut c = 3;
        while c + HORIZON / 2 < HORIZON * 5 + 7 {
            c += HORIZON / 2;
            q.pop_due(c, &mut out);
            assert!(out.is_empty(), "nothing due at {c}");
        }
        q.pop_due(HORIZON * 5 + 7, &mut out);
        assert_eq!(out, vec![2]);
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_behind_cursor_lands_in_next_drain() {
        let mut q = EventQueue::new(4);
        let mut out = Vec::new();
        q.pop_due(99, &mut out);
        assert!(out.is_empty());
        // Nominal time 10 is behind the cursor (100): it must not be
        // dropped nor wait a full calendar turn.
        q.schedule(10, 3, EventKind::Fault);
        assert_eq!(q.next_time(), Some(100));
        q.pop_due(100, &mut out);
        assert_eq!(out, vec![3]);
    }
}
