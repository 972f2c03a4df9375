//! The deterministic event queue: a calendar of wakes keyed by small
//! integer ids.
//!
//! The event-driven engine keys one queue by *wake key*: every endpoint
//! (routers first, then terminals — the order they tick in) owns a
//! self-wake key followed by one arrival key per input port, so a key
//! names "tick endpoint `e`" or "a flit matures on `e`'s port `p`". The
//! engine pops every key due at the current cycle and ticks exactly the
//! endpoints owning them; cycles with no due key, no workload activity,
//! and no transport deadline are skipped wholesale. With link-level retry
//! on, both engines key a second queue by channel id: a channel is woken
//! when its retry sublayer has work due, and only the due channels run
//! `llr_tick` (see `Network::tick`).
//!
//! ## Representation: a calendar of bit rows
//!
//! Nearly every wake lands within one channel latency of `now`, and the
//! engine schedules and pops hundreds per cycle. The calendar is
//! [`EventQueue::HORIZON`] rows of one bit per key: `schedule` sets bit
//! `key` of row `t % HORIZON`, `pop_due` reads the due rows back out by
//! `trailing_zeros`. A wake is therefore a bit, not an entry: scheduling a
//! key twice for one cycle sets the same bit twice, and reading a row
//! upwards yields keys ascending — the due set comes out in order and free
//! of duplicates because the representation cannot hold anything else.
//! The order is the same whatever order the wakes were scheduled in.
//! The rows are allocated once (`HORIZON × keys / 8` bytes) and never
//! grow.
//!
//! Duplicate and spurious wakes are harmless: a wake for an endpoint with
//! nothing to do is a no-op tick by construction (idle routers and
//! terminals touch no state and draw no randomness), and so is a wake for
//! a channel whose retry sublayer has nothing due.
//!
//! Wakes farther than [`EventQueue::HORIZON`] cycles out (a channel or
//! crossbar latency above it) overflow into a small heap of `(t, key)`
//! that migrates into the rows as the cursor advances.
//!
//! The `next_drain` cursor only moves forward. A schedule at or behind the
//! cursor lands in the cursor's own row, preserving "never dropped,
//! delivered at the first opportunity" semantics.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Calendar length in cycles: the smallest power of two above every
/// channel and crossbar latency the shipped configurations use (50
/// cycles). Wakes farther out than this go through the overflow heap, so
/// this trades memory against heap traffic and is not a correctness bound.
const HORIZON: u64 = 64;

/// Why a key is being woken. Documentation at the call site only: the
/// queue does not store it — a key woken for several reasons in one cycle
/// is one bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A flit on an incoming channel matures this cycle.
    FlitArrival,
    /// Self-scheduled wake (buffered work, crossbar maturity, injection).
    Wake,
    /// Link-level retry work on a channel: a frame to serialize, or a
    /// wire or ack frame maturing.
    Llr,
}

/// A deterministic calendar of wakes, keyed by wake key or channel id.
#[derive(Debug)]
pub struct EventQueue {
    /// Row `c % HORIZON` holds the keys waking at cycle `c`, for the
    /// cycles `next_drain..next_drain + HORIZON`.
    rows: BitRows,
    /// Per row: whether it may hold a set bit. Lets `next_time` and
    /// `pop_due` skip empty rows without reading them.
    occupied: [bool; HORIZON as usize],
    /// Next cycle to drain; rows of earlier cycles are empty.
    next_drain: u64,
    /// Wakes at or beyond `next_drain + HORIZON` when scheduled.
    far: BinaryHeap<Reverse<(u64, u32)>>,
    keys: usize,
}

impl EventQueue {
    /// Calendar length in cycles (see the module docs).
    pub const HORIZON: u64 = HORIZON;

    /// An empty queue over the keys `0..keys`.
    pub fn new(keys: usize) -> Self {
        EventQueue {
            rows: BitRows::new(HORIZON as usize, keys),
            occupied: [false; HORIZON as usize],
            next_drain: 0,
            far: BinaryHeap::new(),
            keys,
        }
    }

    /// Schedules a wake for `key` at cycle `t`. Scheduling the same key
    /// again for the same cycle changes nothing. Times at or behind the
    /// drain cursor are delivered by the next `pop_due` that reaches the
    /// cursor. `_kind` is not stored (see [`EventKind`]).
    #[inline]
    pub fn schedule(&mut self, t: u64, key: u32, _kind: EventKind) {
        debug_assert!((key as usize) < self.keys, "unknown key");
        let cycle = t.max(self.next_drain);
        if cycle >= self.next_drain + HORIZON {
            self.far.push(Reverse((t, key)));
        } else {
            self.set(cycle, key);
        }
    }

    #[inline]
    fn set(&mut self, cycle: u64, key: u32) {
        let row = (cycle % HORIZON) as usize;
        self.rows.set(row, key);
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
    /// duplicate-free key set. A `now` behind the cursor pops nothing.
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
        while let Some(&Reverse((t, key))) = self.far.peek() {
            if t >= now + HORIZON {
                break;
            }
            self.far.pop();
            self.set(t.max(now), key);
        }
        if std::mem::take(&mut self.occupied[dst]) {
            self.rows.drain(dst, |e| out.push(e));
        }
        self.next_drain = now + 1;
    }
}

/// A fixed grid of equally wide bit rows — the representation of the
/// event calendars (rows are cycles modulo the row count, bits are wake
/// keys or channel ids). A set is idempotent and a drain walks
/// bits upwards, so whatever is read back out of a row is ascending and
/// unique without any sorting.
#[derive(Debug)]
struct BitRows {
    /// Words per row.
    width: usize,
    words: Vec<u64>,
}

impl BitRows {
    /// `rows` all-zero rows of `bits` bits each.
    fn new(rows: usize, bits: usize) -> Self {
        let width = bits.div_ceil(64);
        BitRows {
            width,
            words: vec![0; rows * width],
        }
    }

    /// Sets `bit` of `row`.
    #[inline]
    fn set(&mut self, row: usize, bit: u32) {
        self.words[row * self.width + (bit >> 6) as usize] |= 1u64 << (bit & 63);
    }

    /// ORs row `src` into row `dst` and clears `src`.
    fn merge(&mut self, src: usize, dst: usize) {
        debug_assert_ne!(src, dst);
        for i in 0..self.width {
            let w = std::mem::take(&mut self.words[src * self.width + i]);
            self.words[dst * self.width + i] |= w;
        }
    }

    /// Clears `row`, handing its set bits to `f` in ascending order.
    #[inline]
    fn drain(&mut self, row: usize, mut f: impl FnMut(u32)) {
        let words = &mut self.words[row * self.width..(row + 1) * self.width];
        for (i, word) in words.iter_mut().enumerate() {
            let mut w = std::mem::take(word);
            while w != 0 {
                f((i as u32) << 6 | w.trailing_zeros());
                w &= w - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_is_clear(rows: &BitRows, row: usize) -> bool {
        rows.words[row * rows.width..(row + 1) * rows.width]
            .iter()
            .all(|&w| w == 0)
    }

    #[test]
    fn bit_rows_drain_ascending_unique_and_clear() {
        let mut rows = BitRows::new(3, 130);
        for bit in [129, 0, 64, 63, 64, 7] {
            rows.set(1, bit);
        }
        rows.set(2, 5);
        rows.set(2, 64);
        rows.merge(2, 1);
        assert!(row_is_clear(&rows, 2) && row_is_clear(&rows, 0));
        let mut seen = Vec::new();
        rows.drain(1, |b| seen.push(b));
        assert_eq!(seen, vec![0, 5, 7, 63, 64, 129]);
        assert!(row_is_clear(&rows, 1));
    }

    #[test]
    fn pop_due_is_ascending_and_unique() {
        let mut q = EventQueue::new(10);
        q.schedule(1, 9, EventKind::Wake);
        q.schedule(1, 2, EventKind::FlitArrival);
        q.schedule(1, 9, EventKind::FlitArrival);
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
        q.schedule(10, 3, EventKind::Wake);
        assert_eq!(q.next_time(), Some(100));
        q.pop_due(100, &mut out);
        assert_eq!(out, vec![3]);
    }
}
