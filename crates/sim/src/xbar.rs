//! The crossbars of every router: one network-wide FIFO of the flits
//! inside them.
//!
//! Every router's crossbar has the same traversal latency, and the routers
//! of a cycle tick in ascending id under both engines (`Network::tick`).
//! So flits leave the crossbars in exactly the order they entered them: by
//! cycle, then router, then the router's push order. One FIFO of 16-byte
//! records in push order holds them all, and a record's position is where
//! its flit stands in that order. Each run of records sharing a maturity
//! is one segment, named by a `(maturity, count)` mark, so records ascend
//! in `(maturity, router)`, and a mark exists only for a cycle with a
//! push: at most `latency + 1` of them.
//!
//! Router *r* drains when it ticks: it pops records off the front while
//! the front mark is due and the front record is *r*'s. A router with a
//! record maturing at cycle *c* is due at *c* (the event engine wakes it;
//! see `TickCtx::push_xbar`), and the routers before it that cycle took
//! theirs off already, so its due records are at the front when it looks.
//! No list is walked and no record carries a link: each popped record
//! becomes a fresh node on its output queue in the wire slab
//! (`channel.rs`).
//!
//! Both queues grow by a quarter when full, like the list slabs
//! (`slab.rs`), not by doubling.

use std::collections::VecDeque;

use crate::packet::Flit;

/// One flit inside a crossbar: the router it is crossing, the output port
/// it goes to and the downstream VC it will occupy (16 bytes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct XbarRec {
    pub(crate) flit: Flit,
    pub(crate) router: u32,
    pub(crate) vc: u8,
    pub(crate) port: u16,
}

const _: () = assert!(std::mem::size_of::<XbarRec>() == 16);

/// Every flit inside a crossbar, in push order (see the module docs).
#[derive(Debug)]
pub(crate) struct XbarFifo {
    latency: u64,
    recs: VecDeque<XbarRec>,
    /// Per push cycle, oldest first: `(maturity, records)` of the segment
    /// of `recs` it names. No count is zero.
    marks: VecDeque<(u64, u32)>,
}

/// Makes room for one more entry in `q`, by a quarter of its length (at
/// least 8) when it is full.
#[inline]
fn reserve<T>(q: &mut VecDeque<T>) {
    if q.len() == q.capacity() {
        q.reserve_exact((q.len() / 4).max(8));
    }
}

impl XbarFifo {
    /// An empty FIFO for crossbars of `latency` cycles.
    pub(crate) fn new(latency: u64) -> Self {
        XbarFifo {
            latency,
            recs: VecDeque::new(),
            marks: VecDeque::new(),
        }
    }

    /// Crossbar traversal in cycles.
    #[inline]
    pub(crate) fn latency(&self) -> u64 {
        self.latency
    }

    /// Appends `rec`, entering the crossbar at `now`, and returns whether
    /// it is its router's first record of this cycle.
    #[inline]
    pub(crate) fn push(&mut self, now: u64, rec: XbarRec) -> bool {
        let at = now + self.latency;
        let first = match self.marks.back_mut() {
            Some((m, n)) if *m == at => {
                *n += 1;
                let back = self.recs.back().expect("a mark counts records").router;
                debug_assert!(
                    back <= rec.router,
                    "crossbar FIFO pushed out of router order"
                );
                back != rec.router
            }
            back => {
                debug_assert!(back.is_none_or(|&mut (m, _)| m < at), "maturity fell");
                reserve(&mut self.marks);
                self.marks.push_back((at, 1));
                true
            }
        };
        reserve(&mut self.recs);
        self.recs.push_back(rec);
        first
    }

    /// Pops `router`'s records maturing by `now` off the front, oldest
    /// first, and hands each to `f`. It stops at the first record due
    /// later or another router's.
    #[inline]
    pub(crate) fn drain(&mut self, router: u32, now: u64, mut f: impl FnMut(XbarRec)) {
        while let Some((at, n)) = self.marks.front_mut() {
            if *at > now {
                return;
            }
            while *n > 0 {
                match self.recs.front() {
                    Some(&rec) if rec.router == router => {
                        self.recs.pop_front();
                        *n -= 1;
                        f(rec);
                    }
                    _ => return,
                }
            }
            self.marks.pop_front();
        }
    }

    /// Removes every record of `router` bound for `port`, in FIFO order,
    /// handing each to `f`; the others keep their order and marks. A
    /// revival's purge, so rare: it rewrites the FIFO in place.
    pub(crate) fn purge(&mut self, router: u32, port: u16, mut f: impl FnMut(XbarRec)) {
        let (mut read, mut write) = (0, 0);
        for (_, n) in self.marks.iter_mut() {
            let end = read + *n as usize;
            for i in read..end {
                let rec = self.recs[i];
                if rec.router == router && rec.port == port {
                    f(rec);
                    *n -= 1;
                } else {
                    self.recs[write] = rec;
                    write += 1;
                }
            }
            read = end;
        }
        self.recs.truncate(write);
        self.marks.retain(|&(_, n)| n > 0);
    }

    /// The index of the first record in `lo..hi` (a segment, ascending by
    /// router) whose router is not below `router`.
    fn seek(&self, (mut lo, mut hi): (usize, usize), router: u32) -> usize {
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.recs[mid].router < router {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Each segment's `(maturity, start, end)` in `recs`, oldest first.
    fn segments(&self) -> impl Iterator<Item = (u64, usize, usize)> + '_ {
        self.marks.iter().scan(0, |start, &(at, n)| {
            let s = *start;
            *start += n as usize;
            Some((at, s, *start))
        })
    }

    /// `router`'s records, oldest first. Each segment's run of them is
    /// found by binary search, so this reads the marks, not the FIFO.
    pub(crate) fn records_of(&self, router: u32) -> impl Iterator<Item = &XbarRec> + '_ {
        self.segments().flat_map(move |(_, s, e)| {
            let lo = self.seek((s, e), router);
            let hi = self.seek((lo, e), router + 1);
            self.recs.range(lo..hi)
        })
    }

    /// Whether `router` has a record maturing by `now` (the calendar
    /// audit's question).
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn has_due(&self, router: u32, now: u64) -> bool {
        self.segments()
            .take_while(|&(at, ..)| at <= now)
            .any(|(_, s, e)| {
                let i = self.seek((s, e), router);
                i < e && self.recs[i].router == router
            })
    }

    /// Pushes a line starting `crossbar FIFO:` onto `errs` for
    /// - marks that do not count the FIFO's records;
    /// - a mark that counts none, or maturities that do not rise;
    /// - the first record whose `(maturity, router)` falls below its
    ///   predecessor's;
    ///
    /// and, if all that is sound, for each router `r < routers` whose
    /// `counted(r)` is not its number of records. Returns whether all is
    /// sound. Allocates nothing unless it reports.
    pub(crate) fn audit(
        &self,
        routers: usize,
        counted: impl Fn(usize) -> u32,
        errs: &mut Vec<String>,
    ) -> bool {
        let before = errs.len();
        let marked: usize = self.marks.iter().map(|&(_, n)| n as usize).sum();
        if marked != self.recs.len() {
            errs.push(format!(
                "crossbar FIFO: marks count {marked} records but it holds {}",
                self.recs.len()
            ));
            return false;
        }
        let mut prev: Option<(u64, u32)> = None;
        for (at, s, e) in self.segments() {
            if s == e || prev.is_some_and(|(m, _)| m >= at) {
                errs.push(format!(
                    "crossbar FIFO: the mark of cycle {at} counts {} records after cycle {}",
                    e - s,
                    prev.map_or(0, |(m, _)| m)
                ));
                return false;
            }
            for i in s..e {
                let key = (at, self.recs[i].router);
                if let Some((m, r)) = prev.filter(|&p| p > key) {
                    errs.push(format!(
                        "crossbar FIFO: record {i} (cycle {}, router {}) follows (cycle {m}, \
                         router {r})",
                        key.0, key.1
                    ));
                    return false;
                }
                prev = Some(key);
            }
        }
        for r in 0..routers {
            let held = self.records_of(r as u32).count();
            if held != counted(r) as usize {
                errs.push(format!(
                    "crossbar FIFO: router {r} has {held} records but counts {}",
                    counted(r)
                ));
            }
        }
        errs.len() == before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl XbarFifo {
        /// Test support: the records, front to back.
        pub(crate) fn records(&self) -> Vec<XbarRec> {
            self.recs.iter().copied().collect()
        }

        /// Test support: the marks, oldest first.
        pub(crate) fn marks(&self) -> Vec<(u64, u32)> {
            self.marks.iter().copied().collect()
        }
    }

    /// A record of `router` for `port`, its flit tagged `tag`.
    fn rec(router: u32, port: u16, tag: u32) -> XbarRec {
        XbarRec {
            flit: Flit {
                pkt: tag,
                idx: 0,
                len: 1,
            },
            router,
            vc: 0,
            port,
        }
    }

    /// The tags `router` drains at `now`.
    fn drain(x: &mut XbarFifo, router: u32, now: u64) -> Vec<u32> {
        let mut got = Vec::new();
        x.drain(router, now, |r| got.push(r.flit.pkt));
        got
    }

    /// The audit's findings with `counts[r]` as router r's count (empty =
    /// sound).
    fn audit(x: &XbarFifo, counts: &[u32]) -> Vec<String> {
        let mut errs = Vec::new();
        let sound = x.audit(counts.len(), |r| counts[r], &mut errs);
        assert_eq!(sound, errs.is_empty());
        errs
    }

    /// Three routers push over two cycles, each in its own order: each
    /// drains exactly its own records of a cycle, in push order, once
    /// they mature and the routers before it have drained; a router whose
    /// turn has not come drains nothing.
    #[test]
    fn interleaved_routers_drain_in_fifo_order() {
        let mut x = XbarFifo::new(3);
        let pushes = [(10, 0, 1), (10, 0, 2), (10, 2, 3), (11, 1, 4), (11, 2, 5)];
        let firsts: Vec<bool> = pushes
            .iter()
            .map(|&(now, r, tag)| x.push(now, rec(r, 0, tag)))
            .collect();
        assert_eq!(firsts, [true, false, true, true, true]);
        assert_eq!(x.marks(), [(13, 3), (14, 2)]);
        assert_eq!(audit(&x, &[2, 1, 2]), Vec::<String>::new());
        assert_eq!(drain(&mut x, 0, 12), [0u32; 0], "not yet due");
        assert_eq!(drain(&mut x, 2, 13), [0u32; 0], "router 0 is first");
        assert_eq!(drain(&mut x, 0, 13), [1, 2]);
        assert_eq!(drain(&mut x, 2, 13), [3]);
        assert_eq!(x.marks(), [(14, 2)], "the drained mark is gone");
        assert_eq!(drain(&mut x, 1, 14), [4]);
        assert_eq!(drain(&mut x, 2, 14), [5]);
        assert_eq!((x.records(), x.marks()), (vec![], vec![]));
    }

    /// With no crossbar latency a record matures the cycle it enters, so
    /// the pushing router drains it in the same tick.
    #[test]
    fn zero_latency_drains_in_the_same_cycle() {
        let mut x = XbarFifo::new(0);
        assert!(x.push(7, rec(4, 1, 9)));
        assert_eq!(x.marks(), [(7, 1)]);
        assert!(x.has_due(4, 7));
        assert_eq!(drain(&mut x, 4, 7), [9]);
        assert!(!x.has_due(4, 7));
    }

    /// Purging one router's port keeps every other record, in order, and
    /// every mark that still counts one; a mark left with none goes.
    #[test]
    fn a_purge_keeps_the_other_records_and_marks_in_order() {
        let mut x = XbarFifo::new(5);
        for (now, r, port, tag) in [(0, 0, 3, 1), (0, 1, 3, 2), (1, 1, 3, 3), (2, 0, 2, 4)] {
            x.push(now, rec(r, port, tag));
        }
        x.push(2, rec(1, 3, 5));
        let mut gone = Vec::new();
        x.purge(1, 3, |r| gone.push(r.flit.pkt));
        assert_eq!(gone, [2, 3, 5]);
        let tags: Vec<u32> = x.records().iter().map(|r| r.flit.pkt).collect();
        assert_eq!(tags, [1, 4]);
        assert_eq!(x.marks(), [(5, 1), (7, 1)]);
        assert_eq!(audit(&x, &[2, 0]), Vec::<String>::new());
        assert!(x.push(3, rec(1, 3, 6)), "a fresh cycle's mark");
        assert_eq!(x.marks(), [(5, 1), (7, 1), (8, 1)]);
    }

    /// `records_of` and `has_due` find a router's records in every
    /// segment, and only those due by the cycle asked.
    #[test]
    fn a_routers_records_are_found_in_every_segment() {
        let mut x = XbarFifo::new(2);
        for (now, r, tag) in [(0, 0, 1), (0, 2, 2), (0, 2, 3), (1, 1, 4), (1, 2, 5)] {
            x.push(now, rec(r, 0, tag));
        }
        let tags = |r| -> Vec<u32> { x.records_of(r).map(|r| r.flit.pkt).collect() };
        assert_eq!(
            (tags(0), tags(1), tags(2)),
            (vec![1], vec![4], vec![2, 3, 5])
        );
        assert_eq!(tags(3), [0u32; 0]);
        assert!(!x.has_due(1, 2) && x.has_due(1, 3) && x.has_due(2, 2));
        assert!(!x.has_due(0, 1));
    }

    /// The audit reports marks that miscount the records, a router whose
    /// count disagrees with its records, and records out of (maturity,
    /// router) order.
    #[test]
    fn audit_reports_counts_and_order() {
        let mut x = XbarFifo::new(4);
        x.push(0, rec(0, 0, 1));
        x.push(0, rec(1, 0, 2));
        x.push(1, rec(0, 0, 3));
        assert_eq!(
            audit(&x, &[2, 0]),
            ["crossbar FIFO: router 1 has 1 records but counts 0"]
        );
        x.marks[1].1 = 2;
        assert_eq!(
            audit(&x, &[2, 1]),
            ["crossbar FIFO: marks count 4 records but it holds 3"]
        );
        x.marks[1].1 = 1;
        x.recs.swap(0, 1);
        assert_eq!(
            audit(&x, &[2, 1]),
            ["crossbar FIFO: record 1 (cycle 4, router 0) follows (cycle 4, router 1)"]
        );
        x.recs.swap(0, 1);
        x.marks.push_back((2, 0));
        assert_eq!(
            audit(&x, &[2, 1]),
            ["crossbar FIFO: the mark of cycle 2 counts 0 records after cycle 5"]
        );
    }

    /// A full FIFO grows by a quarter of its length, at least 8 records.
    #[test]
    fn a_full_fifo_grows_by_a_quarter() {
        let mut x = XbarFifo::new(1);
        let mut caps = Vec::new();
        for t in 0..100 {
            x.push(t, rec(0, 0, t as u32));
            if caps.last() != Some(&x.recs.capacity()) {
                caps.push(x.recs.capacity());
            }
        }
        assert_eq!(caps, [8, 16, 24, 32, 40, 50, 62, 77, 96, 120]);
        assert_eq!(x.marks.capacity(), 120, "one mark per push cycle");
    }
}
