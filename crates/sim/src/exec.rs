//! Deterministic sharded execution of the network tick.
//!
//! Every channel has latency >= 1 (`Channel::new` asserts it), so nothing
//! an endpoint sends at cycle `t` is visible anywhere before `t + 1` —
//! router and terminal ticks within one cycle commute. `Network::tick`
//! exploits this with a two-phase cycle over the cycle's *due* endpoints
//! (sorted by id: every endpoint under the cycle engine, the set popped
//! from `crate::event`'s queue under the event engine):
//!
//! 1. **Compute**: shards of due routers (then due terminals) tick against
//!    an immutable pre-cycle view of the channels and the packet pool,
//!    writing every side effect — flit/credit sends, pool refcount deltas,
//!    stat counters, metric events, trace hops, deliveries — into a
//!    per-shard [`TickSink`] outbox instead of shared state.
//! 2. **Commit**: a single thread drains the outboxes in shard order
//!    (all router shards ascending by router id, then all terminal shards
//!    ascending by terminal id). The due set, the shard boundaries
//!    ([`shard_range`]) and the replay order all derive from endpoint ids
//!    alone — never from which thread ran which shard — so the result is
//!    bit-identical for every thread count, including `tick_threads = 1`,
//!    which runs the same shard closure inline.
//!
//! The free-list order of `PacketPool` is simulation-visible (future
//! `PacketId`s feed age-based arbitration tie-breaks), which is why pool
//! mutations ride the outbox as [`PoolOp`]s and replay serially.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use hxcore::Commit;

use crate::metrics::PhaseTimers;
use crate::packet::{Flit, PacketId};
use crate::stats::Stats;
use crate::trace::HopRecord;
use crate::workload::Delivered;

/// How many shards `len` due ids split into at `threads` tick threads: one
/// per thread, never more than there are ids.
pub(crate) fn shard_count(len: usize, threads: usize) -> usize {
    threads.min(len)
}

/// The `i`-th of `shards` contiguous index ranges that together cover
/// `0..len` exactly once, in order (sizes differ by at most one).
pub(crate) fn shard_range(len: usize, shards: usize, i: usize) -> std::ops::Range<usize> {
    i * len / shards..(i + 1) * len / shards
}

/// A deferred `PacketPool` / packet mutation, replayed at commit time in
/// shard order so the pool's free list evolves identically for every
/// thread count.
pub(crate) enum PoolOp {
    /// `PacketPool::note_flit_created` (buffer pins and wire flits).
    Created(PacketId),
    /// `PacketPool::note_flit_gone`.
    Gone(PacketId),
    /// `PacketPool::release` (terminal consumed the tail).
    Release(PacketId),
    /// A VC-allocation grant's packet-state update: routing commit plus
    /// the hop count when the grant crosses a router-to-router link.
    Commit {
        pkt: PacketId,
        commit: Commit,
        count_hop: bool,
    },
    /// Stamp `Packet::inject` (head flit left the source terminal queue).
    Inject { pkt: PacketId, cycle: u64 },
    /// Livelock hop-cap drop: poison the packet and record the drop.
    HopPoison(PacketId),
}

/// A deferred metrics callback (the only in-tick metric mutations).
pub(crate) enum MetricEvent {
    Grant {
        router: u32,
        out_port: u16,
        oldest: bool,
        ejection: bool,
        nonminimal: bool,
        commit_dim: Option<u8>,
    },
    Stall {
        router: u32,
        out_port: u16,
        credit_starved: bool,
    },
}

/// Per-shard outbox: everything one compute-phase shard wants to do to
/// shared state, buffered for the serial commit phase.
#[derive(Default)]
pub(crate) struct TickSink {
    /// Record trace hop events (trace enabled this cycle).
    pub want_trace: bool,
    /// Record metric grant/stall events (metrics enabled this cycle).
    pub want_metrics: bool,
    /// Measure phase wall time (metrics timers enabled this cycle).
    pub timed: bool,
    /// Flit sends: (channel id, flit, vc).
    pub flits: Vec<(usize, Flit, u8)>,
    /// Credit sends: (channel id, vc).
    pub credits: Vec<(usize, u8)>,
    /// Deferred pool mutations, in program order.
    pub pool_ops: Vec<PoolOp>,
    /// Counter deltas for this shard (merged via `Stats::merge_delta`).
    pub stats: Stats,
    /// Deliveries, in terminal-tick order.
    pub delivered: Vec<Delivered>,
    /// Metric events, in grant/stall order.
    pub events: Vec<MetricEvent>,
    /// Trace hop records.
    pub hops: Vec<HopRecord>,
    /// Phase wall time attributed to this shard.
    pub timers: PhaseTimers,
}

impl TickSink {
    /// Empties the outbox (keeping capacity) and arms the observation
    /// flags for the coming cycle.
    pub fn reset(&mut self, want_trace: bool, want_metrics: bool, timed: bool) {
        self.want_trace = want_trace;
        self.want_metrics = want_metrics;
        self.timed = timed;
        self.flits.clear();
        self.credits.clear();
        self.pool_ops.clear();
        self.stats = Stats::default();
        self.delivered.clear();
        self.events.clear();
        self.hops.clear();
        self.timers = PhaseTimers::default();
    }
}

/// Type-erased shard job. The raw pointer outlives the borrow checker's
/// sight; safety comes from [`TickPool::run`] blocking until every worker
/// has finished the epoch before the closure (and everything it borrows)
/// can go out of scope.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

unsafe impl Send for Job {}

struct PoolState {
    /// Monotonic epoch counter; bumped per `run` call.
    epoch: u64,
    job: Option<Job>,
    tasks: usize,
    /// Next unclaimed task index.
    next: usize,
    /// Workers that have completed the current epoch.
    finished: usize,
    shutdown: bool,
    panicked: bool,
}

struct PoolShared {
    /// Spin iterations before a worker parks (0 when oversubscribed).
    spin_limit: u32,
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Lock-free copy of the epoch for the workers' spin fast path: the
    /// gap between ticks is just the serial commit phase, so a short spin
    /// usually catches the next epoch without a condvar round trip.
    epoch_hint: AtomicU64,
}

/// A persistent pool of tick workers. Spawning threads per cycle costs
/// more than a small router shard's compute; these workers live as long
/// as the `Network` and spin briefly between cycles before parking.
pub(crate) struct TickPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

/// Spin iterations before a worker parks on the condvar.
const SPIN_LIMIT: u32 = 1 << 14;

impl TickPool {
    /// Spawns `workers` background threads; the caller of [`Self::run`]
    /// participates as one more, so total parallelism is `workers + 1`.
    pub fn new(workers: usize) -> Self {
        // Spinning between epochs only pays off when every thread owns a
        // core; oversubscribed workers would just steal the caller's
        // timeslice, so they park immediately instead.
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let spin_limit = if workers + 1 > cores { 0 } else { SPIN_LIMIT };
        let shared = Arc::new(PoolShared {
            spin_limit,
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                tasks: 0,
                next: 0,
                // Epoch 0 never ran; every worker counts as checked out.
                finished: workers,
                shutdown: false,
                panicked: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            epoch_hint: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let sh = shared.clone();
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        TickPool {
            shared,
            workers: handles,
        }
    }

    /// Runs `f(0..tasks)` across the pool, the caller included, and
    /// returns only after *every* worker has finished the epoch — which is
    /// what makes handing out the borrowed closure sound.
    pub fn run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        // Erase the borrow lifetime; run() outlives every use (see Job).
        let raw: *const (dyn Fn(usize) + Sync + '_) = f;
        let job = Job(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
                raw,
            )
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert_eq!(st.finished, self.workers.len(), "previous epoch unfinished");
            st.job = Some(job);
            st.tasks = tasks;
            st.next = 0;
            st.finished = 0;
            st.epoch += 1;
            self.shared.epoch_hint.store(st.epoch, Ordering::Release);
        }
        self.shared.work_cv.notify_all();

        // The caller claims tasks alongside the workers.
        loop {
            let i = {
                let mut st = self.shared.state.lock().unwrap();
                if st.next >= st.tasks {
                    break;
                }
                let i = st.next;
                st.next += 1;
                i
            };
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                self.shared.state.lock().unwrap().panicked = true;
            }
        }

        // Wait for every worker to check out of the epoch before the
        // borrowed job can die.
        let mut st = self.shared.state.lock().unwrap();
        while st.finished < self.workers.len() {
            st = self.shared.done_cv.wait(st).unwrap();
        }
        st.job = None;
        let poisoned = st.panicked;
        st.panicked = false;
        drop(st);
        if poisoned {
            panic!("a parallel tick shard panicked");
        }
    }
}

impl Drop for TickPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            // Unblock spinners still watching the epoch hint.
            self.shared.epoch_hint.store(u64::MAX, Ordering::Release);
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen = 0u64;
    loop {
        // Spin briefly for the next epoch, then park.
        let mut spins = 0u32;
        while shared.epoch_hint.load(Ordering::Acquire) == seen && spins < shared.spin_limit {
            spins += 1;
            std::hint::spin_loop();
        }
        let (epoch, job) = {
            let mut st = shared.state.lock().unwrap();
            while st.epoch == seen && !st.shutdown {
                st = shared.work_cv.wait(st).unwrap();
            }
            if st.shutdown {
                return;
            }
            (st.epoch, st.job.expect("armed epoch without a job"))
        };
        seen = epoch;
        loop {
            let i = {
                let mut st = shared.state.lock().unwrap();
                if st.next >= st.tasks {
                    break;
                }
                let i = st.next;
                st.next += 1;
                i
            };
            let f = unsafe { &*job.0 };
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                shared.state.lock().unwrap().panicked = true;
            }
        }
        // Check out: run() returns only once every worker has done this,
        // so the job pointer never outlives its borrow.
        {
            let mut st = shared.state.lock().unwrap();
            st.finished += 1;
        }
        shared.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Every (due-set length, thread count) splits into at most `threads`
    /// in-bounds shards that cover every index exactly once, in order —
    /// including lengths shorter than the thread count and length zero.
    #[test]
    fn shard_ranges_partition_the_due_set() {
        for len in 0..=40usize {
            for threads in 1..=9usize {
                let shards = shard_count(len, threads);
                assert!(shards <= threads, "len {len} threads {threads}");
                assert_eq!(shards == 0, len == 0, "len {len} threads {threads}");
                let covered: Vec<usize> = (0..shards)
                    .flat_map(|i| shard_range(len, shards, i))
                    .collect();
                assert!(
                    covered.iter().copied().eq(0..len),
                    "len {len} threads {threads}: {covered:?}"
                );
                // Slicing with every range must not panic, and no shard of
                // a balanced split sits idle.
                let ids = vec![0u32; len];
                for i in 0..shards {
                    assert!(!ids[shard_range(len, shards, i)].is_empty());
                }
            }
        }
    }

    #[test]
    fn pool_runs_every_task_exactly_once() {
        let pool = TickPool::new(3);
        for round in 0..50 {
            let hits: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
            pool.run(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "round {round} task {i}");
            }
        }
    }

    #[test]
    fn pool_with_zero_workers_runs_inline() {
        let pool = TickPool::new(0);
        let sum = AtomicUsize::new(0);
        pool.run(10, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn pool_propagates_shard_panics() {
        let pool = TickPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "shard panic must surface to the caller");
        // The pool stays usable after a panic.
        let n = AtomicUsize::new(0);
        pool.run(4, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 4);
    }
}
