//! `hx serve` — the distributed-sweep daemon.
//!
//! One process owns the sweep state: clients submit specs
//! ([`crate::proto::Frame::Submit`]), the daemon expands and digests them
//! with the exact machinery `hx sweep` uses, answers what it can from the
//! shared content-addressed store, and leases the remaining points to
//! `hx work` processes. Each submission is a [`Job`] — the one `hx sweep`
//! drives too — so the JSONL a client receives is always a byte-identical
//! prefix of the single-node result, regardless of worker count,
//! completion order, or mid-sweep worker deaths. What this module adds is
//! the part only a daemon has: leases.
//!
//! ## Lease state machine
//!
//! A point is in exactly one of three states:
//!
//! * **pending** — queued, unassigned;
//! * **leased** — assigned to a worker under a lease with a deadline;
//!   every frame from that worker (heartbeats included) renews all of its
//!   leases;
//! * **filled** — its output slot holds a row (from cache, a worker, or a
//!   `kind = "failed"` degradation).
//!
//! Two paths move a leased point *back* to pending: the worker's
//! connection drops (SIGKILL, network cut — detected immediately as EOF),
//! or the lease deadline passes with no traffic (a wedged-but-connected
//! worker, caught by the sweeper thread). A result arriving under a stale
//! lease — the point was reassigned and has since been filled — is
//! dropped ([`Fill::Dropped`]).
//!
//! ## Cache semantics
//!
//! The daemon is the only store writer in a distributed sweep (workers
//! may not even share a filesystem with it). Rows are cached under the
//! same canonical digests as single-node runs, so `hx sweep` and
//! `hx submit` populate and hit one cache interchangeably; failed rows
//! are never cached. A worker is another process, possibly another
//! build's: `Job::fill` validates every row it sends before the row
//! reaches the store or the client.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::digest::digest_hex;
use crate::job::{Fill, Job};
use crate::proto::{check_hello, read_frame, write_frame, Frame, ROLE_CLIENT, ROLE_WORKER};
use crate::spec::ExperimentSpec;
use crate::store::Store;

/// Options for [`serve`].
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Bind address, e.g. `127.0.0.1:7077` or `127.0.0.1:0` (ephemeral).
    pub addr: String,
    /// Shared store directory.
    pub store_dir: std::path::PathBuf,
    /// Lease duration. A worker silent for this long forfeits its points.
    pub lease_ms: u64,
    /// Write the bound address (host:port) here once listening — how
    /// tests and scripts discover an ephemeral port.
    pub port_file: Option<std::path::PathBuf>,
    /// Suppress per-event logging.
    pub quiet: bool,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            addr: "127.0.0.1:0".to_string(),
            store_dir: std::path::PathBuf::from(crate::store::DEFAULT_STORE_DIR),
            lease_ms: 10_000,
            port_file: None,
            quiet: false,
        }
    }
}

/// How many bytes of frames a client's relay gathers before it writes: a
/// dozen rows per `write` when they are all there (a cached
/// resubmission), and small enough not to show in the daemon's footprint.
const RELAY_BATCH_BYTES: usize = 8 << 10;

/// One submitted sweep.
struct Submission {
    /// Spec source text, forwarded verbatim to workers (they re-expand it
    /// deterministically; only indices travel per point).
    spec_text: String,
    format: String,
    job: Job,
    /// Frames queued to the submitting client's writer loop.
    client: mpsc::Sender<Frame>,
}

/// An outstanding assignment.
struct Lease {
    job: u64,
    index: usize,
    worker: u64,
    deadline: Instant,
}

#[derive(Default)]
struct State {
    jobs: HashMap<u64, Submission>,
    /// Unassigned (job, point index) pairs, oldest job first.
    pending: VecDeque<(u64, usize)>,
    leases: HashMap<u64, Lease>,
}

struct Daemon {
    state: Mutex<State>,
    store: Store,
    lease_ms: u64,
    next_job: AtomicU64,
    next_worker: AtomicU64,
    next_lease: AtomicU64,
    quiet: bool,
}

impl Daemon {
    /// Locks the shared state, ignoring poisoning: one connection thread's
    /// panic must not take down every other connection and the lease
    /// sweeper with it.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn log(&self, msg: std::fmt::Arguments<'_>) {
        if !self.quiet {
            eprintln!("serve: {msg}");
        }
    }

    /// Streams `job_id`'s newly contiguous rows to its client. Returns
    /// `true` (and retires the job) when complete. Caller holds the state
    /// lock.
    fn commit(&self, state: &mut State, job_id: u64) -> bool {
        let Some(Submission { job, client, .. }) = state.jobs.get_mut(&job_id) else {
            return false;
        };
        // A send fails only once the client is gone; `handle_client`
        // abandons the job then.
        let Ok(()) = job.drain(|index, row| {
            let _ = client.send(Frame::Row {
                job: job_id,
                index: index as u64,
                row: row.to_string(),
            });
            Ok::<(), std::convert::Infallible>(())
        });
        if !job.is_complete() {
            return false;
        }
        let _ = client.send(Frame::Done {
            job: job_id,
            total: job.total() as u64,
            cached: job.cached() as u64,
            executed: job.executed() as u64,
            failed: job.failed() as u64,
        });
        self.log(format_args!("job {job_id} done: {job}"));
        state.jobs.remove(&job_id);
        true
    }

    /// Returns a leased point to the pending queue (front: reclaimed work
    /// should restart before new work so the frontier unblocks fastest).
    fn requeue(&self, state: &mut State, lease_id: u64, why: &str) {
        let Some(lease) = state.leases.remove(&lease_id) else {
            return;
        };
        // Only requeue if the slot is still empty — a racing late result
        // may have filled it.
        let live = state
            .jobs
            .get(&lease.job)
            .is_some_and(|sub| !sub.job.is_filled(lease.index));
        if live {
            self.log(format_args!(
                "reclaiming job {} point {} from worker {} ({why})",
                lease.job, lease.index, lease.worker
            ));
            state.pending.push_front((lease.job, lease.index));
        }
    }

    /// Drops every lease held by `worker` back into the pending queue.
    fn requeue_worker(&self, state: &mut State, worker: u64, why: &str) {
        let held: Vec<u64> = state
            .leases
            .iter()
            .filter(|(_, l)| l.worker == worker)
            .map(|(&id, _)| id)
            .collect();
        for id in held {
            self.requeue(state, id, why);
        }
    }

    /// Accepts a worker's result if its lease is still the live one;
    /// stale results (lease reclaimed, slot already filled) are dropped.
    fn finish(
        &self,
        state: &mut State,
        lease_id: u64,
        job_id: u64,
        index: usize,
        outcome: Result<(String, u64), String>,
    ) {
        let valid = state
            .leases
            .get(&lease_id)
            .is_some_and(|l| l.job == job_id && l.index == index);
        if !valid {
            self.log(format_args!(
                "dropping stale result for job {job_id} point {index} (lease {lease_id} expired)"
            ));
            return;
        }
        state.leases.remove(&lease_id);
        let Some(sub) = state.jobs.get_mut(&job_id) else {
            return;
        };
        match sub.job.fill(index, outcome, Some(&self.store)) {
            Ok(Fill::Dropped) => return,
            Ok(Fill::Executed) => {}
            Ok(Fill::Failed(error)) => self.log(format_args!(
                "job {job_id} point {index} FAILED on worker: {error}"
            )),
            // The row is committed all the same: the client gets its
            // result, only the next submission recomputes the point.
            Err(e) => eprintln!("serve: job {job_id} point {index}: {e}"),
        }
        self.commit(state, job_id);
    }
}

/// Runs the daemon: binds `opts.addr`, then serves clients and workers
/// until the process is killed. Never returns `Ok` — an `Err` is a bind
/// or accept failure.
pub fn serve(opts: &ServeOpts) -> Result<(), String> {
    let store = Store::open(&opts.store_dir)
        .map_err(|e| format!("cannot open store {}: {e}", opts.store_dir.display()))?;
    let listener =
        TcpListener::bind(&opts.addr).map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    if let Some(pf) = &opts.port_file {
        // Write-then-rename so a watcher never reads a half-written line.
        let tmp = pf.with_extension("tmp");
        std::fs::write(&tmp, format!("{local}\n"))
            .and_then(|_| std::fs::rename(&tmp, pf))
            .map_err(|e| format!("cannot write port file {}: {e}", pf.display()))?;
    }
    if !opts.quiet {
        eprintln!(
            "serve: listening on {local} (store {}, lease {} ms)",
            opts.store_dir.display(),
            opts.lease_ms
        );
    }

    let daemon = Arc::new(Daemon {
        state: Mutex::new(State::default()),
        store,
        lease_ms: opts.lease_ms.max(100),
        next_job: AtomicU64::new(1),
        next_worker: AtomicU64::new(1),
        next_lease: AtomicU64::new(1),
        quiet: opts.quiet,
    });

    // Lease sweeper: reclaims points from wedged-but-connected workers.
    {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(daemon.lease_ms / 4));
            let now = Instant::now();
            let mut state = daemon.state();
            let expired: Vec<u64> = state
                .leases
                .iter()
                .filter(|(_, l)| l.deadline <= now)
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                daemon.requeue(&mut state, id, "lease expired");
            }
        });
    }

    for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve: accept failed: {e}");
                continue;
            }
        };
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || {
            if let Err(e) = handle_connection(&daemon, stream) {
                daemon.log(format_args!("connection ended: {e}"));
            }
        });
    }
    Ok(())
}

fn handle_connection(daemon: &Daemon, stream: TcpStream) -> Result<(), String> {
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let mut writer = stream;
    let hello = match read_frame(&mut reader) {
        Ok(Some(f)) => f,
        Ok(None) => return Ok(()),
        Err(e) => return Err(e.to_string()),
    };
    let role = match check_hello(&hello) {
        Ok(r) => r,
        Err(message) => {
            let _ = write_frame(
                &mut writer,
                &Frame::Error {
                    message: message.clone(),
                },
            );
            return Err(format!("handshake rejected: {message}"));
        }
    };
    if role == ROLE_CLIENT {
        write_frame(
            &mut writer,
            &Frame::HelloAck {
                worker_id: 0,
                lease_ms: daemon.lease_ms,
                heartbeat_ms: daemon.lease_ms / 3,
            },
        )
        .map_err(|e| e.to_string())?;
        handle_client(daemon, reader, writer)
    } else {
        debug_assert_eq!(role, ROLE_WORKER);
        let worker_id = daemon.next_worker.fetch_add(1, Ordering::Relaxed);
        write_frame(
            &mut writer,
            &Frame::HelloAck {
                worker_id,
                lease_ms: daemon.lease_ms,
                heartbeat_ms: daemon.lease_ms / 3,
            },
        )
        .map_err(|e| e.to_string())?;
        let result = handle_worker(daemon, worker_id, reader, writer);
        // Whatever ended this connection — clean exit, SIGKILL'd peer,
        // network cut — its leases go straight back to the queue.
        let mut state = daemon.state();
        daemon.requeue_worker(&mut state, worker_id, "worker disconnected");
        result
    }
}

fn handle_client(
    daemon: &Daemon,
    mut reader: TcpStream,
    mut writer: TcpStream,
) -> Result<(), String> {
    let submit = match read_frame(&mut reader).map_err(|e| e.to_string())? {
        Some(f) => f,
        None => return Ok(()),
    };
    let Frame::Submit {
        format,
        force,
        spec: spec_text,
    } = submit
    else {
        let _ = write_frame(
            &mut writer,
            &Frame::Error {
                message: "expected Submit".to_string(),
            },
        );
        return Err("client sent a non-Submit frame".to_string());
    };

    // The daemon expands and digests the spec itself — a stale client
    // cannot poison the cache with mislabeled rows.
    let spec = match ExperimentSpec::parse(&spec_text, &format) {
        Ok(s) => s,
        Err(message) => {
            let _ = write_frame(
                &mut writer,
                &Frame::Error {
                    message: message.clone(),
                },
            );
            return Err(format!("rejected spec: {message}"));
        }
    };
    let job = Job::new(&spec, (!force).then_some(&daemon.store));
    let (total, cached) = (job.total() as u64, job.cached() as u64);
    let todo = job.todo();

    let job_id = daemon.next_job.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = mpsc::channel::<Frame>();
    daemon.log(format_args!(
        "job {job_id} ({}): {total} points, {cached} cached, {} to run",
        spec.name,
        todo.len()
    ));
    {
        let mut state = daemon.state();
        state.jobs.insert(
            job_id,
            Submission {
                spec_text,
                format,
                job,
                client: tx,
            },
        );
        for i in todo {
            state.pending.push_back((job_id, i));
        }
        write_frame(
            &mut writer,
            &Frame::Accepted {
                job: job_id,
                total,
                cached,
            },
        )
        .map_err(|e| e.to_string())?;
        // Fully cached (or empty) jobs finish inside this call.
        daemon.commit(&mut state, job_id);
    }

    // Writer loop: relay committed rows until Done. Whatever is already
    // queued rides in one write, cut at a frame boundary once the batch
    // is full; an empty queue flushes, so a row never waits for a later
    // one. A write error means the client vanished — abandon the job so
    // workers stop burning cycles on it (their in-flight results will be
    // dropped as stale).
    let mut wire = Vec::new();
    let mut outcome = Ok(());
    while let Ok(mut frame) = rx.recv() {
        let done = loop {
            let done = matches!(frame, Frame::Done { .. });
            frame.encode_into(&mut wire);
            if done || wire.len() >= RELAY_BATCH_BYTES {
                break done;
            }
            match rx.try_recv() {
                Ok(next) => frame = next,
                Err(_) => break false,
            }
        };
        if let Err(e) = writer.write_all(&wire) {
            outcome = Err(format!("client write failed: {e}"));
            break;
        }
        wire.clear();
        if done {
            return Ok(());
        }
    }
    let mut state = daemon.state();
    if state.jobs.remove(&job_id).is_some() {
        state.pending.retain(|&(j, _)| j != job_id);
        daemon.log(format_args!("job {job_id} abandoned (client went away)"));
    }
    outcome
}

fn handle_worker(
    daemon: &Daemon,
    worker_id: u64,
    mut reader: TcpStream,
    mut writer: TcpStream,
) -> Result<(), String> {
    // Jobs whose spec this worker has already received on this connection.
    let mut specs_sent: std::collections::HashSet<u64> = std::collections::HashSet::new();
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(()),
            Err(e) => return Err(e.to_string()),
        };
        // Any traffic proves liveness: renew every lease this worker holds.
        {
            let mut state = daemon.state();
            let deadline = Instant::now() + Duration::from_millis(daemon.lease_ms);
            for lease in state.leases.values_mut() {
                if lease.worker == worker_id {
                    lease.deadline = deadline;
                }
            }
        }
        match frame {
            Frame::Heartbeat => {}
            Frame::WorkRequest => {
                // Pop under the lock, but send after releasing it: the
                // Spec frame can be large and the socket can block.
                let assignment = {
                    let mut state = daemon.state();
                    match state.pending.pop_front() {
                        None => None,
                        Some((job_id, index)) => {
                            let lease_id = daemon.next_lease.fetch_add(1, Ordering::Relaxed);
                            state.leases.insert(
                                lease_id,
                                Lease {
                                    job: job_id,
                                    index,
                                    worker: worker_id,
                                    deadline: Instant::now()
                                        + Duration::from_millis(daemon.lease_ms),
                                },
                            );
                            let sub = state.jobs.get(&job_id).expect("pending implies job");
                            let spec = (!specs_sent.contains(&job_id))
                                .then(|| (sub.format.clone(), sub.spec_text.clone()));
                            Some((
                                job_id,
                                index,
                                lease_id,
                                digest_hex(sub.job.digest(index)),
                                spec,
                            ))
                        }
                    }
                };
                match assignment {
                    None => {
                        write_frame(
                            &mut writer,
                            &Frame::NoWork {
                                backoff_ms: (daemon.lease_ms / 20).clamp(10, 500),
                            },
                        )
                        .map_err(|e| e.to_string())?;
                    }
                    Some((job_id, index, lease_id, digest, spec)) => {
                        if let Some((format, spec_text)) = spec {
                            write_frame(
                                &mut writer,
                                &Frame::Spec {
                                    job: job_id,
                                    format,
                                    spec: spec_text,
                                },
                            )
                            .map_err(|e| e.to_string())?;
                            specs_sent.insert(job_id);
                        }
                        write_frame(
                            &mut writer,
                            &Frame::Assign {
                                job: job_id,
                                index: index as u64,
                                lease: lease_id,
                                digest,
                            },
                        )
                        .map_err(|e| e.to_string())?;
                    }
                }
            }
            Frame::RowResult {
                job,
                index,
                lease,
                elapsed_ms,
                row,
            } => {
                let mut state = daemon.state();
                daemon.finish(
                    &mut state,
                    lease,
                    job,
                    index as usize,
                    Ok((row, elapsed_ms)),
                );
            }
            Frame::FailResult {
                job,
                index,
                lease,
                error,
            } => {
                let mut state = daemon.state();
                daemon.finish(&mut state, lease, job, index as usize, Err(error));
            }
            Frame::Error { message } => {
                return Err(format!("worker {worker_id} reported: {message}"));
            }
            other => {
                daemon.log(format_args!(
                    "worker {worker_id} sent unexpected frame {other:?}; ignoring"
                ));
            }
        }
    }
}
