//! `hx work` — a sweep worker process.
//!
//! Connects to an `hx serve` daemon, pulls point assignments, executes
//! them with the exact single-node runner ([`crate::runner::run_point`]),
//! and streams result rows back. The daemon ships each job's spec source
//! once; the worker re-expands it with the same deterministic machinery,
//! so an assignment is just an index (plus the point digest, which the
//! worker recomputes and cross-checks — any divergence means the two
//! builds would not produce bit-identical results, and the worker bails
//! loudly rather than poison the cache).
//!
//! A background thread heartbeats at the daemon's advertised interval so
//! long-running points keep their leases. Test hooks (`--slow-ms`,
//! `--stall-after`, `--max-points`) make worker death, worker stalls, and
//! bounded runs deterministic enough for CI to choreograph.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::digest::{digest_hex, point_digest};
use crate::proto::{read_frame, write_frame, Frame, ROLE_WORKER};
use crate::runner::run_point;
use crate::spec::{ExperimentSpec, Point};

/// Options for [`work`].
#[derive(Clone, Debug, Default)]
pub struct WorkOpts {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Accepted and ignored: a point runs on one thread. Kept only because
    /// the benchmark package (`perf/`) still sets it; the next
    /// `[benchmark]` change deletes it together with `sim.tick2_ratio`.
    pub tick_threads: usize,
    /// Exit cleanly after completing this many points (tests/CI).
    pub max_points: Option<usize>,
    /// Test hook: after completing this many points, accept one more
    /// assignment and then *stall* — stop heartbeating and never execute
    /// it. Exercises the daemon's lease-expiry reclamation path (the
    /// connection stays open, so disconnect detection never fires).
    pub stall_after: Option<usize>,
    /// Test hook: sleep this long before executing each point, while
    /// heartbeating normally. Makes "worker is mid-point" a state a test
    /// can reliably SIGKILL.
    pub slow_ms: u64,
    /// Suppress per-point logging.
    pub quiet: bool,
}

/// Runs the worker loop until the daemon goes away or `max_points` is
/// reached. Returns `Ok` on a clean exit (daemon closed, quota reached).
pub fn work(opts: &WorkOpts) -> Result<(), String> {
    let stream =
        TcpStream::connect(&opts.addr).map_err(|e| format!("cannot connect {}: {e}", opts.addr))?;
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    // The heartbeat thread and the main loop share the write half; frames
    // interleave only at frame boundaries thanks to this mutex.
    let writer = Arc::new(Mutex::new(stream));

    send(&writer, &crate::proto::hello(ROLE_WORKER)).map_err(|e| e.to_string())?;
    let (worker_id, heartbeat_ms) = match read_frame(&mut reader).map_err(|e| e.to_string())? {
        Some(Frame::HelloAck {
            worker_id,
            heartbeat_ms,
            ..
        }) => (worker_id, heartbeat_ms.max(10)),
        Some(Frame::Error { message }) => return Err(format!("daemon rejected us: {message}")),
        other => return Err(format!("expected HelloAck, got {other:?}")),
    };
    if !opts.quiet {
        eprintln!("work: connected to {} as worker {worker_id}", opts.addr);
    }

    let stop_heartbeat = Arc::new(AtomicBool::new(false));
    {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&stop_heartbeat);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(heartbeat_ms));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if send(&writer, &Frame::Heartbeat).is_err() {
                    break;
                }
            }
        });
    }

    // Each job's points, re-expanded from the spec the daemon sent.
    let mut specs: HashMap<u64, Vec<Point>> = HashMap::new();
    let mut completed = 0usize;

    loop {
        if opts.max_points.is_some_and(|cap| completed >= cap) {
            if !opts.quiet {
                eprintln!("work: reached --max-points {completed}, exiting");
            }
            stop_heartbeat.store(true, Ordering::Relaxed);
            return Ok(());
        }
        send(&writer, &Frame::WorkRequest).map_err(|e| e.to_string())?;
        // One WorkRequest yields Spec? then Assign, or NoWork.
        let assignment = loop {
            match read_frame(&mut reader) {
                Ok(Some(Frame::Spec { job, format, spec })) => {
                    let parsed = ExperimentSpec::parse(&spec, &format)
                        .map_err(|e| format!("daemon sent an unparsable spec: {e}"))?;
                    specs.insert(job, parsed.expand());
                }
                Ok(Some(Frame::Assign {
                    job,
                    index,
                    lease,
                    digest,
                })) => break Some((job, index as usize, lease, digest)),
                Ok(Some(Frame::NoWork { backoff_ms })) => {
                    std::thread::sleep(Duration::from_millis(backoff_ms.clamp(1, 2_000)));
                    break None;
                }
                Ok(Some(Frame::Error { message })) => {
                    return Err(format!("daemon error: {message}"))
                }
                Ok(Some(other)) => {
                    if !opts.quiet {
                        eprintln!("work: ignoring unexpected frame {other:?}");
                    }
                }
                Ok(None) => {
                    if !opts.quiet {
                        eprintln!("work: daemon closed the connection, exiting");
                    }
                    stop_heartbeat.store(true, Ordering::Relaxed);
                    return Ok(());
                }
                Err(e) => return Err(e.to_string()),
            }
        };
        let Some((job, index, lease, digest)) = assignment else {
            continue;
        };

        if opts.stall_after.is_some_and(|n| completed >= n) {
            // Simulate a wedged worker: lease claimed, heartbeats stop,
            // point never executes. The daemon must reclaim it when the
            // lease expires — the connection deliberately stays open.
            if !opts.quiet {
                eprintln!("work: stalling on job {job} point {index} (--stall-after)");
            }
            stop_heartbeat.store(true, Ordering::Relaxed);
            loop {
                std::thread::sleep(Duration::from_millis(250));
            }
        }

        let point = specs
            .get(&job)
            .ok_or_else(|| format!("assigned job {job} before its spec"))?
            .get(index)
            .ok_or_else(|| format!("job {job} has no point {index}"))?;
        let local_digest = digest_hex(point_digest(point));
        if local_digest != digest {
            // Should be unreachable behind the handshake version pin;
            // refuse to compute under a wrong identity.
            let message = format!(
                "digest mismatch on job {job} point {index}: daemon {digest}, worker {local_digest}"
            );
            let _ = send(
                &writer,
                &Frame::Error {
                    message: message.clone(),
                },
            );
            stop_heartbeat.store(true, Ordering::Relaxed);
            return Err(message);
        }

        if opts.slow_ms > 0 {
            std::thread::sleep(Duration::from_millis(opts.slow_ms));
        }
        let outcome = run_point(point, None);
        if !opts.quiet {
            eprintln!(
                "work: job {job} point {index} {point} ({})",
                match &outcome {
                    Ok(run) => format!("{} ms", run.elapsed_ms),
                    Err(error) => format!("FAILED: {error}"),
                }
            );
        }
        let frame = match outcome {
            Ok(run) => Frame::RowResult {
                job,
                index: index as u64,
                lease,
                elapsed_ms: run.elapsed_ms,
                row: run.row,
            },
            Err(error) => Frame::FailResult {
                job,
                index: index as u64,
                lease,
                error,
            },
        };
        send(&writer, &frame).map_err(|e| e.to_string())?;
        completed += 1;
    }
}

/// Writes one frame on the write half the heartbeat thread shares,
/// ignoring poisoning: the lock exists only to keep frames whole.
fn send(writer: &Mutex<TcpStream>, frame: &Frame) -> std::io::Result<()> {
    write_frame(
        &mut *writer.lock().unwrap_or_else(PoisonError::into_inner),
        frame,
    )
}
