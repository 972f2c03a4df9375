//! End-to-end tests for the distributed sweep service: a real `hx serve`
//! daemon and real `hx work` / `hx submit` processes (spawned via
//! `CARGO_BIN_EXE_hx`) over loopback TCP.
//!
//! The invariants pinned here are the acceptance criteria of the
//! subsystem:
//!
//! * a distributed sweep's merged JSONL is **byte-identical** to a
//!   single-node `run_sweep` of the same spec;
//! * a second submission from a fresh client process is answered 100%
//!   from the shared store;
//! * a worker SIGKILLed while holding a lease (connection drops) and a
//!   worker that stalls while staying connected (lease expires) both
//!   have their points reclaimed, with no duplicate or reordered rows.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hxharness::spec::Axes;
use hxharness::{run_sweep, ExperimentSpec, Kind, NetworkSpec, SweepOpts};
use hxsim::{SimConfig, SteadyOpts};

const HX: &str = env!("CARGO_BIN_EXE_hx");

const SPEC_TOML: &str = r#"
[experiment]
name = "serve_e2e"
kind = "steady"

[network]
dims = 2
width = 2
terminals = 1

[axes]
pattern = ["UR"]
algo = ["DOR", "DimWAR"]
load = [0.1, 0.2]
seed = [1]

[steady]
warmup_window = 200
max_warmup_windows = 3
measure_cycles = 400
"#;

/// The same sweep, as the in-process golden reference.
fn golden_spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "serve_e2e".to_string(),
        kind: Kind::Steady,
        description: String::new(),
        network: NetworkSpec {
            dims: 2,
            width: 2,
            terminals: 1,
        },
        axes: Axes {
            patterns: vec!["UR".to_string()],
            algos: vec!["DOR".to_string(), "DimWAR".to_string()],
            loads: vec![0.1, 0.2],
            seeds: vec![1],
            fails: vec![0],
            router_fails: vec![0],
            retransmit: vec![0],
        },
        sim: SimConfig::default(),
        steady: SteadyOpts {
            warmup_window: 200,
            max_warmup_windows: 3,
            measure_cycles: 400,
            ..SteadyOpts::default()
        },
        fault: Default::default(),
    }
}

struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("hx_serve_test_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        TmpDir(p)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Kills the child on drop so a failed assertion never leaks daemons.
struct Guard(Child);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

fn spawn_daemon(tmp: &TmpDir, lease_ms: u64) -> (Guard, String) {
    spawn_daemon_logging(tmp, lease_ms, None)
}

/// With `log`, the daemon is not `--quiet` and its event log lands there.
fn spawn_daemon_logging(tmp: &TmpDir, lease_ms: u64, log: Option<&Path>) -> (Guard, String) {
    let port_file = tmp.path("port");
    let child = Command::new(HX)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--store",
            tmp.path("store").to_str().unwrap(),
            "--port-file",
            port_file.to_str().unwrap(),
            "--lease-ms",
            &lease_ms.to_string(),
        ])
        .args(log.is_none().then_some("--quiet"))
        .stdout(Stdio::null())
        .stderr(log.map_or_else(Stdio::null, |p| {
            std::fs::File::create(p).expect("create daemon log").into()
        }))
        .spawn()
        .expect("spawn hx serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            let s = s.trim().to_string();
            if !s.is_empty() {
                break s;
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never wrote its port file"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    // The daemon binds before writing the file, so this connects.
    TcpStream::connect(&addr).expect("daemon must be accepting");
    (Guard(child), addr)
}

fn spawn_worker(addr: &str, extra: &[&str]) -> Guard {
    let mut args = vec!["work", "--addr", addr, "--quiet"];
    args.extend_from_slice(extra);
    Guard(
        Command::new(HX)
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn hx work"),
    )
}

fn submit_args(spec: &Path, addr: &str, out: &Path) -> Vec<String> {
    [
        "submit",
        spec.to_str().unwrap(),
        "--addr",
        addr,
        "--out",
        out.to_str().unwrap(),
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn wait_with_timeout(child: &mut Child, secs: u64, what: &str) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "{what} did not finish in {secs}s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn golden(tmp: &TmpDir) -> String {
    let out = tmp.path("golden.jsonl");
    let report =
        run_sweep(&golden_spec(), None, Some(&out), &SweepOpts::default()).expect("golden sweep");
    assert!(report.complete && report.failed.is_empty());
    std::fs::read_to_string(&out).unwrap()
}

fn read(p: &Path) -> String {
    std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

#[test]
fn distributed_sweep_is_byte_identical_and_second_submit_all_cached() {
    let tmp = TmpDir::new("basic");
    let spec_path = tmp.path("spec.toml");
    std::fs::write(&spec_path, SPEC_TOML).unwrap();
    let want = golden(&tmp);

    let (_daemon, addr) = spawn_daemon(&tmp, 10_000);
    let _w1 = spawn_worker(&addr, &[]);
    let _w2 = spawn_worker(&addr, &[]);

    let out1 = tmp.path("out1.jsonl");
    let status = Command::new(HX)
        .args(submit_args(&spec_path, &addr, &out1))
        .status()
        .expect("run hx submit");
    assert!(status.success(), "first submit failed: {status}");
    assert_eq!(
        read(&out1),
        want,
        "distributed output must be byte-identical to single-node"
    );

    // Fresh client process; every point must come from the shared store.
    let out2 = tmp.path("out2.jsonl");
    let mut args = submit_args(&spec_path, &addr, &out2);
    args.push("--expect-cached".to_string());
    let output = Command::new(HX)
        .args(&args)
        .output()
        .expect("second submit");
    assert!(
        output.status.success(),
        "--expect-cached submit failed:\n{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("4 points, 4 cached, 0 executed"),
        "expected an all-cached report, got: {stdout}"
    );
    assert_eq!(read(&out2), want);
}

#[test]
fn sigkilled_worker_lease_is_reclaimed_via_disconnect() {
    let tmp = TmpDir::new("sigkill");
    let spec_path = tmp.path("spec.toml");
    std::fs::write(&spec_path, SPEC_TOML).unwrap();
    let want = golden(&tmp);

    let (_daemon, addr) = spawn_daemon(&tmp, 60_000);
    // Slow worker: claims a point, then sleeps 60 s before executing it
    // (heartbeating all the while) — a stable SIGKILL target. The long
    // lease guarantees only the disconnect path can reclaim its point.
    let mut slow = spawn_worker(&addr, &["--slow-ms", "60000"]);

    let out = tmp.path("out.jsonl");
    let mut submit = Command::new(HX)
        .args(submit_args(&spec_path, &addr, &out))
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn hx submit");

    // Let the slow worker claim its lease, then SIGKILL it mid-point.
    std::thread::sleep(Duration::from_millis(1_000));
    slow.0.kill().expect("SIGKILL slow worker");
    slow.0.wait().ok();

    // A healthy worker arrives only now: every row it produces for the
    // reclaimed point flows through the same commit frontier.
    let _w = spawn_worker(&addr, &[]);
    let status = wait_with_timeout(&mut submit, 120, "submit after SIGKILL");
    assert!(status.success(), "submit failed: {status}");
    assert_eq!(
        read(&out),
        want,
        "reclaimed sweep must stay byte-identical — no dup/missing/reordered rows"
    );
}

#[test]
fn stalled_worker_lease_expires_and_is_reclaimed() {
    let tmp = TmpDir::new("stall");
    let spec_path = tmp.path("spec.toml");
    std::fs::write(&spec_path, SPEC_TOML).unwrap();
    let want = golden(&tmp);

    // Short lease: the sweeper must reclaim a silent-but-connected
    // worker's point within ~2 lease periods.
    let (_daemon, addr) = spawn_daemon(&tmp, 1_200);
    // Stalls on its first assignment: keeps the TCP connection open but
    // stops heartbeating and never executes — only lease expiry can
    // recover this point.
    let _stalled = spawn_worker(&addr, &["--stall-after", "0"]);

    let out = tmp.path("out.jsonl");
    let mut submit = Command::new(HX)
        .args(submit_args(&spec_path, &addr, &out))
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn hx submit");

    // Give the stalled worker time to claim its lease, then add a
    // healthy worker to drain the sweep (including the expired lease).
    std::thread::sleep(Duration::from_millis(800));
    let _w = spawn_worker(&addr, &[]);
    let status = wait_with_timeout(&mut submit, 120, "submit with stalled worker");
    assert!(status.success(), "submit failed: {status}");
    assert_eq!(read(&out), want);
}

// ---- in-process peers: one side real, the other a fake speaking `proto` ----

use std::net::TcpListener;
use std::sync::mpsc;

use hxharness::proto::{hello, read_frame, write_frame, Frame, ROLE_WORKER};
use hxharness::{execute_point, point_digest, serve, submit_text, ServeOpts, Store};

/// Runs `f` on a thread and fails the test if it has not returned after
/// `secs`: a wedged daemon must show up as a failure, not a hung suite.
fn within<T: Send + 'static>(secs: u64, what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what} did not finish in {secs}s"))
}

/// A worker is another process, possibly another build's, and the daemon
/// used to store and forward whatever row it sent. This fake worker
/// answers three of the four points with rows that would have split the
/// client's JSONL, poisoned the store entry, or filed a result under the
/// wrong digest. Each must degrade to a `kind = "failed"` row, reach the
/// client as exactly one line, and never be cached; the sound fourth
/// point is unaffected.
#[test]
fn rows_a_worker_sends_are_validated_before_they_are_stored_or_forwarded() {
    let tmp = TmpDir::new("fake_worker");
    let port_file = tmp.path("port");
    let opts = ServeOpts {
        store_dir: tmp.path("store"),
        lease_ms: 60_000,
        port_file: Some(port_file.clone()),
        quiet: true,
        ..ServeOpts::default()
    };
    // `serve` never returns; the thread ends with the test process.
    std::thread::spawn(move || serve(&opts));
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        match std::fs::read_to_string(&port_file) {
            Ok(s) if !s.trim().is_empty() => break s.trim().to_string(),
            _ => assert!(
                Instant::now() < deadline,
                "daemon never wrote its port file"
            ),
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    let points = golden_spec().expand();
    let good_row = execute_point(&points[3], 1, None).0;
    let (worker_addr, other_points_row) = (addr.clone(), good_row.clone());
    std::thread::spawn(move || {
        let mut conn = TcpStream::connect(&worker_addr).unwrap();
        write_frame(&mut conn, &hello(ROLE_WORKER)).unwrap();
        assert!(matches!(
            read_frame(&mut conn).unwrap(),
            Some(Frame::HelloAck { .. })
        ));
        loop {
            write_frame(&mut conn, &Frame::WorkRequest).unwrap();
            let (job, index, lease) = loop {
                match read_frame(&mut conn).unwrap() {
                    Some(Frame::Spec { .. }) => {}
                    Some(Frame::Assign {
                        job, index, lease, ..
                    }) => break (job, index, lease),
                    Some(Frame::NoWork { .. }) => {
                        std::thread::sleep(Duration::from_millis(10));
                        write_frame(&mut conn, &Frame::WorkRequest).unwrap();
                    }
                    other => panic!("fake worker got {other:?}"),
                }
            };
            let honest = execute_point(&points[index as usize], 1, None).0;
            let row = match index {
                0 => honest.replacen(',', ",\n", 1),
                1 => format!("[{honest}]"),
                // A sound row — of another point.
                2 => other_points_row.clone(),
                _ => honest,
            };
            let result = Frame::RowResult {
                job,
                index,
                lease,
                elapsed_ms: 1,
                row,
            };
            write_frame(&mut conn, &result).unwrap();
        }
    });

    let out = tmp.path("out.jsonl");
    let (submit_addr, submit_out) = (addr.clone(), out.clone());
    let report = within(60, "submission to a daemon fed bad rows", move || {
        submit_text(
            &submit_addr,
            SPEC_TOML,
            "toml",
            false,
            Some(&submit_out),
            false,
        )
    })
    .expect("the sweep completes");
    assert_eq!(
        (report.total, report.cached, report.executed, report.failed),
        (4, 0, 1, 3)
    );
    for (i, why) in [(0, "line break"), (1, "not a JSON object"), (2, "digest")] {
        let row = &report.rows[i];
        assert!(
            row.contains("\"kind\":\"failed\"") && row.contains(why),
            "{row}"
        );
    }
    assert_eq!(report.rows[3], good_row);
    let text = read(&out);
    assert_eq!(text.lines().count(), 4, "one line per point:\n{text}");
    assert_eq!(text.lines().collect::<Vec<_>>(), report.rows);

    // Only the sound row was cached, under its own digest.
    let store = Store::open(&tmp.path("store")).unwrap();
    let cached: Vec<bool> = golden_spec()
        .expand()
        .iter()
        .map(|p| store.lookup(point_digest(p)).is_some())
        .collect();
    assert_eq!(cached, [false, false, false, true]);
    assert_eq!(store.scan().unwrap().len(), 1);
}

/// `Accepted.total` is the daemon's word. A corrupt or hostile value must
/// surface as the error the read loop reports, not as an allocation of
/// that many rows (which aborts the process).
#[test]
fn client_does_not_allocate_on_the_daemons_say_so() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        assert!(matches!(
            read_frame(&mut conn).unwrap(),
            Some(Frame::Hello { .. })
        ));
        let ack = Frame::HelloAck {
            worker_id: 0,
            lease_ms: 1_000,
            heartbeat_ms: 300,
        };
        write_frame(&mut conn, &ack).unwrap();
        assert!(matches!(
            read_frame(&mut conn).unwrap(),
            Some(Frame::Submit { .. })
        ));
        let accepted = Frame::Accepted {
            job: 1,
            total: i64::MAX as u64,
            cached: 0,
        };
        write_frame(&mut conn, &accepted).unwrap();
        // ...and hang up without sending a row.
    });
    let result = within(30, "submission to a lying daemon", move || {
        submit_text(&addr, SPEC_TOML, "toml", false, None, false)
    });
    let error = result.err().expect("a daemon that hangs up is an error");
    assert!(
        error.contains("closed the connection after 0 of"),
        "{error}"
    );
}

/// `Frame::decode` parses a payload before `check_hello` has vetted the
/// peer, and the parser used to recurse once per `[`: this one frame, from
/// anyone who can reach the port, aborted the daemon with a stack
/// overflow. Now the connection is dropped and the next job is served
/// byte-identically.
#[test]
fn a_payload_nested_a_million_deep_does_not_take_the_daemon_down() {
    use std::io::{Read, Write};

    let tmp = TmpDir::new("deep_frame");
    let spec_path = tmp.path("spec.toml");
    std::fs::write(&spec_path, SPEC_TOML).unwrap();
    let want = golden(&tmp);
    let (_daemon, addr) = spawn_daemon(&tmp, 10_000);

    let mut hostile = TcpStream::connect(&addr).unwrap();
    let mut frame = vec![hxharness::proto::frame_to_bytes(&hello(ROLE_WORKER))[0]];
    frame.extend_from_slice(&(1u32 << 20).to_le_bytes());
    frame.resize(5 + (1 << 20), b'[');
    hostile.write_all(&frame).unwrap();
    // The daemon hangs up on the malformed frame without a word.
    hostile
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    assert_eq!(hostile.read(&mut [0u8; 16]).ok(), Some(0));

    let _w = spawn_worker(&addr, &[]);
    let out = tmp.path("out.jsonl");
    let mut submit = Command::new(HX)
        .args(submit_args(&spec_path, &addr, &out))
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn hx submit");
    let status = wait_with_timeout(&mut submit, 120, "submit after the hostile frame");
    assert!(status.success(), "submit failed: {status}");
    assert_eq!(read(&out), want);
}

/// The relay batches whatever is queued, but must never wait for more: a
/// scripted worker fills point 0 and then sits on point 1 under its lease,
/// and the client has to see `Row 0` at once, with nothing behind it.
/// Then the client walks away mid-job: the daemon finds out on a failed
/// write, logs the job abandoned and drops its pending points, so the
/// worker runs out of work with most of the sweep never filled.
#[test]
fn a_committed_row_is_relayed_at_once_and_a_vanished_client_abandons_the_job() {
    const POINTS: u64 = 12;
    let spec = SPEC_TOML
        .replace("algo = [\"DOR\", \"DimWAR\"]", "algo = [\"DOR\"]")
        .replace(
            "load = [0.1, 0.2]",
            "load = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6]",
        );
    let tmp = TmpDir::new("relay");
    let log = tmp.path("daemon.log");
    let (_daemon, addr) = spawn_daemon_logging(&tmp, 60_000, Some(&log));

    // Fills every point it is assigned with a minimal row naming the
    // assignment's digest (all `Job::fill` asks for) — but holds point 1
    // until told to go on, and takes its time over the later ones so the
    // daemon's writes to the departed client are a few packets apart.
    let (go_on, held) = mpsc::channel::<()>();
    let (report, filled_before_no_work) = mpsc::channel::<u64>();
    let worker_addr = addr.clone();
    std::thread::spawn(move || {
        let mut conn = TcpStream::connect(&worker_addr).unwrap();
        write_frame(&mut conn, &hello(ROLE_WORKER)).unwrap();
        assert!(matches!(
            read_frame(&mut conn).unwrap(),
            Some(Frame::HelloAck { .. })
        ));
        let mut filled = 0;
        loop {
            write_frame(&mut conn, &Frame::WorkRequest).unwrap();
            let (job, index, lease, digest) = loop {
                match read_frame(&mut conn).unwrap() {
                    Some(Frame::Spec { .. }) => {}
                    Some(Frame::Assign {
                        job,
                        index,
                        lease,
                        digest,
                    }) => break (job, index, lease, digest),
                    // Before the job arrives; afterwards, the end of it.
                    Some(Frame::NoWork { .. }) if filled == 0 => {
                        std::thread::sleep(Duration::from_millis(10));
                        write_frame(&mut conn, &Frame::WorkRequest).unwrap();
                    }
                    Some(Frame::NoWork { .. }) => {
                        report.send(filled).unwrap();
                        return;
                    }
                    other => panic!("scripted worker got {other:?}"),
                }
            };
            match index {
                0 => {}
                1 => held.recv().unwrap(),
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
            let result = Frame::RowResult {
                job,
                index,
                lease,
                elapsed_ms: 1,
                row: format!(
                    "{{\"schema_version\":{},\"digest\":\"{digest}\"}}",
                    hxsim::SCHEMA_VERSION
                ),
            };
            write_frame(&mut conn, &result).unwrap();
            filled += 1;
        }
    });

    let mut client = TcpStream::connect(&addr).unwrap();
    write_frame(&mut client, &hello(hxharness::proto::ROLE_CLIENT)).unwrap();
    assert!(matches!(
        read_frame(&mut client).unwrap(),
        Some(Frame::HelloAck { .. })
    ));
    let submit = Frame::Submit {
        format: "toml".to_string(),
        force: false,
        spec,
    };
    write_frame(&mut client, &submit).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    match read_frame(&mut client).unwrap() {
        Some(Frame::Accepted { total, cached, .. }) => assert_eq!((total, cached), (POINTS, 0)),
        other => panic!("expected Accepted, got {other:?}"),
    }
    match read_frame(&mut client) {
        Ok(Some(Frame::Row { index: 0, .. })) => {}
        other => panic!("row 0 was held back while point 1 was out: {other:?}"),
    }
    client
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    match read_frame(&mut client) {
        Err(hxharness::ProtoError::Io(e)) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{e}"
        ),
        other => panic!("nothing can follow row 0 yet, got {other:?}"),
    }

    drop(client);
    go_on.send(()).unwrap();
    let filled = filled_before_no_work
        .recv_timeout(Duration::from_secs(30))
        .expect("the worker runs out of work");
    assert!(
        (2..POINTS).contains(&filled),
        "pending points outlived the client: the worker filled {filled} of {POINTS}"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while !read(&log).contains("abandoned (client went away)") {
        assert!(
            Instant::now() < deadline,
            "no abandonment in the log:\n{}",
            read(&log)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// 1,024 values on six axes and 16 on the seventh: 2^64 points, which
/// unchecked arithmetic wraps to 0.
fn wrapped_product_spec() -> String {
    let mut toml = "[experiment]\nname = \"wrap\"\nkind = \"fault\"\n\
                    [network]\ndims = 2\nwidth = 2\nterminals = 1\n[axes]\n"
        .to_string();
    for (key, value, n) in [
        ("pattern", "\"UR\"", 1024),
        ("algo", "\"DOR\"", 1024),
        ("load", "0.5", 1024),
        ("seed", "1", 1024),
        ("fails", "0", 1024),
        ("router_fails", "0", 1024),
        ("retransmit", "0", 16),
    ] {
        toml += &format!("{key} = [{}]\n", vec![value; n].join(", "));
    }
    toml
}

/// Each hostile spec is refused with an error naming its key, before the
/// work its bound limits (a connection-thread panic, a 2^64-point
/// expansion, an unbounded load grid), and the daemon then serves the
/// golden spec byte-identically.
#[test]
fn hostile_specs_are_refused_by_key_and_the_daemon_keeps_serving() {
    let tmp = TmpDir::new("hostile_specs");
    let spec_path = tmp.path("spec.toml");
    std::fs::write(&spec_path, SPEC_TOML).unwrap();
    let want = golden(&tmp);
    let (_daemon, addr) = spawn_daemon(&tmp, 10_000);

    let hostile = [
        (SPEC_TOML.replace("dims = 2", "dims = 7"), "network.dims"),
        (wrapped_product_spec(), "axes"),
        (
            SPEC_TOML.replace(
                "load = [0.1, 0.2]",
                "load = { start = 0.1, stop = 1e12, step = 0.001 }",
            ),
            "axes.load",
        ),
        // Names that cannot resolve on this network or VC count.
        (
            SPEC_TOML
                .replace("dims = 2", "dims = 3")
                .replace("\"DimWAR\"", "\"OmniWAR\"")
                + "[sim]\nnum_vcs = 2\n",
            "axes.algo \"OmniWAR\" with sim.num_vcs = 2",
        ),
        (
            format!("{SPEC_TOML}[sim]\nnum_vcs = 1\n"),
            "axes.algo \"DimWAR\" with sim.num_vcs = 1",
        ),
        (
            SPEC_TOML.replace("[\"UR\"]", "[\"URBz\"]"),
            "axes.pattern \"URBz\" on network.dims = 2",
        ),
        (
            SPEC_TOML
                .replace("dims = 2", "dims = 1")
                .replace("[\"UR\"]", "[\"DCR\"]"),
            "axes.pattern \"DCR\" on network.dims = 1",
        ),
        (
            SPEC_TOML
                .replace("dims = 2", "dims = 1")
                .replace("[\"UR\"]", "[\"S2\"]"),
            "axes.pattern \"S2\" on network.dims = 1",
        ),
        (
            SPEC_TOML
                .replace("terminals = 1", "terminals = 3")
                .replace("[\"UR\"]", "[\"S2\"]"),
            "network.terminals = 3: S2 needs an even terminal count",
        ),
        (
            SPEC_TOML
                .replace("width = 2", "width = 3")
                .replace("[\"UR\"]", "[\"BC\"]"),
            "network.width = 3, network.terminals = 1: BC needs 2^k terminals",
        ),
    ];
    for (text, key) in hostile {
        let err = hxharness::submit_text(&addr, &text, "toml", false, None, false)
            .err()
            .unwrap_or_else(|| panic!("spec naming {key} was accepted"));
        assert!(err.contains(key), "{key}: {err}");
    }

    let _w = spawn_worker(&addr, &[]);
    let out = tmp.path("out.jsonl");
    let mut submit = Command::new(HX)
        .args(submit_args(&spec_path, &addr, &out))
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn hx submit");
    let status = wait_with_timeout(&mut submit, 120, "submit after the hostile specs");
    assert!(status.success(), "submit failed: {status}");
    assert_eq!(read(&out), want);
}
