//! Cache correctness for the `hx` orchestrator: identical specs are
//! answered entirely from the store with byte-identical merged output;
//! axis changes invalidate exactly the affected points; an interrupted
//! sweep resumed later is byte-identical to an uninterrupted one; and
//! uncached sweeps reproduce the committed reference rows byte for byte.

use std::path::PathBuf;

use hxharness::spec::Axes;
use hxharness::{run_sweep, ExperimentSpec, Kind, NetworkSpec, Store, SweepOpts};
use hxsim::{SimConfig, SteadyOpts};

/// A sweep small enough to run in a unit-test budget: 2-dim width-2
/// HyperX (4 routers, 4 terminals), short warmup/measure windows.
fn tiny_spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "cache_test".to_string(),
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
        let p = std::env::temp_dir().join(format!("hx_cache_test_{tag}_{}", std::process::id()));
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

fn read(p: &PathBuf) -> String {
    std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

#[test]
fn same_spec_twice_is_all_hits_and_byte_identical() {
    let tmp = TmpDir::new("twice");
    let spec = tiny_spec();
    let store = Store::open(&tmp.path("store")).unwrap();
    let (out1, out2) = (tmp.path("a.jsonl"), tmp.path("b.jsonl"));

    let r1 = run_sweep(&spec, Some(&store), Some(&out1), &SweepOpts::default()).unwrap();
    assert_eq!((r1.total, r1.cached, r1.executed), (4, 0, 4));
    assert!(r1.complete);

    let r2 = run_sweep(&spec, Some(&store), Some(&out2), &SweepOpts::default()).unwrap();
    assert_eq!(
        (r2.total, r2.cached, r2.executed),
        (4, 4, 0),
        "second run must be 100% hits"
    );
    assert_eq!(
        read(&out1),
        read(&out2),
        "cached merge must be byte-identical"
    );
    assert_eq!(read(&out1).lines().count(), 4);
}

#[test]
fn axis_change_invalidates_exactly_the_affected_points() {
    let tmp = TmpDir::new("axis");
    let spec = tiny_spec();
    let store = Store::open(&tmp.path("store")).unwrap();
    run_sweep(&spec, Some(&store), None, &SweepOpts::default()).unwrap();

    // A third load: the 4 old points stay cached, 2 new ones execute.
    let mut wider = spec.clone();
    wider.axes.loads.push(0.3);
    let r = run_sweep(&wider, Some(&store), None, &SweepOpts::default()).unwrap();
    assert_eq!((r.total, r.cached, r.executed), (6, 4, 2));

    // A different seed shares nothing with the original sweep.
    let mut reseeded = spec.clone();
    reseeded.axes.seeds = vec![2];
    let r = run_sweep(&reseeded, Some(&store), None, &SweepOpts::default()).unwrap();
    assert_eq!((r.total, r.cached, r.executed), (4, 0, 4));

    // A sim-config change shares nothing either.
    let mut retuned = spec.clone();
    retuned.sim.num_vcs = 4;
    let r = run_sweep(&retuned, Some(&store), None, &SweepOpts::default()).unwrap();
    assert_eq!((r.total, r.cached, r.executed), (4, 0, 4));

    // Renaming the experiment invalidates nothing (digests exclude it).
    let mut renamed = spec.clone();
    renamed.name = "cache_test_renamed".to_string();
    let r = run_sweep(&renamed, Some(&store), None, &SweepOpts::default()).unwrap();
    assert_eq!((r.cached, r.executed), (4, 0));
}

#[test]
fn interrupted_then_resumed_is_byte_identical_to_uninterrupted() {
    let tmp = TmpDir::new("resume");
    let spec = tiny_spec();

    // Golden: one uninterrupted sweep with its own store.
    let golden_store = Store::open(&tmp.path("golden_store")).unwrap();
    let golden_out = tmp.path("golden.jsonl");
    run_sweep(
        &spec,
        Some(&golden_store),
        Some(&golden_out),
        &SweepOpts::default(),
    )
    .unwrap();
    let golden = read(&golden_out);

    // Interrupted: stop after 2 executed points (equivalent to a kill —
    // whole store entries and a prefix of the merged output survive).
    let store = Store::open(&tmp.path("store")).unwrap();
    let out = tmp.path("merged.jsonl");
    let interrupted = run_sweep(
        &spec,
        Some(&store),
        Some(&out),
        &SweepOpts {
            stop_after: Some(2),
            ..SweepOpts::default()
        },
    )
    .unwrap();
    assert!(!interrupted.complete);
    assert_eq!(interrupted.executed, 2);
    let partial = read(&out);
    assert!(
        golden.starts_with(&partial),
        "interrupted output must be a prefix of the final result"
    );

    // Resume: the relaunched sweep answers finished points from the store
    // and only simulates the remainder.
    let resumed = run_sweep(&spec, Some(&store), Some(&out), &SweepOpts::default()).unwrap();
    assert!(resumed.complete);
    assert_eq!((resumed.cached, resumed.executed), (2, 2));
    assert_eq!(read(&out), golden, "resumed merge must be byte-identical");
}

#[test]
fn committed_spec_files_load_and_expand() {
    // The specs under experiments/ must stay loadable and match the
    // networks/axes their doc comments promise.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let fig6 = ExperimentSpec::load(&format!("{root}/experiments/fig6.toml")).unwrap();
    assert_eq!(fig6.kind, Kind::Steady);
    assert_eq!(fig6.expand().len(), 6 * 6 * 50);

    let reduced = ExperimentSpec::load(&format!("{root}/experiments/fig6_reduced.toml")).unwrap();
    assert_eq!(reduced.expand().len(), 3 * 3);
    assert_eq!(reduced.network.width, 4);

    let fault = ExperimentSpec::load(&format!("{root}/experiments/fault_resilience.toml")).unwrap();
    assert_eq!(fault.kind, Kind::Fault);
    assert_eq!(fault.expand().len(), 4 * 3 * 5 * 2 * 2);
    assert_eq!(fault.sim.watchdog_stall_cycles, 2_000);
    assert_eq!(fault.fault.kill_cycle, 1_000);
    assert_eq!(fault.fault.revive_cycle, 5_000);

    let recovery =
        ExperimentSpec::load(&format!("{root}/experiments/fault_recovery_reduced.toml")).unwrap();
    assert_eq!(recovery.kind, Kind::Fault);
    assert_eq!(recovery.expand().len(), 3);
    let p = &recovery.expand()[0];
    assert!(p.fails >= 2 && p.router_fails >= 1 && p.retransmit > 0);
}

/// `results/{name}.jsonl` is the committed output of
/// `experiments/{name}.toml`, for the Figure 6 reduction, the fault
/// recovery gate (kills, retransmission) and the chaos storm (LLR, flaps,
/// degradation). Rows carry nothing run-dependent, so an uncached sweep
/// must reproduce each file byte for byte; a change that moves a result
/// (or adds a row field) has to regenerate it with
/// `hx sweep experiments/{name}.toml --no-cache --out results/{name}.jsonl`.
#[test]
fn committed_reduced_rows_are_reproduced() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for name in ["fig6_reduced", "fault_recovery_reduced", "chaos_reduced"] {
        let spec = ExperimentSpec::load(&format!("{root}/experiments/{name}.toml")).unwrap();
        let report = run_sweep(&spec, None, None, &SweepOpts::default()).unwrap();
        assert!(report.complete && report.failed.is_empty(), "{name}");
        let committed = read(&PathBuf::from(format!("{root}/results/{name}.jsonl")));
        assert_eq!(
            committed.lines().collect::<Vec<_>>(),
            report.rows,
            "results/{name}.jsonl is stale"
        );
    }
}
