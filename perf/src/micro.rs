//! Microdrivers for the layers that cannot be separated in situ: each calls
//! one public function of one layer over a fixed input set drawn from the
//! seed, and reports a median (or p50/p99) with its sample count.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hxcore::mock::MockView;
use hxcore::{hyperx_algorithm, Candidate, PacketRouteState, RouteCtx};
use hxharness::proto::{frame_to_bytes, read_frame};
use hxharness::{execute_point, parse_json, point_digest, ExperimentSpec, Frame, Store, StoreMeta};
use hxsim::{EventKind, EventQueue};
use hxtopo::{HyperX, Topology};
use hxtraffic::pattern_by_name;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::stats::{median, quantile};
use crate::workloads::{drive_steady_point, Env};

/// The algorithms whose construction and decision cost are reported.
pub const ALGOS: [&str; 4] = ["DOR", "DimWAR", "OmniWAR", "UGAL"];

/// A microdriver's number and how many samples stand behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub n: usize,
}

/// Metric name -> sample.
pub type Samples = BTreeMap<String, Sample>;

/// Calls `f` `n` times and returns each call's duration in nanoseconds.
fn time_calls(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

fn put(out: &mut Samples, name: impl Into<String>, value: f64, n: usize) {
    out.insert(name.into(), Sample { value, n });
}

/// `topo.build_us` and `core.build_us.<algo>` on `network` (dims, width,
/// terminals per router): what every direct run pays once in set-up and
/// every sweep point pays again.
pub fn construction(network: (usize, usize, usize), n: usize, out: &mut Samples) {
    let (dims, width, terms) = network;
    let ns = time_calls(n, || {
        black_box(HyperX::uniform(dims, width, terms));
    });
    put(out, "topo.build_us", median(&ns) / 1e3, n);
    let hx = Arc::new(HyperX::uniform(dims, width, terms));
    for algo in ALGOS {
        let ns = time_calls(n, || {
            black_box(hyperx_algorithm(algo, hx.clone(), 8).expect("known algorithm"));
        });
        put(out, format!("core.build_us.{algo}"), median(&ns) / 1e3, n);
    }
}

/// `core.route_ns.<algo>` / `core.route_candidates.<algo>`: source-router
/// decisions on the 4x4x4 evaluation network against a [`MockView`], half
/// on an idle router and half on a congested one.
pub fn routing(seed: u64, passes: usize, out: &mut Samples) {
    const CONTEXTS: usize = 256;
    let hx = Arc::new(HyperX::uniform(3, 4, 4));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0001);
    let idle = MockView::idle(hx.max_ports(), 8, 160);
    let mut congested = idle.clone();
    for p in 0..hx.max_ports() {
        congested.congest_port(p, rng.random_range(0..150usize));
        congested.queues[p] = rng.random_range(0..40usize);
    }
    let contexts: Vec<(usize, usize, usize, bool)> = (0..CONTEXTS)
        .map(|i| {
            let router = rng.random_range(0..hx.num_routers());
            let mut dst = rng.random_range(0..hx.num_routers() - 1);
            if dst >= router {
                dst += 1;
            }
            (router, dst, rng.random_range(1..=16usize), i % 2 == 1)
        })
        .collect();
    for name in ALGOS {
        let algo = hyperx_algorithm(name, hx.clone(), 8).expect("known algorithm");
        let mut route_rng = SmallRng::seed_from_u64(seed);
        let mut cands: Vec<Candidate> = Vec::with_capacity(64);
        let mut total = 0usize;
        let ns = time_calls(passes, || {
            for &(router, dst_router, pkt_len, busy) in &contexts {
                let ctx = RouteCtx {
                    router,
                    input_port: 0,
                    input_vc: 0,
                    from_terminal: true,
                    dst_router,
                    dst_terminal: dst_router * hx.terms_per_router(),
                    pkt_len,
                    state: PacketRouteState::default(),
                    view: if busy { &congested } else { &idle },
                };
                cands.clear();
                algo.route(&ctx, &mut route_rng, &mut cands);
                total += black_box(&cands).len();
            }
        });
        let calls = passes * CONTEXTS;
        put(
            out,
            format!("core.route_ns.{name}"),
            median(&ns) / CONTEXTS as f64,
            passes,
        );
        put(
            out,
            format!("core.route_candidates.{name}"),
            total as f64 / calls as f64,
            calls,
        );
    }
}

/// `traffic.dest_ns.UR` / `traffic.dest_ns.DCR`: one destination draw.
pub fn traffic(seed: u64, passes: usize, out: &mut Samples) {
    let hx = Arc::new(HyperX::uniform(3, 4, 4));
    let terminals = hx.num_terminals();
    for name in ["UR", "DCR"] {
        let pattern = pattern_by_name(name, hx.clone()).expect("known pattern");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0002);
        let ns = time_calls(passes, || {
            for src in 0..terminals {
                black_box(pattern.dest(src, &mut rng));
            }
        });
        put(
            out,
            format!("traffic.dest_ns.{name}"),
            median(&ns) / terminals as f64,
            passes,
        );
    }
}

/// `event.schedule_ns.*` / `event.pop_due_ns.*`: the public [`EventQueue`]
/// under a sparse schedule (8,704 endpoints, about a tenth due per cycle,
/// as on `ladder_8k`) and a dense one (320 endpoints, all due every cycle,
/// as on `dcr_sat`).
pub fn event_queue(seed: u64, cycles: u64, out: &mut Samples) {
    for (label, endpoints, per_cycle) in [("sparse", 8_704usize, 900usize), ("dense", 320, 320)] {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0003);
        // (endpoint, delay) pairs for every cycle, drawn before timing.
        let schedule: Vec<Vec<(u32, u64)>> = (0..cycles)
            .map(|_| {
                (0..per_cycle)
                    .map(|i| {
                        let endpoint = if per_cycle == endpoints {
                            i as u32
                        } else {
                            rng.random_range(0..endpoints) as u32
                        };
                        (endpoint, rng.random_range(1..=50u64))
                    })
                    .collect()
            })
            .collect();
        let mut q = EventQueue::new(endpoints);
        let mut due = Vec::with_capacity(endpoints);
        let (mut sched_ns, mut pop_ns) = (Vec::new(), Vec::new());
        for (now, batch) in schedule.iter().enumerate() {
            let now = now as u64;
            let t = Instant::now();
            for &(endpoint, delay) in batch {
                q.schedule(now + delay, endpoint, EventKind::Wake);
            }
            sched_ns.push(t.elapsed().as_nanos() as f64 / batch.len() as f64);
            let t = Instant::now();
            q.pop_due(now, &mut due);
            let ns = t.elapsed().as_nanos() as f64;
            if !due.is_empty() {
                pop_ns.push(ns / black_box(&due).len() as f64);
            }
        }
        put(
            out,
            format!("event.schedule_ns.{label}"),
            median(&sched_ns),
            sched_ns.len(),
        );
        put(
            out,
            format!("event.pop_due_ns.{label}"),
            median(&pop_ns),
            pop_ns.len(),
        );
    }
}

/// The service layers on the `svc` spec: `spec.*`, `digest.*`, `value.*`,
/// `store.*`, `proto.*`, `runner.point_fixed_ms`.
pub fn service(spec_text: &str, env: &Env, seed: u64, n: usize, out: &mut Samples) {
    let ns = time_calls(n, || {
        black_box(ExperimentSpec::parse(spec_text, "toml").expect("frozen spec parses"));
    });
    put(out, "spec.parse_us", median(&ns) / 1e3, n);

    let mut spec = ExperimentSpec::parse(spec_text, "toml").expect("frozen spec parses");
    spec.sim.tick_threads = 1;
    spec.sim.engine = hxsim::Engine::Event;
    spec.axes
        .seeds
        .iter_mut()
        .for_each(|s| *s += seed % 1_000_000_007);
    let points = spec.expand();
    let ns = time_calls(n, || {
        black_box(spec.expand());
    });
    put(
        out,
        "spec.expand_us_per_point",
        median(&ns) / 1e3 / points.len() as f64,
        n,
    );
    let ns = time_calls(n, || {
        for p in &points {
            black_box(point_digest(p));
        }
    });
    put(out, "digest.point_ns", median(&ns) / points.len() as f64, n);

    // Real rows: the first point of each (pattern, algo) pair.
    let per_pair = points.len() / (spec.axes.patterns.len() * spec.axes.algos.len());
    let rows: Vec<String> = points
        .iter()
        .step_by(per_pair.max(1))
        .map(|p| execute_point(p, 1, None).0)
        .collect();
    let row_bytes: usize = rows.iter().map(String::len).sum();
    let ns = time_calls(n, || {
        for row in &rows {
            black_box(parse_json(row).expect("rows are JSON"));
        }
    });
    // bytes per nanosecond * 1e9 / 2^20 = MiB per second
    put(
        out,
        "value.parse_json_mb_per_s",
        row_bytes as f64 / median(&ns) * 1e9 / (1u64 << 20) as f64,
        n,
    );

    // Store: distinct digests, the row stored verbatim, fsync per insert.
    let inserts = n.max(200);
    let dir = env.scratch.join("micro-store");
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).expect("scratch store opens");
    let meta = StoreMeta {
        kind: "store_meta",
        digest: String::new(),
        experiment: spec.name.clone(),
        pattern: points[0].pattern.clone(),
        algo: points[0].algo.clone(),
        load: points[0].load,
        seed: points[0].seed,
        fails: 0,
        elapsed_ms: 1,
    };
    let mut key = 0u64;
    let ns = time_calls(inserts, || {
        key += 1;
        store
            .insert(key, &meta, &rows[key as usize % rows.len()])
            .expect("scratch store writes");
    });
    put(
        out,
        "store.insert_us_p50",
        quantile(&ns, 0.5) / 1e3,
        inserts,
    );
    put(
        out,
        "store.insert_us_p99",
        quantile(&ns, 0.99) / 1e3,
        inserts,
    );
    key = 0;
    let ns = time_calls(inserts, || {
        key += 1;
        black_box(store.lookup(key).expect("inserted entry hits"));
    });
    put(
        out,
        "store.lookup_us_p50",
        quantile(&ns, 0.5) / 1e3,
        inserts,
    );
    put(
        out,
        "store.lookup_us_p99",
        quantile(&ns, 0.99) / 1e3,
        inserts,
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    // Proto: the frames one cold point puts on the wire.
    let row = rows[0].clone();
    let row_frame = Frame::Row {
        job: 1,
        index: 7,
        row: row.clone(),
    };
    let per_point = [
        Frame::WorkRequest,
        Frame::Assign {
            job: 1,
            index: 7,
            lease: 8,
            digest: hxharness::digest_hex(point_digest(&points[0])),
        },
        Frame::RowResult {
            job: 1,
            index: 7,
            lease: 8,
            elapsed_ms: 5,
            row,
        },
        row_frame.clone(),
    ];
    let wire: usize = per_point.iter().map(|f| frame_to_bytes(f).len()).sum();
    put(out, "proto.bytes_per_point", wire as f64, 1);
    let frames = n.max(200);
    let ns = time_calls(frames, || {
        black_box(frame_to_bytes(&row_frame));
    });
    put(out, "proto.encode_ns_per_frame", median(&ns), frames);
    let bytes = frame_to_bytes(&row_frame);
    let ns = time_calls(frames, || {
        black_box(
            read_frame(&mut bytes.as_slice())
                .expect("frame decodes")
                .expect("one frame"),
        );
    });
    put(out, "proto.decode_ns_per_frame", median(&ns), frames);

    // Runner: what `execute_point` adds to driving the same point directly.
    let pairs = (n / 10).max(5);
    let point = &points[0];
    let diffs: Vec<f64> = (0..pairs)
        .map(|_| {
            let t = Instant::now();
            black_box(execute_point(point, 1, None));
            let via_runner = t.elapsed().as_nanos() as f64;
            via_runner - drive_steady_point(point, false).wall_ns
        })
        .collect();
    put(out, "runner.point_fixed_ms", median(&diffs) / 1e6, pairs);
}
