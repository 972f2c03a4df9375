//! Behaviour pins for every routing algorithm the crate ships: one short
//! steady run per cell, each summarized as delivered packets, latency and
//! hop sums, and an FNV-1a digest of the `(packet, cycle, hops)` delivery
//! sequence. A routing change that moves a single grant moves a digest.
//!
//! Cells: the nine HyperX algorithms under UR and DCR, the nine again with
//! router 0's dimension-0 links dead (the liveness-driven candidates, and
//! FT-WAR's aligned-dimension escape), DAL under atomic queue allocation,
//! the three Dragonfly policies and fat-tree routing. The pins were taken
//! under both engines. The engine follows `HX_ENGINE` (the event engine
//! when unset, whose calendar debug builds audit every executed cycle).
//! Regenerate with `HX_BLESS=1 cargo test --test routing_pins` only when a
//! routing change is meant to alter behaviour.

use std::sync::Arc;

use hyperx::routing::{
    hyperx_algorithm, DfPolicy, DragonflyRouting, FatTreeRouting, RoutingAlgorithm,
    HYPERX_ALGORITHMS,
};
use hyperx::sim::{fnv1a, Delivered, FaultSchedule, PacketDesc, Sim, SimConfig, Workload};
use hyperx::topo::{Dragonfly, FatTree, HyperX, Topology};
use hyperx::traffic::{pattern_by_name, SyntheticWorkload, TrafficPattern, UniformRandom};

const CYCLES: u64 = 3_000;
const LOAD: f64 = 0.5;
const SEED: u64 = 11;

/// Synthetic traffic whose deliveries are folded into the pin.
struct Pinned {
    traffic: SyntheticWorkload,
    delivered: u64,
    latency_sum: u64,
    hops_sum: u64,
    /// `(tag, cycle, hops)` of every delivery, 17 bytes each, in order.
    seq: Vec<u8>,
}

impl Workload for Pinned {
    fn pre_cycle(&mut self, now: u64, inject: &mut dyn FnMut(PacketDesc) -> bool) {
        self.traffic.pre_cycle(now, inject);
    }

    fn on_delivered(&mut self, d: &Delivered, now: u64) {
        self.delivered += 1;
        self.latency_sum += d.latency;
        self.hops_sum += u64::from(d.hops);
        self.seq.extend_from_slice(&d.tag.to_le_bytes());
        self.seq.extend_from_slice(&now.to_le_bytes());
        self.seq.push(d.hops);
    }
}

fn cfg() -> SimConfig {
    SimConfig {
        buf_flits: 32,
        crossbar_latency: 5,
        router_chan_latency: 8,
        term_chan_latency: 2,
        ..SimConfig::default()
    }
}

/// Runs one cell and renders its row.
fn pin(
    cell: &str,
    topo: Arc<dyn Topology>,
    algo: Arc<dyn RoutingAlgorithm>,
    pattern: Arc<dyn TrafficPattern>,
    cfg: SimConfig,
    faults: Option<FaultSchedule>,
) -> String {
    let n = topo.num_terminals();
    let mut sim = Sim::new(topo, algo, cfg, SEED);
    if let Some(f) = faults {
        sim.set_fault_schedule(f);
    }
    let mut w = Pinned {
        traffic: SyntheticWorkload::new(pattern, n, LOAD, SEED),
        delivered: 0,
        latency_sum: 0,
        hops_sum: 0,
        seq: Vec::new(),
    };
    sim.run(&mut w, CYCLES);
    format!(
        "{{\"cell\":\"{cell}\",\"delivered\":{},\"latency_sum\":{},\"hops_sum\":{},\"digest\":\"{:016x}\"}}\n",
        w.delivered,
        w.latency_sum,
        w.hops_sum,
        fnv1a(&w.seq)
    )
}

fn rows() -> String {
    let hx = Arc::new(HyperX::uniform(3, 3, 2));
    let hyperx = |name: &str| -> Arc<dyn RoutingAlgorithm> {
        hyperx_algorithm(name, hx.clone(), 8).unwrap().into()
    };
    let pattern = |name: &str| pattern_by_name(name, hx.clone()).unwrap();
    let mut out = String::new();
    for pat in ["UR", "DCR"] {
        for name in HYPERX_ALGORITHMS {
            let cell = format!("hyperx/{pat}/{name}");
            out += &pin(&cell, hx.clone(), hyperx(name), pattern(pat), cfg(), None);
        }
    }
    // Router 0 loses every dimension-0 link: minimal hops, deroutes and
    // (for FT-WAR) whole dimensions go dark there.
    let faults = (1..hx.width(0)).fold(FaultSchedule::new(), |f, c| {
        f.kill_link_at(1, 0, hx.port_towards(0, 0, c))
    });
    for name in HYPERX_ALGORITHMS {
        let cell = format!("hyperx/UR/{name}/dead-row");
        let f = Some(faults.clone());
        out += &pin(&cell, hx.clone(), hyperx(name), pattern("UR"), cfg(), f);
    }
    let atomic = SimConfig {
        atomic_queue_alloc: true,
        ..cfg()
    };
    out += &pin(
        "hyperx/UR/DAL/atomic",
        hx.clone(),
        hyperx("DAL"),
        pattern("UR"),
        atomic,
        None,
    );

    let df = Arc::new(Dragonfly::maximal(2, 4, 2));
    for policy in [DfPolicy::Min, DfPolicy::Val, DfPolicy::Ugal] {
        let algo = Arc::new(DragonflyRouting::new(df.clone(), 8, policy));
        let cell = format!("dragonfly/UR/{}", algo.name());
        let ur = Arc::new(UniformRandom::new(df.num_terminals()));
        out += &pin(&cell, df.clone(), algo, ur, cfg(), None);
    }

    let ft = Arc::new(FatTree::new(4));
    let algo = Arc::new(FatTreeRouting::new(ft.clone(), 8));
    let ur = Arc::new(UniformRandom::new(ft.num_terminals()));
    out += &pin("fattree/UR/FT-ADAPTIVE", ft, algo, ur, cfg(), None);
    out
}

#[test]
fn routing_pins_match_committed_rows() {
    let got = rows();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/routing_pins.jsonl"
    );
    if std::env::var("HX_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(path, &got).expect("bless golden file");
        eprintln!("blessed {path}");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden file {path} ({e}); run with HX_BLESS=1"));
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "a routing pin moved");
    }
    assert_eq!(got, want, "the set of routing pins changed");
}
