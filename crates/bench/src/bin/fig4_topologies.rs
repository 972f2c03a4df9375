//! Figure 4 — topology head-to-head: 27-point stencil execution time on a
//! fat tree, a Dragonfly, and a HyperX of comparable size, each with its
//! best practical adaptive routing.
//!
//! The paper's claim: the HyperX yields a 25-38% reduction in
//! communication time, from lower collective latency and better adaptive
//! throughput during halo exchanges.
//!
//! ```text
//! cargo run --release -p hxbench --bin fig4_topologies -- \
//!     [--iters 1,4] [--halo-bytes 100000] [--full] [--seed 1] [--json out.jsonl]
//! ```

use std::sync::Arc;

use hxapp::{Placement, StencilApp, StencilConfig, StencilGrid};
use hxbench::{parallel_map, render_table, write_jsonl, CommonArgs};
use hxcore::{DfPolicy, DragonflyRouting, FatTreeRouting, OmniWar, RoutingAlgorithm};
use hxsim::{Sim, SimConfig};
use hxtopo::{Dragonfly, FatTree, HyperX, Topology};
use serde::Serialize;

#[derive(Serialize, Clone)]
struct Row {
    topology: String,
    routing: &'static str,
    iterations: u32,
    procs: usize,
    exec_cycles: u64,
}

struct System {
    topo: Arc<dyn Topology>,
    algo: Arc<dyn RoutingAlgorithm>,
    name: String,
    routing: &'static str,
}

fn systems(full: bool, vcs: usize) -> Vec<System> {
    let mut out = Vec::new();
    // HyperX with OmniWAR (the paper's best incremental adaptive routing).
    let hx = if full {
        Arc::new(HyperX::uniform(3, 8, 8))
    } else {
        Arc::new(HyperX::uniform(3, 4, 4))
    };
    out.push(System {
        name: hx.name(),
        algo: Arc::new(OmniWar::max_deroutes(hx.clone(), vcs)),
        topo: hx,
        routing: "OmniWAR",
    });
    // Dragonfly with UGAL. Configurations keep the group count near the
    // balanced maximum (a*h + 1) so global ports are actually wired —
    // a heavily truncated group graph would strand most global bandwidth
    // and unfairly cripple the Dragonfly.
    let df = if full {
        Arc::new(Dragonfly::new(6, 12, 6, 57)) // 4,104 nodes, 57/73 groups
    } else {
        Arc::new(Dragonfly::new(3, 6, 3, 15)) // 270 nodes, 15/19 groups
    };
    out.push(System {
        name: df.name(),
        algo: Arc::new(DragonflyRouting::new(df.clone(), vcs, DfPolicy::Ugal)),
        topo: df,
        routing: "DF-UGAL",
    });
    // Fat tree with adaptive up / deterministic down.
    let ft = if full {
        Arc::new(FatTree::new(26)) // 4,394 nodes
    } else {
        Arc::new(FatTree::new(10)) // 250 nodes
    };
    out.push(System {
        name: ft.name(),
        algo: Arc::new(FatTreeRouting::new(ft.clone(), vcs)),
        topo: ft,
        routing: "FT-adaptive",
    });
    out
}

fn main() {
    let (common, args) = CommonArgs::parse_env(&["halo-bytes", "iters"], &[]);
    let (full, seed) = (common.full, common.seed);
    let halo_bytes: u64 = args.get_or("halo-bytes", 100_000);
    let iters: Vec<u32> = args
        .get("iters")
        .map(|s| {
            s.split(',')
                .map(|x| x.parse().expect("bad iters"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, if full { 16 } else { 4 }]);
    let cfg = SimConfig::default();

    let sys = systems(full, cfg.num_vcs);
    // Same process count everywhere so the work is identical.
    let procs = sys.iter().map(|s| s.topo.num_terminals()).min().unwrap();

    let mut work = Vec::new();
    for (i, _) in sys.iter().enumerate() {
        for &it in &iters {
            work.push((i, it));
        }
    }
    eprintln!("fig4: {} runs, {} stencil processes", work.len(), procs);

    let rows: Vec<Row> = parallel_map(work, |(i, iterations)| {
        let s = &sys[i];
        let mut sim = Sim::new(s.topo.clone(), s.algo.clone(), cfg, seed);
        let app_cfg = StencilConfig {
            grid: StencilGrid::near_cubic(procs),
            iterations,
            halo_bytes,
            placement: Placement::Random(seed),
            max_packet_flits: cfg.max_packet_flits,
            ..StencilConfig::paper_default(procs)
        };
        let mut app = StencilApp::new(app_cfg, s.topo.num_terminals());
        let exec = sim
            .run_to_completion(&mut app, 2_000_000_000)
            .expect("stencil run did not complete");
        Row {
            topology: s.name.clone(),
            routing: s.routing,
            iterations,
            procs,
            exec_cycles: exec,
        }
    });

    let header: Vec<String> = [
        "topology",
        "routing",
        "iterations",
        "exec cycles",
        "vs HyperX",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut table = Vec::new();
    for &it in &iters {
        let hx_time = rows
            .iter()
            .find(|r| r.iterations == it && r.routing == "OmniWAR")
            .unwrap()
            .exec_cycles as f64;
        for r in rows.iter().filter(|r| r.iterations == it) {
            table.push(vec![
                r.topology.clone(),
                r.routing.to_string(),
                it.to_string(),
                r.exec_cycles.to_string(),
                format!("{:+.1}%", (r.exec_cycles as f64 / hx_time - 1.0) * 100.0),
            ]);
        }
    }
    println!("Figure 4: 27-point stencil execution time per topology (lower is better)");
    println!("{}", render_table(&header, &table));
    write_jsonl(common.json.as_deref(), &rows);
}
