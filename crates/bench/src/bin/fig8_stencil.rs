//! Figure 8 — 27-point stencil execution time (lower is better): the
//! collective alone (8a), the halo exchange alone (8b), and the full
//! application (8c), at 1 and 16 iterations, per routing algorithm.
//!
//! ```text
//! cargo run --release -p hxbench --bin fig8_stencil -- \
//!     [--phase collective|exchange|full|all] [--iters 1,16] \
//!     [--halo-bytes 100000] [--full] [--seed 1] [--json out.jsonl]
//! ```

use std::sync::Arc;

use hxapp::{PhaseMode, Placement, StencilApp, StencilConfig};
use hxbench::{evaluation_hyperx, parallel_map, render_table, write_jsonl, CommonArgs};
use hxcore::hyperx_algorithm;
use hxsim::{Sim, SimConfig};
use hxtopo::Topology;
use serde::Serialize;

const DEFAULT_ALGOS: &[&str] = &["DOR", "VAL", "UGAL", "Clos-AD", "DimWAR", "OmniWAR"];

#[derive(Serialize, Clone)]
struct Row {
    phase: String,
    iterations: u32,
    algo: String,
    exec_cycles: u64,
    messages: u64,
    packets: u64,
}

fn phase_mode(name: &str) -> PhaseMode {
    match name {
        "collective" => PhaseMode::CollectiveOnly,
        "exchange" => PhaseMode::ExchangeOnly,
        "full" => PhaseMode::Full,
        other => panic!("unknown phase {other}"),
    }
}

fn main() {
    let (common, args) = CommonArgs::parse_env(&["halo-bytes", "phase", "iters", "algos"], &[]);
    let (full, seed) = (common.full, common.seed);
    let halo_bytes: u64 = args.get_or("halo-bytes", 100_000);
    let phases: Vec<String> = match args.get("phase") {
        Some("all") | None => vec!["collective".into(), "exchange".into(), "full".into()],
        Some(p) => vec![p.to_string()],
    };
    let iters: Vec<u32> = args
        .get("iters")
        .map(|s| {
            s.split(',')
                .map(|x| x.parse().expect("bad iters"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, if full { 16 } else { 4 }]);
    let algos: Vec<String> = args
        .get("algos")
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| DEFAULT_ALGOS.iter().map(|s| s.to_string()).collect());

    let hx = evaluation_hyperx(full);
    let cfg = SimConfig::default();

    let mut work = Vec::new();
    for phase in &phases {
        for &it in &iters {
            for a in &algos {
                work.push((phase.clone(), it, a.clone()));
            }
        }
    }
    eprintln!(
        "fig8: {} runs on {} ({} nodes, {} B/node halo)",
        work.len(),
        hx.name(),
        hx.num_terminals(),
        halo_bytes
    );

    let rows: Vec<Row> = parallel_map(work, |(phase, iterations, algo_name)| {
        let algo: Arc<dyn hxcore::RoutingAlgorithm> =
            hyperx_algorithm(&algo_name, hx.clone(), cfg.num_vcs)
                .unwrap_or_else(|e| panic!("{e}"))
                .into();
        let mut sim = Sim::new(hx.clone(), algo, cfg, seed);
        let app_cfg = StencilConfig {
            iterations,
            mode: phase_mode(&phase),
            halo_bytes,
            placement: Placement::Random(seed),
            max_packet_flits: cfg.max_packet_flits,
            ..StencilConfig::paper_default(hx.num_terminals())
        };
        let mut app = StencilApp::new(app_cfg, hx.num_terminals());
        let exec = sim
            .run_to_completion(&mut app, 2_000_000_000)
            .expect("stencil run did not complete");
        Row {
            phase,
            iterations,
            algo: algo_name,
            exec_cycles: exec,
            messages: app.metrics.messages,
            packets: app.metrics.packets,
        }
    });

    for phase in &phases {
        let mut header = vec!["iterations".to_string()];
        header.extend(algos.iter().cloned());
        let table: Vec<Vec<String>> = iters
            .iter()
            .map(|&it| {
                let mut line = vec![it.to_string()];
                for a in &algos {
                    let r = rows
                        .iter()
                        .find(|r| &r.phase == phase && r.iterations == it && &r.algo == a)
                        .expect("missing row");
                    line.push(r.exec_cycles.to_string());
                }
                line
            })
            .collect();
        println!("\nFigure 8 ({phase}): execution time in cycles (lower is better)");
        println!("{}", render_table(&header, &table));
    }

    write_jsonl(common.json.as_deref(), &rows);
}
