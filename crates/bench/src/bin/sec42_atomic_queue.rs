//! Section 4.2 — why DAL is impractical: under atomic queue allocation
//! (the only way escape-path deadlock avoidance fits a high-radix router),
//! channel utilization is capped at `PktSize x NumVcs / CreditRoundTrip`.
//! The paper quotes 8% for single-flit packets and 68% for random
//! 1..=16-flit packets at its channel latencies.
//!
//! This harness runs DAL with and without atomic allocation across packet
//! sizes under benign uniform-random traffic, printing measured accepted
//! throughput next to the analytic ceiling.
//!
//! ```text
//! cargo run --release -p hxbench --bin sec42_atomic_queue -- \
//!     [--full] [--seed 1] [--json out.jsonl]
//! ```

use std::sync::Arc;

use hxbench::{evaluation_hyperx, parallel_map, render_table, write_jsonl, CommonArgs};
use hxcore::hyperx_algorithm;
use hxsim::{run_steady_state, Sim, SimConfig, SteadyOpts};
use hxtopo::Topology;
use hxtraffic::{SyntheticWorkload, UniformRandom};
use serde::Serialize;

#[derive(Serialize, Clone)]
struct Row {
    packet_flits: String,
    atomic: bool,
    accepted: f64,
    analytic_ceiling: f64,
}

fn main() {
    let (common, _) = CommonArgs::parse_env(&[], &[]);
    let (full, seed) = (common.full, common.seed);
    let hx = evaluation_hyperx(full);
    let base_cfg = SimConfig::default();

    // (label, min flits, max flits)
    let sizes: Vec<(&str, u16, u16)> = vec![("1", 1, 1), ("1..16", 1, 16), ("16", 16, 16)];
    let mut work = Vec::new();
    for &(label, lo, hi) in &sizes {
        for atomic in [false, true] {
            work.push((label.to_string(), lo, hi, atomic));
        }
    }

    let rows: Vec<Row> = parallel_map(work, |(label, lo, hi, atomic)| {
        let cfg = SimConfig {
            atomic_queue_alloc: atomic,
            ..base_cfg
        };
        let algo: Arc<dyn hxcore::RoutingAlgorithm> =
            hyperx_algorithm("DAL", hx.clone(), cfg.num_vcs)
                .unwrap()
                .into();
        let mut sim = Sim::new(hx.clone(), algo, cfg, seed);
        let pattern = Arc::new(UniformRandom::new(hx.num_terminals()));
        // Offer full load; the point is the ceiling.
        let mut traffic =
            SyntheticWorkload::with_lengths(pattern, hx.num_terminals(), 0.95, lo, hi, seed);
        let point = run_steady_state(&mut sim, &mut traffic, 0.95, SteadyOpts::default());
        let mean_flits = f64::from(lo + hi) / 2.0;
        Row {
            packet_flits: label,
            atomic,
            accepted: point.accepted,
            analytic_ceiling: if atomic {
                cfg.atomic_throughput_ceiling(mean_flits)
            } else {
                1.0
            },
        }
    });

    let header: Vec<String> = [
        "packet flits",
        "atomic alloc",
        "accepted",
        "analytic ceiling",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.packet_flits.clone(),
                r.atomic.to_string(),
                format!("{:.3}", r.accepted),
                format!("{:.3}", r.analytic_ceiling),
            ]
        })
        .collect();
    println!("Section 4.2: DAL throughput under atomic queue allocation");
    println!("(ceiling = PktSize x NumVcs / CreditRoundTrip = paper's 8% single-flit figure)");
    println!();
    println!("{}", render_table(&header, &table));
    write_jsonl(common.json.as_deref(), &rows);
}
