//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **OmniWAR deroute budget** (`M`): the paper says OmniWAR "can be
//!    tuned down to save VCs if the expected traffic does not create
//!    congestion in all dimensions". Sweeps `M` in 0..=5 on the worst-case
//!    DCR pattern (needs dimension-order freedom *and* deroutes) and on
//!    S2 (needs only one deroute in one dimension).
//! 2. **Back-to-back same-dimension deroute restriction** (Section 5.2's
//!    optimization), on vs off.
//! 3. **VC budget**: DimWAR with 2..=8 VCs (it needs only 2 classes; the
//!    spares are head-of-line-blocking relief — footnote 4's methodology).
//!
//! ```text
//! cargo run --release -p hxbench --bin ablation -- \
//!     [--full] [--seed 1] [--json out.jsonl]
//! ```

use std::sync::Arc;

use hxbench::{evaluation_hyperx, render_table, write_jsonl, CommonArgs};
use hxcore::{DimWar, OmniWar, RoutingAlgorithm};
use hxsim::{run_steady_state, Sim, SimConfig, SteadyOpts};
use hxtopo::{HyperX, Topology};
use hxtraffic::{pattern_by_name, SyntheticWorkload};
use serde::Serialize;

#[derive(Serialize, Clone)]
struct Row {
    study: String,
    variant: String,
    pattern: String,
    offered: f64,
    accepted: f64,
    mean_latency: f64,
    mean_hops: f64,
    saturated: bool,
}

fn run_one(
    hx: &Arc<HyperX>,
    algo: Arc<dyn RoutingAlgorithm>,
    cfg: SimConfig,
    pattern: &str,
    load: f64,
    seed: u64,
) -> (f64, f64, f64, bool) {
    let mut sim = Sim::new(hx.clone(), algo, cfg, seed);
    let pat = pattern_by_name(pattern, hx.clone()).unwrap();
    let mut traffic = SyntheticWorkload::new(pat, hx.num_terminals(), load, seed);
    let p = run_steady_state(&mut sim, &mut traffic, load, SteadyOpts::default());
    (p.accepted, p.mean_latency, p.mean_hops, p.saturated)
}

fn main() {
    let (common, _) = CommonArgs::parse_env(&[], &[]);
    let seed = common.seed;
    let cfg = SimConfig::default();
    let hx = evaluation_hyperx(common.full);
    let mut rows: Vec<Row> = Vec::new();

    // 1. OmniWAR deroute budget on DCR (worst case) and S2.
    for &(pattern, load) in &[("DCR", 0.40), ("S2", 0.90)] {
        for m in [0usize, 1, 2, 5] {
            let algo: Arc<dyn RoutingAlgorithm> = Arc::new(OmniWar::new(hx.clone(), 8, m));
            let (acc, lat, hops, sat) = run_one(&hx, algo, cfg, pattern, load, seed);
            rows.push(Row {
                study: "omniwar-deroutes".into(),
                variant: format!("M={m}"),
                pattern: pattern.into(),
                offered: load,
                accepted: acc,
                mean_latency: lat,
                mean_hops: hops,
                saturated: sat,
            });
        }
    }

    // 2. Back-to-back deroute restriction.
    for &restrict in &[true, false] {
        let algo: Arc<dyn RoutingAlgorithm> =
            Arc::new(OmniWar::with_options(hx.clone(), 8, 5, restrict));
        let (acc, lat, hops, sat) = run_one(&hx, algo, cfg, "DCR", 0.40, seed);
        rows.push(Row {
            study: "backtoback-restriction".into(),
            variant: if restrict { "restricted" } else { "free" }.into(),
            pattern: "DCR".into(),
            offered: 0.40,
            accepted: acc,
            mean_latency: lat,
            mean_hops: hops,
            saturated: sat,
        });
    }

    // 3. DimWAR VC budget (2 = bare deadlock requirement, 8 = paper's).
    for vcs in [2usize, 4, 8] {
        let algo: Arc<dyn RoutingAlgorithm> = Arc::new(DimWar::new(hx.clone(), vcs));
        let cfg_v = SimConfig {
            num_vcs: vcs,
            ..cfg
        };
        let (acc, lat, hops, sat) = run_one(&hx, algo, cfg_v, "BC", 0.45, seed);
        rows.push(Row {
            study: "dimwar-vc-budget".into(),
            variant: format!("{vcs} VCs"),
            pattern: "BC".into(),
            offered: 0.45,
            accepted: acc,
            mean_latency: lat,
            mean_hops: hops,
            saturated: sat,
        });
    }

    let header: Vec<String> = [
        "study", "variant", "pattern", "accepted", "latency", "hops", "sat",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.study.clone(),
                r.variant.clone(),
                r.pattern.clone(),
                format!("{:.3}", r.accepted),
                format!("{:.0}", r.mean_latency),
                format!("{:.2}", r.mean_hops),
                r.saturated.to_string(),
            ]
        })
        .collect();
    println!("Ablations (see DESIGN.md): OmniWAR deroute budget, back-to-back");
    println!("restriction, DimWAR VC budget");
    println!();
    println!("{}", render_table(&header, &table));
    write_jsonl(common.json.as_deref(), &rows);
}
