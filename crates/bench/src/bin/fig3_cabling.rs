//! Figure 3 — cabling cost of the Dragonfly relative to the HyperX across
//! system sizes and cable technologies.
//!
//! Every cable of both systems is enumerated from an explicit rack-level
//! placement; prices are representative substitutes for the paper's
//! confidential vendor quotes (see DESIGN.md). The reproduced *shape*:
//! with electrical signaling (DAC where reach allows, AOC beyond) the
//! Dragonfly is cheaper at scale — and the gap widens as signaling rates
//! shrink DAC reach — while passive optical cabling puts the HyperX at
//! cost parity or better.
//!
//! ```text
//! cargo run --release -p hxbench --bin fig3_cabling [-- --json fig3.jsonl]
//! ```

use hxbench::{render_table, write_jsonl, CommonArgs};
use hxcost::{
    dragonfly_cabling, dragonfly_for_nodes, hyperx_cabling, hyperx_for_nodes, CableTech, PriceModel,
};
use hxtopo::Topology;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    nodes: usize,
    tech: String,
    hyperx_cost_per_node: f64,
    dragonfly_cost_per_node: f64,
    df_over_hx: f64,
}

fn main() {
    // Analytic sweep: the uniform switches parse but only --json applies.
    let (common, _) = CommonArgs::parse_env(&[], &[]);
    let prices = PriceModel::default();
    let techs: Vec<(String, CableTech)> = vec![
        (
            "DAC8m+AOC (2.5GHz)".into(),
            CableTech::ElectricalOptical { dac_reach_m: 8.0 },
        ),
        (
            "DAC3m+AOC (25GHz)".into(),
            CableTech::ElectricalOptical { dac_reach_m: 3.0 },
        ),
        (
            "DAC1m+AOC (100GHz)".into(),
            CableTech::ElectricalOptical { dac_reach_m: 1.0 },
        ),
        ("PassiveOptical".into(), CableTech::PassiveOptical),
    ];

    let mut rows = Vec::new();
    for exp in [10usize, 12, 14, 16] {
        let nodes = 1usize << exp;
        let hx = hyperx_for_nodes(nodes);
        let df = dragonfly_for_nodes(nodes);
        let hx_bom = hyperx_cabling(&hx, None);
        let df_bom = dragonfly_cabling(&df, None);
        eprintln!(
            "N={nodes}: {} ({} cables, {:.0} m) vs {} ({} cables, {:.0} m)",
            hx.name(),
            hx_bom.cable_count(),
            hx_bom.total_length_m(),
            df.name(),
            df_bom.cable_count(),
            df_bom.total_length_m()
        );
        for (tname, tech) in &techs {
            let hx_cost = hx_bom.cost_per_node(*tech, &prices);
            let df_cost = df_bom.cost_per_node(*tech, &prices);
            rows.push(Row {
                nodes,
                tech: tname.clone(),
                hyperx_cost_per_node: hx_cost,
                dragonfly_cost_per_node: df_cost,
                df_over_hx: df_cost / hx_cost,
            });
        }
    }

    let header: Vec<String> = ["nodes", "technology", "$/node HX", "$/node DF", "DF/HX"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                r.tech.clone(),
                format!("{:.2}", r.hyperx_cost_per_node),
                format!("{:.2}", r.dragonfly_cost_per_node),
                format!("{:.3}", r.df_over_hx),
            ]
        })
        .collect();
    println!("Figure 3: Dragonfly cabling cost relative to HyperX (DF/HX < 1 means DF cheaper)");
    println!("{}", render_table(&header, &table));
    write_jsonl(common.json.as_deref(), &rows);
}
