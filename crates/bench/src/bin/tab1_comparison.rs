//! Table 1 — adaptive-routing implementation comparison: what each
//! algorithm demands from the router architecture and the packet format.
//! DimWAR and OmniWAR are the only adaptive algorithms needing nothing
//! special on either axis — the paper's practicality claim.
//!
//! ```text
//! cargo run --release -p hxbench --bin tab1_comparison
//! ```

use hxbench::{render_table, write_jsonl, CommonArgs};
use hxcore::meta::table1_rows;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    dimension_ordered: bool,
    routing_style: String,
    vcs_required: String,
    deadlock_handling: String,
    architecture_requirements: String,
    packet_contents: String,
}

fn main() {
    // Analytic table: the uniform switches parse but only --json applies.
    let (common, _) = CommonArgs::parse_env(&[], &[]);
    let rows: Vec<Row> = table1_rows()
        .into_iter()
        .map(|m| Row {
            algorithm: m.name.to_string(),
            dimension_ordered: m.dimension_ordered,
            routing_style: m.style.to_string(),
            vcs_required: m.vcs_required.to_string(),
            deadlock_handling: m.deadlock.to_string(),
            architecture_requirements: m.arch_requirements.to_string(),
            packet_contents: m.packet_contents.to_string(),
        })
        .collect();

    let header: Vec<String> = [
        "Algorithm",
        "Dim Ordered",
        "Routing Style",
        "VCs Required",
        "Deadlock Handling",
        "Architecture Reqs",
        "Packet Contents",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algorithm.clone(),
                if r.dimension_ordered { "yes" } else { "no" }.into(),
                r.routing_style.clone(),
                r.vcs_required.clone(),
                r.deadlock_handling.clone(),
                r.architecture_requirements.clone(),
                r.packet_contents.clone(),
            ]
        })
        .collect();
    println!("Table 1: adaptive routing implementation comparison");
    println!("(RR: restricted routes, RC: resource classes, DC: distance classes,");
    println!(" N: dimensions, M: allowed deroutes, 1e: one escape VC)");
    println!();
    println!("{}", render_table(&header, &table));
    write_jsonl(common.json.as_deref(), &rows);
}
