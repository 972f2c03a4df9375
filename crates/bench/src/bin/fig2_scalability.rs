//! Figure 2 — scalability of low-diameter networks: the largest system
//! each topology family can build from a given router radix at >= 50%
//! relative bisection.
//!
//! ```text
//! cargo run --release -p hxbench --bin fig2_scalability [-- --json fig2.jsonl]
//! ```

use hxbench::{render_table, write_jsonl, CommonArgs};
use hxcost::scalability_sweep;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    radix: usize,
    series: String,
    diameter: usize,
    terminals: usize,
}

fn main() {
    // Analytic sweep: the uniform switches parse but only --json applies.
    let (common, _) = CommonArgs::parse_env(&[], &[]);
    let radices: Vec<usize> = (16..=128).step_by(8).collect();
    let sweep = scalability_sweep(&radices);

    let mut rows = Vec::new();
    for point in &sweep {
        for (name, diameter, terminals) in &point.entries {
            rows.push(Row {
                radix: point.radix,
                series: name.clone(),
                diameter: *diameter,
                terminals: *terminals,
            });
        }
    }

    // Pivot: one line per radix, one column per series.
    let series: Vec<String> = sweep[0]
        .entries
        .iter()
        .map(|(n, d, _)| format!("{n}({d})"))
        .collect();
    let mut header = vec!["radix".to_string()];
    header.extend(series);
    let table: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| {
            let mut r = vec![p.radix.to_string()];
            r.extend(p.entries.iter().map(|&(_, _, t)| t.to_string()));
            r
        })
        .collect();

    println!("Figure 2: max terminals vs router radix (diameter in parens)");
    println!("{}", render_table(&header, &table));
    println!("paper check @ radix 64: HyperX-2D=10,648  HyperX-3D=78,608 (both exact)");
    write_jsonl(common.json.as_deref(), &rows);
}
