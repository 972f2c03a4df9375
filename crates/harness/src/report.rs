//! `hx report` — the paper's tables, rendered from merged rows alone.
//!
//! A sweep's JSONL is self-describing: every row names its kind and its
//! axis values. So the tables need neither the spec nor the process that
//! ran it, and the same renderer serves `hx sweep`, `hx submit` and a
//! file fetched from CI. Which tables appear follows from the rows:
//!
//! * `kind = "steady"` — Figure 6a–f, one latency-vs-load table per
//!   pattern, and Figure 6g, achieved throughput at the highest load;
//!   cells are mean ± sd when several seeds share them;
//! * `kind = "fault"` with link-level retry active (any LLR counter
//!   non-zero) — the chaos campaign's per-storm recovery table;
//! * any other `kind = "fault"` — delivered fraction vs failed
//!   links+routers, one table per retransmission setting, and the
//!   recovery-cost summary when some point retransmits.
//!
//! `kind = "failed"` rows carry no result; they are counted, not tabled.

use crate::value::{parse_json, Value};

/// Renders a fixed-width text table.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let ncol = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// The fields of a result row that the tables render.
struct Row {
    pattern: String,
    algo: String,
    seed: u64,
    offered: f64,
    accepted: f64,
    mean_latency: f64,
    p99_latency: f64,
    saturated: bool,
    fails: u64,
    router_fails: u64,
    retransmit: u64,
    delivered_fraction: f64,
    wedged: bool,
    retransmits: u64,
    duplicates_dropped: u64,
    goodput_overhead: f64,
    time_to_recover: u64,
    recovery_p99: f64,
    llr_replays: u64,
    crc_errors: u64,
    flaps_survived: u64,
}

fn field<'a, T>(
    v: &'a Value,
    key: &str,
    read: impl Fn(&'a Value) -> Option<T>,
) -> Result<T, String> {
    v.get(key)
        .and_then(read)
        .ok_or_else(|| format!("field {key:?} is missing or of the wrong type"))
}

fn parse_row(v: &Value) -> Result<Row, String> {
    let text = |k| field(v, k, Value::as_str).map(str::to_string);
    let num = |k| field(v, k, Value::as_f64);
    let int = |k| field(v, k, |x| x.as_i64().and_then(|i| u64::try_from(i).ok()));
    let flag = |k| field(v, k, Value::as_bool);
    Ok(Row {
        pattern: text("pattern")?,
        algo: text("algo")?,
        seed: int("seed")?,
        offered: num("offered")?,
        accepted: num("accepted")?,
        mean_latency: num("mean_latency")?,
        p99_latency: num("p99_latency")?,
        saturated: flag("saturated")?,
        fails: int("fails")?,
        router_fails: int("router_fails")?,
        retransmit: int("retransmit")?,
        delivered_fraction: num("delivered_fraction")?,
        wedged: flag("wedged")?,
        retransmits: int("retransmits")?,
        duplicates_dropped: int("duplicates_dropped")?,
        goodput_overhead: num("goodput_overhead")?,
        time_to_recover: int("time_to_recover")?,
        recovery_p99: num("recovery_p99")?,
        llr_replays: int("llr_replays")?,
        crc_errors: int("crc_errors")?,
        flaps_survived: int("flaps_survived")?,
    })
}

/// Distinct values in order of first appearance — the spec's axis order,
/// since rows are merged in spec order.
fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// Mean and sample standard deviation (0 for a single replicate).
fn mean_sd(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let m = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (m, 0.0);
    }
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1.0);
    (m, var.sqrt())
}

/// A cell aggregated over seed replicates: the mean to `places` decimals,
/// `±` the standard deviation when the sweep has several seeds.
fn spread(xs: Vec<f64>, places: usize, seeds: usize) -> String {
    let (m, sd) = mean_sd(&xs);
    if xs.is_empty() {
        "-".to_string()
    } else if seeds > 1 {
        format!("{m:.places$}±{sd:.places$}")
    } else {
        format!("{m:.places$}")
    }
}

fn strings(cols: &[&str]) -> Vec<String> {
    cols.iter().map(|c| c.to_string()).collect()
}

/// A label column, then one column per algorithm.
fn algo_header(label: &str, algos: &[&String]) -> Vec<String> {
    let mut header = vec![label.to_string()];
    header.extend(algos.iter().map(|a| a.to_string()));
    header
}

/// `"UR load 0.20"`: the patterns and loads a set of rows covers.
fn traffic_label(rows: &[Row]) -> String {
    let patterns = distinct(rows.iter().map(|r| r.pattern.as_str()));
    let loads = distinct(rows.iter().map(|r| format!("{:.2}", r.offered)));
    format!("{} load {}", patterns.join(","), loads.join(","))
}

fn section(out: &mut String, title: &str, header: &[String], table: &[Vec<String>]) {
    out.push_str(&format!("\n{title}\n{}\n", render_table(header, table)));
}

/// Figure 6: latency vs load per pattern (6a–6f), then achieved
/// throughput (6g).
fn steady_tables(rows: &[Row], out: &mut String) {
    let patterns = distinct(rows.iter().map(|r| &r.pattern));
    let algos = distinct(rows.iter().map(|r| &r.algo));
    let seeds = distinct(rows.iter().map(|r| r.seed)).len();
    for &pattern in &patterns {
        let mut loads: Vec<f64> = rows
            .iter()
            .filter(|r| &r.pattern == pattern)
            .map(|r| r.offered)
            .collect();
        loads.sort_by(f64::total_cmp);
        loads.dedup();
        let table: Vec<Vec<String>> = loads
            .iter()
            .map(|&l| {
                let mut line = vec![format!("{l:.2}")];
                for &a in &algos {
                    let sel: Vec<&Row> = rows
                        .iter()
                        .filter(|r| &r.pattern == pattern && &r.algo == a && r.offered == l)
                        .collect();
                    // Saturated points are marked and show what they accepted.
                    line.push(if sel.iter().any(|r| r.saturated) {
                        let accepted = sel.iter().map(|r| r.accepted).collect();
                        format!("sat({})", spread(accepted, 2, seeds))
                    } else {
                        spread(sel.iter().map(|r| r.mean_latency).collect(), 0, seeds)
                    });
                }
                line
            })
            .collect();
        section(
            out,
            &format!("Figure 6 ({pattern}): mean latency [cycles] vs offered load; 'sat(x)' = saturated, accepting x"),
            &algo_header("load", &algos),
            &table,
        );
    }

    // 6g: achieved throughput = accepted at the highest offered load.
    let table: Vec<Vec<String>> = patterns
        .iter()
        .map(|&p| {
            let mut line = vec![p.clone()];
            for &a in &algos {
                let cell = || rows.iter().filter(|r| &r.pattern == p && &r.algo == a);
                let top = cell().map(|r| r.offered).fold(f64::NEG_INFINITY, f64::max);
                let accepted = cell().filter(|r| r.offered == top).map(|r| r.accepted);
                line.push(spread(accepted.collect(), 3, seeds));
            }
            line
        })
        .collect();
    section(
        out,
        "Figure 6g: achieved throughput (flits/terminal/cycle at max offered load)",
        &algo_header("pattern", &algos),
        &table,
    );
}

/// Fault resilience: delivered fraction per algo × fault mix, then what
/// recovery cost.
fn fault_tables(rows: &[Row], out: &mut String) {
    let algos = distinct(rows.iter().map(|r| &r.algo));
    let fails = distinct(rows.iter().map(|r| r.fails));
    let router_fails = distinct(rows.iter().map(|r| r.router_fails));
    let retransmit = distinct(rows.iter().map(|r| r.retransmit));
    let traffic = traffic_label(rows);

    // Delivered fraction (averaged over seeds), one table per
    // retransmission setting. With the transport on the fraction is
    // *logical* (a copy lost to a fault and recovered by retransmission
    // is not charged against the algorithm).
    for &rt in &retransmit {
        let mut table = Vec::new();
        for &n in &fails {
            for &rn in &router_fails {
                let mut line = vec![format!("{n}+{rn}r")];
                for &a in &algos {
                    let sel: Vec<&Row> = rows
                        .iter()
                        .filter(|r| {
                            &r.algo == a
                                && r.fails == n
                                && r.router_fails == rn
                                && r.retransmit == rt
                        })
                        .collect();
                    let frac =
                        sel.iter().map(|r| r.delivered_fraction).sum::<f64>() / sel.len() as f64;
                    let wedged = sel.iter().filter(|r| r.wedged).count();
                    line.push(if sel.is_empty() {
                        "-".to_string()
                    } else if wedged > 0 {
                        format!("{frac:.3} ({wedged}/{} wedged)", sel.len())
                    } else {
                        format!("{frac:.3}")
                    });
                }
                table.push(line);
            }
        }
        let label = if rt == 0 {
            "retransmission off".to_string()
        } else {
            format!("retransmit timeout {rt}")
        };
        section(
            out,
            &format!(
                "Fault resilience: delivered fraction vs failed links+routers ({traffic}, {label})"
            ),
            &algo_header("links+routers", &algos),
            &table,
        );
    }

    // Recovery cost summary per algorithm, over every retransmitting
    // point that saw at least one fault.
    if retransmit.iter().any(|&rt| rt > 0) {
        let table: Vec<Vec<String>> = algos
            .iter()
            .map(|&a| {
                let sel: Vec<&Row> = rows
                    .iter()
                    .filter(|r| {
                        &r.algo == a && r.retransmit > 0 && (r.fails > 0 || r.router_fails > 0)
                    })
                    .collect();
                let n = sel.len().max(1) as f64;
                let overhead = sel.iter().map(|r| r.goodput_overhead).sum::<f64>() / n;
                let recovery_p99 = sel.iter().map(|r| r.recovery_p99).fold(0.0, f64::max);
                let slowest = sel.iter().map(|r| r.time_to_recover).max().unwrap_or(0);
                vec![
                    a.clone(),
                    sel.iter().map(|r| r.retransmits).sum::<u64>().to_string(),
                    sel.iter()
                        .map(|r| r.duplicates_dropped)
                        .sum::<u64>()
                        .to_string(),
                    format!("{overhead:.4}"),
                    format!("{recovery_p99:.0}"),
                    slowest.to_string(),
                ]
            })
            .collect();
        section(
            out,
            "Recovery cost (retransmitting points with faults)",
            &strings(&[
                "algo",
                "retransmits",
                "dups dropped",
                "goodput ovh",
                "recover p99",
                "max t-to-recover",
            ]),
            &table,
        );
    }
}

/// Chaos campaign: per-storm recovery metrics.
fn chaos_table(rows: &[Row], out: &mut String) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("seed {} +{}r", r.seed, r.router_fails),
                r.algo.clone(),
                format!("{:.3}", r.delivered_fraction),
                r.llr_replays.to_string(),
                r.crc_errors.to_string(),
                r.flaps_survived.to_string(),
                r.retransmits.to_string(),
                format!("{:.0}", r.p99_latency),
            ]
        })
        .collect();
    section(
        out,
        &format!(
            "Chaos campaign: {} storms x {} algos under link-level retry ({})",
            distinct(rows.iter().map(|r| r.seed)).len(),
            distinct(rows.iter().map(|r| &r.algo)).len(),
            traffic_label(rows)
        ),
        &strings(&[
            "storm",
            "algo",
            "delivered",
            "llr_replays",
            "crc_errors",
            "flaps",
            "retransmits",
            "p99 latency",
        ]),
        &table,
    );
}

/// Renders every table the rows of a merged JSONL document call for (see
/// the module docs). An unreadable row is an error naming its line.
pub fn render_report(jsonl: &str) -> Result<String, String> {
    let (mut steady, mut fault, mut failed) = (Vec::new(), Vec::new(), 0);
    for (n, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let located = |e: String| format!("line {}: {e}", n + 1);
        let v = parse_json(line).map_err(located)?;
        match field(&v, "kind", Value::as_str).map_err(located)? {
            "steady" => steady.push(parse_row(&v).map_err(located)?),
            "fault" => fault.push(parse_row(&v).map_err(located)?),
            "failed" => failed += 1,
            other => return Err(located(format!("unknown row kind {other:?}"))),
        }
    }
    let mut out = String::new();
    if !steady.is_empty() {
        steady_tables(&steady, &mut out);
    }
    if fault
        .iter()
        .any(|r| r.llr_replays + r.crc_errors + r.flaps_survived > 0)
    {
        chaos_table(&fault, &mut out);
    } else if !fault.is_empty() {
        fault_tables(&fault, &mut out);
    }
    if failed > 0 {
        out.push_str(&format!(
            "\n{failed} kind=\"failed\" row(s) carry no result and are left out of the tables\n"
        ));
    }
    if out.is_empty() {
        return Err("no result rows".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a".into(), "bb".into()],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        assert!(t.contains(" a  bb"));
        assert!(t.lines().count() == 4);
    }

    fn steady(algo: &str, seed: u64, offered: f64, latency: f64, saturated: bool) -> String {
        format!(
            "{{\"kind\":\"steady\",\"pattern\":\"UR\",\"algo\":\"{algo}\",\"seed\":{seed},\
             \"offered\":{offered:?},\"accepted\":{:?},\"mean_latency\":{latency:?},\
             \"p99_latency\":0.0,\"saturated\":{saturated},\"fails\":0,\"router_fails\":0,\
             \"retransmit\":0,\"delivered_fraction\":1.0,\"wedged\":false,\"retransmits\":0,\
             \"duplicates_dropped\":0,\"goodput_overhead\":0.0,\"time_to_recover\":0,\
             \"recovery_p99\":0.0,\"llr_replays\":0,\"crc_errors\":0,\"flaps_survived\":0}}",
            offered * 0.5
        )
    }

    #[test]
    fn steady_rows_render_figure_6_with_seed_spread() {
        let single = [
            steady("DOR", 1, 0.2, 300.4, false),
            steady("DimWAR", 1, 0.2, 0.0, true),
        ]
        .join("\n");
        let out = render_report(&single).unwrap();
        assert!(out.contains("Figure 6 (UR)") && out.contains("Figure 6g"));
        assert!(out.contains("0.20  300  sat(0.10)"), "{out}");
        assert!(!out.contains('±'));

        let replicated = [
            steady("DOR", 1, 0.2, 300.0, false),
            steady("DOR", 2, 0.2, 310.0, false),
        ]
        .join("\n");
        let out = render_report(&replicated).unwrap();
        assert!(out.contains("305±7"), "{out}");
        assert!(out.contains("0.100±0.000"), "{out}");
    }

    #[test]
    fn unreadable_rows_are_located_errors() {
        let err = render_report("{\"kind\":\"steady\"}").unwrap_err();
        assert!(
            err.starts_with("line 1:") && err.contains("pattern"),
            "{err}"
        );
        assert!(render_report("\n").is_err(), "no rows is an error");
        let only_failed = "{\"kind\":\"failed\",\"error\":\"boom\"}";
        assert!(render_report(only_failed).unwrap().contains("1 kind="));
    }
}
