//! `hxperf compare A.json B.json`: applies each end-to-end metric's bound
//! per (metric, workload) and says whether B improved on, matched or
//! regressed from A — or whether the runs are too noisy to tell.

use hxharness::{parse_json, Value};

use crate::metrics::{Better, END_TO_END, SETUP_FLOOR_S};
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The quartile spread of either side is wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A run's reported value of one metric and the repetitions behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub value: f64,
    pub summary: Summary,
}

/// Judges `b` against the baseline `a` under `bound` (a share of `a`'s
/// value).
pub fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    if a.value == b.value {
        return Verdict::Unchanged;
    }
    if a.summary.spread() > bound || b.summary.spread() > bound {
        return Verdict::Unresolved;
    }
    let base = a.value.abs().max(f64::MIN_POSITIVE);
    let worse = match better {
        Better::Lower => (b.value - a.value) / base,
        Better::Higher => (a.value - b.value) / base,
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One compared (metric, workload) pair.
#[derive(Clone, Debug)]
pub struct Line {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    for flag in ["quick", "noisy"] {
        if doc.get(flag).and_then(Value::as_bool) != Some(false) {
            return Err(format!(
                "{path} was recorded with \"{flag}\": true (or lacks the flag); \
                 such a run supports no comparison"
            ));
        }
    }
    Ok(doc)
}

fn side(metric: &Value) -> Option<Side> {
    let median = metric.get("median")?.as_f64()?;
    Some(Side {
        value: metric.get("value")?.as_f64()?,
        summary: Summary {
            median,
            p25: metric.get("p25")?.as_f64()?,
            p75: metric.get("p75")?.as_f64()?,
            mean: median,
            n: metric.get("n")?.as_i64()? as usize,
        },
    })
}

/// Compares two parsed `results.json` documents.
pub fn compare_docs(a: &Value, b: &Value) -> Result<Vec<Line>, String> {
    let workloads = |doc: &Value| {
        doc.get("workloads")
            .and_then(Value::as_table)
            .cloned()
            .ok_or("results file lacks a workloads table".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut lines = Vec::new();
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else {
            continue;
        };
        for m in &END_TO_END {
            let get = |r: &Value| r.get_path(&format!("end_to_end.{}", m.name)).and_then(side);
            let (Some(sa), Some(sb)) = (get(ra), get(rb)) else {
                return Err(format!("{name} lacks {} in one of the files", m.name));
            };
            let below_floor =
                m.name == "setup_s" && sa.value < SETUP_FLOOR_S && sb.value < SETUP_FLOOR_S;
            lines.push(Line {
                workload: name.clone(),
                metric: m.name.to_string(),
                unit: m.unit.to_string(),
                a: sa.value,
                b: sb.value,
                verdict: if below_floor {
                    Verdict::Unchanged
                } else {
                    judge(&sa, &sb, m.better, m.bound)
                },
            });
        }
        // fail_frac: bound 0 absolute.
        let frac = |r: &Value| {
            r.get("fail_frac")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        };
        let (fa, fb) = (frac(ra), frac(rb));
        lines.push(Line {
            workload: name.clone(),
            metric: "fail_frac".to_string(),
            unit: "ratio".to_string(),
            a: fa,
            b: fb,
            verdict: if fb > fa || fb.is_nan() {
                Verdict::Regressed
            } else if fb < fa {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            },
        });
    }
    if lines.is_empty() {
        return Err("the two files share no workload".into());
    }
    Ok(lines)
}

/// Loads, compares and prints; `Ok(true)` when nothing regressed.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let lines = compare_docs(&load(a)?, &load(b)?)?;
    println!("base A = {a}, candidate B = {b}; ratio = B / A");
    println!(
        "{:<14} {:<15} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    for l in &lines {
        println!(
            "{:<14} {:<15} {:>14.6} {:>14.6} {:>8.4}  {} ({})",
            l.workload,
            l.metric,
            l.a,
            l.b,
            l.b / l.a,
            l.verdict.as_str(),
            l.unit
        );
    }
    let count = |v: Verdict| lines.iter().filter(|l| l.verdict == v).count();
    println!(
        "{} improved, {} unchanged, {} regressed, {} unresolved",
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Regressed) == 0)
}
