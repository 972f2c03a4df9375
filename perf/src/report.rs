//! Output: the table on stdout, `results.json`, and the one-line result
//! object the benchmark driver reads.

use std::collections::BTreeMap;

use hxharness::Value;

use crate::host::HostInfo;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{Outcome, CALIB_REF_MS};

fn table(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Table(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn num(x: f64) -> Value {
    Value::Float(if x.is_finite() { x } else { 0.0 })
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Which metric group a driver-facing result carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    EndToEnd,
    PerLayer,
}

/// The driver's result object: `correct`, `attempted`, `failed`, `metrics`
/// (every end-to-end median, or every per-layer value).
pub fn contract_line(out: &Outcome, group: Group) -> String {
    let metric = |value: f64, unit: &str| table([("value", num(value)), ("unit", text(unit))]);
    let metrics: BTreeMap<String, Value> = match group {
        Group::EndToEnd => END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    metric(out.end_to_end[m.name].value, m.unit),
                )
            })
            .collect(),
        Group::PerLayer => PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    metric(out.per_layer[m.name].value, m.unit),
                )
            })
            .collect(),
    };
    table([
        ("correct", Value::Bool(out.failed == 0)),
        ("attempted", Value::Int(out.attempted as i64)),
        ("failed", Value::Int(out.failed as i64)),
        ("metrics", Value::Table(metrics)),
    ])
    .to_json_string()
}

/// Run-level facts recorded beside the numbers.
pub struct RunInfo<'a> {
    /// Every calibration sample of the run, in milliseconds.
    pub calib_ms: &'a [f64],
    pub seed: u64,
    pub quick: bool,
    pub noisy: bool,
    pub host: &'a HostInfo,
}

/// The `results.json` document `hxperf compare` reads.
pub fn results_json(outcomes: &[Outcome], info: &RunInfo<'_>) -> String {
    let workloads: BTreeMap<String, Value> = outcomes
        .iter()
        .map(|o| {
            let e2e: BTreeMap<String, Value> = END_TO_END
                .iter()
                .map(|m| {
                    let value = o.end_to_end[m.name].value;
                    let s = o.end_to_end[m.name].summary;
                    (
                        m.name.to_string(),
                        table([
                            ("value", num(value)),
                            ("median", num(s.median)),
                            ("p25", num(s.p25)),
                            ("p75", num(s.p75)),
                            ("n", Value::Int(s.n as i64)),
                            ("unit", text(m.unit)),
                        ]),
                    )
                })
                .collect();
            let layers: BTreeMap<String, Value> = PER_LAYER
                .iter()
                .filter_map(|m| o.per_layer.get(m.name).map(|s| (m, s)))
                .map(|(m, s)| {
                    (
                        m.name.to_string(),
                        table([
                            ("value", num(s.value)),
                            ("n", Value::Int(s.n as i64)),
                            ("unit", text(m.unit)),
                        ]),
                    )
                })
                .collect();
            (
                o.name.to_string(),
                table([
                    ("why", text(o.why)),
                    ("loop", text(if o.open_loop { "open" } else { "closed" })),
                    ("attempted", Value::Int(o.attempted as i64)),
                    ("failed", Value::Int(o.failed as i64)),
                    ("fail_frac", num(o.fail_frac())),
                    ("sim_digest", text(&format!("{:016x}", o.digest))),
                    (
                        "notes",
                        Value::Array(o.notes.iter().map(|n| text(n)).collect()),
                    ),
                    ("end_to_end", Value::Table(e2e)),
                    ("per_layer", Value::Table(layers)),
                    // every untraced repetition as measured (host times
                    // not scaled)
                    (
                        "reps",
                        Value::Array(
                            o.reps
                                .iter()
                                .zip(o.rep_seeds.iter().zip(&o.rep_scales))
                                .map(|(r, (&seed, &scale))| {
                                    table([
                                        ("seed", Value::Int(seed as i64)),
                                        ("host_scale", num(scale)),
                                        ("setup_s", num(r.setup_s)),
                                        ("wall_s", num(r.wall_s)),
                                        ("cpu_s", num(r.cpu_s)),
                                        ("peak_alloc_mb", num(r.peak_alloc_mb)),
                                        ("sim_accepted", num(r.sim_accepted)),
                                        ("sim_p99_cycles", num(r.sim_p99_cycles)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            )
        })
        .collect();
    let h = info.host;
    table([
        ("schema", Value::Int(1)),
        ("seed", Value::Int(info.seed as i64)),
        ("quick", Value::Bool(info.quick)),
        ("noisy", Value::Bool(info.noisy)),
        // daemon, worker and client of the svc_* workloads share this
        // process and talk over 127.0.0.1
        ("transport", text("loopback")),
        (
            "calib_ms",
            Value::Array(info.calib_ms.iter().map(|&c| num(c)).collect()),
        ),
        (
            "host",
            table([
                ("nproc", Value::Int(h.nproc as i64)),
                ("cpu_model", text(&h.cpu_model)),
                ("kernel", text(&h.kernel)),
                ("rustc", text(&h.rustc)),
                ("commit", text(&h.commit)),
            ]),
        ),
        ("workloads", Value::Table(workloads)),
    ])
    .to_json_string()
}

/// Prints every metric by name with its unit: one row per workload for the
/// end-to-end metrics, then each workload's per-layer values.
pub fn print_tables(outcomes: &[Outcome], info: &RunInfo<'_>) {
    let h = info.host;
    println!(
        "hxperf: seed {}, {} CPU(s) {}, kernel {}, {}, commit {}, svc_* over loopback{}{}",
        info.seed,
        h.nproc,
        h.cpu_model,
        h.kernel,
        h.rustc,
        h.commit,
        if info.quick { ", QUICK" } else { "" },
        if info.noisy { ", NOISY" } else { "" },
    );
    println!(
        "host times: each repetition scaled to a {CALIB_REF_MS} ms calibration loop (this run: median {:.3} ms)",
        crate::stats::median(info.calib_ms)
    );
    println!("end-to-end: reported value [p25 .. p75] over n untraced repetitions");
    print!("{:<14} {:>3}", "workload", "n");
    for m in &END_TO_END {
        print!(" | {:>34}", format!("{} ({})", m.name, m.unit));
    }
    println!(" | {:>9}", "fail_frac");
    for o in outcomes {
        print!("{:<14} {:>3}", o.name, o.reps.len());
        for m in &END_TO_END {
            let (value, s) = (o.end_to_end[m.name].value, o.end_to_end[m.name].summary);
            print!(
                " | {:>34}",
                format!("{value:.5} [{:.5} .. {:.5}]", s.p25, s.p75)
            );
        }
        println!(" | {:>9.6}", o.fail_frac());
    }
    for o in outcomes {
        for note in &o.notes {
            println!("FAILED {}: {note}", o.name);
        }
    }
    for o in outcomes.iter().filter(|o| !o.per_layer.is_empty()) {
        println!("per-layer, {} (value unit, n samples):", o.name);
        for m in &PER_LAYER {
            let s = o.per_layer[m.name];
            println!("  {:<40} {:>16.6} {:<6} n={}", m.name, s.value, m.unit, s.n);
        }
    }
}
