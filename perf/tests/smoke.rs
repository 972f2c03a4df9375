//! `--quick` smoke: one repetition at a tenth of the cycles runs all seven
//! workloads, every named metric is present, and nothing fails.

use std::path::Path;
use std::process::Command;

use hxharness::{parse_json, Value};
use hxperf::metrics::{END_TO_END, PER_LAYER};
use hxperf::workloads::all;

fn hxperf(out: &Path, args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_hxperf"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("hxperf starts");
    assert!(
        output.status.success(),
        "hxperf {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("output is UTF-8")
}

#[test]
fn quick_run_reports_every_metric_for_every_workload_without_failures() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-all");
    let stdout = hxperf(&out, &["--quick", "--seed", "3"]);
    let doc = parse_json(&std::fs::read_to_string(out.join("results.json")).unwrap()).unwrap();
    assert_eq!(doc.get("quick").and_then(Value::as_bool), Some(true));
    assert_eq!(doc.get("seed").and_then(Value::as_i64), Some(3));
    assert_eq!(
        doc.get("transport").and_then(Value::as_str),
        Some("loopback")
    );
    for w in all() {
        let r = doc
            .get_path(&format!("workloads.{}", w.name))
            .unwrap_or_else(|| panic!("{} is missing", w.name));
        assert_eq!(
            r.get("fail_frac").and_then(Value::as_f64),
            Some(0.0),
            "{}: {stdout}",
            w.name
        );
        assert!(r.get("attempted").and_then(Value::as_i64).unwrap() >= 1);
        for m in &END_TO_END {
            let s = r.get("end_to_end").and_then(|t| t.get(m.name));
            let s = s.unwrap_or_else(|| panic!("{} lacks {}", w.name, m.name));
            assert_eq!(
                s.get("n").and_then(Value::as_i64),
                Some(1),
                "one repetition"
            );
            // A tenth of the cycles may deliver nothing, so the simulated
            // metrics may read 0 here; host time and memory may not.
            let value = s.get("value").and_then(Value::as_f64).unwrap();
            assert!(value > 0.0 || (m.name.starts_with("sim_") && value == 0.0));
            assert!(stdout.contains(&format!("{} ({})", m.name, m.unit)));
        }
        for m in &PER_LAYER {
            let s = r.get("per_layer").and_then(|t| t.get(m.name));
            assert!(s.is_some(), "{} lacks {}", w.name, m.name);
        }
    }
    // The trace holds spans and counts of every workload.
    let trace = std::fs::read_to_string(out.join("trace.jsonl")).unwrap();
    for w in all() {
        assert!(trace.contains(&format!("\"name\":\"timed\",\"workload\":\"{}\"", w.name)));
    }
    assert!(trace.lines().all(|l| parse_json(l).is_ok()));
}

#[test]
fn one_workload_ends_with_the_drivers_result_object() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-one");
    for (trace, names) in [
        ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
        ("1", PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()),
    ] {
        let stdout = hxperf(
            &out,
            &[
                "--quick",
                "--workload",
                "svc_warm",
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                trace,
            ],
        );
        let last = parse_json(stdout.lines().last().unwrap()).expect("last line is JSON");
        let keys: Vec<&str> = last
            .as_table()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(last.get("failed").and_then(Value::as_i64), Some(0));
        let metrics = last.get("metrics").and_then(Value::as_table).unwrap();
        let mut got: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut want = names;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "--trace {trace}");
        for m in metrics.values() {
            assert!(m.get("value").and_then(Value::as_f64).is_some());
            assert!(m.get("unit").and_then(Value::as_str).is_some());
        }
    }
}

#[test]
fn unknown_arguments_are_errors() {
    let status = Command::new(env!("CARGO_BIN_EXE_hxperf"))
        .args(["--workload", "no_such_workload"])
        .output()
        .unwrap();
    assert_eq!(status.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&status.stderr).contains("unknown workload"));
}
