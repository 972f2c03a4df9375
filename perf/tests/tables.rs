//! `BENCHMARK.json` at the repository root repeats the metric and workload
//! tables; this keeps the two in step.

use hxharness::{parse_json, Value};
use hxperf::metrics::{END_TO_END, PER_LAYER};
use hxperf::workloads::all;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    parse_json(&text).expect("BENCHMARK.json is JSON")
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry lacks {key}: {entry}"))
}

#[test]
fn benchmark_json_names_the_same_workloads_and_metrics() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_table().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let listed = doc.get("workloads").and_then(Value::as_array).unwrap();
    let ours = all();
    assert_eq!(listed.len(), ours.len());
    for (entry, w) in listed.iter().zip(&ours) {
        assert_eq!(field(entry, "name"), w.name);
        assert_eq!(field(entry, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }

    let listed = doc.get("end_to_end").and_then(Value::as_array).unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, m) in listed.iter().zip(&END_TO_END) {
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit);
        assert_eq!(field(entry, "better"), m.better.as_str());
        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
        assert!(m.bound <= 0.25);
    }

    let listed = doc.get("per_layer").and_then(Value::as_array).unwrap();
    assert_eq!(listed.len(), PER_LAYER.len());
    for (entry, m) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit);
        assert_eq!(field(entry, "better"), m.better.as_str());
    }
}

#[test]
fn names_and_units_fit_the_drivers_limits() {
    let name_ok = |s: &str| {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = Vec::new();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    names.extend(all().iter().map(|w| w.name));
    for name in &names {
        assert!(name_ok(name), "bad name {name:?}");
    }
    let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a name is used once");
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(unit_ok(unit), "bad unit {unit:?}");
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}
