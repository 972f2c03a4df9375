//! `compare` verdicts on synthetic inputs.

use hxharness::parse_json;
use hxperf::compare::{compare_docs, compare_files, judge, Side, Verdict};
use hxperf::metrics::{Better, END_TO_END};
use hxperf::stats::Summary;

fn side(value: f64, spread: f64) -> Side {
    Side {
        value,
        summary: Summary {
            median: value,
            p25: value * (1.0 - spread / 2.0),
            p75: value * (1.0 + spread / 2.0),
            mean: value,
            n: 7,
        },
    }
}

fn tight(value: f64) -> Side {
    side(value, 0.01)
}

#[test]
fn verdicts_follow_the_bound_and_the_direction() {
    use Better::{Higher, Lower};
    assert_eq!(
        judge(&tight(1.0), &tight(1.05), Lower, 0.10),
        Verdict::Unchanged
    );
    assert_eq!(
        judge(&tight(1.0), &tight(1.15), Lower, 0.10),
        Verdict::Regressed
    );
    assert_eq!(
        judge(&tight(1.0), &tight(0.85), Lower, 0.10),
        Verdict::Improved
    );
    // Higher is better: the same move reads the other way.
    assert_eq!(
        judge(&tight(1.0), &tight(1.15), Higher, 0.10),
        Verdict::Improved
    );
    assert_eq!(
        judge(&tight(1.0), &tight(0.85), Higher, 0.10),
        Verdict::Regressed
    );
    // Bit-identical simulated metrics are unchanged whatever their spread.
    let wide = side(2.0, 1.0);
    assert_eq!(judge(&wide, &wide, Lower, 0.02), Verdict::Unchanged);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
    let noisy = |value: f64| side(value, 0.2);
    assert_eq!(
        judge(&noisy(1.0), &tight(1.3), Better::Lower, 0.10),
        Verdict::Unresolved
    );
    assert_eq!(
        judge(&tight(1.0), &noisy(1.3), Better::Lower, 0.10),
        Verdict::Unresolved
    );
}

/// A results document with one workload whose every metric has `median`,
/// except the overrides.
fn doc(flags: &str, fail_frac: f64, overrides: &[(&str, f64)]) -> String {
    let metrics: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            let v = overrides
                .iter()
                .find(|(k, _)| *k == m.name)
                .map_or(1.0, |(_, v)| *v);
            format!(
                "\"{}\":{{\"value\":{v},\"median\":{v},\"p25\":{},\"p75\":{},\"n\":7,\"unit\":\"{}\"}}",
                m.name,
                v * 0.999,
                v * 1.001,
                m.unit
            )
        })
        .collect();
    format!(
        "{{{flags},\"workloads\":{{\"dcr_sat\":{{\"fail_frac\":{fail_frac},\"end_to_end\":{{{}}}}}}}}}",
        metrics.join(",")
    )
}

const CLEAN: &str = "\"quick\":false,\"noisy\":false";

#[test]
fn documents_compare_per_metric_and_workload() {
    let a = parse_json(&doc(CLEAN, 0.0, &[])).unwrap();
    let b = parse_json(&doc(
        CLEAN,
        0.0,
        &[
            ("wall_s", 0.7),
            ("cpu_s", 1.3),
            ("sim_accepted", 0.88),
            ("setup_s", 1.2),
        ],
    ))
    .unwrap();
    let lines = compare_docs(&a, &b).unwrap();
    assert_eq!(
        lines.len(),
        END_TO_END.len() + 1,
        "six metrics and fail_frac"
    );
    let verdict = |metric: &str| {
        lines
            .iter()
            .find(|l| l.metric == metric && l.workload == "dcr_sat")
            .unwrap_or_else(|| panic!("no line for {metric}"))
            .verdict
    };
    assert_eq!(verdict("wall_s"), Verdict::Improved);
    assert_eq!(verdict("cpu_s"), Verdict::Regressed);
    assert_eq!(
        verdict("sim_accepted"),
        Verdict::Regressed,
        "12 % down, bound 6 %"
    );
    assert_eq!(
        verdict("setup_s"),
        Verdict::Unchanged,
        "20 % is inside set-up's bound"
    );
    assert_eq!(verdict("peak_alloc_mb"), Verdict::Unchanged);
    assert_eq!(verdict("fail_frac"), Verdict::Unchanged);
}

#[test]
fn any_new_failure_regresses_and_tiny_setups_are_not_compared() {
    let a = parse_json(&doc(CLEAN, 0.0, &[("setup_s", 0.001)])).unwrap();
    let b = parse_json(&doc(CLEAN, 0.001, &[("setup_s", 0.003)])).unwrap();
    let lines = compare_docs(&a, &b).unwrap();
    let verdict = |metric: &str| lines.iter().find(|l| l.metric == metric).unwrap().verdict;
    assert_eq!(
        verdict("fail_frac"),
        Verdict::Regressed,
        "the bound is 0 absolute"
    );
    assert_eq!(
        verdict("setup_s"),
        Verdict::Unchanged,
        "both below the 0.02 s floor"
    );
}

#[test]
fn files_gate_on_regressions_and_refuse_quick_or_noisy_runs() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare");
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, body: String| {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path.to_str().unwrap().to_string()
    };
    let base = write("a.json", doc(CLEAN, 0.0, &[]));
    let same = write("same.json", doc(CLEAN, 0.0, &[("wall_s", 1.03)]));
    let slow = write("slow.json", doc(CLEAN, 0.0, &[("wall_s", 1.4)]));
    let quick = write(
        "quick.json",
        doc("\"quick\":true,\"noisy\":false", 0.0, &[]),
    );
    let noisy = write(
        "noisy.json",
        doc("\"quick\":false,\"noisy\":true", 0.0, &[]),
    );
    assert_eq!(compare_files(&base, &same), Ok(true));
    assert_eq!(
        compare_files(&base, &slow),
        Ok(false),
        "a regression fails the gate"
    );
    assert!(compare_files(&base, &quick).unwrap_err().contains("quick"));
    assert!(compare_files(&noisy, &base).unwrap_err().contains("noisy"));
    assert!(compare_files(&base, "/nonexistent.json").is_err());
}
