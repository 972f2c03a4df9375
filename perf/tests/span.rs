//! Span self-time arithmetic.

use hxperf::span::{self_times, Span, Tracer};

fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: name.to_string(),
        start_ns,
        end_ns,
        calls: 1,
    }
}

#[test]
fn self_time_is_duration_minus_child_cover() {
    let spans = [
        span(0, None, "timed", 0, 100),
        span(1, Some(0), "slice", 10, 40),
        span(2, Some(1), "traffic.pre_cycle", 10, 15),
        span(3, Some(0), "slice", 50, 90),
    ];
    let t = self_times(&spans);
    assert_eq!(t["timed"], 100 - 30 - 40);
    assert_eq!(t["slice"], (30 - 5) + 40);
    assert_eq!(t["traffic.pre_cycle"], 5);
    // Self times partition the root: nothing is counted twice or lost.
    assert_eq!(t.values().sum::<u64>(), 100);
}

#[test]
fn overlapping_and_overhanging_children_are_merged_and_clipped() {
    let spans = [
        span(0, None, "root", 100, 200),
        span(1, Some(0), "a", 110, 150),
        span(2, Some(0), "b", 140, 160), // overlaps a by 10
        span(3, Some(0), "c", 190, 230), // runs 30 past the parent
    ];
    let t = self_times(&spans);
    // covered: [110,160) and [190,200) = 60
    assert_eq!(t["root"], 40);
    assert_eq!(t["a"], 40);
    assert_eq!(t["b"], 20);
    assert_eq!(t["c"], 40);
}

#[test]
fn tracer_nests_spans_and_lays_aggregated_leaves_end_to_end() {
    let mut tr = Tracer::new(true, "w", 3);
    tr.span("timed", |tr| {
        tr.span("slice", |tr| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tr.leaf("traffic.pre_cycle", 300_000, 64);
            tr.leaf("traffic.on_delivered", 200_000, 10);
            tr.leaf("never.called", 0, 0);
            tr.count("sim.cycles", 64.0);
        });
        tr.span("slice", |tr| tr.count("sim.cycles", 36.0));
    });
    assert_eq!(tr.spans.len(), 5, "a leaf with no calls records nothing");
    let (timed, slice, pre, del) = (&tr.spans[0], &tr.spans[1], &tr.spans[2], &tr.spans[3]);
    assert_eq!(
        (timed.parent, slice.parent, pre.parent),
        (None, Some(0), Some(1))
    );
    assert_eq!(pre.start_ns, slice.start_ns);
    assert_eq!(del.start_ns, pre.end_ns, "leaves do not overlap");
    assert_eq!((pre.calls, del.calls), (64, 10));
    assert_eq!(tr.count_total("sim.cycles"), 100.0);
    assert_eq!(tr.total_ns("traffic.pre_cycle"), 300_000);
    let t = tr.self_times();
    assert_eq!(t.values().sum::<u64>(), timed.duration_ns());
    assert_eq!(tr.self_ns_under("timed"), timed.duration_ns());
    assert_eq!(tr.self_ns_under("slice"), tr.spans[1].duration_ns());
    assert_eq!(tr.self_ns_under("no such span"), 0);
    assert_eq!(t["slice"], tr.total_ns("slice") - 500_000);

    let mut text = String::new();
    tr.write_jsonl(&mut text);
    assert_eq!(text.lines().count(), 5 + 2);
    for line in text.lines() {
        let row = hxharness::parse_json(line).expect("every trace line is JSON");
        assert_eq!(row.get("workload").and_then(|v| v.as_str()), Some("w"));
        assert_eq!(row.get("rep").and_then(|v| v.as_i64()), Some(3));
    }
}

#[test]
fn a_disabled_tracer_runs_the_closure_and_records_nothing() {
    let mut tr = Tracer::new(false, "w", 0);
    let out = tr.span("timed", |tr| {
        tr.leaf("x", 5, 1);
        tr.count("y", 1.0);
        7
    });
    assert_eq!(out, 7);
    assert!(tr.spans.is_empty() && tr.counts.is_empty());
}
