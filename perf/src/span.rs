//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the measured crates is instrumented.
//! A span is `{id, parent, name, workload, rep, start_ns, end_ns}`; counts
//! are recorded at the same boundaries and attach to the span open at the
//! time. A layer's *self time* is its span's duration minus the part of
//! that interval its child spans cover.
//!
//! Calls too frequent to record one by one (a workload's `pre_cycle` runs
//! every simulated cycle, `on_delivered` every packet) are timed by the
//! caller and folded into one child span per slice with [`Tracer::leaf`];
//! the span's `calls` field says how many calls it stands for.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls this span stands for (1 unless aggregated by [`Tracer::leaf`]).
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A count recorded at a span boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Count {
    pub span: Option<u32>,
    pub name: String,
    pub value: f64,
}

/// The recorder. A disabled tracer (the untraced repetitions) records
/// nothing and costs one branch per call.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    pub workload: String,
    pub rep: u32,
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str, rep: u32) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            workload: workload.to_string(),
            rep,
            spans: Vec::new(),
            counts: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the span open now.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Records `calls` calls that together took `dur_ns` as one child of
    /// the span open now, placed at the parent's start (children of one
    /// parent are laid end to end so they never overlap each other).
    pub fn leaf(&mut self, name: &str, dur_ns: u64, calls: u64) {
        if !self.enabled || calls == 0 {
            return;
        }
        let parent = self.stack.last().copied();
        let start_ns = match parent {
            None => self.now_ns().saturating_sub(dur_ns),
            Some(p) => self
                .spans
                .iter()
                .rev()
                .take_while(|s| s.id > p)
                .find(|s| s.parent == Some(p))
                .map_or(self.spans[p as usize].start_ns, |s| s.end_ns),
        };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + dur_ns,
            calls,
        });
    }

    /// Records a count against the span open now.
    pub fn count(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.counts.push(Count {
                span: self.stack.last().copied(),
                name: name.to_string(),
                value,
            });
        }
    }

    /// Sum of the recorded counts named `name`.
    pub fn count_total(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<String, u64> {
        self_times(&self.spans)
    }

    /// Sum of the self times of the first span named `root` and of every
    /// span below it.
    pub fn self_ns_under(&self, root: &str) -> u64 {
        let Some(root) = self.spans.iter().find(|s| s.name == root) else {
            return 0;
        };
        // Parents precede children, so one pass marks the subtree.
        let mut inside = vec![false; self.spans.len()];
        let mut subtree = Vec::new();
        for s in &self.spans {
            if s.id == root.id || s.parent.is_some_and(|p| inside[p as usize]) {
                inside[s.id as usize] = true;
                subtree.push(s.clone());
            }
        }
        self_times(&subtree).values().sum()
    }

    /// Appends every span and count as one JSON object per line. A root
    /// span has no `parent` key (the workspace's JSON reader, which the
    /// tests parse this with, has no null).
    pub fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write as _;
        let link =
            |key: &str, id: Option<u32>| id.map_or(String::new(), |id| format!("\"{key}\":{id},"));
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{},{}\"name\":\"{}\",\"workload\":\"{}\",\
                 \"rep\":{},\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.id,
                link("parent", s.parent),
                s.name,
                self.workload,
                self.rep,
                s.start_ns,
                s.end_ns,
                s.calls
            );
        }
        for c in &self.counts {
            let _ = writeln!(
                out,
                "{{\"kind\":\"count\",{}\"name\":\"{}\",\"workload\":\"{}\",\
                 \"rep\":{},\"value\":{}}}",
                link("span", c.span),
                c.name,
                self.workload,
                self.rep,
                c.value
            );
        }
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its direct children (overlapping children are
/// merged first, and clipped to the parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        *out.entry(s.name.clone()).or_default() += s.duration_ns() - covered;
    }
    out
}
