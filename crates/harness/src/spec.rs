//! Declarative experiment specs.
//!
//! A spec (TOML or JSON, by file extension) names an experiment, the
//! network it runs on, the axes to sweep (traffic pattern, routing
//! algorithm, offered load, seed, fault count), protocol knobs, and
//! optional per-axis-value overrides of simulator parameters:
//!
//! ```toml
//! [experiment]
//! name = "fig6_reduced"
//! kind = "steady"            # or "fault"
//!
//! [network]
//! dims = 3
//! width = 4
//! terminals = 4
//!
//! [axes]
//! pattern = ["UR"]
//! algo = ["DOR", "DimWAR", "OmniWAR"]
//! load = { start = 0.2, stop = 0.6, step = 0.2 }   # or [0.2, 0.4, 0.6]
//! seed = [1]
//!
//! [sim]                      # optional SimConfig overrides
//! num_vcs = 8
//!
//! [[override]]               # optional per-point patches
//! when = { pattern = "DCR" }
//! [override.sim]
//! watchdog_stall_cycles = 20000
//! ```
//!
//! [`ExperimentSpec::expand`] produces the cartesian product of the axes
//! in a fixed canonical order (pattern, algo, load, fails, router_fails,
//! retransmit; seed innermost), each point carrying its fully resolved
//! configuration — the unit the scheduler executes and the store hashes.

use std::collections::BTreeMap;

use hxsim::{SimConfig, SteadyOpts};
use hxtopo::HyperX;

use crate::value::{parse_json, parse_toml, Value};

/// Which measurement protocol a spec's points run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Warm-up-until-stable then measure (`run_steady_state`), as in the
    /// paper's Section 6 load/latency sweeps.
    Steady,
    /// Kill `fails` random links at cycle 0, inject for a fixed window,
    /// drain, and account delivered/dropped/stranded packets.
    Fault,
}

impl Kind {
    pub fn as_str(&self) -> &'static str {
        match self {
            Kind::Steady => "steady",
            Kind::Fault => "fault",
        }
    }
}

/// The simulated HyperX network.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct NetworkSpec {
    pub dims: usize,
    pub width: usize,
    pub terminals: usize,
}

impl NetworkSpec {
    pub fn build(&self) -> HyperX {
        HyperX::uniform(self.dims, self.width, self.terminals)
    }
}

/// Fault-protocol knobs (`kind = "fault"` only).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProtocol {
    /// Injection window in cycles.
    pub cycles: u64,
    /// Drain window as a multiple of `cycles`.
    pub drain_factor: u64,
    /// Cycle the scheduled faults strike (must lie inside the injection
    /// window; 0 = faults present from the start, the legacy protocol).
    pub kill_cycle: u64,
    /// Cycle the failed components come back (0 = never revived). When
    /// set, it must come after `kill_cycle`; revival during the drain
    /// window (`revive_cycle > cycles`) is allowed — stranded packets
    /// then recover while no new traffic is offered.
    pub revive_cycle: u64,
    /// Gray-failure layer: distinct extra cables that flap (transient
    /// down/up edges recovered by link-level retry; requires
    /// `sim.llr_enabled`). Flap links are drawn disjoint from the killed
    /// set — a flap on an already-dead cable would be invisible.
    pub flap_links: usize,
    /// Cycle of the first down edge of every flap schedule.
    pub flap_first: u64,
    /// Cycles between consecutive down edges (must exceed
    /// `flap_down_cycles`).
    pub flap_period: u64,
    /// Cycles each flap keeps the link down.
    pub flap_down_cycles: u64,
    /// Down/up edges per flapping link.
    pub flap_count: u32,
    /// Distinct extra cables degraded (gray, not dead) at `kill_cycle`
    /// and restored at `revive_cycle` (if nonzero); also disjoint from
    /// the killed set.
    pub degrade_links: usize,
    /// One-way latency added to each degraded cable.
    pub degrade_extra_latency: u64,
    /// Whether degraded cables also serialize at half bandwidth.
    pub degrade_half_bw: bool,
}

impl Default for FaultProtocol {
    fn default() -> Self {
        FaultProtocol {
            cycles: 10_000,
            drain_factor: 4,
            kill_cycle: 0,
            revive_cycle: 0,
            flap_links: 0,
            flap_first: 0,
            flap_period: 0,
            flap_down_cycles: 0,
            flap_count: 1,
            degrade_links: 0,
            degrade_extra_latency: 0,
            degrade_half_bw: false,
        }
    }
}

impl FaultProtocol {
    /// Whether any gray (transient) fault knob is active.
    pub fn has_transients(&self) -> bool {
        self.flap_links > 0 || self.degrade_links > 0
    }
}

/// The swept axes. Every combination (cartesian product) is one point.
#[derive(Clone, Debug)]
pub struct Axes {
    pub patterns: Vec<String>,
    pub algos: Vec<String>,
    pub loads: Vec<f64>,
    pub seeds: Vec<u64>,
    pub fails: Vec<usize>,
    /// Whole routers to kill per point (`kind = "fault"` only).
    pub router_fails: Vec<usize>,
    /// Source-retransmission timeout in cycles, 0 = transport off
    /// (`kind = "fault"` only); the value lands in
    /// `sim.retransmit_timeout`.
    pub retransmit: Vec<u64>,
}

/// A conditional patch: when every `when` entry matches a point's axis
/// values, the `sim` table is applied on top of the spec-level config.
#[derive(Clone, Debug)]
pub struct Override {
    pub when: BTreeMap<String, Value>,
    pub sim: BTreeMap<String, Value>,
}

/// A fully parsed, validated experiment description.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    pub name: String,
    pub kind: Kind,
    pub description: String,
    pub network: NetworkSpec,
    pub axes: Axes,
    pub sim: SimConfig,
    pub steady: SteadyOpts,
    pub fault: FaultProtocol,
    pub overrides: Vec<Override>,
}

/// One expanded sweep point: everything needed to execute it in
/// isolation.
#[derive(Clone, Debug)]
pub struct Point {
    pub kind: Kind,
    pub network: NetworkSpec,
    pub pattern: String,
    pub algo: String,
    pub load: f64,
    pub seed: u64,
    pub fails: usize,
    pub router_fails: usize,
    /// Retransmission timeout axis value (mirrored into
    /// `sim.retransmit_timeout`; 0 = transport off).
    pub retransmit: u64,
    pub sim: SimConfig,
    pub steady: SteadyOpts,
    pub fault: FaultProtocol,
}

/// `UR/DimWAR load 0.200 seed 1 fails 0 router_fails 0` — how progress
/// and failure messages name a point.
impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} load {:.3} seed {} fails {} router_fails {}",
            self.pattern, self.algo, self.load, self.seed, self.fails, self.router_fails
        )
    }
}

impl ExperimentSpec {
    /// Loads a spec from a `.toml` or `.json` file.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let format = if path.ends_with(".json") {
            "json"
        } else {
            "toml"
        };
        Self::parse(&text, format).map_err(|e| format!("{path}: {e}"))
    }

    /// Parses a spec from source text. `format` is `"toml"` or `"json"` —
    /// the two encodings `hx submit` ships over the wire.
    pub fn parse(text: &str, format: &str) -> Result<Self, String> {
        let value = match format {
            "json" => parse_json(text)?,
            "toml" => parse_toml(text)?,
            other => return Err(format!("unknown spec format {other:?} (toml or json)")),
        };
        Self::from_value(&value)
    }

    /// Renders the spec as a JSON document that [`ExperimentSpec::parse`]
    /// reproduces exactly (same axes, same resolved configs, same point
    /// digests). This is how a spec built in memory travels to an
    /// `hx serve` daemon, which insists on expanding specs itself.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;

        let mut s = String::with_capacity(1024);
        let jstr = |out: &mut String, v: &str| serde::Serialize::to_json(v, out);
        let jf64 = |out: &mut String, v: &f64| serde::Serialize::to_json(v, out);

        s.push_str("{\"experiment\":{\"name\":");
        jstr(&mut s, &self.name);
        s.push_str(",\"kind\":");
        jstr(&mut s, self.kind.as_str());
        s.push_str(",\"description\":");
        jstr(&mut s, &self.description);
        let _ = write!(
            s,
            "}},\"network\":{{\"dims\":{},\"width\":{},\"terminals\":{}}}",
            self.network.dims, self.network.width, self.network.terminals
        );

        s.push_str(",\"axes\":{");
        let str_axis = |out: &mut String, key: &str, vals: &[String]| {
            let _ = write!(out, "\"{key}\":[");
            for (i, v) in vals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                jstr(out, v);
            }
            out.push(']');
        };
        str_axis(&mut s, "pattern", &self.axes.patterns);
        s.push(',');
        str_axis(&mut s, "algo", &self.axes.algos);
        s.push_str(",\"load\":[");
        for (i, l) in self.axes.loads.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            jf64(&mut s, l);
        }
        s.push(']');
        let int_axis = |out: &mut String, key: &str, vals: &[u64]| {
            let _ = write!(out, ",\"{key}\":[");
            for (i, v) in vals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        };
        int_axis(&mut s, "seed", &self.axes.seeds);
        let as_u64 = |v: &[usize]| v.iter().map(|&x| x as u64).collect::<Vec<_>>();
        int_axis(&mut s, "fails", &as_u64(&self.axes.fails));
        int_axis(&mut s, "router_fails", &as_u64(&self.axes.router_fails));
        int_axis(&mut s, "retransmit", &self.axes.retransmit);
        s.push('}');

        // Every [sim] key apply_sim_overrides accepts, explicitly: the
        // resolved config survives the round trip even when it differs
        // from SimConfig::default() in this build.
        let c = &self.sim;
        let _ = write!(
            s,
            ",\"sim\":{{\"num_vcs\":{},\"buf_flits\":{},\"crossbar_latency\":{},\
             \"crossbar_speedup\":{},\"router_chan_latency\":{},\"short_chan_latency\":{},\
             \"term_chan_latency\":{},\"max_packet_flits\":{},\"max_source_queue\":{},\
             \"atomic_queue_alloc\":{},\"watchdog_stall_cycles\":{},\"max_packet_hops\":{},\
             \"retransmit_timeout\":{},\"retransmit_max_retries\":{},\
             \"retransmit_backoff_cap\":{},\"llr_enabled\":{},\"error_ber\":",
            c.num_vcs,
            c.buf_flits,
            c.crossbar_latency,
            c.crossbar_speedup,
            c.router_chan_latency,
            c.short_chan_latency,
            c.term_chan_latency,
            c.max_packet_flits,
            c.max_source_queue,
            c.atomic_queue_alloc,
            c.watchdog_stall_cycles,
            c.max_packet_hops,
            c.retransmit_timeout,
            c.retransmit_max_retries,
            c.retransmit_backoff_cap,
            c.llr_enabled,
        );
        jf64(&mut s, &c.error_ber);
        let _ = write!(s, ",\"llr_window\":{}}}", c.llr_window);

        let st = &self.steady;
        let _ = write!(
            s,
            ",\"steady\":{{\"warmup_window\":{},\"max_warmup_windows\":{},\
             \"measure_cycles\":{},\"stability_tol\":",
            st.warmup_window, st.max_warmup_windows, st.measure_cycles
        );
        jf64(&mut s, &st.stability_tol);
        s.push('}');

        let f = &self.fault;
        let _ = write!(
            s,
            ",\"fault\":{{\"cycles\":{},\"drain_factor\":{},\"kill_cycle\":{},\
             \"revive_cycle\":{},\"flap_links\":{},\"flap_first\":{},\"flap_period\":{},\
             \"flap_down_cycles\":{},\"flap_count\":{},\"degrade_links\":{},\
             \"degrade_extra_latency\":{},\"degrade_half_bw\":{}}}",
            f.cycles,
            f.drain_factor,
            f.kill_cycle,
            f.revive_cycle,
            f.flap_links,
            f.flap_first,
            f.flap_period,
            f.flap_down_cycles,
            f.flap_count,
            f.degrade_links,
            f.degrade_extra_latency,
            f.degrade_half_bw,
        );

        if !self.overrides.is_empty() {
            s.push_str(",\"override\":[");
            for (i, o) in self.overrides.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str("{\"when\":");
                Value::Table(o.when.clone()).write_json(&mut s);
                s.push_str(",\"sim\":");
                Value::Table(o.sim.clone()).write_json(&mut s);
                s.push('}');
            }
            s.push(']');
        }
        s.push('}');
        s
    }

    /// Builds a spec from a parsed TOML/JSON document.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let root = v.as_table().ok_or("spec root must be a table")?;
        check_keys(
            root,
            &[
                "schema_version",
                "experiment",
                "network",
                "axes",
                "sim",
                "steady",
                "fault",
                "override",
            ],
            "top level",
        )?;
        if let Some(sv) = root.get("schema_version") {
            let sv = sv.as_i64().ok_or("schema_version must be an integer")?;
            if sv != hxsim::SCHEMA_VERSION as i64 {
                return Err(format!(
                    "spec schema_version {sv} != supported {}",
                    hxsim::SCHEMA_VERSION
                ));
            }
        }

        let exp = v
            .get("experiment")
            .and_then(Value::as_table)
            .ok_or("missing [experiment] table")?;
        check_keys(exp, &["name", "kind", "description"], "[experiment]")?;
        let name = exp
            .get("name")
            .and_then(Value::as_str)
            .ok_or("experiment.name must be a string")?
            .to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(format!(
                "experiment.name {name:?} must be non-empty [A-Za-z0-9_-] (it names output files)"
            ));
        }
        let kind = match exp.get("kind").and_then(Value::as_str) {
            Some("steady") | None => Kind::Steady,
            Some("fault") => Kind::Fault,
            Some(other) => return Err(format!("unknown experiment.kind {other:?}")),
        };
        let description = exp
            .get("description")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();

        let net = v
            .get("network")
            .and_then(Value::as_table)
            .ok_or("missing [network] table")?;
        check_keys(net, &["dims", "width", "terminals"], "[network]")?;
        let network = NetworkSpec {
            dims: usize_field(net, "dims", "[network]")?,
            width: usize_field(net, "width", "[network]")?,
            terminals: usize_field(net, "terminals", "[network]")?,
        };
        if network.dims == 0 || network.width < 2 || network.terminals == 0 {
            return Err(format!(
                "[network] needs dims >= 1, width >= 2, terminals >= 1 (got {network:?})"
            ));
        }

        let axes_t = v
            .get("axes")
            .and_then(Value::as_table)
            .ok_or("missing [axes] table")?;
        check_keys(
            axes_t,
            &[
                "pattern",
                "algo",
                "load",
                "seed",
                "fails",
                "router_fails",
                "retransmit",
            ],
            "[axes]",
        )?;
        let axes = Axes {
            patterns: string_axis(axes_t, "pattern")?,
            algos: string_axis(axes_t, "algo")?,
            loads: load_axis(axes_t)?,
            seeds: int_axis(axes_t, "seed", &[1])?,
            fails: int_axis(axes_t, "fails", &[0])?
                .into_iter()
                .map(|s| s as usize)
                .collect(),
            router_fails: int_axis(axes_t, "router_fails", &[0])?
                .into_iter()
                .map(|s| s as usize)
                .collect(),
            retransmit: int_axis(axes_t, "retransmit", &[0])?,
        };

        let mut sim = SimConfig::default();
        if let Some(t) = v.get("sim") {
            let t = t.as_table().ok_or("[sim] must be a table")?;
            apply_sim_overrides(&mut sim, t)?;
        }

        let mut steady = SteadyOpts::default();
        if let Some(t) = v.get("steady") {
            let t = t.as_table().ok_or("[steady] must be a table")?;
            apply_steady_overrides(&mut steady, t)?;
        }

        let mut fault = FaultProtocol::default();
        if let Some(t) = v.get("fault") {
            let t = t.as_table().ok_or("[fault] must be a table")?;
            check_keys(
                t,
                &[
                    "cycles",
                    "drain_factor",
                    "kill_cycle",
                    "revive_cycle",
                    "flap_links",
                    "flap_first",
                    "flap_period",
                    "flap_down_cycles",
                    "flap_count",
                    "degrade_links",
                    "degrade_extra_latency",
                    "degrade_half_bw",
                ],
                "[fault]",
            )?;
            if let Some(c) = t.get("cycles") {
                fault.cycles = c
                    .as_i64()
                    .filter(|&c| c > 0)
                    .ok_or("fault.cycles must be > 0")? as u64;
            }
            if let Some(d) = t.get("drain_factor") {
                fault.drain_factor =
                    d.as_i64()
                        .filter(|&d| d > 0)
                        .ok_or("fault.drain_factor must be > 0")? as u64;
            }
            if let Some(k) = t.get("kill_cycle") {
                fault.kill_cycle =
                    k.as_i64()
                        .filter(|&k| k >= 0)
                        .ok_or("fault.kill_cycle must be >= 0")? as u64;
            }
            if let Some(r) = t.get("revive_cycle") {
                fault.revive_cycle =
                    r.as_i64()
                        .filter(|&r| r >= 0)
                        .ok_or("fault.revive_cycle must be >= 0")? as u64;
            }
            let uint = |key: &str| -> Result<Option<u64>, String> {
                match t.get(key) {
                    None => Ok(None),
                    Some(v) => v
                        .as_i64()
                        .filter(|&x| x >= 0)
                        .map(|x| Some(x as u64))
                        .ok_or_else(|| format!("fault.{key} must be a non-negative integer")),
                }
            };
            if let Some(n) = uint("flap_links")? {
                fault.flap_links = n as usize;
            }
            if let Some(c) = uint("flap_first")? {
                fault.flap_first = c;
            }
            if let Some(p) = uint("flap_period")? {
                fault.flap_period = p;
            }
            if let Some(d) = uint("flap_down_cycles")? {
                fault.flap_down_cycles = d;
            }
            if let Some(c) = uint("flap_count")? {
                fault.flap_count = c as u32;
            }
            if let Some(n) = uint("degrade_links")? {
                fault.degrade_links = n as usize;
            }
            if let Some(l) = uint("degrade_extra_latency")? {
                fault.degrade_extra_latency = l;
            }
            if let Some(b) = t.get("degrade_half_bw") {
                fault.degrade_half_bw = b
                    .as_bool()
                    .ok_or("fault.degrade_half_bw must be a boolean")?;
            }
            if fault.kill_cycle >= fault.cycles {
                return Err(format!(
                    "fault.kill_cycle {} must lie inside the injection window ({} cycles)",
                    fault.kill_cycle, fault.cycles
                ));
            }
            if fault.revive_cycle != 0 && fault.revive_cycle <= fault.kill_cycle {
                return Err(format!(
                    "fault.revive_cycle {} must come after kill_cycle {}",
                    fault.revive_cycle, fault.kill_cycle
                ));
            }
            if fault.flap_links > 0 {
                if fault.flap_down_cycles == 0 || fault.flap_period <= fault.flap_down_cycles {
                    return Err(format!(
                        "fault.flap_period {} must exceed fault.flap_down_cycles {} (> 0): \
                         a zero-width or always-down flap never recovers",
                        fault.flap_period, fault.flap_down_cycles
                    ));
                }
                if fault.flap_count == 0 {
                    return Err("fault.flap_count must be >= 1 when flap_links > 0".into());
                }
                if fault.flap_first >= fault.cycles {
                    return Err(format!(
                        "fault.flap_first {} must lie inside the injection window ({} cycles)",
                        fault.flap_first, fault.cycles
                    ));
                }
            }
            if fault.degrade_links > 0 && fault.degrade_extra_latency == 0 && !fault.degrade_half_bw
            {
                return Err(
                    "fault.degrade_links > 0 needs degrade_extra_latency > 0 or \
                     degrade_half_bw = true (a no-op degradation tests nothing)"
                        .into(),
                );
            }
        }

        let mut overrides = Vec::new();
        if let Some(list) = v.get("override") {
            let list = list
                .as_array()
                .ok_or("override must be [[override]] tables")?;
            for (i, o) in list.iter().enumerate() {
                let t = o
                    .as_table()
                    .ok_or_else(|| format!("override[{i}] must be a table"))?;
                check_keys(t, &["when", "sim"], &format!("override[{i}]"))?;
                let when = t
                    .get("when")
                    .and_then(Value::as_table)
                    .ok_or_else(|| format!("override[{i}] needs a `when` table"))?;
                check_keys(
                    when,
                    &[
                        "pattern",
                        "algo",
                        "load",
                        "seed",
                        "fails",
                        "router_fails",
                        "retransmit",
                    ],
                    &format!("override[{i}].when"),
                )?;
                let sim_patch = t
                    .get("sim")
                    .and_then(Value::as_table)
                    .ok_or_else(|| format!("override[{i}] needs a [override.sim] table"))?;
                // Validate the patch by applying it to a scratch config.
                let mut scratch = sim;
                apply_sim_overrides(&mut scratch, sim_patch)
                    .map_err(|e| format!("override[{i}]: {e}"))?;
                overrides.push(Override {
                    when: when.clone(),
                    sim: sim_patch.clone(),
                });
            }
        }

        let spec = ExperimentSpec {
            name,
            kind,
            description,
            network,
            axes,
            sim,
            steady,
            fault,
            overrides,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Semantic validation: axis values must name real algorithms and
    /// patterns, loads must be in (0, 1], and every expanded point's
    /// simulator config must be internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.axes.patterns.is_empty() || self.axes.algos.is_empty() {
            return Err("axes.pattern and axes.algo must be non-empty".into());
        }
        if self.axes.loads.is_empty()
            || self.axes.seeds.is_empty()
            || self.axes.fails.is_empty()
            || self.axes.router_fails.is_empty()
            || self.axes.retransmit.is_empty()
        {
            return Err(
                "axes.load, axes.seed, axes.fails, axes.router_fails, axes.retransmit \
                 must be non-empty"
                    .into(),
            );
        }
        for &l in &self.axes.loads {
            if !(l > 0.0 && l <= 1.0) {
                return Err(format!("load {l} outside (0, 1]"));
            }
        }
        let n = self.axes.patterns.len()
            * self.axes.algos.len()
            * self.axes.loads.len()
            * self.axes.seeds.len()
            * self.axes.fails.len()
            * self.axes.router_fails.len()
            * self.axes.retransmit.len();
        if n > 1_000_000 {
            return Err(format!("spec expands to {n} points (limit 1,000,000)"));
        }
        let hx = std::sync::Arc::new(self.network.build());
        for a in &self.axes.algos {
            if hxcore::hyperx_algorithm(a, hx.clone(), self.sim.num_vcs).is_none() {
                return Err(format!(
                    "unknown algorithm {a:?} (known: {})",
                    hxcore::HYPERX_ALGORITHMS.join(", ")
                ));
            }
        }
        for p in &self.axes.patterns {
            if hxtraffic::pattern_by_name(p, hx.clone()).is_none() {
                return Err(format!(
                    "unknown pattern {p:?} (known: {})",
                    hxtraffic::FIG6_PATTERNS.join(", ")
                ));
            }
        }
        if self.kind == Kind::Steady
            && (self.axes.fails.iter().any(|&f| f != 0)
                || self.axes.router_fails.iter().any(|&f| f != 0))
        {
            return Err(
                "steady-state specs must keep axes.fails and axes.router_fails = [0] \
                 (use kind = \"fault\")"
                    .into(),
            );
        }
        if self.kind == Kind::Steady && self.axes.retransmit.iter().any(|&t| t != 0) {
            return Err(
                "steady-state specs must keep axes.retransmit = [0]: the warm-up protocol \
                 measures raw network throughput, not transport goodput"
                    .into(),
            );
        }
        if self.kind == Kind::Steady && self.fault.has_transients() {
            return Err(
                "fault.flap_links / fault.degrade_links need kind = \"fault\": steady-state \
                 warm-up measures a healthy network"
                    .into(),
            );
        }
        // validate() panics on inconsistency; run it on every resolved
        // point config so a bad override fails at load time, not mid-sweep.
        for p in self.expand() {
            let c = p.sim;
            if c.num_vcs < 1
                || c.buf_flits < c.max_packet_flits
                || c.max_packet_flits < 1
                || c.watchdog_stall_cycles <= c.router_chan_latency
                || c.max_packet_hops < 1
                || (c.retransmit_timeout > 0
                    && c.retransmit_backoff_cap != 0
                    && c.retransmit_backoff_cap < c.retransmit_timeout)
                || (c.llr_enabled && c.llr_window < 1)
                || (c.error_ber > 0.0 && !c.llr_enabled)
            {
                return Err(format!(
                    "point {}/{} load {} seed {} fails {}: inconsistent sim config {c:?}",
                    p.pattern, p.algo, p.load, p.seed, p.fails
                ));
            }
            if self.fault.has_transients() && !c.llr_enabled {
                return Err(format!(
                    "point {}/{}: fault.flap_links/degrade_links are transient faults only \
                     link-level retry can recover; set sim.llr_enabled = true",
                    p.pattern, p.algo
                ));
            }
        }
        Ok(())
    }

    /// Expands the axes into the full point list, in canonical order:
    /// pattern, then algo, then load, then fails, then router_fails, then
    /// retransmit, with seed innermost.
    pub fn expand(&self) -> Vec<Point> {
        let mut points = Vec::new();
        for pattern in &self.axes.patterns {
            for algo in &self.axes.algos {
                for &load in &self.axes.loads {
                    for &fails in &self.axes.fails {
                        for &router_fails in &self.axes.router_fails {
                            for &retransmit in &self.axes.retransmit {
                                for &seed in &self.axes.seeds {
                                    let mut sim = self.sim;
                                    // The axis value is the timeout; overrides
                                    // below may still refine budget and cap.
                                    sim.retransmit_timeout = retransmit;
                                    for o in &self.overrides {
                                        if override_matches(
                                            o,
                                            pattern,
                                            algo,
                                            load,
                                            seed,
                                            fails,
                                            router_fails,
                                            retransmit,
                                        ) {
                                            apply_sim_overrides(&mut sim, &o.sim)
                                                .expect("override validated at load time");
                                        }
                                    }
                                    points.push(Point {
                                        kind: self.kind,
                                        network: self.network,
                                        pattern: pattern.clone(),
                                        algo: algo.clone(),
                                        load,
                                        seed,
                                        fails,
                                        router_fails,
                                        retransmit,
                                        sim,
                                        steady: self.steady,
                                        fault: self.fault,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }
}

#[allow(clippy::too_many_arguments)]
fn override_matches(
    o: &Override,
    pattern: &str,
    algo: &str,
    load: f64,
    seed: u64,
    fails: usize,
    router_fails: usize,
    retransmit: u64,
) -> bool {
    o.when.iter().all(|(k, v)| match k.as_str() {
        "pattern" => v.as_str() == Some(pattern),
        "algo" => v.as_str() == Some(algo),
        "load" => v.as_f64().is_some_and(|w| (w - load).abs() < 1e-9),
        "seed" => v.as_i64() == Some(seed as i64),
        "fails" => v.as_i64() == Some(fails as i64),
        "router_fails" => v.as_i64() == Some(router_fails as i64),
        "retransmit" => v.as_i64() == Some(retransmit as i64),
        _ => false,
    })
}

fn check_keys(table: &BTreeMap<String, Value>, allowed: &[&str], ctx: &str) -> Result<(), String> {
    for k in table.keys() {
        if !allowed.contains(&k.as_str()) {
            return Err(format!(
                "unknown key {k:?} in {ctx} (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn usize_field(t: &BTreeMap<String, Value>, key: &str, ctx: &str) -> Result<usize, String> {
    t.get(key)
        .and_then(Value::as_i64)
        .filter(|&v| v >= 0)
        .map(|v| v as usize)
        .ok_or_else(|| format!("{ctx}.{key} must be a non-negative integer"))
}

fn string_axis(t: &BTreeMap<String, Value>, key: &str) -> Result<Vec<String>, String> {
    let arr = t
        .get(key)
        .ok_or_else(|| format!("axes.{key} is required"))?
        .as_array()
        .ok_or_else(|| format!("axes.{key} must be an array of strings"))?;
    arr.iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("axes.{key} must be an array of strings"))
        })
        .collect()
}

fn int_axis(t: &BTreeMap<String, Value>, key: &str, default: &[u64]) -> Result<Vec<u64>, String> {
    match t.get(key) {
        None => Ok(default.to_vec()),
        Some(v) => {
            let arr = v
                .as_array()
                .ok_or_else(|| format!("axes.{key} must be an array of integers"))?;
            arr.iter()
                .map(|v| {
                    v.as_i64()
                        .filter(|&i| i >= 0)
                        .map(|i| i as u64)
                        .ok_or_else(|| format!("axes.{key} must be non-negative integers"))
                })
                .collect()
        }
    }
}

/// `axes.load` accepts either an explicit array or an inclusive
/// `{ start, stop, step }` grid. Grid values are rounded to 1e-3 so grids
/// and hand-written lists hash identically.
fn load_axis(t: &BTreeMap<String, Value>) -> Result<Vec<f64>, String> {
    let v = t.get("load").ok_or("axes.load is required")?;
    if let Some(arr) = v.as_array() {
        return arr
            .iter()
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| "axes.load must be numbers".to_string())
            })
            .collect();
    }
    let g = v
        .as_table()
        .ok_or("axes.load must be an array or { start, stop, step }")?;
    check_keys(g, &["start", "stop", "step"], "axes.load")?;
    let f = |k: &str| {
        g.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("axes.load.{k} must be a number"))
    };
    let (start, stop, step) = (f("start")?, f("stop")?, f("step")?);
    if step <= 0.0 || start <= 0.0 || stop < start {
        return Err("axes.load grid needs 0 < start <= stop and step > 0".into());
    }
    let mut loads = Vec::new();
    let mut l = start;
    while l <= stop + 1e-9 {
        loads.push((l * 1000.0).round() / 1000.0);
        l += step;
    }
    Ok(loads)
}

/// Applies a `[sim]` table onto a `SimConfig`. Unknown keys are errors
/// (a typo must not silently run the default experiment).
pub fn apply_sim_overrides(cfg: &mut SimConfig, t: &BTreeMap<String, Value>) -> Result<(), String> {
    for (k, v) in t {
        let int = || {
            v.as_i64()
                .filter(|&i| i >= 0)
                .ok_or_else(|| format!("sim.{k} must be a non-negative integer"))
        };
        match k.as_str() {
            "num_vcs" => cfg.num_vcs = int()? as usize,
            "buf_flits" => cfg.buf_flits = int()? as usize,
            "crossbar_latency" => cfg.crossbar_latency = int()? as u64,
            "crossbar_speedup" => cfg.crossbar_speedup = int()? as usize,
            "router_chan_latency" => cfg.router_chan_latency = int()? as u64,
            "short_chan_latency" => cfg.short_chan_latency = int()? as u64,
            "term_chan_latency" => cfg.term_chan_latency = int()? as u64,
            "max_packet_flits" => cfg.max_packet_flits = int()? as usize,
            "max_source_queue" => cfg.max_source_queue = int()? as usize,
            "atomic_queue_alloc" => {
                cfg.atomic_queue_alloc = v
                    .as_bool()
                    .ok_or_else(|| format!("sim.{k} must be a boolean"))?
            }
            "watchdog_stall_cycles" => cfg.watchdog_stall_cycles = int()? as u64,
            "max_packet_hops" => cfg.max_packet_hops = int()? as u8,
            "retransmit_timeout" => cfg.retransmit_timeout = int()? as u64,
            "retransmit_max_retries" => cfg.retransmit_max_retries = int()? as u32,
            "retransmit_backoff_cap" => cfg.retransmit_backoff_cap = int()? as u64,
            "llr_enabled" => {
                cfg.llr_enabled = v
                    .as_bool()
                    .ok_or_else(|| format!("sim.{k} must be a boolean"))?
            }
            "error_ber" => {
                cfg.error_ber = v
                    .as_f64()
                    .filter(|&b| (0.0..1.0).contains(&b))
                    .ok_or_else(|| format!("sim.{k} must be a rate in [0, 1)"))?
            }
            "llr_window" => cfg.llr_window = int()? as usize,
            other => return Err(format!("unknown [sim] key {other:?}")),
        }
    }
    Ok(())
}

/// Applies a `[steady]` table onto `SteadyOpts`; unknown keys are errors.
pub fn apply_steady_overrides(
    opts: &mut SteadyOpts,
    t: &BTreeMap<String, Value>,
) -> Result<(), String> {
    for (k, v) in t {
        let int = || {
            v.as_i64()
                .filter(|&i| i > 0)
                .ok_or_else(|| format!("steady.{k} must be a positive integer"))
        };
        match k.as_str() {
            "warmup_window" => opts.warmup_window = int()? as u64,
            "max_warmup_windows" => opts.max_warmup_windows = int()? as u32,
            "measure_cycles" => opts.measure_cycles = int()? as u64,
            "stability_tol" => {
                opts.stability_tol = v
                    .as_f64()
                    .filter(|&x| x > 0.0)
                    .ok_or_else(|| format!("steady.{k} must be a positive number"))?
            }
            other => return Err(format!("unknown [steady] key {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(toml: &str) -> Result<ExperimentSpec, String> {
        ExperimentSpec::from_value(&parse_toml(toml).expect("toml parses"))
    }

    const BASE: &str = r#"
[experiment]
name = "t"
kind = "steady"
[network]
dims = 2
width = 2
terminals = 1
[axes]
pattern = ["UR"]
algo = ["DOR", "DimWAR"]
load = [0.1, 0.2]
seed = [1, 2]
"#;

    #[test]
    fn expands_cartesian_in_canonical_order() {
        let s = spec(BASE).unwrap();
        let pts = s.expand();
        assert_eq!(pts.len(), 2 * 2 * 2);
        // pattern, algo, load, fails, seed (innermost).
        assert_eq!(
            (pts[0].algo.as_str(), pts[0].load, pts[0].seed),
            ("DOR", 0.1, 1)
        );
        assert_eq!(
            (pts[1].algo.as_str(), pts[1].load, pts[1].seed),
            ("DOR", 0.1, 2)
        );
        assert_eq!(
            (pts[2].algo.as_str(), pts[2].load, pts[2].seed),
            ("DOR", 0.2, 1)
        );
        assert_eq!(pts[4].algo, "DimWAR");
    }

    #[test]
    fn load_grid_matches_explicit_list() {
        let a = spec(&BASE.replace(
            "load = [0.1, 0.2]",
            "load = { start = 0.1, stop = 0.2, step = 0.1 }",
        ))
        .unwrap();
        assert_eq!(a.axes.loads, vec![0.1, 0.2]);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(spec(&format!("{BASE}\n[sim]\nnum_vc = 4")).is_err());
        assert!(spec(&format!("{BASE}\n[sim]\ntick_threads = 4")).is_err());
        assert!(spec(&BASE.replace("pattern", "patern")).is_err());
    }

    #[test]
    fn unknown_algo_and_pattern_rejected() {
        assert!(spec(&BASE.replace("\"DOR\"", "\"BogusWAR\"")).is_err());
        assert!(spec(&BASE.replace("[\"UR\"]", "[\"XX\"]")).is_err());
    }

    #[test]
    fn overrides_patch_matching_points_only() {
        let s = spec(&format!(
            "{BASE}\n[[override]]\nwhen = {{ algo = \"DOR\", load = 0.2 }}\n[override.sim]\nnum_vcs = 4\n"
        ))
        .unwrap();
        let pts = s.expand();
        for p in &pts {
            let expect = if p.algo == "DOR" && (p.load - 0.2).abs() < 1e-9 {
                4
            } else {
                8
            };
            assert_eq!(p.sim.num_vcs, expect, "{}/{}", p.algo, p.load);
        }
    }

    #[test]
    fn steady_spec_rejects_fails_axis() {
        assert!(spec(&BASE.replace("seed = [1, 2]", "seed = [1]\nfails = [1]")).is_err());
        assert!(spec(&BASE.replace("seed = [1, 2]", "seed = [1]\nrouter_fails = [1]")).is_err());
        assert!(spec(&BASE.replace("seed = [1, 2]", "seed = [1]\nretransmit = [64]")).is_err());
    }

    #[test]
    fn retransmit_axis_lands_in_sim_config() {
        let s = spec(
            &BASE
                .replace("kind = \"steady\"", "kind = \"fault\"")
                .replace("seed = [1, 2]", "seed = [1]\nretransmit = [0, 64]"),
        )
        .unwrap();
        let pts = s.expand();
        assert_eq!(pts.len(), 2 * 2 * 2);
        for p in &pts {
            assert_eq!(p.sim.retransmit_timeout, p.retransmit);
        }
        assert!(pts.iter().any(|p| p.retransmit == 64));
    }

    #[test]
    fn fault_kill_revive_cycles_validated() {
        let fault_base = BASE.replace("kind = \"steady\"", "kind = \"fault\"");
        let ok = spec(&format!(
            "{fault_base}\n[fault]\ncycles = 100\nkill_cycle = 10\nrevive_cycle = 50\n"
        ))
        .unwrap();
        assert_eq!(ok.fault.kill_cycle, 10);
        assert_eq!(ok.fault.revive_cycle, 50);
        // Kill outside the injection window.
        assert!(spec(&format!(
            "{fault_base}\n[fault]\ncycles = 100\nkill_cycle = 100\n"
        ))
        .is_err());
        // Revive before kill.
        assert!(spec(&format!(
            "{fault_base}\n[fault]\ncycles = 100\nkill_cycle = 50\nrevive_cycle = 40\n"
        ))
        .is_err());
    }

    #[test]
    fn gray_failure_knobs_parse_and_validate() {
        let fault_base = BASE.replace("kind = \"steady\"", "kind = \"fault\"");
        let ok = spec(&format!(
            "{fault_base}\n[sim]\nllr_enabled = true\nerror_ber = 1e-5\nllr_window = 64\n\
             [fault]\ncycles = 1000\nflap_links = 2\nflap_first = 100\nflap_period = 200\n\
             flap_down_cycles = 40\nflap_count = 3\ndegrade_links = 1\n\
             degrade_extra_latency = 2\ndegrade_half_bw = true\n"
        ))
        .unwrap();
        assert!(ok.sim.llr_enabled);
        assert_eq!(ok.sim.llr_window, 64);
        assert_eq!(ok.fault.flap_links, 2);
        assert_eq!(ok.fault.flap_period, 200);
        assert!(ok.fault.has_transients());
        assert!(ok.fault.degrade_half_bw);

        // Flaps without LLR cannot recover.
        assert!(spec(&format!(
            "{fault_base}\n[fault]\ncycles = 1000\nflap_links = 1\nflap_first = 10\n\
             flap_period = 100\nflap_down_cycles = 20\n"
        ))
        .is_err());
        // Always-down "flap" (period <= down).
        assert!(spec(&format!(
            "{fault_base}\n[sim]\nllr_enabled = true\n[fault]\ncycles = 1000\nflap_links = 1\n\
             flap_first = 10\nflap_period = 20\nflap_down_cycles = 20\n"
        ))
        .is_err());
        // Zero-width flap.
        assert!(spec(&format!(
            "{fault_base}\n[sim]\nllr_enabled = true\n[fault]\ncycles = 1000\nflap_links = 1\n\
             flap_first = 10\nflap_period = 20\nflap_down_cycles = 0\n"
        ))
        .is_err());
        // First down edge outside the injection window.
        assert!(spec(&format!(
            "{fault_base}\n[sim]\nllr_enabled = true\n[fault]\ncycles = 1000\nflap_links = 1\n\
             flap_first = 1000\nflap_period = 100\nflap_down_cycles = 20\n"
        ))
        .is_err());
        // No-op degradation.
        assert!(spec(&format!(
            "{fault_base}\n[sim]\nllr_enabled = true\n[fault]\ncycles = 1000\ndegrade_links = 1\n"
        ))
        .is_err());
        // BER without LLR (caught at point validation).
        assert!(spec(&format!("{fault_base}\n[sim]\nerror_ber = 1e-5\n")).is_err());
        // Transients are a fault-protocol feature.
        assert!(spec(&format!(
            "{BASE}\n[sim]\nllr_enabled = true\n[fault]\nflap_links = 1\nflap_first = 10\n\
             flap_period = 100\nflap_down_cycles = 20\n"
        ))
        .is_err());
    }

    /// `to_json` must survive a parse round trip with identical point
    /// digests — it is how programmatic specs reach an `hx serve` daemon,
    /// and a digest drift would silently split the shared cache.
    #[test]
    fn to_json_round_trips_with_identical_digests() {
        let s = spec(&format!(
            "{BASE}\n[sim]\nnum_vcs = 3\nerror_ber = 1e-7\nllr_enabled = true\nllr_window = 8\n\
             [steady]\nwarmup_window = 128\nstability_tol = 0.025\n\
             [[override]]\nwhen = {{ algo = \"DimWAR\" }}\n[override.sim]\nnum_vcs = 4\n"
        ))
        .unwrap();
        let json = s.to_json();
        let back = ExperimentSpec::parse(&json, "json").unwrap_or_else(|e| {
            panic!("emitted JSON must re-parse: {e}\n{json}");
        });
        let a = s.expand();
        let b = back.expand();
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(
                crate::digest::point_digest(pa),
                crate::digest::point_digest(pb),
                "digest drift at {}/{} load {} seed {}",
                pa.pattern,
                pa.algo,
                pa.load,
                pa.seed
            );
        }
        assert_eq!(back.axes.seeds, s.axes.seeds);
        assert_eq!(back.sim.num_vcs, 3);
        assert_eq!(back.overrides.len(), 1);
    }

    #[test]
    fn parse_rejects_unknown_format() {
        assert!(ExperimentSpec::parse("{}", "yaml").is_err());
    }

    #[test]
    fn bad_override_config_rejected_at_load() {
        // buf_flits < max_packet_flits is inconsistent.
        let s = spec(&format!(
            "{BASE}\n[[override]]\nwhen = {{ algo = \"DOR\" }}\n[override.sim]\nbuf_flits = 4\n"
        ));
        assert!(s.is_err(), "{s:?}");
    }
}
