//! Declarative experiment specs.
//!
//! A spec (TOML or JSON, by file extension) names an experiment, the
//! network it runs on, the axes to sweep (traffic pattern, routing
//! algorithm, offered load, seed, fault count), and protocol knobs:
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
//! ```
//!
//! [`ExperimentSpec::expand`] produces the cartesian product of the axes
//! in a fixed canonical order (pattern, algo, load, fails, router_fails,
//! retransmit; seed innermost), each point carrying its fully resolved
//! configuration — the unit the scheduler executes and the store hashes.

use std::collections::{BTreeMap, BTreeSet};

use hxsim::{SimConfig, SteadyOpts, MAX_LATENCY, MAX_PORTS, MAX_VCS};
use hxtopo::{HyperX, MAX_DIMS};

use crate::value::{parse_json, parse_toml, write_json_object, Value};

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

/// Most router ports (routers × ports per router) a network may have.
///
/// Every per-port structure of a simulation — topology tables, channels,
/// each port's input VC records, credits and claims — scales with this
/// count, and [`ExperimentSpec::validate`] builds the topology just to
/// resolve names, so the bound has to hold before anything is built. The
/// largest `fig2_sim` rung (19×19×19, 16 terminals per router: 6,859
/// routers of 70 ports, 480,130 in all) peaks near 0.5 GB; 2^22 ports
/// leaves about 8.7× that headroom, a few GB, where an unchecked spec such
/// as `dims = 6, width = 30` (1.3e11 ports) would ask for terabytes.
const MAX_NETWORK_PORTS: usize = 1 << 22;

/// The simulated HyperX network.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct NetworkSpec {
    pub dims: usize,
    pub width: usize,
    pub terminals: usize,
}

impl NetworkSpec {
    /// Checks that the simulator's types and a host can hold this
    /// network: at most [`MAX_DIMS`] dimensions, at most [`MAX_PORTS`]
    /// ports per router, every router and terminal numbered by a `u32`,
    /// and at most [`MAX_NETWORK_PORTS`] router ports in all. Runs before
    /// [`NetworkSpec::build`] allocates anything.
    fn check(&self) -> Result<(), String> {
        let NetworkSpec {
            dims,
            width,
            terminals,
        } = *self;
        if !(1..=MAX_DIMS).contains(&dims) {
            return Err(format!("network.dims {dims} must be 1 to {MAX_DIMS}"));
        }
        if width < 2 || terminals == 0 {
            return Err(format!(
                "network.width must be >= 2 and network.terminals >= 1 (got {self:?})"
            ));
        }
        let Some(radix) = (width - 1)
            .checked_mul(dims)
            .and_then(|p| p.checked_add(terminals))
            .filter(|&r| r <= MAX_PORTS)
        else {
            return Err(format!(
                "network: terminals + dims * (width - 1) ports per router exceeds \
                 {MAX_PORTS} (got {self:?})"
            ));
        };
        let routers = width.checked_pow(dims as u32);
        let endpoints = routers.and_then(|r| r.checked_mul(terminals + 1));
        if endpoints.is_none_or(|n| u32::try_from(n).is_err()) {
            return Err(format!(
                "network: width^dims * (1 + terminals) endpoints exceed the u32 ids \
                 a simulation numbers them with (got {self:?})"
            ));
        }
        let ports = routers.and_then(|r| r.checked_mul(radix));
        if ports.is_none_or(|p| p > MAX_NETWORK_PORTS) {
            return Err(format!(
                "network: width^dims routers * {radix} ports each exceed the \
                 {MAX_NETWORK_PORTS} router ports a simulation host is sized for \
                 (got {self:?})"
            ));
        }
        Ok(())
    }

    pub fn build(&self) -> HyperX {
        HyperX::uniform(self.dims, self.width, self.terminals)
    }
}

/// Fault-protocol knobs (`kind = "fault"` only).
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct FaultProtocol {
    /// Injection window in cycles.
    pub(crate) cycles: u64,
    /// Drain window as a multiple of `cycles`.
    pub(crate) drain_factor: u64,
    /// Cycle the scheduled faults strike (must lie inside the injection
    /// window; 0 = faults present from the start, the legacy protocol).
    pub kill_cycle: u64,
    /// Cycle the failed components come back (0 = never revived). When
    /// set, it must come after `kill_cycle` and before the run's end,
    /// `cycles × (1 + drain_factor)`; revival during the drain window
    /// (`revive_cycle > cycles`) is allowed — stranded packets then
    /// recover while no new traffic is offered.
    pub revive_cycle: u64,
    /// Gray-failure layer: distinct extra cables that flap (transient
    /// down/up edges recovered by link-level retry; requires
    /// `sim.llr_enabled`). Flap links are drawn disjoint from the killed
    /// set — a flap on an already-dead cable would be invisible.
    pub flap_links: usize,
    /// Cycle of the first down edge of every flap schedule.
    pub(crate) flap_first: u64,
    /// Cycles between consecutive down edges (must exceed
    /// `flap_down_cycles`; the last up edge must come before the run's
    /// end).
    pub(crate) flap_period: u64,
    /// Cycles each flap keeps the link down.
    pub(crate) flap_down_cycles: u64,
    /// Down/up edges per flapping link.
    pub(crate) flap_count: u32,
    /// Distinct extra cables degraded (gray, not dead) at `kill_cycle`
    /// and restored at `revive_cycle` (if nonzero); also disjoint from
    /// the killed set.
    pub degrade_links: usize,
    /// One-way latency added to each degraded cable (with
    /// `sim.router_chan_latency`, below `hxsim::MAX_LATENCY`).
    pub(crate) degrade_extra_latency: u64,
    /// Whether degraded cables also serialize at half bandwidth.
    pub(crate) degrade_half_bw: bool,
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
    pub(crate) fn has_transients(&self) -> bool {
        self.flap_links > 0 || self.degrade_links > 0
    }

    /// Checks that the knobs describe a protocol that can run on `sim`'s
    /// channels: every scheduled action fires, and the arithmetic on them
    /// cannot wrap. The run executes cycles `0..end`, the injection window
    /// followed by the drain, so an action at `end` never fires.
    fn check(&self, sim: &SimConfig) -> Result<(), String> {
        if self.cycles == 0 || self.drain_factor == 0 {
            return Err("fault.cycles and fault.drain_factor must be > 0".into());
        }
        let end = self
            .drain_factor
            .checked_add(1)
            .and_then(|f| f.checked_mul(self.cycles))
            .ok_or_else(|| {
                format!(
                    "fault.cycles {} × (1 + fault.drain_factor {}) overflows the cycle count",
                    self.cycles, self.drain_factor
                )
            })?;
        if self.kill_cycle >= self.cycles {
            return Err(format!(
                "fault.kill_cycle {} must lie inside the injection window ({} cycles)",
                self.kill_cycle, self.cycles
            ));
        }
        if self.revive_cycle != 0 && self.revive_cycle <= self.kill_cycle {
            return Err(format!(
                "fault.revive_cycle {} must come after kill_cycle {}",
                self.revive_cycle, self.kill_cycle
            ));
        }
        if self.revive_cycle >= end {
            return Err(format!(
                "fault.revive_cycle {} must come before the run's end at cycle {end} \
                 (fault.cycles × (1 + fault.drain_factor)): a revival there never fires",
                self.revive_cycle
            ));
        }
        if self.flap_links > 0 {
            if self.flap_down_cycles == 0 || self.flap_period <= self.flap_down_cycles {
                return Err(format!(
                    "fault.flap_period {} must exceed fault.flap_down_cycles {} (> 0): \
                     a zero-width or always-down flap never recovers",
                    self.flap_period, self.flap_down_cycles
                ));
            }
            if self.flap_count == 0 {
                return Err("fault.flap_count must be >= 1 when flap_links > 0".into());
            }
            if self.flap_first >= self.cycles {
                return Err(format!(
                    "fault.flap_first {} must lie inside the injection window ({} cycles)",
                    self.flap_first, self.cycles
                ));
            }
            let last_up = u64::from(self.flap_count - 1)
                .checked_mul(self.flap_period)
                .and_then(|t| t.checked_add(self.flap_first))
                .and_then(|t| t.checked_add(self.flap_down_cycles));
            if last_up.is_none_or(|c| c >= end) {
                return Err(format!(
                    "the last flap up edge, fault.flap_first {} + (fault.flap_count {} - 1) \
                     × fault.flap_period {} + fault.flap_down_cycles {}, must come before the \
                     run's end at cycle {end}: a link left down never recovers",
                    self.flap_first, self.flap_count, self.flap_period, self.flap_down_cycles
                ));
            }
        }
        if self.degrade_links > 0 {
            if self.degrade_extra_latency == 0 && !self.degrade_half_bw {
                return Err(
                    "fault.degrade_links > 0 needs degrade_extra_latency > 0 or \
                     degrade_half_bw = true (a no-op degradation tests nothing)"
                        .into(),
                );
            }
            let latency = sim
                .router_chan_latency
                .saturating_add(self.degrade_extra_latency);
            if latency >= MAX_LATENCY {
                return Err(format!(
                    "sim.router_chan_latency {} + fault.degrade_extra_latency {} must be below \
                     2^31: an in-flight flit keeps the low 32 bits of its maturity",
                    sim.router_chan_latency, self.degrade_extra_latency
                ));
            }
        }
        Ok(())
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
        let mut s = String::with_capacity(1024);
        s.push_str("{\"experiment\":");
        write_json_object(
            &mut s,
            &[
                ("name", &self.name),
                ("kind", &self.kind.as_str()),
                ("description", &self.description),
            ],
        );
        s.push_str(",\"network\":");
        serde::Serialize::to_json(&self.network, &mut s);
        let a = &self.axes;
        s.push_str(",\"axes\":");
        write_json_object(
            &mut s,
            &[
                ("pattern", &a.patterns),
                ("algo", &a.algos),
                ("load", &a.loads),
                ("seed", &a.seeds),
                ("fails", &a.fails),
                ("router_fails", &a.router_fails),
                ("retransmit", &a.retransmit),
            ],
        );
        // The whole resolved config, not just what differs from this
        // build's SimConfig::default().
        s.push_str(",\"sim\":");
        serde::Serialize::to_json(&self.sim, &mut s);
        s.push_str(",\"steady\":");
        serde::Serialize::to_json(&self.steady, &mut s);
        s.push_str(",\"fault\":");
        serde::Serialize::to_json(&self.fault, &mut s);
        s.push('}');
        s
    }

    /// Builds a spec from a parsed TOML/JSON document.
    pub(crate) fn from_value(v: &Value) -> Result<Self, String> {
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
            apply_fault_overrides(&mut fault, t)?;
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
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Semantic validation: the network must fit the simulator's types,
    /// axis values must name real algorithms and patterns, loads must be
    /// in (0, 1], and every point's simulator config must pass
    /// [`SimConfig::validate`]. Each bound is checked before the work it
    /// bounds: nothing here expands the points.
    pub fn validate(&self) -> Result<(), String> {
        self.network.check()?;
        self.fault.check(&self.sim)?;
        let a = &self.axes;
        let lens = [
            a.patterns.len(),
            a.algos.len(),
            a.loads.len(),
            a.seeds.len(),
            a.fails.len(),
            a.router_fails.len(),
            a.retransmit.len(),
        ];
        if lens.contains(&0) {
            return Err(
                "axes.pattern, axes.algo, axes.load, axes.seed, axes.fails, \
                 axes.router_fails and axes.retransmit must be non-empty"
                    .into(),
            );
        }
        let n = lens.iter().try_fold(1usize, |n, &l| n.checked_mul(l));
        if n.is_none_or(|n| n > 1_000_000) {
            return Err("axes expand to more than 1,000,000 points".into());
        }
        for &l in &a.loads {
            if !(l > 0.0 && l <= 1.0) {
                return Err(format!("axes.load {l} outside (0, 1]"));
            }
        }
        // The retransmit axis is the only one that changes a point's config.
        for &retransmit_timeout in &a.retransmit {
            SimConfig {
                retransmit_timeout,
                ..self.sim
            }
            .validate()
            .map_err(|e| format!("sim: {e}"))?;
        }
        if self.fault.has_transients() && !self.sim.llr_enabled {
            return Err(
                "fault.flap_links/degrade_links are transient faults only link-level retry \
                 can recover; set sim.llr_enabled = true"
                    .into(),
            );
        }
        let hx = std::sync::Arc::new(self.network.build());
        let vcs = self.sim.num_vcs;
        for algo in &a.algos {
            hxcore::hyperx_algorithm(algo, hx.clone(), vcs)
                .map_err(|e| format!("axes.algo {algo:?} with sim.num_vcs = {vcs}: {e}"))?;
        }
        let net = self.network;
        for p in &a.patterns {
            hxtraffic::pattern_by_name(p, hx.clone()).map_err(|e| {
                format!(
                    "axes.pattern {p:?} on network.dims = {}, network.width = {}, \
                     network.terminals = {}: {e}",
                    net.dims, net.width, net.terminals
                )
            })?;
        }
        if self.kind == Kind::Fault {
            // Every point's draw must deliver what its row will claim. It
            // depends only on these three axes and the fault protocol.
            let mut draws = BTreeSet::new();
            for &seed in &a.seeds {
                for &fails in &a.fails {
                    for &router_fails in &a.router_fails {
                        if draws.insert((seed, fails, router_fails)) {
                            crate::runner::draw_faults(
                                &hx,
                                fails,
                                router_fails,
                                seed,
                                &self.fault,
                                "axes.",
                            )?;
                        }
                    }
                }
            }
        }
        if self.kind == Kind::Steady
            && (a.fails.iter().any(|&f| f != 0) || a.router_fails.iter().any(|&f| f != 0))
        {
            return Err(
                "steady-state specs must keep axes.fails and axes.router_fails = [0] \
                 (use kind = \"fault\")"
                    .into(),
            );
        }
        if self.kind == Kind::Steady && a.retransmit.iter().any(|&t| t != 0) {
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
                                    sim.retransmit_timeout = retransmit;
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
/// and hand-written lists hash identically; a grid is bounded (at most
/// 1,000 values, none repeated) before it is expanded.
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
    if !(start > 0.0 && start <= stop && stop <= 1.0 && step >= 1e-3) {
        return Err("axes.load grid needs 0 < start <= stop <= 1 and step >= 0.001".into());
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
pub(crate) fn apply_sim_overrides(
    cfg: &mut SimConfig,
    t: &BTreeMap<String, Value>,
) -> Result<(), String> {
    for (k, v) in t {
        let int = || {
            v.as_i64()
                .filter(|&i| i >= 0)
                .ok_or_else(|| format!("sim.{k} must be a non-negative integer"))
        };
        // Fields narrower than i64 take only what they can hold.
        let ranged = |lo: i64, hi: i64| {
            v.as_i64()
                .filter(|i| (lo..=hi).contains(i))
                .ok_or_else(|| format!("sim.{k} must be an integer in {lo}..={hi}"))
        };
        match k.as_str() {
            "num_vcs" => cfg.num_vcs = ranged(1, MAX_VCS as i64)? as usize,
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
            "max_packet_hops" => cfg.max_packet_hops = ranged(1, u8::MAX.into())? as u8,
            "retransmit_timeout" => cfg.retransmit_timeout = int()? as u64,
            "retransmit_max_retries" => {
                cfg.retransmit_max_retries = ranged(0, u32::MAX.into())? as u32
            }
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

/// Applies a `[fault]` table onto `FaultProtocol`; unknown keys are
/// errors. [`FaultProtocol::check`] then relates the knobs to each other.
fn apply_fault_overrides(
    fault: &mut FaultProtocol,
    t: &BTreeMap<String, Value>,
) -> Result<(), String> {
    for (k, v) in t {
        let int = || {
            v.as_i64()
                .filter(|&i| i >= 0)
                .map(|i| i as u64)
                .ok_or_else(|| format!("fault.{k} must be a non-negative integer"))
        };
        match k.as_str() {
            "cycles" => fault.cycles = int()?,
            "drain_factor" => fault.drain_factor = int()?,
            "kill_cycle" => fault.kill_cycle = int()?,
            "revive_cycle" => fault.revive_cycle = int()?,
            "flap_links" => fault.flap_links = int()? as usize,
            "flap_first" => fault.flap_first = int()?,
            "flap_period" => fault.flap_period = int()?,
            "flap_down_cycles" => fault.flap_down_cycles = int()?,
            // Range-checked, not truncated: 2^32 + 3 is not 3.
            "flap_count" => {
                fault.flap_count = u32::try_from(int()?).map_err(|_| {
                    format!("fault.flap_count must be an integer in 0..={}", u32::MAX)
                })?
            }
            "degrade_links" => fault.degrade_links = int()? as usize,
            "degrade_extra_latency" => fault.degrade_extra_latency = int()?,
            "degrade_half_bw" => {
                fault.degrade_half_bw = v
                    .as_bool()
                    .ok_or("fault.degrade_half_bw must be a boolean")?
            }
            other => return Err(format!("unknown [fault] key {other:?}")),
        }
    }
    Ok(())
}

/// Applies a `[steady]` table onto `SteadyOpts`; unknown keys are errors.
pub(crate) fn apply_steady_overrides(
    opts: &mut SteadyOpts,
    t: &BTreeMap<String, Value>,
) -> Result<(), String> {
    for (k, v) in t {
        let int = || {
            v.as_i64()
                .filter(|&i| i > 0)
                .ok_or_else(|| format!("steady.{k} must be a positive integer"))
        };
        let ranged = |lo: i64, hi: i64| {
            v.as_i64()
                .filter(|i| (lo..=hi).contains(i))
                .ok_or_else(|| format!("steady.{k} must be an integer in {lo}..={hi}"))
        };
        match k.as_str() {
            "warmup_window" => opts.warmup_window = int()? as u64,
            "max_warmup_windows" => opts.max_warmup_windows = ranged(1, u32::MAX.into())? as u32,
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

    /// `[[override]]` is gone: neither encoding of it loads.
    #[test]
    fn override_blocks_are_rejected() {
        let toml = format!("{BASE}\n[[override]]\nwhen = {{ algo = \"DOR\" }}\n");
        let err = ExperimentSpec::parse(&toml, "toml").unwrap_err();
        assert!(err.contains("[[override]]"), "{err}");
        let json = spec(BASE).unwrap().to_json();
        let json = format!("{},\"override\":[]}}", &json[..json.len() - 1]);
        let err = ExperimentSpec::parse(&json, "json").unwrap_err();
        assert!(err.contains("\"override\""), "{err}");
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
        // Three gray cables: a 3 × 3 network has them beside its spanning
        // tree (`BASE`'s 2 × 2 has one).
        let wide = fault_base.replace("width = 2", "width = 3");
        let ok = spec(&format!(
            "{wide}\n[sim]\nllr_enabled = true\nerror_ber = 1e-5\nllr_window = 64\n\
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

    /// A fault spec with LLR on whose run ends at cycle 400
    /// (`cycles = 100`, `drain_factor = 3`), plus `[fault]` lines `extra`.
    fn ending_at_400(extra: &str) -> String {
        let fault_base = BASE.replace("kind = \"steady\"", "kind = \"fault\"");
        format!(
            "{fault_base}\n[sim]\nllr_enabled = true\n[fault]\ncycles = 100\ndrain_factor = 3\n\
             {extra}\n"
        )
    }

    /// A fault draw that falls short is refused at load, naming the knob
    /// that asked too much: of the four cables of `BASE`'s 2 × 2 network,
    /// one can go with the routers kept connected, and three of its four
    /// routers.
    #[test]
    fn a_fault_draw_that_falls_short_is_refused_at_load() {
        let axes = |line: &str| ending_at_400("").replace("seed = [1, 2]", line);
        spec(&axes(
            "seed = [1, 2]\nfails = [0, 1]\nrouter_fails = [0, 3]",
        ))
        .unwrap();
        let err = spec(&axes("seed = [1, 2]\nfails = [0, 3]")).unwrap_err();
        assert!(
            err.starts_with("axes.fails = 3: only 1 links can be cut"),
            "{err}"
        );
        let err = spec(&axes("seed = [1, 2]\nrouter_fails = [4]")).unwrap_err();
        assert!(
            err.starts_with("axes.router_fails = 4: only 3 routers"),
            "{err}"
        );
        let flaps = ending_at_400(
            "flap_links = 5\nflap_first = 10\nflap_period = 100\nflap_down_cycles = 20",
        );
        let err = spec(&flaps).unwrap_err();
        assert!(
            err.starts_with(
                "fault.flap_links + fault.degrade_links = 5: only 1 gray links can be drawn"
            ),
            "{err}"
        );
    }

    /// The run executes cycles `0..end`, so a revival at `end` never fires.
    #[test]
    fn revive_cycle_must_come_before_the_run_end() {
        let revive = |c: u64| ending_at_400(&format!("kill_cycle = 10\nrevive_cycle = {c}"));
        assert_eq!(spec(&revive(399)).unwrap().fault.revive_cycle, 399);
        assert_rejected_naming(&revive(400), "fault.revive_cycle");
        assert_rejected_naming(&revive(401), "fault.revive_cycle");
    }

    #[test]
    fn last_flap_up_edge_must_come_before_the_run_end() {
        let flaps = |down: u64, period: u64, count: u64| {
            ending_at_400(&format!(
                "flap_links = 1\nflap_first = 10\nflap_period = {period}\n\
                 flap_down_cycles = {down}\nflap_count = {count}"
            ))
        };
        // Last up edge 10 + 3 × 100 + 89 = 399, then exactly 400.
        assert_eq!(spec(&flaps(89, 100, 4)).unwrap().fault.flap_count, 4);
        assert_rejected_naming(&flaps(90, 100, 4), "fault.flap_count");
        // (count - 1) × period past u64 is refused, not wrapped.
        assert_rejected_naming(&flaps(90, 1 << 62, 5), "fault.flap_period");
    }

    /// 2000 × (1 + 2^62 - 1) wraps to 0 in u64 arithmetic.
    #[test]
    fn run_end_is_checked_not_wrapped() {
        let fault_base = BASE.replace("kind = \"steady\"", "kind = \"fault\"");
        assert_rejected_naming(
            &format!("{fault_base}\n[fault]\ncycles = 2000\ndrain_factor = 4611686018427387903\n"),
            "fault.drain_factor 4611686018427387903",
        );
    }

    /// `Channel::degrade`'s bound, checked at load against the channel
    /// latency the degraded cables run at.
    #[test]
    fn degraded_latency_is_bounded() {
        let degrade = |extra: u64| {
            ending_at_400(&format!(
                "degrade_links = 1\ndegrade_extra_latency = {extra}"
            ))
        };
        let top = MAX_LATENCY - 1 - SimConfig::default().router_chan_latency;
        assert_eq!(
            spec(&degrade(top)).unwrap().fault.degrade_extra_latency,
            top
        );
        for extra in [top + 1, 1 << 32, i64::MAX as u64] {
            assert_rejected_naming(&degrade(extra), "fault.degrade_extra_latency");
        }
    }

    /// Parses `s.to_json()` back and asserts every point digest survives.
    fn assert_round_trips(s: &ExperimentSpec) -> ExperimentSpec {
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
                "{}: digest drift at {pa}",
                s.name
            );
        }
        back
    }

    /// `to_json` must survive a parse round trip with identical point
    /// digests — it is how programmatic specs reach an `hx serve` daemon,
    /// and a digest drift would silently split the shared cache.
    #[test]
    fn to_json_round_trips_with_identical_digests() {
        let s = spec(&format!(
            "{BASE}\n[sim]\nnum_vcs = 3\nerror_ber = 1e-7\nllr_enabled = true\nllr_window = 8\n\
             [steady]\nwarmup_window = 128\nstability_tol = 0.025\n"
        ))
        .unwrap();
        let back = assert_round_trips(&s);
        assert_eq!(back.axes.seeds, s.axes.seeds);
        assert_eq!(back.sim.num_vcs, 3);
    }

    /// Every committed spec, sweeps and benchmark workloads alike.
    #[test]
    fn committed_specs_round_trip_through_to_json() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = 0;
        for dir in ["experiments", "perf/specs"] {
            for entry in std::fs::read_dir(root.join(dir)).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|e| e == "toml") {
                    assert_round_trips(&ExperimentSpec::load(path.to_str().unwrap()).unwrap());
                    seen += 1;
                }
            }
        }
        assert!(seen >= 8, "found only {seen} committed specs");
    }

    /// `[sim]` integers narrower than the TOML integer are range-checked,
    /// not truncated: an out-of-range value is an error naming its key.
    fn sim_key(key: &str, value: &str) -> Result<ExperimentSpec, String> {
        spec(&format!("{BASE}\n[sim]\n{key} = {value}\n"))
    }

    fn assert_names_key(r: Result<ExperimentSpec, String>, key: &str) {
        let err = r.expect_err("out-of-range value accepted");
        assert!(err.contains(&format!("sim.{key}")), "{err}");
    }

    #[test]
    fn num_vcs_is_bounded_by_the_router_mask() {
        assert_eq!(sim_key("num_vcs", "64").unwrap().sim.num_vcs, MAX_VCS);
        assert_names_key(sim_key("num_vcs", "65"), "num_vcs");
        assert_names_key(sim_key("num_vcs", "0"), "num_vcs");
    }

    #[test]
    fn max_packet_hops_is_not_truncated() {
        assert_eq!(
            sim_key("max_packet_hops", "255")
                .unwrap()
                .sim
                .max_packet_hops,
            255
        );
        // 300 would otherwise wrap to a hop cap of 44.
        assert_names_key(sim_key("max_packet_hops", "300"), "max_packet_hops");
        assert_names_key(sim_key("max_packet_hops", "0"), "max_packet_hops");
    }

    #[test]
    fn retransmit_max_retries_is_not_truncated() {
        let max = u32::MAX.to_string();
        assert_eq!(
            sim_key("retransmit_max_retries", &max)
                .unwrap()
                .sim
                .retransmit_max_retries,
            u32::MAX
        );
        let over = (u32::MAX as u64 + 1).to_string();
        assert_names_key(
            sim_key("retransmit_max_retries", &over),
            "retransmit_max_retries",
        );
    }

    #[test]
    fn max_warmup_windows_is_not_truncated() {
        let steady =
            |value: &str| spec(&format!("{BASE}\n[steady]\nmax_warmup_windows = {value}\n"));
        let max = u32::MAX.to_string();
        assert_eq!(steady(&max).unwrap().steady.max_warmup_windows, u32::MAX);
        // 2^32 would otherwise run with zero warm-up windows, and 2^32 + 1
        // as the same point as 1.
        for over in [1u64 << 32, (1u64 << 32) + 1] {
            let err = steady(&over.to_string()).expect_err("out-of-range value accepted");
            assert!(err.contains("steady.max_warmup_windows"), "{err}");
        }
        assert!(steady("0").is_err());
    }

    #[test]
    fn flap_count_is_not_truncated() {
        let fault_base = BASE.replace("kind = \"steady\"", "kind = \"fault\"");
        let flaps = |count: &str| {
            spec(&format!(
                "{fault_base}\n[sim]\nllr_enabled = true\n[fault]\ncycles = 1000\nflap_links = 1\n\
                 flap_first = 100\nflap_period = 200\nflap_down_cycles = 40\nflap_count = {count}\n"
            ))
        };
        assert_eq!(flaps("3").unwrap().fault.flap_count, 3);
        // 2^32 + 3 would otherwise run as the same point as 3.
        let over = ((1u64 << 32) + 3).to_string();
        let err = flaps(&over).expect_err("out-of-range value accepted");
        assert!(err.contains("fault.flap_count"), "{err}");
    }

    #[test]
    fn parse_rejects_unknown_format() {
        assert!(ExperimentSpec::parse("{}", "yaml").is_err());
    }

    /// `SimConfig::validate`'s own rule, reported at load time.
    #[test]
    fn inconsistent_sim_config_rejected_at_load() {
        let err = spec(&format!("{BASE}\n[sim]\nbuf_flits = 4\n")).unwrap_err();
        assert!(err.contains("virtual cut-through"), "{err}");
    }

    fn assert_rejected_naming(toml: &str, key: &str) {
        let err = spec(toml).expect_err("hostile spec accepted");
        assert!(err.contains(key), "{err}");
    }

    /// `BASE` on a `dims` x `width` network with `terminals` per router,
    /// running `pattern` under `algo` with `[sim]` lines `sim`.
    fn resolving(dims: usize, width: usize, terminals: usize, axes: &str, sim: &str) -> String {
        let net = format!("dims = {dims}\nwidth = {width}\nterminals = {terminals}\n");
        let spec = BASE.replace("dims = 2\nwidth = 2\nterminals = 1\n", &net);
        let spec = spec.replace("pattern = [\"UR\"]\nalgo = [\"DOR\", \"DimWAR\"]\n", axes);
        format!("{spec}\n[sim]\n{sim}\n")
    }

    /// An algorithm or pattern that cannot run on the spec's VC count or
    /// network is refused naming both keys and the failed constraint.
    fn assert_unresolvable(toml: &str, keys: &[&str], why: &str) {
        let err = spec(toml).expect_err("unresolvable spec accepted");
        for key in keys.iter().chain([&why]) {
            assert!(err.contains(key), "missing {key:?}: {err}");
        }
    }

    #[test]
    fn omniwar_needs_a_vc_per_dimension() {
        let toml = resolving(
            3,
            2,
            1,
            "pattern = [\"UR\"]\nalgo = [\"OmniWAR\"]\n",
            "num_vcs = 2",
        );
        assert_unresolvable(
            &toml,
            &["axes.algo", "sim.num_vcs = 2"],
            "one VC per dimension",
        );
    }

    #[test]
    fn dimwar_needs_two_vcs() {
        let toml = resolving(
            2,
            2,
            1,
            "pattern = [\"UR\"]\nalgo = [\"DimWAR\"]\n",
            "num_vcs = 1",
        );
        assert_unresolvable(
            &toml,
            &["axes.algo", "sim.num_vcs = 1"],
            "2 resource classes",
        );
    }

    #[test]
    fn urbz_needs_a_third_dimension() {
        let toml = resolving(2, 2, 1, "pattern = [\"URBz\"]\nalgo = [\"DOR\"]\n", "");
        assert_unresolvable(&toml, &["axes.pattern", "network.dims = 2"], "dimension 2");
    }

    #[test]
    fn dcr_needs_two_dimensions() {
        let toml = resolving(1, 4, 2, "pattern = [\"DCR\"]\nalgo = [\"DOR\"]\n", "");
        assert_unresolvable(
            &toml,
            &["axes.pattern", "network.dims = 1"],
            "two dimensions",
        );
    }

    #[test]
    fn s2_needs_two_dimensions() {
        let toml = resolving(1, 4, 2, "pattern = [\"S2\"]\nalgo = [\"DOR\"]\n", "");
        assert_unresolvable(&toml, &["axes.pattern", "network.dims = 1"], "X and Y");
    }

    #[test]
    fn s2_needs_an_even_terminal_count() {
        let toml = resolving(2, 2, 3, "pattern = [\"S2\"]\nalgo = [\"DOR\"]\n", "");
        assert_unresolvable(
            &toml,
            &["axes.pattern", "network.terminals = 3"],
            "even terminal",
        );
    }

    #[test]
    fn bc_needs_a_power_of_two_terminal_count() {
        let toml = resolving(2, 3, 1, "pattern = [\"BC\"]\nalgo = [\"DOR\"]\n", "");
        assert_unresolvable(&toml, &["axes.pattern", "network.width = 3"], "not 9");
    }

    /// 1,024 values on six axes and 16 on the seventh: 2^64 points, a
    /// product that wraps to 0 in unchecked arithmetic.
    #[test]
    fn axis_product_is_checked_not_wrapped() {
        let mut toml = "[experiment]\nname = \"t\"\nkind = \"fault\"\n\
                        [network]\ndims = 2\nwidth = 2\nterminals = 1\n[axes]\n"
            .to_string();
        for (key, value, n) in [
            ("pattern", "\"UR\"", 1024),
            ("algo", "\"DOR\"", 1024),
            ("load", "0.5", 1024),
            ("seed", "1", 1024),
            ("fails", "0", 1024),
            ("router_fails", "0", 1024),
            ("retransmit", "0", 16),
        ] {
            toml += &format!("{key} = [{}]\n", vec![value; n].join(", "));
        }
        assert_rejected_naming(&toml, "axes");
    }

    fn load_grid(grid: &str) -> String {
        BASE.replace("load = [0.1, 0.2]", &format!("load = {grid}"))
    }

    /// Below the 1e-3 rounding, a grid would repeat every load.
    #[test]
    fn load_grid_step_is_at_least_the_rounding() {
        assert_rejected_naming(
            &load_grid("{ start = 0.1, stop = 0.2, step = 0.0001 }"),
            "axes.load",
        );
    }

    /// A grid past load 1 is rejected before any value is pushed.
    #[test]
    fn load_grid_stops_at_one() {
        assert_rejected_naming(
            &load_grid("{ start = 0.1, stop = 2, step = 0.1 }"),
            "axes.load",
        );
        assert_rejected_naming(
            &load_grid("{ start = 0.1, stop = 1e12, step = 0.001 }"),
            "axes.load",
        );
    }

    #[test]
    fn network_dims_are_bounded() {
        assert_rejected_naming(&BASE.replace("dims = 2", "dims = 7"), "network.dims");
    }

    /// `terminals + dims * (width - 1)` ports must fit a `u16` ingress step.
    #[test]
    fn network_radix_is_bounded() {
        assert_rejected_naming(
            &BASE.replace("terminals = 1", "terminals = 70000"),
            "ports per router",
        );
    }

    /// Routers plus terminals must fit `u32` ids, checked without overflow.
    #[test]
    fn network_endpoint_count_is_bounded() {
        let net = |dims: usize, width: usize| {
            BASE.replace("dims = 2", &format!("dims = {dims}"))
                .replace("width = 2", &format!("width = {width}"))
        };
        // 64^6 * 2 = 2^37 endpoints.
        assert_rejected_naming(&net(6, 64), "endpoints");
        // 5000^6 overflows even a 64-bit count.
        assert_rejected_naming(&net(6, 5000), "endpoints");
    }

    /// Routers × ports per router is bounded before the topology is
    /// built: 30^6 routers of 175 ports fit `u32` ids but not a host.
    #[test]
    fn network_port_count_is_bounded() {
        let huge = BASE
            .replace("dims = 2", "dims = 6")
            .replace("width = 2", "width = 30");
        assert_rejected_naming(&huge, "router ports");
        assert_rejected_naming(&huge, "network");
        // The largest fig2_sim rung is accepted.
        let rung = NetworkSpec {
            dims: 3,
            width: 19,
            terminals: 16,
        };
        assert_eq!(rung.check(), Ok(()));
    }
}
