//! Content addressing for sweep points.
//!
//! Each point's identity is the FNV-1a digest of its canonicalized
//! configuration: the measurement protocol, the network, every axis
//! value, the resolved semantic `SimConfig` (via
//! [`hxsim::CanonicalSimConfig`], which excludes the execution knobs —
//! the two engines are bit-identical, so the engine must not affect
//! identity), the protocol knobs, the result
//! [`hxsim::SCHEMA_VERSION`], and the workspace crate version. The
//! experiment *name* is deliberately excluded: two specs that describe
//! the same point share its cached result, and renaming a spec does not
//! invalidate a completed sweep.

use crate::spec::{Kind, Point};
use crate::value::write_json_object;

/// Workspace version baked into every digest; all workspace crates share
/// `[workspace.package].version`, so bumping it invalidates the store —
/// exactly right, since any crate may have changed simulation behavior.
pub const WORKSPACE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// The canonical JSON form a point's digest is computed over. Field order
/// is fixed here; every scalar renders through the same serde encoder as
/// the result rows, so the encoding is bit-stable across runs and
/// platforms. (Assembled by hand, into one buffer, because the vendored
/// derive macro does not support borrowed fields.)
pub fn canonical_json(p: &Point) -> String {
    // Fault knobs only shape fault-kind runs; zero them for steady
    // points so tuning [fault] never invalidates steady results. (The
    // retransmit axis needs no field of its own: it is mirrored into
    // `sim.retransmit_timeout`, already inside the canonical config.)
    let f = if p.kind == Kind::Fault {
        p.fault
    } else {
        crate::spec::FaultProtocol {
            cycles: 0,
            drain_factor: 0,
            ..Default::default()
        }
    };
    let mut out = String::with_capacity(1024);
    write_json_object(
        &mut out,
        &[
            ("schema_version", &hxsim::SCHEMA_VERSION),
            ("workspace_version", &WORKSPACE_VERSION),
            ("kind", &p.kind.as_str()),
            ("dims", &p.network.dims),
            ("width", &p.network.width),
            ("terminals", &p.network.terminals),
            ("pattern", &p.pattern),
            ("algo", &p.algo),
            ("load", &p.load),
            ("seed", &p.seed),
            ("fails", &p.fails),
            ("router_fails", &p.router_fails),
            ("sim", &p.sim.canonical()),
            ("warmup_window", &p.steady.warmup_window),
            ("max_warmup_windows", &p.steady.max_warmup_windows),
            ("measure_cycles", &p.steady.measure_cycles),
            ("stability_tol", &p.steady.stability_tol),
            ("fault_cycles", &f.cycles),
            ("drain_factor", &f.drain_factor),
            ("kill_cycle", &f.kill_cycle),
            ("revive_cycle", &f.revive_cycle),
            ("flap_links", &f.flap_links),
            ("flap_first", &f.flap_first),
            ("flap_period", &f.flap_period),
            ("flap_down_cycles", &f.flap_down_cycles),
            ("flap_count", &f.flap_count),
            ("degrade_links", &f.degrade_links),
            ("degrade_extra_latency", &f.degrade_extra_latency),
            ("degrade_half_bw", &f.degrade_half_bw),
        ],
    );
    out
}

/// The point's content digest (hex form is the store key).
pub fn point_digest(p: &Point) -> u64 {
    hxsim::fnv1a(canonical_json(p).as_bytes())
}

/// Store-key rendering of a digest (16 hex digits).
pub fn digest_hex(d: u64) -> String {
    format!("{d:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;
    use crate::value::parse_toml;

    fn points(toml: &str) -> Vec<Point> {
        ExperimentSpec::from_value(&parse_toml(toml).unwrap())
            .unwrap()
            .expand()
    }

    const BASE: &str = r#"
[experiment]
name = "t"
[network]
dims = 2
width = 2
terminals = 1
[axes]
pattern = ["UR"]
algo = ["DOR"]
load = [0.1]
seed = [1]
"#;

    #[test]
    fn digest_is_stable_and_axis_sensitive() {
        let d0 = point_digest(&points(BASE)[0]);
        assert_eq!(d0, point_digest(&points(BASE)[0]), "same spec, same digest");
        let seed2 = point_digest(&points(&BASE.replace("seed = [1]", "seed = [2]"))[0]);
        assert_ne!(d0, seed2, "seed is part of identity");
        let load2 = point_digest(&points(&BASE.replace("load = [0.1]", "load = [0.2]"))[0]);
        assert_ne!(d0, load2, "load is part of identity");
        let vcs = point_digest(&points(&format!("{BASE}[sim]\nnum_vcs = 4\n"))[0]);
        assert_ne!(d0, vcs, "sim config is part of identity");
    }

    #[test]
    fn name_and_tick_threads_do_not_affect_digest() {
        let d0 = point_digest(&points(BASE)[0]);
        let renamed = point_digest(&points(&BASE.replace("name = \"t\"", "name = \"u\""))[0]);
        assert_eq!(d0, renamed, "experiment name must not affect identity");
        let mut p = points(BASE)[0].clone();
        p.sim.tick_threads = 8;
        assert_eq!(
            d0,
            point_digest(&p),
            "tick_threads must not affect identity"
        );
    }

    #[test]
    fn steady_points_ignore_fault_knobs() {
        let d0 = point_digest(&points(BASE)[0]);
        let tuned = point_digest(&points(&format!("{BASE}[fault]\ncycles = 123\n"))[0]);
        assert_eq!(d0, tuned);
    }

    fn load(spec: &str) -> ExperimentSpec {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        ExperimentSpec::load(&format!("{root}/experiments/{spec}")).unwrap()
    }

    /// Store keys are these bytes hashed: if either literal has to change,
    /// every store in the field turns into misses. (Both carry
    /// `SCHEMA_VERSION` and `WORKSPACE_VERSION`, so bumping one of those
    /// re-blesses them, which is what a bump is for.)
    #[test]
    fn canonical_json_is_pinned_byte_for_byte() {
        let steady = &load("fig6_reduced.toml").expand()[1];
        assert_eq!(
            canonical_json(steady),
            concat!(
                r#"{"schema_version":1,"workspace_version":"0.1.0","kind":"steady","dims":3,"#,
                r#""width":4,"terminals":4,"pattern":"UR","algo":"DOR","load":0.4,"seed":1,"#,
                r#""fails":0,"router_fails":0,"sim":{"num_vcs":8,"buf_flits":160,"#,
                r#""crossbar_latency":50,"crossbar_speedup":4,"router_chan_latency":50,"#,
                r#""short_chan_latency":10,"term_chan_latency":5,"max_packet_flits":16,"#,
                r#""max_source_queue":256,"atomic_queue_alloc":false,"#,
                r#""watchdog_stall_cycles":10000,"max_packet_hops":64,"retransmit_timeout":0,"#,
                r#""retransmit_max_retries":16,"retransmit_backoff_cap":0,"llr_enabled":false,"#,
                r#""error_ber":0.0,"llr_window":128},"warmup_window":2000,"#,
                r#""max_warmup_windows":12,"measure_cycles":6000,"stability_tol":0.12,"#,
                r#""fault_cycles":0,"drain_factor":0,"kill_cycle":0,"revive_cycle":0,"#,
                r#""flap_links":0,"flap_first":0,"flap_period":0,"flap_down_cycles":0,"#,
                r#""flap_count":1,"degrade_links":0,"degrade_extra_latency":0,"#,
                r#""degrade_half_bw":false}"#
            )
        );
        assert_eq!(digest_hex(point_digest(steady)), "04996ab7a98505ac");

        let fault = &load("chaos_reduced.toml").expand()[1];
        assert_eq!(
            canonical_json(fault),
            concat!(
                r#"{"schema_version":1,"workspace_version":"0.1.0","kind":"fault","dims":3,"#,
                r#""width":4,"terminals":4,"pattern":"UR","algo":"DimWAR","load":0.2,"seed":1,"#,
                r#""fails":0,"router_fails":1,"sim":{"num_vcs":8,"buf_flits":160,"#,
                r#""crossbar_latency":50,"crossbar_speedup":4,"router_chan_latency":50,"#,
                r#""short_chan_latency":10,"term_chan_latency":5,"max_packet_flits":16,"#,
                r#""max_source_queue":256,"atomic_queue_alloc":false,"#,
                r#""watchdog_stall_cycles":2000,"max_packet_hops":64,"retransmit_timeout":6000,"#,
                r#""retransmit_max_retries":16,"retransmit_backoff_cap":0,"llr_enabled":true,"#,
                r#""error_ber":1e-5,"llr_window":64},"warmup_window":2000,"#,
                r#""max_warmup_windows":12,"measure_cycles":6000,"stability_tol":0.12,"#,
                r#""fault_cycles":2000,"drain_factor":6,"kill_cycle":400,"revive_cycle":1200,"#,
                r#""flap_links":2,"flap_first":300,"flap_period":250,"flap_down_cycles":60,"#,
                r#""flap_count":4,"degrade_links":1,"degrade_extra_latency":2,"#,
                r#""degrade_half_bw":true}"#
            )
        );
        assert_eq!(digest_hex(point_digest(fault)), "5d459183c5fa53d3");
    }

    /// The committed rows were keyed by an earlier build: the digests this
    /// one computes for the same spec must be the ones they carry.
    #[test]
    fn committed_rows_still_carry_this_builds_digests() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let rows = std::fs::read_to_string(format!("{root}/results/fig6_reduced.jsonl")).unwrap();
        let committed: std::collections::HashSet<u64> = rows
            .lines()
            .map(|row| {
                let digest = crate::value::object_member(row, "digest").unwrap().unwrap();
                u64::from_str_radix(digest.as_str().unwrap(), 16).unwrap()
            })
            .collect();
        assert_eq!(
            crate::sched::spec_digests(&load("fig6_reduced.toml")),
            committed
        );
    }
}
