//! # hxcore — incremental adaptive routing for HyperX networks
//!
//! This crate is the reproduction of the primary contribution of
//! McDonald et al., *"Practical and Efficient Incremental Adaptive Routing
//! for HyperX Networks"* (SC '19): the [`DimWar`] and [`OmniWar`]
//! incremental adaptive routing algorithms, together with every baseline
//! the paper evaluates against ([`Dor`], [`Valiant`], [`Ugal`], [`ClosAd`])
//! and the prior-work algorithms it analyzes ([`Dal`], [`MinAd`]).
//!
//! Algorithms are expressed against the [`RoutingAlgorithm`] trait: given a
//! packet's [`Hop`] they enumerate the legal `(port, resource-class)`
//! [`Candidate`]s and read no congestion. The cycle-accurate simulator in
//! `hxsim` weighs every candidate by the paper's one rule, "minimal
//! congestion x hop count" ([`weight::weigh`]), from its own output state,
//! and grants the cheapest feasible one. Deadlock avoidance is encoded
//! purely in resource classes mapped onto virtual channels ([`ClassMap`]) —
//! DimWAR and OmniWAR keep **no routing state in the packet**, which is the
//! paper's implementability claim (Table 1, regenerated by
//! [`meta::table1_rows`]).
//!
//! ```
//! use std::sync::Arc;
//! use hxtopo::HyperX;
//! use hxcore::{hyperx_algorithm, HYPERX_ALGORITHMS};
//!
//! let hx = Arc::new(HyperX::uniform(3, 8, 8)); // the paper's 4,096-node net
//! for name in HYPERX_ALGORITHMS {
//!     let algo = hyperx_algorithm(name, hx.clone(), 8).unwrap();
//!     assert!(algo.num_classes() <= 8);
//! }
//! ```

mod api;
mod closad;
mod dal;
mod dimwar;
mod dor;
mod dragonfly_routing;
mod fattree_routing;
mod ftwar;
mod hyperx_common;
pub mod meta;
mod minad;
pub mod mock;
mod omniwar;
mod ugal;
mod valiant;
pub mod weight;

pub use api::{
    Candidate, ClassMap, Commit, Hop, PacketRouteState, RouteCtx, RoutingAlgorithm, NO_INTERMEDIATE,
};
pub use closad::ClosAd;
pub use dal::Dal;
pub use dimwar::DimWar;
pub use dor::Dor;
pub use dragonfly_routing::{DfPolicy, DragonflyRouting};
pub use fattree_routing::FatTreeRouting;
pub use ftwar::FtWar;
pub use minad::MinAd;
pub use omniwar::OmniWar;
pub use ugal::Ugal;
pub use valiant::Valiant;

use std::sync::Arc;

use hxtopo::HyperX;

/// The HyperX algorithm names accepted by [`hyperx_algorithm`], in the
/// order the paper's figures present them (Table 2), followed by the two
/// extras (`MinAD`, `DAL`) used in side analyses and the fault-tolerant
/// baseline (`FT-WAR`, after Camarero et al., arXiv 2404.04315).
pub const HYPERX_ALGORITHMS: &[&str] = &[
    "DOR", "VAL", "UGAL", "Clos-AD", "DimWAR", "OmniWAR", "MinAD", "DAL", "FT-WAR",
];

/// Instantiates a HyperX routing algorithm by name (case-insensitive;
/// `"UGAL+"` is accepted as an alias for `"Clos-AD"`, as in the paper's
/// Figure 6 labels) for a simulation with `num_vcs` VCs per port.
///
/// # Errors
/// An unknown name, or an algorithm whose resource classes cannot fit in
/// `num_vcs` VCs; the message names the constraint that failed.
pub fn hyperx_algorithm(
    name: &str,
    hx: Arc<HyperX>,
    num_vcs: usize,
) -> Result<Box<dyn RoutingAlgorithm>, String> {
    let dims = hx.dims();
    let algo: Box<dyn RoutingAlgorithm> = match name.to_ascii_lowercase().as_str() {
        "dor" => Box::new(Dor::new(hx)),
        "val" | "valiant" => Box::new(Valiant::new(hx)),
        "ugal" => Box::new(Ugal::new(hx)),
        "clos-ad" | "closad" | "ugal+" => Box::new(ClosAd::new(hx)),
        "minad" | "min-ad" => Box::new(MinAd::new(hx)),
        "dal" => Box::new(Dal::new(hx)),
        "dimwar" => Box::new(DimWar::new(hx, num_vcs)),
        "omniwar" | "ft-war" | "ftwar" if num_vcs < dims => {
            return Err(format!(
                "{name} needs at least one VC per dimension: {num_vcs} VCs, {dims} dimensions"
            ))
        }
        "omniwar" => Box::new(OmniWar::max_deroutes(hx, num_vcs)),
        "ft-war" | "ftwar" => Box::new(FtWar::max_deroutes(hx, num_vcs)),
        _ => {
            return Err(format!(
                "unknown algorithm {name} (known: {})",
                HYPERX_ALGORITHMS.join(", ")
            ))
        }
    };
    let classes = algo.num_classes();
    if classes > num_vcs {
        return Err(format!(
            "{name} needs {classes} resource classes, which cannot fit in {num_vcs} VCs"
        ));
    }
    Ok(algo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_knows_every_listed_algorithm() {
        let hx = Arc::new(HyperX::uniform(3, 4, 2));
        for name in HYPERX_ALGORITHMS {
            let algo = hyperx_algorithm(name, hx.clone(), 8)
                .unwrap_or_else(|e| panic!("factory missing {name}: {e}"));
            assert!(algo.num_classes() >= 1);
            assert!(algo.num_classes() <= 8);
        }
    }

    #[test]
    fn factory_accepts_ugal_plus_alias() {
        let hx = Arc::new(HyperX::uniform(2, 4, 2));
        let a = hyperx_algorithm("UGAL+", hx.clone(), 8).unwrap();
        assert_eq!(a.name(), "Clos-AD");
    }

    #[test]
    fn factory_rejects_unknown() {
        let hx = Arc::new(HyperX::uniform(2, 4, 2));
        let e = hyperx_algorithm("nope", hx, 8).err().unwrap();
        assert!(e.starts_with("unknown algorithm nope"), "{e}");
    }

    /// Class counts that cannot fit are errors naming the constraint, not
    /// constructor panics.
    #[test]
    fn factory_rejects_classes_that_cannot_fit() {
        let hx = Arc::new(HyperX::uniform(3, 4, 2));
        let err = |name, vcs| hyperx_algorithm(name, hx.clone(), vcs).err().unwrap();
        for name in ["OmniWAR", "FT-WAR"] {
            let e = err(name, 2);
            assert!(e.contains("at least one VC per dimension"), "{e}");
        }
        assert!(err("DimWAR", 1).contains("2 resource classes"));
        assert!(err("MinAD", 2).contains("3 resource classes"));
        assert!(err("DOR", 0).contains("cannot fit in 0 VCs"));
        assert!(hyperx_algorithm("OmniWAR", hx.clone(), 3).is_ok());
    }

    #[test]
    fn war_algorithms_never_touch_packet_state() {
        // The practicality claim: every candidate DimWAR and OmniWAR emit
        // carries Commit::None.
        use crate::api::{PacketRouteState, RouteCtx};
        use crate::mock::MockView;
        use hxtopo::Topology;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let hx = Arc::new(HyperX::uniform(3, 4, 2));
        let view = MockView::idle(hx.max_ports(), 8, 64);
        let mut rng = SmallRng::seed_from_u64(0);
        for name in ["DimWAR", "OmniWAR"] {
            let algo = hyperx_algorithm(name, hx.clone(), 8).unwrap();
            let mut out = Vec::new();
            algo.route(
                &RouteCtx {
                    router: 0,
                    input_port: 0,
                    input_vc: 0,
                    from_terminal: true,
                    dst_router: 63,
                    dst_terminal: 126,
                    pkt_len: 8,
                    state: PacketRouteState::default(),
                    view: &view,
                },
                &mut rng,
                &mut out,
            );
            assert!(!out.is_empty());
            assert!(
                out.iter().all(|c| c.commit == Commit::None),
                "{name} tried to store state in the packet"
            );
        }
    }
}
