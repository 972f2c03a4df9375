//! Cable bills-of-material: every cable in a HyperX or Dragonfly system,
//! with physical lengths from a rack-level placement (Figure 3's method:
//! "we calculated the length of every cable in each of these networks").

use hxtopo::{Dragonfly, HyperX, Topology};

use crate::cable::{CableTech, PriceModel};
use crate::layout::FloorPlan;

/// Every cable of one system: `(length_m, count)` entries.
#[derive(Clone, Debug)]
pub struct CablingBom {
    /// Cable lengths and multiplicities.
    pub(crate) cables: Vec<(f64, u64)>,
    /// Terminals served.
    pub(crate) nodes: usize,
}

impl CablingBom {
    /// Total number of cables.
    pub fn cable_count(&self) -> u64 {
        self.cables.iter().map(|&(_, n)| n).sum()
    }

    /// Total cable length in meters.
    pub fn total_length_m(&self) -> f64 {
        self.cables.iter().map(|&(l, n)| l * n as f64).sum()
    }

    /// Total cabling cost under a technology and price model.
    pub(crate) fn total_cost(&self, tech: CableTech, prices: &PriceModel) -> f64 {
        self.cables
            .iter()
            .map(|&(l, n)| prices.cable_cost(tech, l) * n as f64)
            .sum()
    }

    /// Cost per terminal.
    pub fn cost_per_node(&self, tech: CableTech, prices: &PriceModel) -> f64 {
        self.total_cost(tech, prices) / self.nodes as f64
    }
}

/// Enumerates every cable of a HyperX system using the paper's packaging
/// argument ("each dimension can be individually augmented to fit within a
/// physical packaging domain"): dimension 0 lives on a chassis backplane,
/// dimension 1 inside a rack, and only the outer dimensions leave the rack
/// — those racks sit on a floor grid indexed by the outer coordinates
/// (dimension 2 along rows). Terminals attach over the backplane. 1D/2D
/// networks simply stop at the corresponding level (a 2D HyperX is
/// chassis + rack, no floor cables at all).
pub fn hyperx_cabling(hx: &HyperX, plan: Option<FloorPlan>) -> CablingBom {
    let plan = plan.unwrap_or_else(|| {
        if hx.dims() >= 3 {
            FloorPlan::standard(hx.width(2))
        } else {
            FloorPlan::standard(1)
        }
    });
    // Rack index = outer coordinates (dims 2..) in mixed radix.
    let inner: usize = hx.width(0) * if hx.dims() >= 2 { hx.width(1) } else { 1 };
    let rack_of = |r: usize| r / inner;
    let mut cables: Vec<(f64, u64)> = Vec::new();
    let mut add = |len: f64| match cables.iter_mut().find(|(l, _)| (*l - len).abs() < 1e-9) {
        Some((_, n)) => *n += 1,
        None => cables.push((len, 1)),
    };
    // Terminal connections ride the chassis backplane.
    for _ in 0..hx.num_terminals() {
        add(plan.backplane_m);
    }
    // Router-to-router cables: one per undirected link.
    for r in 0..hx.num_routers() {
        let c = hx.coord_of(r);
        for d in 0..hx.dims() {
            for to in (c.get(d) + 1)..hx.width(d) {
                let nb = hx.router_at(&c.with(d, to));
                let len = match d {
                    0 => plan.backplane_m,
                    1 => plan.intra_rack_m,
                    _ => plan.cable_len(rack_of(r), rack_of(nb)),
                };
                add(len);
            }
        }
    }
    CablingBom {
        cables,
        nodes: hx.num_terminals(),
    }
}

/// Enumerates every cable of a Dragonfly system: one group per rack
/// (locals intra-rack), racks on a near-square floor, one global cable per
/// connected group pair.
pub fn dragonfly_cabling(df: &Dragonfly, plan: Option<FloorPlan>) -> CablingBom {
    let racks = df.groups();
    let plan = plan.unwrap_or_else(|| FloorPlan::square_for(racks));
    let mut cables: Vec<(f64, u64)> = Vec::new();
    let mut add = |len: f64, n: u64| match cables.iter_mut().find(|(l, _)| (*l - len).abs() < 1e-9)
    {
        Some((_, c)) => *c += n,
        None => cables.push((len, n)),
    };
    // Terminal connections ride the group chassis backplane.
    add(plan.backplane_m, df.num_terminals() as u64);
    // Local channels: complete graph within each rack, over the group
    // backplane where possible (Kim et al.'s packaging argument for the
    // Dragonfly) with intra-rack cables beyond one chassis worth.
    let a = df.routers_per_group();
    let locals = (racks * a * (a - 1) / 2) as u64;
    let backplane_locals = locals / 2;
    add(plan.backplane_m, backplane_locals);
    add(plan.intra_rack_m, locals - backplane_locals);
    // Global cables: one per connected group pair.
    for g1 in 0..racks {
        for g2 in (g1 + 1)..racks {
            if df.global_attach(g1, g2).is_some() && df.global_attach(g2, g1).is_some() {
                add(plan.cable_len(g1, g2), 1);
            }
        }
    }
    CablingBom {
        cables,
        nodes: df.num_terminals(),
    }
}

/// Smallest 3D HyperX with `t = ceil(n / s^3) <= s` serving at least `n`
/// terminals (the shape used for the Figure 3 size sweep).
pub fn hyperx_for_nodes(n: usize) -> HyperX {
    let mut s = 2usize;
    while s * s * s * s < n {
        s += 1;
    }
    let t = n.div_ceil(s * s * s).max(1);
    HyperX::uniform(3, s, t)
}

/// Smallest balanced Dragonfly (`a = 2p = 2h`) with enough capacity for
/// `n` terminals, using only as many groups as needed.
pub fn dragonfly_for_nodes(n: usize) -> Dragonfly {
    let mut p = 1usize;
    while 2 * p * p * (2 * p * p + 1) < n {
        p += 1;
    }
    let (a, h) = (2 * p, p);
    let groups = n.div_ceil(p * a).max(2).min(a * h + 1);
    Dragonfly::new(p, a, h, groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyperx_cable_count_matches_formula() {
        let hx = HyperX::uniform(3, 4, 4);
        let bom = hyperx_cabling(&hx, None);
        // N terminals + R * sum(s_d - 1) / 2 links.
        let expect = hx.num_terminals() as u64 + (64 * 9 / 2) as u64;
        assert_eq!(bom.cable_count(), expect);
    }

    #[test]
    fn dragonfly_cable_count_matches_formula() {
        let df = Dragonfly::maximal(2, 4, 2);
        let bom = dragonfly_cabling(&df, None);
        let g = df.groups() as u64;
        let expect = df.num_terminals() as u64 + g * (4 * 3 / 2) + g * (g - 1) / 2;
        assert_eq!(bom.cable_count(), expect);
    }

    #[test]
    fn sizing_helpers_meet_targets() {
        for n in [1 << 10, 1 << 12, 1 << 14, 1 << 16] {
            let hx = hyperx_for_nodes(n);
            assert!(hx.num_terminals() >= n, "HyperX too small for {n}");
            assert!(hx.terms_per_router() <= hx.width(0), "bisection rule");
            let df = dragonfly_for_nodes(n);
            assert!(df.num_terminals() >= n, "Dragonfly too small for {n}");
        }
    }

    #[test]
    fn intra_rack_cables_dominate_dragonfly_counts() {
        let df = dragonfly_for_nodes(1 << 12);
        let bom = dragonfly_cabling(&df, None);
        let short: u64 = bom
            .cables
            .iter()
            .filter(|&&(l, _)| l <= 1.0)
            .map(|&(_, n)| n)
            .sum();
        assert!(
            short * 2 > bom.cable_count(),
            "locals+terminals are most cables"
        );
    }

    #[test]
    fn costs_are_positive_and_tech_sensitive() {
        let hx = hyperx_for_nodes(1 << 12);
        let bom = hyperx_cabling(&hx, None);
        let prices = PriceModel::default();
        let eo = bom.total_cost(CableTech::ElectricalOptical { dac_reach_m: 3.0 }, &prices);
        let po = bom.total_cost(CableTech::PassiveOptical, &prices);
        assert!(eo > 0.0 && po > 0.0);
        assert!(po < eo, "passive optics should be cheaper overall");
    }
}
