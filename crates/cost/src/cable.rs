//! Cable technologies and pricing.
//!
//! The paper's actual Figure 3 prices came from confidential vendor quotes;
//! this model substitutes representative public-shape prices (documented in
//! DESIGN.md): direct-attach copper is cheap but reach-limited, active
//! optical cables are dominated by their two transceivers, and passive
//! optical cables (enabled by co-packaged photonics) cost little more than
//! the fiber itself. Absolute dollars are illustrative; the *ratios* drive
//! the reproduced result.

/// A link-level cabling technology generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CableTech {
    /// DAC where reach allows, AOC beyond: the 2008-era "standard cabling"
    /// of Kim et al. `dac_reach_m` shrinks as signaling rates climb
    /// (8 m at 2.5 GHz, 3 m at 25 GHz, 1 m projected at 100 GHz).
    ElectricalOptical {
        /// Maximum DAC length for this signaling rate, meters.
        dac_reach_m: f64,
    },
    /// Passive optical cables with co-packaged/integrated photonics.
    PassiveOptical,
}

/// Per-technology price curve parameters (USD per cable).
#[derive(Clone, Copy, Debug)]
pub struct PriceModel {
    /// DAC: connectors/assembly base price.
    pub(crate) dac_base: f64,
    /// DAC copper per meter.
    pub(crate) dac_per_m: f64,
    /// AOC: two pluggable transceivers.
    pub(crate) aoc_base: f64,
    /// AOC fiber per meter.
    pub(crate) aoc_per_m: f64,
    /// Passive optical: connectors (lasers live in the router package).
    pub(crate) po_base: f64,
    /// Passive optical fiber per meter.
    pub(crate) po_per_m: f64,
}

impl Default for PriceModel {
    fn default() -> Self {
        PriceModel {
            dac_base: 5.0,
            dac_per_m: 2.5,
            aoc_base: 40.0,
            aoc_per_m: 0.5,
            po_base: 8.0,
            po_per_m: 0.5,
        }
    }
}

impl PriceModel {
    /// Price of one cable of `len_m` meters under `tech`.
    pub(crate) fn cable_cost(&self, tech: CableTech, len_m: f64) -> f64 {
        match tech {
            CableTech::ElectricalOptical { dac_reach_m } => {
                if len_m <= dac_reach_m {
                    self.dac_base + self.dac_per_m * len_m
                } else {
                    self.aoc_base + self.aoc_per_m * len_m
                }
            }
            CableTech::PassiveOptical => self.po_base + self.po_per_m * len_m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dac_within_reach_is_cheap() {
        let p = PriceModel::default();
        let t = CableTech::ElectricalOptical { dac_reach_m: 3.0 };
        let short = p.cable_cost(t, 1.0);
        let long = p.cable_cost(t, 3.1);
        assert!(short < 10.0);
        assert!(long > 40.0, "beyond reach must switch to AOC");
    }

    #[test]
    fn passive_optical_has_no_reach_cliff() {
        let p = PriceModel::default();
        let a = p.cable_cost(CableTech::PassiveOptical, 2.9);
        let b = p.cable_cost(CableTech::PassiveOptical, 3.1);
        assert!((b - a) < 1.0, "no discontinuity at DAC reach");
    }

    #[test]
    fn shrinking_reach_raises_cost() {
        // The paper's motivation: as signaling rates climb, DAC reach
        // shrinks and more cables become AOC.
        let p = PriceModel::default();
        let long_reach = CableTech::ElectricalOptical { dac_reach_m: 8.0 };
        let short_reach = CableTech::ElectricalOptical { dac_reach_m: 1.0 };
        let len = 2.5;
        assert!(p.cable_cost(short_reach, len) > p.cable_cost(long_reach, len));
    }
}
