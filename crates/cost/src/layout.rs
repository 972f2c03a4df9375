//! Physical machine-room layout: racks on a floor grid and Manhattan cable
//! lengths between them.
//!
//! The paper's Figure 3 "calculated the length of every cable in each of
//! these networks based on common physical dimensions and placement"; this
//! module provides those dimensions. Racks sit in rows; a cable between
//! two racks runs down one rack, along the row(s), and up the other —
//! Manhattan distance plus a fixed overhead for the vertical legs and
//! cable management slack.

/// Machine-room dimensions.
#[derive(Clone, Copy, Debug)]
pub struct FloorPlan {
    /// Racks per row.
    pub(crate) racks_per_row: usize,
    /// Rack pitch along a row, meters.
    pub(crate) rack_pitch_m: f64,
    /// Row pitch (rack depth + aisle), meters.
    pub(crate) row_pitch_m: f64,
    /// Fixed per-cable overhead (vertical legs + slack), meters.
    pub(crate) overhead_m: f64,
    /// Length of an intra-rack cable, meters.
    pub(crate) intra_rack_m: f64,
    /// Length of a chassis backplane connection, meters.
    pub(crate) backplane_m: f64,
}

impl FloorPlan {
    /// Common defaults: 0.6 m rack pitch, 2.4 m row pitch (rack + aisle),
    /// 2 m overhead, 1 m intra-rack cables.
    pub(crate) fn standard(racks_per_row: usize) -> Self {
        FloorPlan {
            racks_per_row: racks_per_row.max(1),
            rack_pitch_m: 0.6,
            row_pitch_m: 2.4,
            overhead_m: 2.0,
            intra_rack_m: 1.0,
            backplane_m: 0.3,
        }
    }

    /// A near-square floor for `racks` racks.
    pub(crate) fn square_for(racks: usize) -> Self {
        Self::standard((racks as f64).sqrt().ceil() as usize)
    }

    /// Floor position (row, column) of rack `r`.
    pub(crate) fn position(&self, rack: usize) -> (usize, usize) {
        (rack / self.racks_per_row, rack % self.racks_per_row)
    }

    /// Cable length between two racks (same rack = intra-rack length).
    pub(crate) fn cable_len(&self, rack_a: usize, rack_b: usize) -> f64 {
        if rack_a == rack_b {
            return self.intra_rack_m;
        }
        let (ra, ca) = self.position(rack_a);
        let (rb, cb) = self.position(rack_b);
        let dx = ca.abs_diff(cb) as f64 * self.rack_pitch_m;
        let dy = ra.abs_diff(rb) as f64 * self.row_pitch_m;
        dx + dy + self.overhead_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_rack_is_short() {
        let f = FloorPlan::standard(8);
        assert_eq!(f.cable_len(3, 3), 1.0);
    }

    #[test]
    fn same_row_scales_with_columns() {
        let f = FloorPlan::standard(8);
        // Racks 0 and 4: same row, 4 columns apart.
        let len = f.cable_len(0, 4);
        assert!((len - (4.0 * 0.6 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn cross_row_uses_row_pitch() {
        let f = FloorPlan::standard(8);
        // Racks 0 and 8: one row apart, same column.
        let len = f.cable_len(0, 8);
        assert!((len - (2.4 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let f = FloorPlan::standard(5);
        for a in 0..20 {
            for b in 0..20 {
                assert_eq!(f.cable_len(a, b), f.cable_len(b, a));
            }
        }
    }

    #[test]
    fn square_floor_is_roughly_square() {
        let f = FloorPlan::square_for(100);
        assert_eq!(f.racks_per_row, 10);
    }
}
