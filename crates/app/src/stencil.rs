//! 27-point stencil geometry: the process grid, its 26 periodic neighbors
//! per process, and the halo-exchange message sizing (Figure 7a/7b).
//!
//! A 3D physical space is split into sub-cubes, one per process. Each
//! process exchanges ghost ("halo") data with its 6 face, 12 edge, and 8
//! corner neighbors; for a sub-cube of side `n`, face messages carry
//! `n^2` cells, edge messages `n`, and corner messages `1`, so the per-node
//! aggregate splits in the ratio `6n^2 : 12n : 8`.

/// Which kind of stencil neighbor a message goes to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum NeighborKind {
    /// Shares a face (6 of these).
    Face,
    /// Shares an edge (12).
    Edge,
    /// Shares a corner (8).
    Corner,
}

impl NeighborKind {
    /// Relative message weight for a sub-cube of side `n`.
    pub(crate) fn weight(self, n: usize) -> usize {
        match self {
            NeighborKind::Face => n * n,
            NeighborKind::Edge => n,
            NeighborKind::Corner => 1,
        }
    }
}

/// One halo-exchange partner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Neighbor {
    /// Destination process.
    pub proc: u32,
    /// Message size in bytes.
    pub bytes: u64,
}

/// A periodic 3D process grid.
#[derive(Clone, Debug)]
pub struct StencilGrid {
    dims: [usize; 3],
}

impl StencilGrid {
    /// Creates a `px x py x pz` periodic process grid.
    pub fn new(px: usize, py: usize, pz: usize) -> Self {
        assert!(px >= 1 && py >= 1 && pz >= 1);
        StencilGrid { dims: [px, py, pz] }
    }

    /// Picks a near-cubic grid for `procs` processes (largest factorization
    /// `px >= py >= pz` with `px*py*pz == procs` minimizing the spread).
    pub fn near_cubic(procs: usize) -> Self {
        assert!(procs >= 1);
        let mut best = (procs, 1, 1);
        let mut best_spread = procs;
        for a in 1..=procs {
            if !procs.is_multiple_of(a) {
                continue;
            }
            let rest = procs / a;
            for b in 1..=rest {
                if !rest.is_multiple_of(b) {
                    continue;
                }
                let c = rest / b;
                let (lo, hi) = (
                    [a, b, c].into_iter().min().unwrap(),
                    [a, b, c].into_iter().max().unwrap(),
                );
                if hi - lo < best_spread {
                    best_spread = hi - lo;
                    best = (a, b, c);
                }
            }
        }
        StencilGrid::new(best.0, best.1, best.2)
    }

    /// Number of processes.
    pub fn num_procs(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Process coordinate (little-endian: x fastest).
    pub(crate) fn coord_of(&self, p: usize) -> [usize; 3] {
        let [px, py, _] = self.dims;
        [p % px, (p / px) % py, p / (px * py)]
    }

    /// Process id at a (periodic) coordinate.
    pub(crate) fn proc_at(&self, x: isize, y: isize, z: isize) -> usize {
        let [px, py, pz] = self.dims;
        let w = |v: isize, m: usize| ((v % m as isize + m as isize) % m as isize) as usize;
        w(x, px) + w(y, py) * px + w(z, pz) * px * py
    }

    /// The halo-exchange partners of process `p`: up to 26 neighbors with
    /// message sizes splitting `total_bytes` by the face/edge/corner
    /// weights of a side-`n` sub-cube. Periodic wrap can alias several
    /// offsets onto one neighbor (tiny grids); aliased messages merge, and
    /// self-sends are dropped.
    pub fn halo_neighbors(&self, p: usize, total_bytes: u64, n: usize) -> Vec<Neighbor> {
        let [x, y, z] = self.coord_of(p);
        let total_weight: u64 = (6 * n * n + 12 * n + 8) as u64;
        let mut out: Vec<(u32, u64)> = Vec::with_capacity(26);
        for dx in -1isize..=1 {
            for dy in -1isize..=1 {
                for dz in -1isize..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let kind = match dx.abs() + dy.abs() + dz.abs() {
                        1 => NeighborKind::Face,
                        2 => NeighborKind::Edge,
                        _ => NeighborKind::Corner,
                    };
                    let nb = self.proc_at(x as isize + dx, y as isize + dy, z as isize + dz);
                    if nb == p {
                        continue; // wrapped onto self (grid dim 1)
                    }
                    let bytes = total_bytes * kind.weight(n) as u64 / total_weight;
                    match out.iter_mut().find(|(q, _)| *q == nb as u32) {
                        Some((_, b)) => *b += bytes.max(1),
                        None => out.push((nb as u32, bytes.max(1))),
                    }
                }
            }
        }
        out.into_iter()
            .map(|(proc, bytes)| Neighbor { proc, bytes })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_roundtrip() {
        let g = StencilGrid::new(4, 3, 2);
        for p in 0..g.num_procs() {
            let [x, y, z] = g.coord_of(p);
            assert_eq!(g.proc_at(x as isize, y as isize, z as isize), p);
        }
    }

    #[test]
    fn periodic_wrap() {
        let g = StencilGrid::new(4, 4, 4);
        assert_eq!(g.proc_at(-1, 0, 0), g.proc_at(3, 0, 0));
        assert_eq!(g.proc_at(4, 1, 2), g.proc_at(0, 1, 2));
    }

    #[test]
    fn large_grid_has_26_distinct_neighbors() {
        let g = StencilGrid::new(4, 4, 4);
        let nbs = g.halo_neighbors(21, 100_000, 8);
        assert_eq!(nbs.len(), 26);
        let ids: std::collections::HashSet<u32> = nbs.iter().map(|n| n.proc).collect();
        assert_eq!(ids.len(), 26);
        assert!(!ids.contains(&21));
    }

    #[test]
    fn message_sizes_split_by_face_edge_corner() {
        let g = StencilGrid::new(4, 4, 4);
        let n = 8;
        let total = 100_000u64;
        let nbs = g.halo_neighbors(0, total, n);
        let w: u64 = (6 * n * n + 12 * n + 8) as u64;
        let face = total * (n * n) as u64 / w;
        let edge = total * n as u64 / w;
        let corner = total / w;
        assert_eq!(nbs.iter().filter(|nb| nb.bytes == face).count(), 6);
        assert_eq!(nbs.iter().filter(|nb| nb.bytes == edge).count(), 12);
        assert_eq!(nbs.iter().filter(|nb| nb.bytes == corner).count(), 8);
        // Aggregate close to the requested total (integer division slack).
        let sum: u64 = nbs.iter().map(|nb| nb.bytes).sum();
        assert!(sum <= total && sum > total * 95 / 100, "sum={sum}");
    }

    #[test]
    fn tiny_grid_merges_aliases_and_drops_self() {
        // 2x2x2: each offset pair +1/-1 aliases to the same neighbor.
        let g = StencilGrid::new(2, 2, 2);
        let nbs = g.halo_neighbors(0, 10_000, 4);
        // Every other process is a neighbor exactly once.
        assert_eq!(nbs.len(), 7);
        let ids: std::collections::HashSet<u32> = nbs.iter().map(|n| n.proc).collect();
        assert_eq!(ids, (1..8).collect());
        // 1x1x1 degenerates to no neighbors at all.
        let g1 = StencilGrid::new(1, 1, 1);
        assert!(g1.halo_neighbors(0, 1_000, 4).is_empty());
    }

    #[test]
    fn near_cubic_factorizations() {
        assert_eq!(StencilGrid::near_cubic(64).dims, [4, 4, 4]);
        assert_eq!(StencilGrid::near_cubic(4096).num_procs(), 4096);
        let d = StencilGrid::near_cubic(4096).dims;
        assert_eq!(d, [16, 16, 16]);
        let d = StencilGrid::near_cubic(256).dims;
        let (lo, hi) = (d.iter().min().unwrap(), d.iter().max().unwrap());
        assert!(hi - lo <= 4, "256 should factor near-cubically: {d:?}");
    }
}
