//! Synthetic traffic patterns (paper Table 3).
//!
//! | Name | Behaviour |
//! |------|-----------|
//! | UR   | uniform random destination |
//! | BC   | bit complement of the terminal id |
//! | URB  | bit complement in one targeted router dimension, uniform in the others — only that dimension is non-load-balanced |
//! | S2   | "swap 2": even terminals complement the X coordinate, odd terminals the Y coordinate — adversarial but leaves most bandwidth unused |
//! | DCR  | dimension complement reverse: worst-case admissible for 3D; funnels 64 terminals over a single link under DOR |

use std::sync::Arc;

use hxtopo::{HyperX, Topology};
use rand::rngs::SmallRng;
use rand::RngExt;

/// A destination-selection rule.
pub trait TrafficPattern: Send + Sync {
    /// Picks a destination terminal for a packet from `src`.
    fn dest(&self, src: usize, rng: &mut SmallRng) -> usize;
    /// Pattern name, e.g. `"URBy"`.
    fn name(&self) -> String;
}

/// Uniform random traffic over `n` terminals, excluding self-sends.
pub struct UniformRandom {
    n: usize,
}

impl UniformRandom {
    /// `n` = number of terminals (>= 2).
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        UniformRandom { n }
    }
}

impl TrafficPattern for UniformRandom {
    fn dest(&self, src: usize, rng: &mut SmallRng) -> usize {
        let d = rng.random_range(0..self.n - 1);
        if d >= src {
            d + 1
        } else {
            d
        }
    }
    fn name(&self) -> String {
        "UR".into()
    }
}

/// Bit complement: terminal `i` sends to `!i` (mod the id width). Requires
/// a power-of-two terminal count.
pub struct BitComplement {
    mask: usize,
}

impl BitComplement {
    /// `n` = number of terminals, which must be a power of two.
    pub(crate) fn new(n: usize) -> Result<Self, String> {
        if !n.is_power_of_two() {
            return Err(format!("BC needs 2^k terminals, not {n}"));
        }
        Ok(BitComplement { mask: n - 1 })
    }
}

impl TrafficPattern for BitComplement {
    fn dest(&self, src: usize, _rng: &mut SmallRng) -> usize {
        !src & self.mask
    }
    fn name(&self) -> String {
        "BC".into()
    }
}

/// Uniform Random Bisection: coordinate complement in `dim`, uniform
/// random in every other dimension and in the terminal index. Saturates
/// the bisection of one dimension while the rest stay load-balanced
/// (Figures 6c/6d).
pub struct UniformRandomBisection {
    hx: Arc<HyperX>,
    dim: usize,
}

impl UniformRandomBisection {
    /// Targets dimension `dim` of `hx`, which must have it.
    pub(crate) fn new(hx: Arc<HyperX>, dim: usize) -> Result<Self, String> {
        if dim >= hx.dims() {
            return Err(format!(
                "URB targets dimension {dim}, but the network has {} dimensions",
                hx.dims()
            ));
        }
        Ok(UniformRandomBisection { hx, dim })
    }
}

impl TrafficPattern for UniformRandomBisection {
    fn dest(&self, src: usize, rng: &mut SmallRng) -> usize {
        let hx = &self.hx;
        let t = hx.terms_per_router();
        let src_router = src / t;
        let mut c = hx.coord_of(src_router);
        for d in 0..hx.dims() {
            if d == self.dim {
                c.set(d, hx.width(d) - 1 - c.get(d));
            } else {
                c.set(d, rng.random_range(0..hx.width(d)));
            }
        }
        hx.terminal_id(hx.router_at(&c), rng.random_range(0..t))
    }
    fn name(&self) -> String {
        let axis = ["x", "y", "z", "w", "v", "u"][self.dim.min(5)];
        format!("URB{axis}")
    }
}

/// Swap 2: even-numbered terminals complement their X coordinate, odd ones
/// their Y coordinate; everything else (including the terminal index) is
/// preserved, so the pattern is a permutation leaving most of the network's
/// bandwidth unused (Figure 6e).
pub struct Swap2 {
    hx: Arc<HyperX>,
}

impl Swap2 {
    /// Needs at least two dimensions and an even number of terminals per
    /// router (so terminal-id parity equals local-index parity and the
    /// pattern is a permutation, as in the paper's t=8 configuration).
    pub(crate) fn new(hx: Arc<HyperX>) -> Result<Self, String> {
        if hx.dims() < 2 {
            return Err("S2 needs X and Y dimensions".into());
        }
        let t = hx.terms_per_router();
        if !t.is_multiple_of(2) {
            return Err(format!(
                "S2 needs an even terminal count per router, not {t}"
            ));
        }
        Ok(Swap2 { hx })
    }
}

impl TrafficPattern for Swap2 {
    fn dest(&self, src: usize, _rng: &mut SmallRng) -> usize {
        let hx = &self.hx;
        let t = hx.terms_per_router();
        let (src_router, idx) = (src / t, src % t);
        let dim = src % 2; // even terminals use X, odd use Y
        let mut c = hx.coord_of(src_router);
        c.set(dim, hx.width(dim) - 1 - c.get(dim));
        hx.terminal_id(hx.router_at(&c), idx)
    }
    fn name(&self) -> String {
        "S2".into()
    }
}

/// Dimension Complement Reverse: the destination's coordinates are the
/// *reversed and complemented* source coordinates, with the last dimension
/// drawn uniformly — each X-row's terminals distribute over one complement
/// Z-row. Worst-case admissible traffic for 3D HyperX (Figure 6f): under
/// DOR, all `s*t` terminals of a row cross a single Y-dimension link
/// (64:1 oversubscription at the paper's scale).
pub struct DimComplementReverse {
    hx: Arc<HyperX>,
}

impl DimComplementReverse {
    /// Needs at least two dimensions, and reversal-symmetric widths
    /// (`width(d) == width(D-1-d)`) so the reversed-complemented
    /// coordinates stay in range.
    pub(crate) fn new(hx: Arc<HyperX>) -> Result<Self, String> {
        let nd = hx.dims();
        if nd < 2 {
            return Err("DCR needs at least two dimensions".into());
        }
        if (0..nd).any(|d| hx.width(d) != hx.width(nd - 1 - d)) {
            return Err("DCR needs reversal-symmetric dimension widths".into());
        }
        Ok(DimComplementReverse { hx })
    }
}

impl TrafficPattern for DimComplementReverse {
    fn dest(&self, src: usize, rng: &mut SmallRng) -> usize {
        let hx = &self.hx;
        let t = hx.terms_per_router();
        let src_router = src / t;
        let sc = hx.coord_of(src_router);
        let nd = hx.dims();
        let mut c = sc;
        for d in 0..nd - 1 {
            let from = nd - 1 - d;
            c.set(d, hx.width(from) - 1 - sc.get(from));
        }
        c.set(nd - 1, rng.random_range(0..hx.width(nd - 1)));
        hx.terminal_id(hx.router_at(&c), rng.random_range(0..t))
    }
    fn name(&self) -> String {
        "DCR".into()
    }
}

/// Instantiates a pattern by name (case-insensitive): `UR`, `BC`,
/// `URBx`/`URBy`/`URBz`, `S2`, `DCR`.
///
/// # Errors
/// An unknown name, or a network the pattern cannot run on; the message
/// names the constraint that failed.
pub fn pattern_by_name(name: &str, hx: Arc<HyperX>) -> Result<Arc<dyn TrafficPattern>, String> {
    let n = hx.num_terminals();
    Ok(match name.to_ascii_uppercase().as_str() {
        "UR" => Arc::new(UniformRandom::new(n)),
        "BC" => Arc::new(BitComplement::new(n)?),
        "URBX" => Arc::new(UniformRandomBisection::new(hx, 0)?),
        "URBY" => Arc::new(UniformRandomBisection::new(hx, 1)?),
        "URBZ" => Arc::new(UniformRandomBisection::new(hx, 2)?),
        "S2" => Arc::new(Swap2::new(hx)?),
        "DCR" => Arc::new(DimComplementReverse::new(hx)?),
        _ => {
            return Err(format!(
                "unknown pattern {name} (known: {})",
                crate::FIG6_PATTERNS.join(", ")
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn hx() -> Arc<HyperX> {
        Arc::new(HyperX::uniform(3, 4, 4)) // 256 terminals
    }

    #[test]
    fn ur_never_self_and_covers_range() {
        let p = UniformRandom::new(16);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let d = p.dest(5, &mut rng);
            assert_ne!(d, 5);
            assert!(d < 16);
            seen.insert(d);
        }
        assert_eq!(seen.len(), 15, "all non-self destinations reachable");
    }

    #[test]
    fn bc_is_involution() {
        let p = BitComplement::new(256).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        for src in 0..256 {
            let d = p.dest(src, &mut rng);
            assert_eq!(p.dest(d, &mut rng), src);
            assert_ne!(d, src);
        }
    }

    #[test]
    fn urb_complements_target_dim_only() {
        let hx = hx();
        let p = UniformRandomBisection::new(hx.clone(), 1).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let src = 37usize;
        let sc = hx.coord_of(src / 4);
        let mut other_dim_values = std::collections::HashSet::new();
        for _ in 0..200 {
            let d = p.dest(src, &mut rng);
            let dc = hx.coord_of(d / 4);
            assert_eq!(dc.get(1), 3 - sc.get(1), "target dim must complement");
            other_dim_values.insert((dc.get(0), dc.get(2)));
        }
        assert!(
            other_dim_values.len() > 8,
            "other dims should be randomized, saw {}",
            other_dim_values.len()
        );
    }

    #[test]
    fn s2_is_permutation_split_by_parity() {
        let hx = hx();
        let p = Swap2::new(hx.clone()).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let n = hx.num_terminals();
        let mut targets = vec![false; n];
        for src in 0..n {
            let d = p.dest(src, &mut rng);
            assert!(!targets[d], "S2 must be a permutation");
            targets[d] = true;
            let (sc, dc) = (hx.coord_of(src / 4), hx.coord_of(d / 4));
            let dim = src % 2;
            assert_eq!(dc.get(dim), 3 - sc.get(dim));
            for e in 0..3 {
                if e != dim {
                    assert_eq!(dc.get(e), sc.get(e), "untargeted dim moved");
                }
            }
            assert_eq!(src % 4, d % 4, "terminal index preserved");
        }
        assert!(targets.iter().all(|&t| t));
    }

    #[test]
    fn dcr_reverses_and_complements() {
        let hx = hx();
        let p = DimComplementReverse::new(hx.clone()).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let src = 129usize;
        let sc = hx.coord_of(src / 4);
        for _ in 0..50 {
            let d = p.dest(src, &mut rng);
            let dc = hx.coord_of(d / 4);
            assert_eq!(dc.get(0), 3 - sc.get(2), "dim 0 = complement of dim 2");
            assert_eq!(dc.get(1), 3 - sc.get(1), "dim 1 = complement of dim 1");
        }
    }

    /// The DCR property the paper uses: under DOR all terminals of an
    /// X-row (fixed y,z) converge on the single Y-link into
    /// (comp(z), comp(y), z) at router (comp(z), y, z) — an s*t : 1
    /// oversubscription.
    #[test]
    fn dcr_dor_funnels_a_row_through_one_link() {
        let hx = hx();
        let p = DimComplementReverse::new(hx.clone()).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        // Row y=1, z=2 (all x, all terminal indices).
        let mut y_links = std::collections::HashSet::new();
        for x in 0..4 {
            for k in 0..4 {
                let src = hx.terminal_id(hx.router_at(&hxtopo::Coord::new(&[x, 1, 2])), k);
                let d = p.dest(src, &mut rng);
                let dc = hx.coord_of(d / 4);
                // DOR: align X to comp(z)=1, then Y from 1 to comp(y)=2.
                // The Y-hop happens at router (1, 1, 2) -> (1, 2, 2).
                assert_eq!(dc.get(0), 1);
                assert_eq!(dc.get(1), 2);
                y_links.insert((1usize, 1usize, 2usize, dc.get(1)));
            }
        }
        assert_eq!(y_links.len(), 1, "all row traffic shares one Y link");
    }

    #[test]
    fn factory_resolves_all_names() {
        let hx = hx();
        for name in ["UR", "BC", "URBx", "URBy", "URBz", "S2", "DCR"] {
            assert!(pattern_by_name(name, hx.clone()).is_ok(), "{name}");
        }
        let e = pattern_by_name("bogus", hx).err().unwrap();
        assert!(e.starts_with("unknown pattern bogus"), "{e}");
    }

    /// A network a pattern cannot run on is an error naming the
    /// constraint, not a constructor panic.
    #[test]
    fn factory_rejects_networks_patterns_cannot_run_on() {
        let err = |name, hx: HyperX| pattern_by_name(name, Arc::new(hx)).err().unwrap();
        assert!(err("BC", HyperX::uniform(2, 3, 1)).contains("2^k terminals, not 9"));
        assert!(err("URBz", HyperX::uniform(2, 4, 2)).contains("dimension 2"));
        assert!(err("S2", HyperX::uniform(2, 4, 3)).contains("even terminal count"));
        assert!(err("S2", HyperX::uniform(1, 4, 2)).contains("X and Y"));
        assert!(err("DCR", HyperX::uniform(1, 4, 2)).contains("two dimensions"));
        assert!(err("DCR", HyperX::new(&[2, 3], 2)).contains("reversal-symmetric"));
    }
}
