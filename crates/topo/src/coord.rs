//! Fixed-capacity multi-dimensional coordinates.
//!
//! Routing runs in the per-cycle hot path of the simulator, so coordinates
//! are small `Copy` values with inline storage rather than heap-allocated
//! vectors.

/// Maximum number of network dimensions supported by inline coordinates.
///
/// The paper evaluates up to 4-dimensional HyperX configurations; 6 leaves
/// headroom for design-space exploration without widening the hot-path type.
pub const MAX_DIMS: usize = 6;

/// A point in an integer lattice with up to [`MAX_DIMS`] dimensions.
///
/// Dimension 0 is the fastest-varying ("X") dimension when converting to and
/// from linear router identifiers (little-endian mixed radix).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Coord {
    len: u8,
    v: [u16; MAX_DIMS],
}

impl Coord {
    /// Creates a coordinate from a slice of per-dimension positions.
    ///
    /// # Panics
    /// Panics if `vals.len() > MAX_DIMS` or any value exceeds `u16::MAX`.
    pub fn new(vals: &[usize]) -> Self {
        assert!(vals.len() <= MAX_DIMS, "too many dimensions");
        let mut v = [0u16; MAX_DIMS];
        for (slot, &val) in v.iter_mut().zip(vals) {
            *slot = u16::try_from(val).expect("coordinate exceeds u16");
        }
        Coord {
            len: vals.len() as u8,
            v,
        }
    }

    /// Creates the all-zeros coordinate with `dims` dimensions.
    pub(crate) fn zeros(dims: usize) -> Self {
        assert!(dims <= MAX_DIMS, "too many dimensions");
        Coord {
            len: dims as u8,
            v: [0; MAX_DIMS],
        }
    }

    /// Number of dimensions.
    #[inline]
    pub(crate) fn dims(&self) -> usize {
        self.len as usize
    }

    /// Position in dimension `d`.
    #[inline]
    pub fn get(&self, d: usize) -> usize {
        debug_assert!(d < self.dims());
        self.v[d] as usize
    }

    /// Sets the position in dimension `d`.
    #[inline]
    pub fn set(&mut self, d: usize, val: usize) {
        debug_assert!(d < self.dims());
        self.v[d] = u16::try_from(val).expect("coordinate exceeds u16");
    }

    /// Returns a copy with dimension `d` set to `val`.
    #[inline]
    pub fn with(&self, d: usize, val: usize) -> Self {
        let mut c = *self;
        c.set(d, val);
        c
    }

    /// Number of dimensions in which `self` and `other` differ.
    ///
    /// On a HyperX this is exactly the minimal router-to-router hop count,
    /// because every dimension is fully connected (one hop aligns one
    /// dimension).
    #[inline]
    pub fn unaligned_count(&self, other: &Coord) -> usize {
        debug_assert_eq!(self.dims(), other.dims());
        let mut n = 0;
        for d in 0..self.dims() {
            n += usize::from(self.v[d] != other.v[d]);
        }
        n
    }

    /// Lowest-indexed dimension in which `self` and `other` differ, if any.
    #[inline]
    pub fn first_unaligned(&self, other: &Coord) -> Option<usize> {
        (0..self.dims()).find(|&d| self.v[d] != other.v[d])
    }

    /// Whether dimension `d` agrees between the two coordinates.
    #[inline]
    pub fn aligned(&self, other: &Coord, d: usize) -> bool {
        self.v[d] == other.v[d]
    }
}

impl std::fmt::Debug for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for d in 0..self.dims() {
            if d > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.v[d])?;
        }
        write!(f, ")")
    }
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_get() {
        let c = Coord::new(&[3, 1, 4]);
        assert_eq!(c.dims(), 3);
        assert_eq!(c.get(0), 3);
        assert_eq!(c.get(1), 1);
        assert_eq!(c.get(2), 4);
    }

    #[test]
    fn zeros_has_all_zero() {
        let c = Coord::zeros(4);
        assert_eq!(c.dims(), 4);
        assert!((0..c.dims()).all(|d| c.get(d) == 0));
    }

    #[test]
    fn set_and_with() {
        let mut c = Coord::zeros(2);
        c.set(1, 7);
        assert_eq!(c.get(1), 7);
        let d = c.with(0, 5);
        assert_eq!(d.get(0), 5);
        assert_eq!(c.get(0), 0, "with() must not mutate the original");
    }

    #[test]
    fn unaligned_count_counts_differing_dims() {
        let a = Coord::new(&[1, 2, 3]);
        let b = Coord::new(&[1, 5, 4]);
        assert_eq!(a.unaligned_count(&b), 2);
        assert_eq!(a.unaligned_count(&a), 0);
    }

    #[test]
    fn first_unaligned_is_lowest_dim() {
        let a = Coord::new(&[0, 2, 3]);
        let b = Coord::new(&[0, 5, 4]);
        assert_eq!(a.first_unaligned(&b), Some(1));
        assert_eq!(a.first_unaligned(&a), None);
    }

    #[test]
    fn aligned_per_dim() {
        let a = Coord::new(&[1, 2]);
        let b = Coord::new(&[1, 3]);
        assert!(a.aligned(&b, 0));
        assert!(!a.aligned(&b, 1));
    }

    #[test]
    fn debug_format() {
        let c = Coord::new(&[1, 2, 3]);
        assert_eq!(format!("{c:?}"), "(1,2,3)");
    }

    #[test]
    #[should_panic(expected = "too many dimensions")]
    fn too_many_dims_panics() {
        let _ = Coord::new(&[0; MAX_DIMS + 1]);
    }
}
