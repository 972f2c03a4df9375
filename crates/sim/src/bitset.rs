//! Packed bitset backing the packet pool's per-slot flags.
//!
//! `Vec<bool>` spends a byte per flag; at 100k+ live packets the alive and
//! poisoned flags together cost two cache lines of useful data per 64 slots.
//! Packing them into `u64` words keeps the whole flag array for a million
//! slots in ~128 KiB and makes the clear-on-recycle path branch-free.

/// A growable packed bitset indexed like a `Vec<bool>`.
#[derive(Default, Clone, Debug)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Appends one bit (slot grown at the tail).
    #[inline]
    pub(crate) fn push(&mut self, value: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if value {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Reads bit `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Sets bit `i` to `value`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }
}

/// A fixed grid of equally wide bit rows — the representation of the
/// event calendars (rows are cycles modulo the row count, bits are wake
/// keys or channel ids). A set is idempotent and a drain walks
/// bits upwards, so whatever is read back out of a row is ascending and
/// unique without any sorting.
#[derive(Debug)]
pub(crate) struct BitRows {
    /// Words per row.
    width: usize,
    words: Vec<u64>,
}

impl BitRows {
    /// `rows` all-zero rows of `bits` bits each.
    pub(crate) fn new(rows: usize, bits: usize) -> Self {
        let width = bits.div_ceil(64);
        BitRows {
            width,
            words: vec![0; rows * width],
        }
    }

    /// Sets `bit` of `row`.
    #[inline]
    pub(crate) fn set(&mut self, row: usize, bit: u32) {
        self.words[row * self.width + (bit >> 6) as usize] |= 1u64 << (bit & 63);
    }

    /// ORs row `src` into row `dst` and clears `src`.
    pub(crate) fn merge(&mut self, src: usize, dst: usize) {
        debug_assert_ne!(src, dst);
        for i in 0..self.width {
            let w = std::mem::take(&mut self.words[src * self.width + i]);
            self.words[dst * self.width + i] |= w;
        }
    }

    /// Clears `row`, handing its set bits to `f` in ascending order.
    #[inline]
    pub(crate) fn drain(&mut self, row: usize, mut f: impl FnMut(u32)) {
        let words = &mut self.words[row * self.width..(row + 1) * self.width];
        for (i, word) in words.iter_mut().enumerate() {
            let mut w = std::mem::take(word);
            while w != 0 {
                f((i as u32) << 6 | w.trailing_zeros());
                w &= w - 1;
            }
        }
    }

    /// Whether no bit of `row` is set.
    #[cfg(test)]
    pub(crate) fn row_is_clear(&self, row: usize) -> bool {
        self.words[row * self.width..(row + 1) * self.width]
            .iter()
            .all(|&w| w == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_rows_drain_ascending_unique_and_clear() {
        let mut rows = BitRows::new(3, 130);
        for bit in [129, 0, 64, 63, 64, 7] {
            rows.set(1, bit);
        }
        rows.set(2, 5);
        rows.set(2, 64);
        rows.merge(2, 1);
        assert!(rows.row_is_clear(2) && rows.row_is_clear(0));
        let mut seen = Vec::new();
        rows.drain(1, |b| seen.push(b));
        assert_eq!(seen, vec![0, 5, 7, 63, 64, 129]);
        assert!(rows.row_is_clear(1));
    }

    #[test]
    fn push_get_set_roundtrip() {
        let mut bs = BitSet::default();
        assert_eq!(bs.len, 0);
        for i in 0..200 {
            bs.push(i % 3 == 0);
        }
        assert_eq!(bs.len, 200);
        for i in 0..200 {
            assert_eq!(bs.get(i), i % 3 == 0, "bit {i}");
        }
        bs.set(1, true);
        bs.set(0, false);
        assert!(bs.get(1));
        assert!(!bs.get(0));
        // Neighbours across a word boundary keep their pushed values
        // (63 was pushed true, 65 false).
        bs.set(64, true);
        assert!(bs.get(64));
        assert!(bs.get(63));
        assert!(!bs.get(65));
    }

    #[test]
    fn word_boundary_growth() {
        let mut bs = BitSet::default();
        for _ in 0..64 {
            bs.push(false);
        }
        bs.push(true); // first bit of the second word
        assert_eq!(bs.len, 65);
        assert!(bs.get(64));
        assert!(!bs.get(0));
    }
}
