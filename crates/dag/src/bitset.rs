//! A word-packed fixed-capacity bitset for simulator bookkeeping.
//!
//! The fault simulator keeps *sets* of processor and task ids — alive,
//! idle, started, completed — whose operations are membership tests,
//! counts, and iteration in ascending id order. A `Vec<bool>` wastes 8x
//! the cache footprint; a `HashSet` adds hashing and pointer chasing to
//! the innermost loops. This is the classic `FixedBitSet` shape, in-tree
//! because the workspace is dependency-free: 64 ids per `u64` word and a
//! trailing-zeros iterator over set bits.
//!
//! ```
//! use sweep_dag::BitSet;
//!
//! let mut ready = BitSet::new(130);
//! ready.insert(0);
//! ready.insert(64);
//! ready.insert(129);
//! assert_eq!(ready.ones().collect::<Vec<_>>(), vec![0, 64, 129]);
//! assert!(ready.remove(64));
//! assert_eq!(ready.count_ones(), 2);
//! ```

/// A fixed-capacity set of `usize` ids in `0..len`, packed 64 per word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set over the id universe `0..len`.
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// The full set over `0..len` (every id present).
    pub fn full(len: usize) -> BitSet {
        let mut s = BitSet {
            words: vec![!0u64; len.div_ceil(64)],
        };
        // Mask the tail so out-of-universe bits never leak into
        // `ones()`/`count_ones`.
        if !len.is_multiple_of(64) {
            if let Some(last) = s.words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        s
    }

    /// Inserts `i`, returning true if it was newly inserted.
    ///
    /// # Panics
    /// Panics when `i` lies past the last word of the universe.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & b != 0;
        self.words[w] |= b;
        !was
    }

    /// Removes `i`, returning true if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & b != 0;
        self.words[w] &= !b;
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates set ids in ascending order (trailing-zeros word scan).
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word: self.words.first().copied().unwrap_or(0),
            idx: 0,
        }
    }
}

/// Ascending iterator over set bits (see [`BitSet::ones`]).
pub struct Ones<'a> {
    words: &'a [u64],
    word: u64,
    idx: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.idx += 1;
            self.word = *self.words.get(self.idx)?;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1; // clear lowest set bit
        Some(self.idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_roundtrip() {
        let mut s = BitSet::new(200);
        assert_eq!(s.count_ones(), 0);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(199));
        assert!(!s.insert(64), "double insert reports false");
        assert_eq!(s.count_ones(), 4);
        assert!(s.contains(63) && s.contains(64) && !s.contains(65));
        assert!(s.remove(63));
        assert!(!s.remove(63), "double remove reports false");
        assert_eq!(s.count_ones(), 3);
        assert!(!s.contains(500), "out-of-universe contains is false");
    }

    #[test]
    fn ones_iterates_ascending_across_words() {
        let mut s = BitSet::new(300);
        let ids = [0usize, 1, 63, 64, 65, 127, 128, 255, 299];
        for &i in ids.iter().rev() {
            s.insert(i);
        }
        assert_eq!(s.ones().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn empty_universe() {
        let s = BitSet::new(0);
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.ones().count(), 0);
    }

    #[test]
    fn matches_naive_set_on_random_ops() {
        // SplitMix-driven differential test against a Vec<bool> oracle.
        let mut z = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        let n = 257;
        let mut s = BitSet::new(n);
        let mut oracle = vec![false; n];
        for _ in 0..2000 {
            let i = (next() as usize) % n;
            if next() % 2 == 0 {
                assert_eq!(s.insert(i), !oracle[i]);
                oracle[i] = true;
            } else {
                assert_eq!(s.remove(i), oracle[i]);
                oracle[i] = false;
            }
        }
        let expect: Vec<usize> = (0..n).filter(|&i| oracle[i]).collect();
        assert_eq!(s.ones().collect::<Vec<_>>(), expect);
        assert_eq!(s.count_ones(), expect.len());
    }
}
