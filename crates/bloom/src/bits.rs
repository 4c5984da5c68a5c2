//! A compact, fixed-size bit vector backed by `u64` words.

/// Fixed-capacity bit vector.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitVec {
    words: Vec<u64>,
    len_bits: usize,
}

impl BitVec {
    /// A zeroed bit vector of `len_bits` bits.
    pub fn new(len_bits: usize) -> Self {
        assert!(len_bits > 0, "bit vector must have at least one bit");
        BitVec {
            words: vec![0; len_bits.div_ceil(64)],
            len_bits,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len_bits
    }

    /// Always false: a `BitVec` has at least one bit by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Set bit `i` to one.
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.len_bits,
            "bit index {i} out of range {}",
            self.len_bits
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Read bit `i`.
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len_bits,
            "bit index {i} out of range {}",
            self.len_bits
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Clear all bits.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if every set bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &BitVec) -> bool {
        assert_eq!(
            self.len_bits, other.len_bits,
            "length mismatch in subset test"
        );
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Serialized size in bytes (what a summary costs on the wire).
    pub fn byte_size(&self) -> usize {
        self.len_bits.div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitVec::new(130);
        assert_eq!(b.len(), 130);
        for i in [0, 1, 63, 64, 65, 128, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 7);
    }

    #[test]
    fn clear_resets() {
        let mut b = BitVec::new(64);
        b.set(5);
        b.set(63);
        b.clear();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn union_and_subset() {
        let mut a = BitVec::new(100);
        let mut b = BitVec::new(100);
        a.set(3);
        b.set(97);
        assert!(!a.is_subset_of(&b));
        let mut u = a.clone();
        u.set(97);
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        assert_eq!(u.count_ones(), 2);
    }

    #[test]
    fn byte_size_rounds_up() {
        assert_eq!(BitVec::new(8).byte_size(), 1);
        assert_eq!(BitVec::new(9).byte_size(), 2);
        assert_eq!(BitVec::new(800).byte_size(), 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let b = BitVec::new(10);
        let _ = b.get(10);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_len_rejected() {
        let _ = BitVec::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Bits set are exactly the bits read back.
        #[test]
        fn set_bits_are_readable(len in 1usize..300, idxs in proptest::collection::vec(0usize..300, 0..40)) {
            let mut b = BitVec::new(len);
            let valid: Vec<usize> = idxs.into_iter().filter(|i| *i < len).collect();
            for &i in &valid {
                b.set(i);
            }
            for i in 0..len {
                prop_assert_eq!(b.get(i), valid.contains(&i));
            }
        }

        /// Setting two index sets in either order gives one vector,
        /// and each set alone is a subset of it.
        #[test]
        fn union_laws(xs in proptest::collection::vec(0usize..200, 0..30), ys in proptest::collection::vec(0usize..200, 0..30)) {
            let mut a = BitVec::new(200);
            let mut b = BitVec::new(200);
            for &i in &xs { a.set(i); }
            for &i in &ys { b.set(i); }
            let mut ab = a.clone();
            for &i in &ys { ab.set(i); }
            let mut ba = b.clone();
            for &i in &xs { ba.set(i); }
            prop_assert_eq!(&ab, &ba);
            prop_assert!(a.is_subset_of(&ab));
            prop_assert!(b.is_subset_of(&ab));
        }
    }
}
