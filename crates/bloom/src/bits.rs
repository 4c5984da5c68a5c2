//! A fixed-size bit vector that holds few set bits as their positions.
//!
//! A summary's filter is `8 · nb-ob` bits (Table 1) but a content peer
//! holding a handful of objects sets at most `6` bits per object, so
//! most filters are nearly empty. A [`BitVec`] therefore has two
//! forms, chosen by its length and its count of set bits alone:
//!
//! * **positions** — the set bits as sorted, distinct `u16`s, while at
//!   most `words` bits are set (`words = ⌈len / 64⌉`, the size of the
//!   dense form in `u64`s) and every position fits a `u16`
//!   (`len ≤ 65 536`); at that count the list takes at most a quarter
//!   of the words' bytes;
//! * **words** — one bit per position in `u64` words, otherwise.
//!
//! Because the form is a function of (length, count), two vectors with
//! the same bits have the same form, and the derived `PartialEq`
//! compares contents. [`BitVec::set`] moves a list to words when it
//! would pass `words` bits and a vector never moves back but through
//! [`BitVec::clear`] or a re-derivation (`refill`). Whatever the form, the
//! vector's wire size ([`BitVec::byte_size`]) is its dense size.

/// The longest vector whose positions fit a `u16`.
const MAX_SPARSE_LEN: usize = 1 << 16;

/// Fixed-capacity bit vector.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitVec {
    bits: Bits,
    len_bits: usize,
}

/// The two canonical forms; see the module docs. The default is the
/// empty list.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Bits {
    /// Sorted, distinct set-bit positions.
    Positions(Vec<u16>),
    /// `⌈len / 64⌉` words; bits at and past `len` stay zero.
    Words(Box<[u64]>),
}

impl Default for Bits {
    fn default() -> Self {
        Bits::Positions(Vec::new())
    }
}

impl BitVec {
    /// A zeroed bit vector of `len_bits` bits.
    pub fn new(len_bits: usize) -> Self {
        assert!(len_bits > 0, "bit vector must have at least one bit");
        let bits = if len_bits <= MAX_SPARSE_LEN {
            Bits::default()
        } else {
            Bits::Words(vec![0; len_bits.div_ceil(64)].into_boxed_slice())
        };
        BitVec { bits, len_bits }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len_bits
    }

    /// Always false: a `BitVec` has at least one bit by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The dense form's size in words, and the most set bits the
    /// positions form holds.
    fn words(&self) -> usize {
        self.len_bits.div_ceil(64)
    }

    fn check(&self, i: usize) {
        assert!(
            i < self.len_bits,
            "bit index {i} out of range {}",
            self.len_bits
        );
    }

    /// Set bit `i` to one.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.check(i);
        match &mut self.bits {
            Bits::Words(w) => w[i / 64] |= 1u64 << (i % 64),
            // Out of line, so that setting a bit in words stays a few
            // instructions wherever it is inlined.
            Bits::Positions(_) => self.insert(i),
        }
    }

    /// [`BitVec::set`] on a list.
    fn insert(&mut self, i: usize) {
        let words = self.words();
        let Bits::Positions(list) = &mut self.bits else {
            unreachable!("only a list takes a position");
        };
        let p = i as u16;
        if let Err(at) = list.binary_search(&p) {
            if list.len() < words {
                list.insert(at, p);
            } else {
                self.promote(i);
            }
        }
    }

    /// Move a full list to words and set bit `i` there.
    #[cold]
    fn promote(&mut self, i: usize) {
        let Bits::Positions(list) = std::mem::take(&mut self.bits) else {
            unreachable!("only a list is promoted");
        };
        self.refill(|bits| {
            list.iter().for_each(|&p| bits.set(usize::from(p)));
            bits.set(i);
        });
    }

    /// Read bit `i`.
    pub fn get(&self, i: usize) -> bool {
        self.check(i);
        match &self.bits {
            Bits::Words(w) => (w[i / 64] >> (i % 64)) & 1 == 1,
            Bits::Positions(list) => list.binary_search(&(i as u16)).is_ok(),
        }
    }

    /// Clear all bits.
    pub fn clear(&mut self) {
        match &mut self.bits {
            Bits::Words(w) if self.len_bits > MAX_SPARSE_LEN => w.fill(0),
            bits => *bits = Bits::default(),
        }
    }

    /// Replace the bits by exactly those `fill` sets: it sets them in
    /// dense words, the vector's own if it has them, which are then
    /// kept or listed by their count. A re-derivation of many bits so
    /// never walks a list.
    pub(crate) fn refill(&mut self, fill: impl FnOnce(&mut Fill<'_>)) {
        let words = self.words();
        let mut w = match std::mem::take(&mut self.bits) {
            Bits::Words(mut w) => {
                w.fill(0);
                w
            }
            Bits::Positions(_) => vec![0; words].into_boxed_slice(),
        };
        let mut bits = Fill {
            words: &mut w,
            len_bits: self.len_bits,
            count: 0,
        };
        fill(&mut bits);
        let count = bits.count;
        self.bits = if count <= words && self.len_bits <= MAX_SPARSE_LEN {
            let mut list = Vec::with_capacity(count);
            list.extend(ones(&w).map(|i| i as u16));
            Bits::Positions(list)
        } else {
            Bits::Words(w)
        };
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        match &self.bits {
            Bits::Words(w) => w.iter().map(|x| x.count_ones() as usize).sum(),
            Bits::Positions(list) => list.len(),
        }
    }

    /// True if every set bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &BitVec) -> bool {
        assert_eq!(
            self.len_bits, other.len_bits,
            "length mismatch in subset test"
        );
        match (&self.bits, &other.bits) {
            (Bits::Words(a), Bits::Words(b)) => a.iter().zip(b.iter()).all(|(a, b)| a & !b == 0),
            (Bits::Positions(list), _) => list.iter().all(|&i| other.get(i as usize)),
            (Bits::Words(a), _) => ones(a).all(|i| other.get(i)),
        }
    }

    /// Serialized size in bytes (what a summary costs on the wire).
    pub fn byte_size(&self) -> usize {
        self.len_bits.div_ceil(8)
    }

    /// Whether the vector holds its positions rather than words.
    #[cfg(test)]
    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self.bits, Bits::Positions(_))
    }
}

/// Dense words that [`BitVec::refill`] sets bits in, counting them.
pub(crate) struct Fill<'a> {
    words: &'a mut [u64],
    len_bits: usize,
    count: usize,
}

impl Fill<'_> {
    /// Set bit `i` to one.
    pub(crate) fn set(&mut self, i: usize) {
        assert!(
            i < self.len_bits,
            "bit index {i} out of range {}",
            self.len_bits
        );
        let (w, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        self.count += usize::from(*w & bit == 0);
        *w |= bit;
    }
}

/// The positions of the set bits of `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(k, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                k * 64 + b
            })
        })
    })
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

    /// One step on a pair of vectors of one length: `0` set bit
    /// `a` of vector `v`, `1` clear `v`, `2` refill `v` with the
    /// positions `b, b + s, …` (`s` ≥ 1, `n` of them, so a refill can
    /// land on either side of the form threshold).
    type Op = (u8, bool, usize, usize, usize);

    fn op() -> impl Strategy<Value = Op> {
        (0u8..3, any::<bool>(), any::<usize>(), 1usize..9, 0usize..40)
    }

    /// Both vectors against `Vec<bool>` models after `ops`: reads,
    /// count, subset both ways, equality exactly when the models are
    /// equal, and the form the (length, count) rule names.
    fn check_against_model(len: usize, ops: &[Op]) {
        let mut v = [BitVec::new(len), BitVec::new(len)];
        let mut m = [vec![false; len], vec![false; len]];
        for &(kind, which, a, s, n) in ops {
            let k = which as usize;
            match kind {
                0 => {
                    v[k].set(a % len);
                    m[k][a % len] = true;
                }
                1 => {
                    v[k].clear();
                    m[k].fill(false);
                }
                _ => {
                    let positions: Vec<usize> = (0..n).map(|j| (a % len + j * s) % len).collect();
                    v[k].refill(|bits| positions.iter().for_each(|&p| bits.set(p)));
                    m[k].fill(false);
                    for &p in &positions {
                        m[k][p] = true;
                    }
                }
            }
            for (v, m) in v.iter().zip(&m) {
                let count = m.iter().filter(|&&b| b).count();
                prop_assert_eq!(v.count_ones(), count);
                prop_assert_eq!(
                    v.is_sparse(),
                    count <= len.div_ceil(64) && len <= MAX_SPARSE_LEN
                );
                for i in (0..len).filter(|i| m[*i] || i % 7 == a % 7) {
                    prop_assert_eq!(v.get(i), m[i]);
                }
            }
            let subset = |x: &[bool], y: &[bool]| x.iter().zip(y).all(|(a, b)| !a || *b);
            prop_assert_eq!(v[0].is_subset_of(&v[1]), subset(&m[0], &m[1]));
            prop_assert_eq!(v[1].is_subset_of(&v[0]), subset(&m[1], &m[0]));
            prop_assert_eq!(v[0] == v[1], m[0] == m[1]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Short vectors: both forms and every crossing between them.
        #[test]
        fn both_forms_answer_as_the_model(
            len in 1usize..300,
            ops in proptest::collection::vec(op(), 0..80),
        ) {
            check_against_model(len, &ops);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// A vector longer than a `u16` position reaches stays in
        /// words, however few bits it sets.
        #[test]
        fn a_long_vector_stays_dense(ops in proptest::collection::vec(op(), 0..30)) {
            check_against_model(70_000, &ops);
        }
    }
}
