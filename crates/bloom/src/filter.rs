//! A classic Bloom filter with double hashing.
//!
//! Uses the Kirsch–Mitzenmacher construction: two independent 64-bit
//! hashes `h1`, `h2` of the key generate the `k` probe positions
//! `h1 + i·h2 (mod m)`, which preserves the asymptotic false-positive
//! behaviour of `k` independent hash functions. Hashing is a seeded
//! 64-bit mix (SplitMix64 finalizer) so the filter needs no external
//! dependencies and is fully deterministic.

use crate::bits::BitVec;

/// A Bloom filter over `u64` keys.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BloomFilter {
    bits: BitVec,
    k: u32,
    items: usize,
}

/// SplitMix64 finalizer: a strong 64-bit mixing function.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Kirsch–Mitzenmacher probe sequence for `key` over `m_bits`
/// slots with `k` probes. Shared by [`BloomFilter`],
/// [`crate::SummaryBits`] and the one-object [`crate::ContentSummary`]
/// so they can never disagree on which bits a key touches — the
/// maintained bits' snapshots and a one-object summary's answers equal
/// from-scratch filters' *because* this function is the single probe
/// authority.
pub(crate) fn probe_positions(m_bits: u64, k: u32, key: u64) -> impl Iterator<Item = usize> {
    let h1 = mix64(key);
    let h2 = mix64(key ^ 0xDEAD_BEEF_CAFE_F00D) | 1; // odd stride
    (0..k as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m_bits) as usize)
}

/// The `m_bits` of [`rate_geometry`], for [`crate::ContentSummary`]:
/// sizing a message or probing a one-object summary must not pay for
/// the probe count's floating-point rounding.
#[inline]
pub(crate) fn rate_bits(expected_items: usize, bits_per_item: usize) -> usize {
    expected_items.max(1) * bits_per_item.max(1)
}

/// The filter geometry [`BloomFilter::with_rate`] derives from an
/// expected item count: `(m_bits, k)`. The summaries use [`rate_bits`]
/// and their probe constant, which a test ties to this `k`.
pub(crate) fn rate_geometry(expected_items: usize, bits_per_item: usize) -> (usize, u32) {
    let m = rate_bits(expected_items, bits_per_item);
    let k = ((bits_per_item as f64) * std::f64::consts::LN_2)
        .round()
        .max(1.0) as u32;
    (m, k)
}

impl BloomFilter {
    /// A filter with `m_bits` bits and `k` probes per key.
    pub fn new(m_bits: usize, k: u32) -> Self {
        assert!(k > 0, "need at least one hash function");
        BloomFilter {
            bits: BitVec::new(m_bits),
            k,
            items: 0,
        }
    }

    /// A filter sized for `expected_items` with `bits_per_item` bits
    /// each and the optimal probe count `k = bits_per_item · ln 2`.
    ///
    /// The paper's Table 1 uses 8 bits per object (`summary size =
    /// 8·nb-ob bits`), for which the optimal `k` is 5 or 6 and the
    /// false-positive rate ≈ 2 %.
    pub fn with_rate(expected_items: usize, bits_per_item: usize) -> Self {
        let (m, k) = rate_geometry(expected_items, bits_per_item);
        BloomFilter::new(m, k)
    }

    /// The bits, for an owner that maintains them (the
    /// [`crate::SummaryBits`] snapshot path).
    pub(crate) fn bits_mut(&mut self) -> &mut BitVec {
        &mut self.bits
    }

    /// Report `items` live inserts (the [`crate::SummaryBits`]
    /// snapshot path: the owner counts them).
    pub(crate) fn set_items(&mut self, items: usize) {
        self.items = items;
    }

    fn probes(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        probe_positions(self.bits.len() as u64, self.k, key)
    }

    /// Insert a key.
    pub fn insert(&mut self, key: u64) {
        let idxs: Vec<usize> = self.probes(key).collect();
        for i in idxs {
            self.bits.set(i);
        }
        self.items += 1;
    }

    /// Query a key. False positives are possible; false negatives are
    /// not.
    pub fn contains(&self, key: u64) -> bool {
        self.probes(key).all(|i| self.bits.get(i))
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.bits.clear();
        self.items = 0;
    }

    /// Number of `insert` calls since the last clear (an upper bound
    /// on distinct items).
    pub fn items(&self) -> usize {
        self.items
    }

    /// Estimated false-positive probability at the current fill level:
    /// `(set_bits / m)^k`.
    pub fn estimated_fpr(&self) -> f64 {
        let fill = self.bits.count_ones() as f64 / self.bits.len() as f64;
        fill.powi(self.k as i32)
    }

    /// Size of the filter on the wire, in bytes.
    pub fn byte_size(&self) -> usize {
        self.bits.byte_size()
    }

    /// Number of bits `m`.
    pub fn num_bits(&self) -> usize {
        self.bits.len()
    }

    /// Number of probes `k`.
    pub fn num_hashes(&self) -> u32 {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_rate(100, 8);
        for key in 0..100u64 {
            f.insert(key * 7919);
        }
        for key in 0..100u64 {
            assert!(f.contains(key * 7919), "false negative for {key}");
        }
    }

    #[test]
    fn false_positive_rate_is_low_at_table1_sizing() {
        // Table 1: 8 bits per object. Insert 100 "held" objects,
        // probe 10_000 absent keys; expect roughly 2% positives.
        let mut f = BloomFilter::with_rate(100, 8);
        for key in 0..100u64 {
            f.insert(key);
        }
        let fp = (1_000_000..1_010_000u64).filter(|k| f.contains(*k)).count();
        let rate = fp as f64 / 10_000.0;
        assert!(rate < 0.06, "false positive rate too high: {rate}");
    }

    #[test]
    fn estimated_fpr_tracks_fill() {
        let mut f = BloomFilter::with_rate(100, 8);
        let empty = f.estimated_fpr();
        assert_eq!(empty, 0.0);
        for key in 0..100u64 {
            f.insert(key);
        }
        let full = f.estimated_fpr();
        assert!(full > 0.0 && full < 0.1, "fpr estimate {full}");
    }

    #[test]
    fn clear_empties() {
        let mut f = BloomFilter::with_rate(10, 8);
        f.insert(42);
        assert!(f.contains(42));
        f.clear();
        assert!(!f.contains(42));
        assert_eq!(f.items(), 0);
    }

    #[test]
    fn geometry_accessors() {
        let f = BloomFilter::with_rate(100, 8);
        assert_eq!(f.num_bits(), 800);
        assert_eq!(f.byte_size(), 100);
        // optimal k for 8 bits/item = round(8 ln2) = 6
        assert_eq!(f.num_hashes(), 6);
    }

    #[test]
    fn with_rate_handles_zero_inputs() {
        let f = BloomFilter::with_rate(0, 0);
        assert!(f.num_bits() >= 1);
        assert!(f.num_hashes() >= 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Inserted keys are always found (no false negatives), for
        /// arbitrary keys and geometries.
        #[test]
        fn never_false_negative(keys in proptest::collection::vec(any::<u64>(), 1..100), bits_per in 2usize..16) {
            let mut f = BloomFilter::with_rate(keys.len(), bits_per);
            for &k in &keys {
                f.insert(k);
            }
            for &k in &keys {
                prop_assert!(f.contains(k));
            }
        }
    }
}
