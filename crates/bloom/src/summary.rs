//! Content summaries: the paper-facing Bloom-filter wrapper.
//!
//! A *content summary* (§4.2) represents the set of objects a content
//! peer currently holds; a *directory summary* (§3.3) represents the
//! set of objects indexed by a whole directory peer. Both are Bloom
//! filters over object identifiers (`hash(url)`), sized per Table 1 at
//! `8 · nb-ob` bits where `nb-ob` is the number of objects a website
//! provides.

use crate::filter::{rate_bits, BloomFilter};

/// Identifier of a web object: in the paper, `hash(url)`. The
/// identifier is global (website id is baked in by the workload
/// catalog), so summaries from different websites never collide
/// structurally.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// The raw key.
    pub fn key(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{:x}", self.0)
    }
}

/// A Bloom-filter summary of a set of objects, sized per Table 1 of
/// the paper (8 bits per potential object).
///
/// The filter is behind an `Arc`: a summary on the wire is an
/// immutable value that gets cloned into every gossip subset entry,
/// every view slot and every directory broadcast — at 100k nodes
/// those clones (one heap copy of the bit array each) dominated the
/// gossip profile. Cloning is now a reference-count increment; the
/// rare mutation of a shared summary copies on write.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ContentSummary {
    filter: std::sync::Arc<BloomFilter>,
    capacity: usize,
}

/// Bits per object in a summary (Table 1: summary size = 8·nb-ob bits).
pub const BITS_PER_OBJECT: usize = 8;

impl ContentSummary {
    /// An empty summary able to represent up to `capacity` objects
    /// (the paper: "the maximum number of objects held by a content
    /// peer is limited by the total number of objects provided by its
    /// website").
    pub fn empty(capacity: usize) -> Self {
        ContentSummary {
            filter: std::sync::Arc::new(BloomFilter::with_rate(capacity, BITS_PER_OBJECT)),
            capacity,
        }
    }

    /// Assemble a summary around an already-built filter (the
    /// [`crate::SummaryBits`] snapshot path).
    pub(crate) fn from_parts(filter: BloomFilter, capacity: usize) -> Self {
        ContentSummary {
            filter: std::sync::Arc::new(filter),
            capacity,
        }
    }

    /// The insert count the filter reports.
    pub(crate) fn items(&self) -> usize {
        self.filter.items()
    }

    /// Build a summary from a set of object ids.
    pub fn from_objects<'a>(
        capacity: usize,
        objects: impl IntoIterator<Item = &'a ObjectId>,
    ) -> Self {
        let mut s = ContentSummary::empty(capacity);
        for o in objects {
            s.insert(*o);
        }
        s
    }

    /// Add one object (copies a shared filter on write).
    pub fn insert(&mut self, o: ObjectId) {
        std::sync::Arc::make_mut(&mut self.filter).insert(o.key());
    }

    /// Probabilistic membership test (false positives possible, false
    /// negatives impossible).
    pub fn might_contain(&self, o: ObjectId) -> bool {
        self.filter.contains(o.key())
    }

    /// Merge another summary of the same capacity.
    pub fn union_with(&mut self, other: &ContentSummary) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        std::sync::Arc::make_mut(&mut self.filter).union_with(&other.filter);
    }

    /// Drop all objects.
    pub fn clear(&mut self) {
        std::sync::Arc::make_mut(&mut self.filter).clear();
    }

    /// The design capacity (nb-ob).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Wire size in bytes: what sending this summary costs, per the
    /// paper's `8·nb-ob` bits rule. A function of the capacity alone —
    /// the geometry every constructor sizes the filter by — so the
    /// traffic accounting, which asks three times per gossip message
    /// and once more per subset entry, never follows the `Arc` to a
    /// filter some other node built.
    #[inline]
    pub fn wire_size(&self) -> u32 {
        let bytes = rate_bits(self.capacity, BITS_PER_OBJECT).div_ceil(8);
        debug_assert_eq!(bytes, self.filter.byte_size());
        bytes as u32
    }

    /// Estimated false-positive probability at current fill.
    pub fn estimated_fpr(&self) -> f64 {
        self.filter.estimated_fpr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizing() {
        // nb-ob = 100 objects → 800 bits → 100 bytes on the wire.
        let s = ContentSummary::empty(100);
        assert_eq!(s.wire_size(), 100);
        assert_eq!(s.capacity(), 100);
    }

    /// `wire_size` is computed from the capacity; whatever way a
    /// summary was built, it must be what the filter itself measures.
    #[test]
    fn wire_size_is_the_filters_byte_size_for_every_capacity() {
        let objs: Vec<ObjectId> = (0..5).map(|i| ObjectId(i * 31 + 7)).collect();
        for c in 0..4096 {
            for s in [
                ContentSummary::empty(c),
                ContentSummary::from_objects(c, &objs),
                crate::SummaryBits::empty(c).snapshot(&[], 0),
            ] {
                assert_eq!(s.wire_size() as usize, s.filter.byte_size(), "capacity {c}");
            }
        }
    }

    #[test]
    fn membership_roundtrip() {
        let objs: Vec<ObjectId> = (0..50).map(|i| ObjectId(i * 31 + 7)).collect();
        let s = ContentSummary::from_objects(100, &objs);
        for o in &objs {
            assert!(s.might_contain(*o));
        }
    }

    #[test]
    fn union_merges() {
        let mut a = ContentSummary::from_objects(100, &[ObjectId(1)]);
        let b = ContentSummary::from_objects(100, &[ObjectId(2)]);
        a.union_with(&b);
        assert!(a.might_contain(ObjectId(1)));
        assert!(a.might_contain(ObjectId(2)));
    }

    #[test]
    fn clear_empties() {
        let mut s = ContentSummary::from_objects(10, &[ObjectId(9)]);
        s.clear();
        assert!(!s.might_contain(ObjectId(9)));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn union_capacity_mismatch_panics() {
        let mut a = ContentSummary::empty(10);
        let b = ContentSummary::empty(20);
        a.union_with(&b);
    }

    #[test]
    fn display_object_id() {
        assert_eq!(format!("{}", ObjectId(255)), "objff");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A summary never forgets an inserted object.
        #[test]
        fn no_false_negatives(ids in proptest::collection::vec(any::<u64>(), 1..80)) {
            let objs: Vec<ObjectId> = ids.iter().map(|&i| ObjectId(i)).collect();
            let s = ContentSummary::from_objects(objs.len(), &objs);
            for o in &objs {
                prop_assert!(s.might_contain(*o));
            }
        }
    }
}
