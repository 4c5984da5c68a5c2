//! Incrementally maintained content summaries.
//!
//! [`ContentSummary::from_objects`] rebuilds a filter from scratch —
//! `O(items · k)` hashing per call — which PR 3's engine profile
//! showed on the hot path: every gossip exchange rebuilt the peer's
//! summary and every directory-summary refresh rescanned the whole
//! index. PlanetP (Cuenca-Acuna et al.) reached the same conclusion
//! for its gossiped Bloom digests: maintain the summary as state,
//! don't recompute it.
//!
//! [`MaintainedSummary`] keeps the bit projection of its live multiset
//! beside one occurrence count per *object*. A Bloom filter cannot
//! clear a removed key's bits without knowing whether another live key
//! sets them too; Fan et al.'s Summary Cache answers that with a
//! counter per filter slot (a counting Bloom filter), the device of a
//! proxy that does not keep its object list. Both owners here keep the
//! exact list anyway — a content peer its content set, a directory its
//! inverted index — so the summary only has to know which objects are
//! live and how often, in a list sorted by object id:
//!
//! * `insert` adds one to the object's count and, on its first
//!   occurrence, files it and sets its `k` bits: one binary search per
//!   insert, where the slot counters took `k`;
//! * `remove` drops the count and, on the last occurrence, forgets the
//!   object and marks the bits *stale* — some of its bits may belong
//!   to no live object any more;
//! * [`MaintainedSummary::snapshot`] re-derives stale bits from the
//!   live objects first — `O(distinct objects · k)`, once per snapshot
//!   that follows a last-occurrence removal: a bounded cache's
//!   eviction, a directory's last holder of an object leaving — then
//!   clones the projection in `O(words)`.
//!
//! A snapshot is **bit-identical** (including the insert count) to the
//! filter [`ContentSummary::from_objects`] would build from the same
//! live multiset — both draw their probes from the one shared probe
//! function, so the seed-pinned simulations cannot tell the
//! difference.
//!
//! Occurrences form a multiset: inserting the same key twice requires
//! removing it twice before it leaves. That is exactly the
//! directory-summary discipline, where one object is listed once per
//! holding member; content peers insert each held object once.

use crate::bits::BitVec;
use crate::filter::{probe_positions, rate_geometry, BloomFilter};
use crate::summary::{ContentSummary, ObjectId, BITS_PER_OBJECT};

/// Sets the `k` bits of `o` (the one probe authority, shared with
/// [`BloomFilter`]).
fn set_bits(bits: &mut BitVec, k: u32, o: ObjectId) {
    for p in probe_positions(bits.len() as u64, k, o.key()) {
        bits.set(p);
    }
}

/// A content summary maintained as state: the live objects with their
/// occurrence counts plus their bit projection, supporting
/// binary-search insert/remove and `O(words)` snapshots bit-identical
/// to a from-scratch [`ContentSummary`].
#[derive(Clone, Debug)]
pub struct MaintainedSummary {
    /// The design capacity (nb-ob), echoed into snapshots.
    capacity: usize,
    k: u32,
    /// The bits of `live`'s objects — exactly, unless `stale`.
    bits: BitVec,
    /// Live occurrences per object, sorted by object id; every count
    /// is positive.
    live: Vec<(ObjectId, u32)>,
    /// An object's last occurrence left since `bits` was derived, so
    /// `bits` may hold bits no live object sets; the next snapshot
    /// re-derives them.
    stale: bool,
    /// Live insertions (multiset cardinality) — the `items` count a
    /// from-scratch filter over the same multiset would report.
    items: usize,
    /// The last snapshot, reused until the next mutation: a summary
    /// gossiped every `Tgossip` while the content sits still costs one
    /// `Arc` clone per exchange instead of one bit-array copy.
    cached: Option<ContentSummary>,
}

impl MaintainedSummary {
    /// An empty maintained summary with the geometry of
    /// [`ContentSummary::empty`]`(capacity)` (Table 1: `8·nb-ob`
    /// bits).
    pub fn empty(capacity: usize) -> Self {
        let (m, k) = rate_geometry(capacity, BITS_PER_OBJECT);
        MaintainedSummary {
            capacity,
            k,
            bits: BitVec::new(m),
            live: Vec::new(),
            stale: false,
            items: 0,
            cached: None,
        }
    }

    /// The design capacity (nb-ob).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live insertions (multiset cardinality).
    pub fn items(&self) -> usize {
        self.items
    }

    /// Where `o` is, or would be filed, in `live`.
    fn find(&self, o: ObjectId) -> Result<usize, usize> {
        self.live.binary_search_by_key(&o, |&(id, _)| id)
    }

    /// Add one occurrence of `o` (one binary search; `O(k)` bit sets
    /// on its first occurrence).
    pub fn insert(&mut self, o: ObjectId) {
        self.cached = None;
        match self.find(o) {
            Ok(i) => self.live[i].1 += 1,
            Err(i) => {
                self.live.insert(i, (o, 1));
                set_bits(&mut self.bits, self.k, o);
            }
        }
        self.items += 1;
    }

    /// Remove one occurrence of `o` (one binary search); panics if `o`
    /// has no live occurrence — callers own the exact content/index
    /// state, so a miss is a bookkeeping bug, not a runtime condition.
    pub fn remove(&mut self, o: ObjectId) {
        assert!(self.items > 0, "removing from an empty summary");
        self.cached = None;
        let i = self
            .find(o)
            .expect("removing a key that was never inserted");
        self.live[i].1 -= 1;
        if self.live[i].1 == 0 {
            self.live.remove(i);
            self.stale = true;
        }
        self.items -= 1;
    }

    /// Drop everything (§5.2 index reset / snapshot install).
    pub fn clear(&mut self) {
        self.cached = None;
        self.bits.clear();
        self.live.clear();
        self.stale = false;
        self.items = 0;
    }

    /// Whether the next [`MaintainedSummary::snapshot`] is a cached
    /// `Arc` clone (no mutation since the last snapshot) rather than a
    /// bit-projection rebuild.
    pub fn is_cached(&self) -> bool {
        self.cached.is_some()
    }

    /// The wire-ready summary of the current multiset: bit-identical
    /// (bits *and* insert count) to `ContentSummary::from_objects`
    /// over the same live multiset. Costs an `O(words)` clone of the
    /// bit projection after a mutation — plus re-deriving the bits
    /// from the live objects after a last-occurrence removal — and an
    /// `Arc` clone thereafter.
    pub fn snapshot(&mut self) -> ContentSummary {
        if let Some(c) = &self.cached {
            return c.clone();
        }
        if self.stale {
            self.bits.clear();
            for &(o, _) in &self.live {
                set_bits(&mut self.bits, self.k, o);
            }
            self.stale = false;
        }
        let s = ContentSummary::from_parts(
            BloomFilter::from_raw_parts(self.bits.clone(), self.k, self.items),
            self.capacity,
        );
        self.cached = Some(s.clone());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_matches_from_scratch_exactly() {
        let objs: Vec<ObjectId> = (0..40).map(|i| ObjectId(i * 7919 + 3)).collect();
        let mut m = MaintainedSummary::empty(100);
        for o in &objs {
            m.insert(*o);
        }
        assert_eq!(m.snapshot(), ContentSummary::from_objects(100, &objs));
        assert_eq!(m.items(), 40);
    }

    #[test]
    fn remove_restores_the_exact_previous_filter() {
        let keep: Vec<ObjectId> = (0..10).map(|i| ObjectId(i * 31)).collect();
        let mut m = MaintainedSummary::empty(50);
        for o in &keep {
            m.insert(*o);
        }
        let before = m.snapshot();
        m.insert(ObjectId(999));
        assert!(m.snapshot().might_contain(ObjectId(999)));
        m.remove(ObjectId(999));
        assert_eq!(m.snapshot(), before, "remove must undo insert bit-exactly");
    }

    #[test]
    fn multiset_semantics_need_matching_removes() {
        let mut m = MaintainedSummary::empty(20);
        m.insert(ObjectId(5));
        m.insert(ObjectId(5));
        m.remove(ObjectId(5));
        assert!(!m.stale, "one live occurrence left");
        assert!(m.snapshot().might_contain(ObjectId(5)));
        m.remove(ObjectId(5));
        assert!(m.stale);
        assert_eq!(m.snapshot(), ContentSummary::empty(20));
        assert_eq!(m.items(), 0);
    }

    /// A last-occurrence removal leaves the bits alone; the next
    /// snapshot re-derives them from the survivors, once.
    #[test]
    fn the_snapshot_after_a_last_removal_rederives_the_bits() {
        let objs: Vec<ObjectId> = (0..10).map(|i| ObjectId(i * 101 + 7)).collect();
        let mut m = MaintainedSummary::empty(100);
        for o in &objs {
            m.insert(*o);
        }
        let all_bits = m.bits.clone();
        m.remove(objs[0]);
        assert_eq!(m.bits, all_bits, "a removal does not touch the bits");
        let after = m.snapshot();
        assert_eq!(after, ContentSummary::from_objects(100, &objs[1..]));
        assert!(!after.might_contain(objs[0]), "its own bits are gone");
        assert!(!m.stale && m.is_cached());
        for o in &objs[1..] {
            m.remove(*o);
        }
        assert_eq!(m.snapshot(), ContentSummary::empty(100));
    }

    #[test]
    fn clear_resets_to_empty_geometry() {
        let mut m = MaintainedSummary::empty(10);
        m.insert(ObjectId(1));
        m.clear();
        assert_eq!(m.snapshot(), ContentSummary::empty(10));
        assert_eq!(m.capacity(), 10);
    }

    #[test]
    #[should_panic(expected = "never inserted")]
    fn removing_an_absent_key_panics() {
        let mut m = MaintainedSummary::empty(10);
        m.insert(ObjectId(1));
        m.remove(ObjectId(2));
    }

    #[test]
    #[should_panic(expected = "empty summary")]
    fn removing_from_an_empty_summary_panics() {
        MaintainedSummary::empty(10).remove(ObjectId(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Runs `ops` against a model — the live multiset as a list, and
    /// "no `insert`/`remove`/`clear` since the last snapshot" — and
    /// compares at every snapshot, taken wherever the sequence says:
    /// `is_cached()` before it equals the model's flag, the snapshot
    /// equals the from-scratch filter over the live multiset (bits and
    /// insert tally). Ops by `op % 10`: 0–4 insert `key` (under the
    /// set discipline only when it is not live), 5–7 remove the live
    /// key `key` points at, 8 snapshot, 9 clear (one time in four).
    fn check_against_model(ops: &[(u32, u64)], capacity: usize, multiset: bool) {
        let mut m = MaintainedSummary::empty(capacity);
        let mut live: Vec<ObjectId> = Vec::new();
        let mut cached = false;
        let snapshot = |m: &mut MaintainedSummary, live: &mut Vec<ObjectId>, cached: bool| {
            assert_eq!(m.is_cached(), cached);
            live.sort_unstable();
            assert_eq!(m.snapshot(), ContentSummary::from_objects(capacity, &*live));
            assert_eq!(m.items(), live.len());
        };
        for &(op, key) in ops {
            match op % 10 {
                0..=4 => {
                    let o = ObjectId(key.wrapping_mul(0x9E37_79B9) ^ 7);
                    if multiset || !live.contains(&o) {
                        live.push(o);
                        m.insert(o);
                        cached = false;
                    }
                }
                5..=7 if !live.is_empty() => {
                    let o = live.swap_remove(key as usize % live.len());
                    m.remove(o);
                    cached = false;
                }
                8 => {
                    snapshot(&mut m, &mut live, cached);
                    cached = true;
                }
                9 if key % 4 == 0 => {
                    live.clear();
                    m.clear();
                    cached = false;
                }
                _ => {}
            }
        }
        snapshot(&mut m, &mut live, cached);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Set discipline (the content peer): each live object once,
        /// so every removal is a last occurrence.
        #[test]
        fn interleaved_set_ops_snapshot_exactly(
            ops in proptest::collection::vec((0u32..10, 0u64..48), 0..200),
            capacity in 1usize..40,
        ) {
            check_against_model(&ops, capacity, false);
        }

        /// Multiset discipline (the directory: one listing per holding
        /// member): duplicates count, and only the last removal of an
        /// object may clear its bits.
        #[test]
        fn interleaved_multiset_ops_snapshot_exactly(
            ops in proptest::collection::vec((0u32..10, 0u64..16), 0..200),
            capacity in 1usize..20,
        ) {
            check_against_model(&ops, capacity, true);
        }
    }
}
