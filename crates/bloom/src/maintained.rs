//! Owner-maintained content summaries.
//!
//! [`ContentSummary::from_objects`] rebuilds a filter from scratch —
//! `O(items · k)` hashing per call — which the engine profile showed
//! on the hot path: every gossip exchange rebuilt the peer's summary
//! and every directory-summary refresh rescanned the whole index.
//! PlanetP (Cuenca-Acuna et al.) reached the same conclusion for its
//! gossiped Bloom digests: maintain the summary as state, don't
//! recompute it.
//!
//! [`SummaryBits`] is the owner-side filter of Fan et al.'s Summary
//! Cache: an owner that keeps its own object list gives the filter
//! only bits and re-derives them from that list when they go stale.
//! Both owners here keep the exact list — a content peer its content
//! set, a directory its inverted index — and report the two events
//! they already see:
//!
//! * **first occurrence** ([`SummaryBits::first_occurrence`]) sets the
//!   object's `k` bits;
//! * **last occurrence gone** ([`SummaryBits::last_occurrence_gone`])
//!   marks the bits *stale*: some may belong to no live object.
//!
//! [`SummaryBits::snapshot`] takes the owner's keys, by value (an
//! owner may store an object as a rank and hand out its id), and item
//! count.
//! Below two items the summary is its object id (or nothing), read
//! from the keys and kept until the next bit event, and the owner
//! keeps no bits at all: the bit array is derived from the keys at the
//! first snapshot of two or more items and only then follows first
//! occurrences. The bits live in the
//! filter that snapshot shares, and every later snapshot clones that
//! `Arc`; a first occurrence or a stale re-derivation (`O(distinct
//! objects · k)`, once per snapshot that follows a last-occurrence
//! removal) writes through [`Arc::make_mut`], so the bits exist twice
//! only while a view or a message still holds an older snapshot. Bits
//! are OR'd, so the order the keys come in does not matter. A
//! re-derivation sets them in dense words and lists them only then,
//! if few ([`BitVec`]'s positions form), so a filter of many objects
//! never walks a list. A
//! snapshot is **identical** (form, answers and item count) to
//! [`ContentSummary::from_objects`] over the owner's multiset: both
//! draw their probes from the one shared probe function, so the
//! seed-pinned simulations cannot tell the difference.
//!
//! [`MaintainedSummary`] is the same filter with an owner of its own, a
//! multiset of keys. Only the benchmark's `bloom` probe and this
//! module's oracle tests use it; it goes when ROADMAP item 7 retires
//! that probe.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::bits::BitVec;
use crate::filter::{probe_positions, rate_bits, BloomFilter};
use crate::summary::{ContentSummary, ObjectId, BITS_PER_OBJECT, PROBES};

/// The bits of a content summary whose owner keeps the object list:
/// no per-object storage, snapshots identical to a from-scratch
/// [`ContentSummary`].
#[derive(Clone, Debug)]
pub struct SummaryBits {
    /// The design capacity (nb-ob), echoed into snapshots.
    capacity: u32,
    /// An object's last occurrence left since the bits were derived;
    /// the next snapshot of two or more items re-derives them from the
    /// owner's keys.
    stale: bool,
    /// The form of the last snapshot while no bit event has happened
    /// since, so that the next one at the same item count is that
    /// snapshot again — rebuilt from `one` below two objects, a clone
    /// of `filter` from there — and a summary gossiped every `Tgossip`
    /// while the content sits still reads no key and copies no bit.
    last: Last,
    /// The object of the last one-object snapshot.
    one: ObjectId,
    /// The bits of the owner's live objects — exactly, unless `stale`
    /// — in the filter the latest snapshot of two or more items
    /// shares, with that snapshot's item count. `None` until the first
    /// such snapshot: a summary of fewer is its object id and needs no
    /// bits.
    filter: Option<Arc<BloomFilter>>,
}

/// The form of an owner's last snapshot, if no bit event happened
/// since it was taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Last {
    Dirty,
    Empty,
    One,
    Filter,
}

/// Set `o`'s probe bits in `bits`.
fn set_bits(bits: &mut BitVec, o: ObjectId) {
    for p in probe_positions(bits.len() as u64, PROBES, o.key()) {
        bits.set(p);
    }
}

impl SummaryBits {
    /// Empty bits with the geometry of
    /// [`ContentSummary::empty`]`(capacity)` (Table 1: `8·nb-ob` bits).
    pub fn empty(capacity: usize) -> Self {
        SummaryBits {
            capacity: u32::try_from(capacity).expect("summary capacity fits in u32"),
            stale: false,
            last: Last::Dirty,
            one: ObjectId(0),
            filter: None,
        }
    }

    /// The design capacity (nb-ob).
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// The owner gained its first occurrence of `o`: set its `k` bits,
    /// if the owner keeps bits yet and the next snapshot will not
    /// re-derive them anyway.
    pub fn first_occurrence(&mut self, o: ObjectId) {
        self.last = Last::Dirty;
        if let Some(filter) = self.filter.as_mut().filter(|_| !self.stale) {
            set_bits(Arc::make_mut(filter).bits_mut(), o);
        }
    }

    /// The owner lost the last occurrence of some object: its bits may
    /// now belong to nothing live.
    pub fn last_occurrence_gone(&mut self) {
        self.last = Last::Dirty;
        self.stale = true;
    }

    /// Drop everything (§5.2 snapshot install).
    pub fn clear(&mut self) {
        self.last = Last::Dirty;
        self.filter = None;
        self.stale = false;
    }

    /// Whether no bit event happened since the last snapshot, so the
    /// next one at the same item count is a clone of the cached one.
    pub fn is_cached(&self) -> bool {
        self.last != Last::Dirty
    }

    /// The wire-ready summary of the owner's live objects `keys` (each
    /// distinct object once), reporting `items` insertions: identical
    /// to `ContentSummary::from_objects` over the owner's multiset of
    /// `items` occurrences.
    pub fn snapshot(
        &mut self,
        keys: impl IntoIterator<Item = ObjectId>,
        items: usize,
    ) -> ContentSummary {
        let capacity = self.capacity();
        let s = match (self.last, items) {
            // No bit event: the one live object is still `one`.
            (Last::One, 1) => ContentSummary::from_objects(capacity, &[self.one]),
            (_, 0) => {
                self.last = Last::Empty;
                ContentSummary::empty(capacity)
            }
            (_, 1) => {
                self.last = Last::One;
                self.one = keys.into_iter().next().expect("one live key");
                ContentSummary::from_objects(capacity, &[self.one])
            }
            _ => {
                self.last = Last::Filter;
                let derive = self.stale || self.filter.is_none();
                let filter = self.filter.get_or_insert_with(|| {
                    Arc::new(BloomFilter::new(
                        rate_bits(capacity, BITS_PER_OBJECT),
                        PROBES,
                    ))
                });
                if derive || filter.items() != items {
                    // Copies the bits only if an older snapshot holds them.
                    let f = Arc::make_mut(filter);
                    if derive {
                        let m = f.num_bits() as u64;
                        f.bits_mut().refill(|bits| {
                            for o in keys {
                                probe_positions(m, PROBES, o.key()).for_each(|p| bits.set(p));
                            }
                        });
                        self.stale = false;
                    }
                    f.set_items(items);
                }
                ContentSummary::from_filter(Arc::clone(filter), capacity)
            }
        };
        debug_assert_eq!(s.items(), items, "the keys disagree with the item count");
        s
    }
}

/// [`SummaryBits`] with an owner of its own: a multiset of keys.
/// Kept only for the benchmark's `bloom` probe and the oracle tests
/// below; deleted when ROADMAP item 7 retires that probe.
#[derive(Clone, Debug)]
pub struct MaintainedSummary {
    live: BTreeMap<ObjectId, u32>,
    items: usize,
    bits: SummaryBits,
}

impl MaintainedSummary {
    /// An empty multiset over [`SummaryBits::empty`]`(capacity)`.
    pub fn empty(capacity: usize) -> Self {
        MaintainedSummary {
            live: BTreeMap::new(),
            items: 0,
            bits: SummaryBits::empty(capacity),
        }
    }

    /// Add one occurrence of `o`.
    pub fn insert(&mut self, o: ObjectId) {
        let n = self.live.entry(o).or_insert(0);
        *n += 1;
        if *n == 1 {
            self.bits.first_occurrence(o);
        }
        self.items += 1;
    }

    /// Remove one occurrence of `o`; panics if `o` has none.
    pub fn remove(&mut self, o: ObjectId) {
        assert!(self.items > 0, "removing from an empty summary");
        let n = self
            .live
            .get_mut(&o)
            .expect("removing a key that was never inserted");
        *n -= 1;
        if *n == 0 {
            self.live.remove(&o);
            self.bits.last_occurrence_gone();
        }
        self.items -= 1;
    }

    /// [`SummaryBits::snapshot`] over the live multiset.
    pub fn snapshot(&mut self) -> ContentSummary {
        self.bits.snapshot(self.live.keys().copied(), self.items)
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
        assert_eq!(m.items, 40);
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
        let once = m.snapshot();
        m.insert(ObjectId(5));
        assert!(m.bits.is_cached(), "a repeated occurrence touches no bit");
        assert_ne!(m.snapshot(), once, "but the snapshot reports two items");
        m.remove(ObjectId(5));
        assert!(!m.bits.stale, "one live occurrence left");
        assert_eq!(m.snapshot(), once);
        m.remove(ObjectId(5));
        assert!(m.bits.stale);
        assert_eq!(m.snapshot(), ContentSummary::empty(20));
        assert_eq!(m.items, 0);
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
        let before = m.snapshot();
        let shared = before.shared_filter().expect("ten objects keep bits");
        m.remove(objs[0]);
        assert!(
            Arc::ptr_eq(m.bits.filter.as_ref().unwrap(), shared),
            "a removal touches no bit: the owner's bits are the snapshot's"
        );
        let after = m.snapshot();
        assert_eq!(
            before,
            ContentSummary::from_objects(100, &objs),
            "the re-derivation wrote into a copy, not into the held snapshot"
        );
        assert_eq!(after, ContentSummary::from_objects(100, &objs[1..]));
        assert!(!after.might_contain(objs[0]), "its own bits are gone");
        assert!(!m.bits.stale && m.bits.is_cached());
        for o in &objs[1..] {
            m.remove(*o);
        }
        assert_eq!(m.snapshot(), ContentSummary::empty(100));
    }

    /// A content peer across the forms: 0 → 1 → 2 → 1 → 2 objects,
    /// the drop to one an eviction, and then an eviction and an admit
    /// between two snapshots. The bits appear at the first snapshot of
    /// two objects; every snapshot is the from-scratch summary (32
    /// bits, so the evicted object's stale bits would show).
    #[test]
    fn an_owner_crossing_two_objects_snapshots_exactly() {
        fn check(bits: &mut SummaryBits, live: &[ObjectId]) {
            let s = bits.snapshot(live.iter().copied(), live.len());
            assert_eq!(s, ContentSummary::from_objects(4, live), "live {live:?}");
        }
        let (a, b, c, d) = (ObjectId(11), ObjectId(22), ObjectId(33), ObjectId(44));
        let mut bits = SummaryBits::empty(4);
        let mut live = vec![];
        check(&mut bits, &live);
        for o in [a, b] {
            live.push(o);
            bits.first_occurrence(o);
            check(&mut bits, &live);
            assert_eq!(bits.filter.is_some(), o == b, "bits only from two objects");
        }
        live.retain(|&o| o != a);
        bits.last_occurrence_gone();
        check(&mut bits, &live);
        live.push(c);
        bits.first_occurrence(c);
        check(&mut bits, &live);
        live.retain(|&o| o != b);
        bits.last_occurrence_gone();
        live.push(d);
        bits.first_occurrence(d);
        check(&mut bits, &live);
    }

    #[test]
    fn clear_resets_to_empty_geometry() {
        let mut b = SummaryBits::empty(10);
        b.first_occurrence(ObjectId(1));
        b.last_occurrence_gone();
        b.clear();
        assert_eq!(b.snapshot([], 0), ContentSummary::empty(10));
        assert_eq!(b.capacity(), 10);
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
    /// "no first or last occurrence since the last snapshot" — and
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
            assert_eq!(m.bits.is_cached(), cached);
            live.sort_unstable();
            assert_eq!(m.snapshot(), ContentSummary::from_objects(capacity, &*live));
        };
        for &(op, key) in ops {
            match op % 10 {
                0..=4 => {
                    let o = ObjectId(key.wrapping_mul(0x9E37_79B9) ^ 7);
                    if multiset || !live.contains(&o) {
                        cached &= live.contains(&o);
                        live.push(o);
                        m.insert(o);
                    }
                }
                5..=7 if !live.is_empty() => {
                    let o = live.swap_remove(key as usize % live.len());
                    cached &= live.contains(&o);
                    m.remove(o);
                }
                8 => {
                    snapshot(&mut m, &mut live, cached);
                    cached = true;
                }
                9 if key % 4 == 0 => {
                    live.clear();
                    m.live.clear();
                    m.items = 0;
                    m.bits.clear();
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

        /// Copy on write, on a multiset of a few objects over filters of
        /// 8–32 bits (so a stale bit shows): random first and last
        /// occurrences and snapshots, every snapshot kept. After each
        /// step each kept snapshot still equals the from-scratch
        /// summary of the multiset it was taken of — a write into a
        /// filter that a snapshot shares would change it — and a
        /// snapshot with no bit event and the same item count since the
        /// one before shares that one's filter. Ops: 0 add one
        /// occurrence of `key`, 1 remove one, 2 snapshot.
        #[test]
        fn held_snapshots_never_change(
            ops in proptest::collection::vec((0u32..3, 0u64..5), 0..120),
            capacity in 1usize..5,
        ) {
            let mut bits = SummaryBits::empty(capacity);
            let mut live: BTreeMap<ObjectId, u32> = BTreeMap::new();
            let mut taken: Vec<(ContentSummary, ContentSummary)> = Vec::new();
            let mut bit_event = true;
            for (op, key) in ops {
                let o = ObjectId(key.wrapping_mul(0x9E37_79B9) ^ 7);
                let items: usize = live.values().map(|&n| n as usize).sum();
                match op {
                    0 => {
                        let n = live.entry(o).or_insert(0);
                        *n += 1;
                        if *n == 1 {
                            bits.first_occurrence(o);
                            bit_event = true;
                        }
                    }
                    1 => {
                        if let Some(n) = live.get_mut(&o) {
                            *n -= 1;
                            if *n == 0 {
                                live.remove(&o);
                                bits.last_occurrence_gone();
                                bit_event = true;
                            }
                        }
                    }
                    _ => {
                        let s = bits.snapshot(live.keys().copied(), items);
                        let objs: Vec<ObjectId> = live
                            .iter()
                            .flat_map(|(&o, &n)| std::iter::repeat_n(o, n as usize))
                            .collect();
                        if let (false, Some((last, _))) = (bit_event, taken.last()) {
                            if let (Some(a), Some(b)) = (last.shared_filter(), s.shared_filter()) {
                                prop_assert_eq!(
                                    Arc::ptr_eq(a, b),
                                    last.items() == items,
                                    "no bit event: one filter exactly when the item count held"
                                );
                            }
                        }
                        taken.push((s, ContentSummary::from_objects(capacity, &objs)));
                        bit_event = false;
                    }
                }
                for (i, (s, expect)) in taken.iter().enumerate() {
                    prop_assert_eq!(s, expect, "snapshot {} changed", i);
                }
            }
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
