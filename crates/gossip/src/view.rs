//! Bounded, age-tracked partial views (paper §4.2, Algorithm 4).
//!
//! A [`View`] holds exactly what Algorithm 4 bounds it to: its buffer
//! is allocated for `Vgossip` entries on the first insert and never
//! grows past them. `merge` and `insert_fresh` decide every incoming
//! entry on `(peer, age)` before moving it, and place a newcomer into
//! a full view where a stable sort by age would put it, so the result
//! is the same as appending everything, sorting and truncating to the
//! `Vgossip` most recent — which is what the `#[cfg(test)]`
//! `reference` below does, and what the oracle proptest compares
//! against.

use rand::seq::SliceRandom;
use rand::Rng;

/// One view entry: a contact, the age of the entry, and an
/// application payload (Flower-CDN: the contact's content summary).
///
/// Per the paper, the age denotes "the age of the entry since the
/// moment it was created", *not* the contact's lifetime: it is reset
/// to zero whenever fresh information about the contact arrives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewEntry<P, S> {
    /// The contact this entry describes.
    pub peer: P,
    /// Gossip-period ticks since this entry was last refreshed.
    pub age: u32,
    /// Application payload (e.g. a content summary).
    pub data: S,
}

impl<P, S> ViewEntry<P, S> {
    /// A fresh (age-zero) entry.
    pub fn fresh(peer: P, data: S) -> Self {
        ViewEntry { peer, age: 0, data }
    }
}

/// A bounded partial view of an overlay: at most `capacity`
/// (`Vgossip` in the paper) entries, one per distinct peer, in a
/// buffer of exactly `capacity` slots once anything was inserted.
#[derive(Clone, Debug)]
pub struct View<P, S> {
    entries: Vec<ViewEntry<P, S>>,
    capacity: usize,
}

impl<P: Copy + Eq, S: Clone> View<P, S> {
    /// An empty view bounded by `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        View {
            entries: Vec::new(),
            capacity,
        }
    }

    /// The bound `Vgossip`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the view has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &ViewEntry<P, S>> {
        self.entries.iter()
    }

    /// Find a contact's entry.
    pub fn get(&self, peer: P) -> Option<&ViewEntry<P, S>> {
        self.entries.iter().find(|e| e.peer == peer)
    }

    /// True if the view knows `peer`.
    pub fn contains(&self, peer: P) -> bool {
        self.get(peer).is_some()
    }

    /// Paper: "periodically, the peer increments by 1 the age of all
    /// its view entries".
    pub fn increment_ages(&mut self) {
        for e in &mut self.entries {
            e.age = e.age.saturating_add(1);
        }
    }

    /// `select_oldest()` of Algorithm 4: the contact with the highest
    /// age (ties broken by position, i.e. insertion order).
    pub fn select_oldest(&self) -> Option<&ViewEntry<P, S>> {
        self.entries.iter().max_by_key(|e| e.age)
    }

    /// `select_subset()` of Algorithm 4: a uniform random subset of up
    /// to `l` (`Lgossip`) entries, by reference — the caller clones
    /// what it sends.
    pub fn select_subset<R: Rng>(&self, rng: &mut R, l: usize) -> Vec<&ViewEntry<P, S>> {
        let mut idx: Vec<usize> = (0..self.entries.len()).collect();
        idx.shuffle(rng);
        idx.truncate(l);
        idx.into_iter().map(|i| &self.entries[i]).collect()
    }

    /// Insert `peer` fresh (age 0) or refresh its entry with new data.
    pub fn insert_fresh(&mut self, peer: P, data: S) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.peer == peer) {
            e.age = 0;
            e.data = data;
        } else {
            self.admit(std::iter::once(ViewEntry::fresh(peer, data)));
        }
    }

    /// Remove a contact (dead peer, or a peer that changed locality;
    /// §5.4). Returns true if it was present.
    pub fn remove(&mut self, peer: P) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.peer != peer);
        self.entries.len() != before
    }

    /// `merge()` + `select_recent()` of Algorithm 4: fold the received
    /// `subset` and the fresh `partner` entry into the local view.
    /// Duplicates keep the instance with the smallest age; entries
    /// describing `myself` are discarded; finally the `Vgossip` most
    /// recent entries are kept.
    ///
    /// Every incoming entry is decided on `(peer, age)` first: a known
    /// peer's entry is replaced in place by a strictly younger one, and
    /// the newcomers — each peer's first youngest instance, in arrival
    /// order — are compacted to the front of `subset`'s own buffer.
    /// Only then are they admitted.
    pub fn merge(
        &mut self,
        myself: P,
        mut partner: ViewEntry<P, S>,
        mut subset: Vec<ViewEntry<P, S>>,
    ) {
        let mut fresh = 0;
        for i in 0..subset.len() {
            let (newcomers, rest) = subset.split_at_mut(i);
            let incoming = &mut rest[0];
            if incoming.peer == myself
                || refresh(&mut self.entries, incoming)
                || refresh(&mut newcomers[..fresh], incoming)
            {
                continue;
            }
            subset.swap(fresh, i);
            fresh += 1;
        }
        let partner_is_new = partner.peer != myself
            && !refresh(&mut self.entries, &mut partner)
            && !refresh(&mut subset[..fresh], &mut partner);
        subset.truncate(fresh);
        self.admit(subset.into_iter().chain(partner_is_new.then_some(partner)));
    }

    /// Add `newcomers` (peers not in the view), in order, as appending
    /// them all, stable-sorting by age and truncating to `capacity`
    /// would: appended while there is room; once the view is full, it
    /// is sorted by age and each remaining newcomer goes after the
    /// last entry of its age or younger, pushing the last entry out
    /// (or falling out itself if it would land past the end).
    fn admit(&mut self, newcomers: impl IntoIterator<Item = ViewEntry<P, S>>) {
        let mut newcomers = newcomers.into_iter().peekable();
        while self.entries.len() < self.capacity {
            let Some(e) = newcomers.next() else {
                return;
            };
            if self.entries.len() == self.entries.capacity() {
                // The first insert — or one into a clone, which holds
                // only its length — takes the whole bound at once.
                self.entries
                    .reserve_exact(self.capacity - self.entries.len());
            }
            self.entries.push(e);
        }
        if newcomers.peek().is_none() {
            return;
        }
        self.entries.sort_by_key(|e| e.age);
        for e in newcomers {
            let at = self.entries.partition_point(|x| x.age <= e.age);
            if at < self.capacity {
                self.entries.pop();
                self.entries.insert(at, e);
            }
        }
    }

    /// Remove every entry whose age is `>= t_dead`, returning the
    /// evicted contacts (failure detection; §5.1's `Tdead`).
    pub fn evict_older_than(&mut self, t_dead: u32) -> Vec<P> {
        let mut dead = Vec::new();
        self.entries.retain(|e| {
            if e.age >= t_dead {
                dead.push(e.peer);
                false
            } else {
                true
            }
        });
        dead
    }

    /// All contacts currently in the view.
    pub fn peers(&self) -> Vec<P> {
        self.entries.iter().map(|e| e.peer).collect()
    }
}

/// If `known` holds `incoming`'s peer, keep the younger of the two
/// there — a strictly younger `incoming` swaps in, so what is left in
/// `incoming` is the loser either way — and return true.
fn refresh<P: Eq, S>(known: &mut [ViewEntry<P, S>], incoming: &mut ViewEntry<P, S>) -> bool {
    match known.iter_mut().find(|e| e.peer == incoming.peer) {
        Some(e) => {
            if incoming.age < e.age {
                std::mem::swap(e, incoming);
            }
            true
        }
        None => false,
    }
}

/// The view's mutations as they were first written, kept as the oracle
/// of the in-place ones: push every newcomer, then stable-sort by age
/// and truncate to the bound. The buffer grows past `capacity` on the
/// way.
#[cfg(test)]
mod reference {
    use super::{View, ViewEntry};

    fn truncate_to_recent<P, S>(v: &mut View<P, S>) {
        if v.entries.len() > v.capacity {
            v.entries.sort_by_key(|e| e.age);
            v.entries.truncate(v.capacity);
        }
    }

    pub(super) fn insert_fresh<P: Copy + Eq, S>(v: &mut View<P, S>, peer: P, data: S) {
        if let Some(e) = v.entries.iter_mut().find(|e| e.peer == peer) {
            e.age = 0;
            e.data = data;
        } else {
            v.entries.push(ViewEntry::fresh(peer, data));
            truncate_to_recent(v);
        }
    }

    pub(super) fn merge<P: Copy + Eq, S>(
        v: &mut View<P, S>,
        myself: P,
        partner: ViewEntry<P, S>,
        subset: Vec<ViewEntry<P, S>>,
    ) {
        for incoming in subset.into_iter().chain(std::iter::once(partner)) {
            if incoming.peer == myself {
                continue;
            }
            match v.entries.iter_mut().find(|e| e.peer == incoming.peer) {
                Some(existing) => {
                    if incoming.age < existing.age {
                        *existing = incoming;
                    }
                }
                None => v.entries.push(incoming),
            }
        }
        truncate_to_recent(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type V = View<u32, &'static str>;

    fn view_with(peers: &[(u32, u32)]) -> V {
        // (peer, age) pairs.
        let mut v = V::new(10);
        for &(p, age) in peers {
            v.insert_fresh(p, "s");
            if let Some(e) = v.entries.last_mut() {
                e.age = age;
            }
            if let Some(e) = v.entries.iter_mut().find(|e| e.peer == p) {
                e.age = age;
            }
        }
        v
    }

    #[test]
    fn insert_and_refresh() {
        let mut v = V::new(5);
        v.insert_fresh(1, "a");
        v.increment_ages();
        assert_eq!(v.get(1).unwrap().age, 1);
        v.insert_fresh(1, "b");
        assert_eq!(v.get(1).unwrap().age, 0);
        assert_eq!(v.get(1).unwrap().data, "b");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn select_oldest_picks_max_age() {
        let v = view_with(&[(1, 3), (2, 7), (3, 5)]);
        assert_eq!(v.select_oldest().unwrap().peer, 2);
    }

    #[test]
    fn select_subset_bounds() {
        let v = view_with(&[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(v.select_subset(&mut rng, 2).len(), 2);
        assert_eq!(v.select_subset(&mut rng, 10).len(), 4);
        assert_eq!(v.select_subset(&mut rng, 0).len(), 0);
        // Subset entries are distinct peers.
        let s = v.select_subset(&mut rng, 4);
        let mut peers: Vec<u32> = s.iter().map(|e| e.peer).collect();
        peers.sort_unstable();
        peers.dedup();
        assert_eq!(peers.len(), 4);
    }

    #[test]
    fn merge_keeps_min_age_and_skips_self() {
        let mut v = view_with(&[(1, 5), (2, 2)]);
        let partner = ViewEntry::fresh(3, "p");
        let subset = vec![
            ViewEntry {
                peer: 1,
                age: 1,
                data: "new",
            }, // fresher than local
            ViewEntry {
                peer: 2,
                age: 9,
                data: "old",
            }, // staler than local
            ViewEntry {
                peer: 99,
                age: 0,
                data: "me",
            }, // self, must be skipped
        ];
        v.merge(99, partner, subset);
        assert_eq!(v.get(1).unwrap().age, 1);
        assert_eq!(v.get(1).unwrap().data, "new");
        assert_eq!(v.get(2).unwrap().age, 2);
        assert_eq!(v.get(2).unwrap().data, "s");
        assert!(v.contains(3));
        assert!(!v.contains(99));
    }

    #[test]
    fn merge_respects_capacity_keeping_recent() {
        let mut v = View::<u32, ()>::new(3);
        for p in 0..3 {
            v.insert_fresh(p, ());
        }
        // ages: all 0 → bump to make 0 the oldest
        v.increment_ages();
        if let Some(e) = v.entries.iter_mut().find(|e| e.peer == 0) {
            e.age = 10;
        }
        v.merge(99, ViewEntry::fresh(7, ()), vec![]);
        assert_eq!(v.len(), 3);
        assert!(!v.contains(0), "oldest entry evicted");
        assert!(v.contains(7));
    }

    #[test]
    fn evict_older_than_returns_dead() {
        let mut v = view_with(&[(1, 10), (2, 3), (3, 10)]);
        let dead = v.evict_older_than(10);
        assert_eq!(dead, vec![1, 3]);
        assert_eq!(v.len(), 1);
        assert!(v.contains(2));
    }

    #[test]
    fn remove_contact() {
        let mut v = view_with(&[(1, 0), (2, 0)]);
        assert!(v.remove(1));
        assert!(!v.remove(1));
        assert_eq!(v.peers(), vec![2]);
    }

    #[test]
    fn age_saturates() {
        let mut v = view_with(&[(1, u32::MAX - 1)]);
        v.increment_ages();
        v.increment_ages();
        assert_eq!(v.get(1).unwrap().age, u32::MAX);
    }

    /// The buffer is the bound from the first insert on: filling the
    /// view, overflowing it from either entry point, and refilling a
    /// clone never reallocate past `capacity` slots.
    #[test]
    fn the_buffer_holds_exactly_capacity_slots() {
        let mut v = View::<u32, ()>::new(10);
        assert_eq!(v.entries.capacity(), 0);
        v.insert_fresh(1, ());
        assert_eq!(v.entries.capacity(), 10);
        let subset = (2..20).map(|p| ViewEntry::fresh(p, ())).collect();
        v.merge(0, ViewEntry::fresh(20, ()), subset);
        for p in 21..30 {
            v.insert_fresh(p, ());
        }
        assert_eq!((v.len(), v.entries.capacity()), (10, 10));
        v.remove(1);
        let mut c = v.clone();
        c.insert_fresh(31, ());
        c.merge(0, ViewEntry::fresh(32, ()), vec![]);
        assert_eq!((c.len(), c.entries.capacity()), (10, 10));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = View::<u32, ()>::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arb_entries() -> impl Strategy<Value = Vec<ViewEntry<u16, u8>>> {
        proptest::collection::vec(
            (any::<u16>(), 0u32..100, any::<u8>()).prop_map(|(p, age, d)| ViewEntry {
                peer: p,
                age,
                data: d,
            }),
            0..60,
        )
    }

    #[derive(Clone, Debug)]
    enum Op {
        InsertFresh(u8, u8),
        Merge {
            myself: u8,
            partner: ViewEntry<u8, u8>,
            subset: Vec<ViewEntry<u8, u8>>,
        },
        IncrementAges,
        Remove(u8),
        EvictOlderThan(u32),
        SelectSubset(usize, u64),
    }

    /// An entry of a 16-peer pool with one of six ages.
    fn arb_entry() -> impl Strategy<Value = ViewEntry<u8, u8>> {
        (0u8..16, 0u32..6, any::<u8>()).prop_map(|(peer, age, data)| ViewEntry { peer, age, data })
    }

    /// One operation; the weights favour merges and ageing, so views
    /// fill, overflow and tie.
    fn arb_op() -> impl Strategy<Value = Op> {
        let parts = (
            0u8..13,
            arb_entry(),
            arb_entry(),
            proptest::collection::vec(arb_entry(), 0..10),
            any::<u64>(),
        );
        parts.prop_map(|(kind, e, partner, subset, seed)| match kind {
            0..=2 => Op::InsertFresh(e.peer, e.data),
            3..=6 => Op::Merge {
                myself: e.peer,
                partner,
                subset,
            },
            7..=9 => Op::IncrementAges,
            10 => Op::Remove(e.peer),
            11 => Op::EvictOlderThan(2 + e.age),
            _ => Op::SelectSubset(e.data as usize % 8, seed),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The in-place `insert_fresh` and `merge` against the
        /// push-sort-truncate `reference`, over random operation
        /// sequences on a small peer pool (so merges meet self entries,
        /// duplicates inside one subset, partners already in the view,
        /// and subsets that overflow the view and ones that fit) with
        /// few distinct ages (so ties decide placement): after every
        /// step both views hold the same entries in the same order, and
        /// the in-place buffer never holds more than `capacity` slots.
        #[test]
        fn in_place_mutations_match_the_reference(
            cap in 1usize..12,
            ops in proptest::collection::vec(arb_op(), 1..80),
        ) {
            let mut v: View<u8, u8> = View::new(cap);
            let mut model: View<u8, u8> = View::new(cap);
            for op in ops {
                match op {
                    Op::InsertFresh(peer, data) => {
                        v.insert_fresh(peer, data);
                        reference::insert_fresh(&mut model, peer, data);
                    }
                    Op::Merge { myself, partner, subset } => {
                        v.merge(myself, partner.clone(), subset.clone());
                        reference::merge(&mut model, myself, partner, subset);
                    }
                    Op::IncrementAges => {
                        v.increment_ages();
                        model.increment_ages();
                    }
                    Op::Remove(peer) => prop_assert_eq!(v.remove(peer), model.remove(peer)),
                    Op::EvictOlderThan(t) => {
                        prop_assert_eq!(v.evict_older_than(t), model.evict_older_than(t))
                    }
                    Op::SelectSubset(l, seed) => {
                        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                        prop_assert_eq!(v.select_subset(&mut a, l), model.select_subset(&mut b, l));
                    }
                }
                prop_assert_eq!(&v.entries, &model.entries);
                prop_assert!(v.entries.capacity() <= cap, "buffer of {} slots", v.entries.capacity());
            }
        }
    }

    proptest! {
        /// After any merge: size ≤ capacity, no duplicate peers, no
        /// self entry.
        #[test]
        fn merge_invariants(local in arb_entries(), incoming in arb_entries(), cap in 1usize..20, myself in any::<u16>()) {
            let mut v = View::new(cap);
            for e in local {
                if e.peer != myself {
                    v.insert_fresh(e.peer, e.data);
                }
            }
            v.merge(myself, ViewEntry::fresh(myself.wrapping_add(1), 0), incoming);
            prop_assert!(v.len() <= cap);
            prop_assert!(!v.contains(myself));
            let mut peers = v.peers();
            peers.sort_unstable();
            let n = peers.len();
            peers.dedup();
            prop_assert_eq!(peers.len(), n, "duplicate peers after merge");
        }

        /// select_subset returns at most min(l, len) distinct entries
        /// drawn from the view.
        #[test]
        fn subset_drawn_from_view(entries in arb_entries(), l in 0usize..30, seed in any::<u64>()) {
            let mut v = View::new(64);
            for e in &entries {
                v.insert_fresh(e.peer, e.data);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let s = v.select_subset(&mut rng, l);
            prop_assert!(s.len() <= l.min(v.len()));
            for e in &s {
                prop_assert!(v.contains(e.peer));
            }
        }
    }
}
