//! Bounded, age-tracked partial views (paper §4.2, Algorithm 4).

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
/// (`Vgossip` in the paper) entries, one per distinct peer.
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
            self.entries.push(ViewEntry::fresh(peer, data));
            self.truncate_to_recent();
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
    pub fn merge(&mut self, myself: P, partner: ViewEntry<P, S>, subset: Vec<ViewEntry<P, S>>) {
        for incoming in subset.into_iter().chain(std::iter::once(partner)) {
            if incoming.peer == myself {
                continue;
            }
            match self.entries.iter_mut().find(|e| e.peer == incoming.peer) {
                Some(existing) => {
                    if incoming.age < existing.age {
                        *existing = incoming;
                    }
                }
                None => self.entries.push(incoming),
            }
        }
        self.truncate_to_recent();
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

    /// Keep only the `capacity` most recent (lowest-age) entries.
    /// Stable: among equal ages, earlier entries win.
    fn truncate_to_recent(&mut self) {
        if self.entries.len() > self.capacity {
            self.entries.sort_by_key(|e| e.age);
            self.entries.truncate(self.capacity);
        }
    }

    /// All contacts currently in the view.
    pub fn peers(&self) -> Vec<P> {
        self.entries.iter().map(|e| e.peer).collect()
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
