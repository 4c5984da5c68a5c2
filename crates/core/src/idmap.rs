//! Keyed containers for per-node protocol state.
//!
//! Every key the protocol indexes by is either a dense integer
//! (`NodeId(u32)`, `WebsiteId(u16)`, a query id) or already a
//! `mix64` hash (`ObjectId`). The std default — SipHash-1-3 under a
//! per-process random key — defends against attacker-chosen keys, which
//! a simulator generating its own ids does not have, and costs more
//! than the rest of a table probe put together. This module is the one
//! place the crate's hash tables come from:
//!
//! * [`IdHasher`] — one add-multiply per integer written, fixed seed,
//!   so table layout is the same in every process;
//! * [`IdMap`] / [`IdSet`] — the std tables over that hasher, for the
//!   collections that grow with the overlay (directory index, holder
//!   lists, content sets);
//! * [`SmallMap`] — a linear-scan map for the collections that hold a
//!   handful of entries per node (a node's content roles, its in-flight
//!   queries), where any table is overhead.
//!
//! Hash iteration order was never protocol-visible under the random
//! SipHash key (it differed per process while results did not), and
//! must stay that way now that the order is fixed: consumers that emit
//! anything in iteration order sort first. The `#[cfg(test)]` salt
//! below exists so a test can keep proving it.

use std::hash::{BuildHasherDefault, Hasher};

/// `2^64 / φ`, odd: consecutive integers land maximally far apart in
/// the high bits of the product (Fibonacci hashing).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A product's high bits are its well-mixed ones. hashbrown indexes
/// buckets with the *low* bits of the hash and tags entries with the
/// top 7; rotating by 26 moves product bits 38.. down to the index
/// and leaves bits 31..38 — still above every key's low-entropy end —
/// as the tag.
const ROTATE: u32 = 26;

/// Deterministic hasher for integer-like ids: each `write_*` is one
/// add and one multiply. Not for keys an adversary can choose.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, x: u64) {
        self.0 = self.0.wrapping_add(x).wrapping_mul(GOLDEN);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        #[cfg(test)]
        let h = test_salt::mix(self.0);
        #[cfg(not(test))]
        let h = self.0;
        h.rotate_left(ROTATE)
    }

    /// Byte strings (no key in this crate hashes one): eight bytes per
    /// step.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.add(x as u64);
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.add(x as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.add(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
}

/// A hash map keyed by protocol ids, hashed with [`IdHasher`].
/// Construct with `IdMap::default()`.
#[allow(clippy::disallowed_types)]
pub type IdMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A hash set of protocol ids, hashed with [`IdHasher`]. Construct
/// with `IdSet::default()`.
#[allow(clippy::disallowed_types)]
pub type IdSet<K> = std::collections::HashSet<K, BuildHasherDefault<IdHasher>>;

/// Order-independence harness: a per-thread salt folded into every
/// [`IdHasher::finish`] of the crate's unit tests, so a test can run
/// the same simulation under two different table layouts. (The random
/// SipHash key used to vary the layout on every run for free.) Zero —
/// the default — leaves the production function untouched.
#[cfg(test)]
pub(crate) mod test_salt {
    use std::cell::Cell;

    thread_local! {
        static SALT: Cell<u64> = const { Cell::new(0) };
    }

    /// Run `f` with every table on this thread laid out under `salt`.
    /// Tables must not outlive the call: their keys would be looked up
    /// under a different hash afterwards.
    pub(crate) fn with<T>(salt: u64, f: impl FnOnce() -> T) -> T {
        let prev = SALT.with(|s| s.replace(salt));
        let out = f();
        SALT.with(|s| s.set(prev));
        out
    }

    #[inline]
    pub(super) fn mix(h: u64) -> u64 {
        match SALT.with(Cell::get) {
            0 => h,
            salt => (h ^ salt).wrapping_mul(super::GOLDEN),
        }
    }
}

/// A map for a handful of entries: one contiguous `(key, value)`
/// array scanned linearly. No hashing and no table — the first entry
/// allocates room for exactly one, because one is what a node nearly
/// always holds (one content role, one query in flight).
///
/// Iteration order is insertion order perturbed by removals; like hash
/// order, it must not become protocol-visible.
#[derive(Clone, Debug)]
pub struct SmallMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for SmallMap<K, V> {
    fn default() -> Self {
        SmallMap {
            entries: Vec::new(),
        }
    }
}

impl<K: PartialEq, V> SmallMap<K, V> {
    #[inline]
    fn position(&self, key: &K) -> Option<usize> {
        self.entries.iter().position(|(k, _)| k == key)
    }

    fn push(&mut self, key: K, value: V) {
        if self.entries.capacity() == 0 {
            self.entries.reserve_exact(1);
        }
        self.entries.push((key, value));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Is `key` present?
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.position(key).is_some()
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable access to the value stored under `key`.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Store `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.get_mut(&key) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                self.push(key, value);
                None
            }
        }
    }

    /// Remove and return the value stored under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let at = self.position(key)?;
        Some(self.entries.swap_remove(at).1)
    }

    /// The value under `key`, first storing `make()` there if absent.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let at = match self.position(&key) {
            Some(at) => at,
            None => {
                self.push(key, make());
                self.entries.len() - 1
            }
        };
        &mut self.entries[at].1
    }

    /// Hint the cache that the entry array is about to be scanned
    /// ([`simnet::prefetch`]): its first lines, which hold the one
    /// entry a node nearly always has.
    #[inline]
    pub(crate) fn prefetch(&self) {
        simnet::prefetch(self.entries.as_slice());
    }

    /// The keys, in no protocol-meaningful order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Drop every entry (the allocation is kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloom::ObjectId;
    use simnet::{Locality, NodeId};
    use std::hash::{BuildHasher, Hash};
    use workload::{Catalog, CatalogConfig, WebsiteId};

    fn hash_of<K: Hash>(key: &K) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// hashbrown's two reads of a hash: the low bits pick the bucket,
    /// the top 7 tag the entry. Both must spread: no bucket of the
    /// low `index_bits` above 4× the mean load, and at least 120 of
    /// the 128 tags in use.
    fn assert_spread<K: Hash>(what: &str, keys: &[K], index_bits: u32) {
        let mut buckets = vec![0usize; 1 << index_bits];
        let mut tags = [false; 128];
        for k in keys {
            let h = hash_of(k);
            buckets[(h & ((1 << index_bits) - 1)) as usize] += 1;
            tags[(h >> 57) as usize] = true;
        }
        let mean = keys.len() as f64 / buckets.len() as f64;
        let max = *buckets.iter().max().expect("at least one bucket");
        assert!(
            max as f64 <= 4.0 * mean,
            "{what}: fullest of {} buckets holds {max}, mean {mean:.2}",
            buckets.len()
        );
        let used = tags.iter().filter(|t| **t).count();
        assert!(used >= 120, "{what}: only {used} of 128 tags in use");
    }

    #[test]
    fn id_hasher_spreads_the_keys_the_protocol_uses() {
        // 100k sequential node ids over the low 16 bits (the index of
        // a table their size). The smaller key sets get the index
        // width of a table *their* size — 64 buckets, mean ≈ 10 — a
        // 4×-mean bound over 65 536 buckets would be below one key.
        let nodes: Vec<NodeId> = (0..100_000).map(NodeId).collect();
        assert_spread("sequential NodeIds", &nodes, 16);

        let catalog = Catalog::new(CatalogConfig {
            num_websites: 4,
            active_websites: 4,
            objects_per_website: 200,
            ..Default::default()
        });
        let objects: Vec<ObjectId> = catalog
            .websites()
            .flat_map(|ws| catalog.objects_of(ws))
            .collect();
        assert_eq!(objects.len(), 800);
        assert_spread("catalog ObjectIds", &objects, 6);

        // The paper deployment's petals: 100 websites × 6 localities.
        let petals: Vec<(WebsiteId, Locality)> = (0..100)
            .flat_map(|ws| (0..6).map(move |l| (WebsiteId(ws), Locality(l))))
            .collect();
        assert_spread("(WebsiteId, Locality) petals", &petals, 6);
    }

    #[test]
    fn salt_changes_table_layout_and_zero_is_the_production_function() {
        let order = |salt: u64| {
            test_salt::with(salt, || {
                let set: IdSet<NodeId> = (0..64).map(NodeId).collect();
                set.into_iter().collect::<Vec<_>>()
            })
        };
        assert_eq!(order(0), order(0));
        assert_ne!(order(0), order(0xA5A5_5A5A_DEAD_BEEF));
        assert_eq!(
            hash_of(&NodeId(7)),
            7u64.wrapping_mul(GOLDEN).rotate_left(ROTATE)
        );
    }

    #[test]
    fn byte_strings_hash_too() {
        assert_ne!(hash_of(&"petal"), hash_of(&"petals"));
        assert_ne!(hash_of(&"website-0042"), hash_of(&"website-0043"));
    }

    #[test]
    fn small_map_first_entry_allocates_room_for_one() {
        let mut m: SmallMap<u16, [u64; 32]> = SmallMap::default();
        assert_eq!(m.entries.capacity(), 0);
        m.insert(3, [0; 32]);
        assert_eq!(m.entries.capacity(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `SmallMap` against `std::collections::HashMap` as the
        /// model, compared in full after every step.
        #[test]
        fn small_map_matches_the_std_model(
            ops in proptest::collection::vec((0u8..7, 0u16..6, 0u32..1000), 1..120)
        ) {
            let mut map: SmallMap<u16, u32> = SmallMap::default();
            #[allow(clippy::disallowed_types)]
            let mut model: std::collections::HashMap<u16, u32> = Default::default();
            for (op, k, v) in ops {
                match op {
                    0 => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                    1 => prop_assert_eq!(map.get(&k), model.get(&k)),
                    2 => {
                        if let Some(slot) = map.get_mut(&k) {
                            *slot += v;
                        }
                        if let Some(slot) = model.get_mut(&k) {
                            *slot += v;
                        }
                    }
                    3 => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                    4 => {
                        let got = *map.get_or_insert_with(k, || v);
                        prop_assert_eq!(got, *model.entry(k).or_insert(v));
                    }
                    5 => prop_assert_eq!(map.contains_key(&k), model.contains_key(&k)),
                    _ => {
                        // Rare enough that maps still fill up.
                        if v < 50 {
                            map.clear();
                            model.clear();
                        }
                    }
                }
                prop_assert_eq!(map.len(), model.len());
                prop_assert_eq!(map.is_empty(), model.is_empty());
                let mut keys: Vec<u16> = map.keys().copied().collect();
                keys.sort_unstable();
                let mut model_keys: Vec<u16> = model.keys().copied().collect();
                model_keys.sort_unstable();
                prop_assert_eq!(&keys, &model_keys);
                for k in keys {
                    prop_assert_eq!(map.get(&k), model.get(&k));
                }
            }
        }
    }
}
