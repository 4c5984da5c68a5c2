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
//!   lists);
//! * [`SmallMap`] — a linear-scan map for the collections that hold a
//!   handful of entries per node (a node's content roles, its in-flight
//!   queries), where any table is overhead, grown one entry at a time;
//! * [`RankSet`] — no table at all, for a set of one website's objects
//!   (a content peer's content, a directory entry's object list): an
//!   object id is a bijection of `(website, rank)`
//!   ([`workload::catalog_rank`]), so the set is one bit per rank of
//!   the owner's website, held inline up to rank 127, and a lookup
//!   is a word test where a table probe was a cold miss. Use
//!   [`IdSet`] for a set that mixes websites or keys objects by
//!   anything else; a `RankSet` stays exact for such ids, but keeps
//!   them in a sorted list.
//!
//! Hash iteration order was never protocol-visible under the random
//! SipHash key (it differed per process while results did not), and
//! must stay that way now that the order is fixed: consumers that emit
//! anything in iteration order sort first. The `#[cfg(test)]` salt
//! below exists so a test can keep proving it.

use std::hash::{BuildHasherDefault, Hasher};

use bloom::ObjectId;
use workload::{catalog_id, catalog_rank, WebsiteId};

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
/// array scanned linearly. No hashing and no table, and no slack: the
/// array grows by exactly one entry when a new key finds it full, so
/// it holds as many slots as the map held keys at once since it was
/// last empty — one, nearly always (one content role, one query in
/// flight). A `remove` that leaves entries keeps the slots; one that
/// empties the map, and `clear`, free the array, so a node with no
/// query in flight holds no query buffer.
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
        self.entries.reserve_exact(1);
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
        let (_, value) = self.entries.swap_remove(at);
        if self.entries.is_empty() {
            self.entries = Vec::new();
        }
        Some(value)
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

    /// The entries the array has room for.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// The keys, in no protocol-meaningful order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Drop every entry and the array.
    pub fn clear(&mut self) {
        self.entries = Vec::new();
    }
}

/// Ranks from `RANK_WORDS_MAX · 64` on are spilled, so no id grows a
/// [`RankSet`]'s bits past 8 KiB (the paper's `nb-ob` of 500 needs 8
/// words).
const RANK_WORDS_MAX: usize = 1 << 10;

/// Bit words a [`RankSet`] holds without a heap block: ranks below 128.
const INLINE_WORDS: usize = 2;

/// A [`RankSet`]'s bit words and spill list. `Vec`'s capacity niche
/// tags the variant, so this is no bigger than the `Vec`.
#[derive(Clone, Debug)]
enum Words {
    /// Up to `INLINE_WORDS` bit words and no spill; the words past
    /// `bit_words` are zero.
    Inline([u64; INLINE_WORDS]),
    /// `bit_words` words of rank bits, then the spilled keys, sorted.
    Heap(Vec<u64>),
}

/// An exact set of objects of one website, 32 bytes inline: a bit per
/// catalog rank of the owner's website, grown to the highest rank
/// inserted. Any other id — another website's, a rank past
/// `RANK_WORDS_MAX · 64`, a key that is no catalog id — is kept in a
/// sorted *spill* list after the bit words, in the same allocation.
///
/// Ranks below `INLINE_WORDS · 64` need no allocation: their words
/// live in the set itself. The set moves to one heap block the first
/// time it needs a third bit word or a spilled id, and never moves
/// back.
///
/// Iteration yields the owner's objects in rank order, then the
/// spilled ids in key order; like hash order, neither is a
/// protocol-visible order.
#[derive(Clone, Debug)]
pub struct RankSet {
    words: Words,
    /// Members, bits and spill together.
    len: u32,
    /// How many leading words are rank bits.
    bit_words: u16,
    /// The owner's website: the one whose ranks have bits.
    website: WebsiteId,
}

impl RankSet {
    /// An empty set of `website`'s objects (allocates nothing).
    pub fn new(website: WebsiteId) -> Self {
        RankSet {
            words: Words::Inline([0; INLINE_WORDS]),
            len: 0,
            bit_words: 0,
            website,
        }
    }

    /// `o`'s bit: its rank, if `o` is an object of the owner's website
    /// whose rank the bits cover.
    #[inline]
    fn rank(&self, o: ObjectId) -> Option<usize> {
        match catalog_rank(o) {
            Some((ws, rank)) if ws == self.website && rank < RANK_WORDS_MAX * 64 => Some(rank),
            _ => None,
        }
    }

    /// The bit words, then the spill.
    #[inline]
    fn split(&self) -> (&[u64], &[u64]) {
        let n = self.bit_words as usize;
        match &self.words {
            Words::Inline(w) => (&w[..n], &[]),
            Words::Heap(v) => v.split_at(n),
        }
    }

    /// The words as one heap block with room for `extra` more, moved
    /// out of the set on first use.
    fn heap(&mut self, extra: usize) -> &mut Vec<u64> {
        if let Words::Inline(w) = &self.words {
            let n = self.bit_words as usize;
            let mut v = Vec::with_capacity(n + extra);
            v.extend_from_slice(&w[..n]);
            self.words = Words::Heap(v);
        }
        match &mut self.words {
            Words::Heap(v) => v,
            Words::Inline(_) => unreachable!("moved to the heap above"),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the set holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is `o` a member?
    #[inline]
    pub fn contains(&self, o: ObjectId) -> bool {
        let (bits, spill) = self.split();
        match self.rank(o) {
            Some(r) => bits.get(r / 64).is_some_and(|w| w & (1 << (r % 64)) != 0),
            None => spill.binary_search(&o.0).is_ok(),
        }
    }

    /// Add `o`; true when it was not a member.
    #[inline]
    pub fn insert(&mut self, o: ObjectId) -> bool {
        let n = self.bit_words as usize;
        let added = match self.rank(o) {
            Some(r) => {
                let at = r / 64;
                if at >= n {
                    // An inline word past `bit_words` is zero already.
                    if at >= INLINE_WORDS || matches!(self.words, Words::Heap(_)) {
                        let grow = at + 1 - n;
                        let v = self.heap(grow);
                        v.reserve_exact(grow);
                        v.splice(n..n, std::iter::repeat_n(0, grow));
                    }
                    self.bit_words = (at + 1) as u16;
                }
                let w = match &mut self.words {
                    Words::Inline(w) => &mut w[at],
                    Words::Heap(v) => &mut v[at],
                };
                let bit = 1 << (r % 64);
                let added = *w & bit == 0;
                *w |= bit;
                added
            }
            None => {
                let v = self.heap(1);
                match v[n..].binary_search(&o.0) {
                    Ok(_) => false,
                    Err(i) => {
                        v.insert(n + i, o.0);
                        true
                    }
                }
            }
        };
        self.len += u32::from(added);
        added
    }

    /// Drop `o`; true when it was a member. The bit words are kept.
    #[inline]
    pub fn remove(&mut self, o: ObjectId) -> bool {
        let n = self.bit_words as usize;
        let removed = match (self.rank(o), &mut self.words) {
            (Some(r), Words::Inline(w)) => clear_bit(&mut w[..n], r),
            (Some(r), Words::Heap(v)) => clear_bit(&mut v[..n], r),
            (None, Words::Inline(_)) => false,
            (None, Words::Heap(v)) => match v[n..].binary_search(&o.0) {
                Ok(i) => {
                    v.remove(n + i);
                    true
                }
                Err(_) => false,
            },
        };
        self.len -= u32::from(removed);
        removed
    }

    /// The members: the owner's objects by rank, then the spill by key.
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        let (bits, spill) = self.split();
        let ws = self.website;
        bits.iter()
            .enumerate()
            .flat_map(move |(i, &word)| {
                let mut w = word;
                std::iter::from_fn(move || {
                    (w != 0).then(|| {
                        let bit = w.trailing_zeros() as usize;
                        w &= w - 1;
                        catalog_id(ws, i * 64 + bit)
                    })
                })
            })
            .chain(spill.iter().map(|&k| ObjectId(k)))
    }

    /// True while the set holds no heap block.
    #[cfg(test)]
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self.words, Words::Inline(_))
    }
}

/// Clear rank `r`'s bit in `bits`; true when it was set.
#[inline]
fn clear_bit(bits: &mut [u64], r: usize) -> bool {
    match bits.get_mut(r / 64) {
        Some(w) if *w & (1 << (r % 64)) != 0 => {
            *w &= !(1 << (r % 64));
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Locality, NodeId};
    use std::hash::{BuildHasher, Hash};
    use workload::{Catalog, CatalogConfig};

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
        assert_eq!(m.capacity(), 0);
        m.insert(3, [0; 32]);
        assert_eq!(m.capacity(), 1);
    }

    #[test]
    fn small_map_grows_by_exactly_one_entry() {
        let mut m: SmallMap<u16, [u64; 32]> = SmallMap::default();
        assert_eq!(m.capacity(), 0);
        for k in 1..=6 {
            m.insert(k, [0; 32]);
            assert_eq!(m.capacity(), usize::from(k), "after {k} inserts");
        }
        m.insert(3, [1; 32]);
        assert_eq!(m.capacity(), 6, "a present key takes no slot");
        m.remove(&2);
        m.remove(&5);
        assert_eq!((m.len(), m.capacity()), (4, 6), "remove keeps the slots");
        m.insert(7, [0; 32]);
        assert_eq!(m.capacity(), 6, "a freed slot is reused");
    }

    /// A set of ranks below `INLINE_WORDS · 64` holds no heap block,
    /// however often its members come and go; one rank past that, or
    /// one spilled id, moves it to the heap for good.
    #[test]
    fn a_rank_set_below_the_inline_limit_holds_no_heap_block() {
        let ws = WebsiteId(3);
        let mut set = RankSet::new(ws);
        for r in (0..INLINE_WORDS * 64).rev() {
            assert!(set.insert(catalog_id(ws, r)));
        }
        for r in (0..INLINE_WORDS * 64).step_by(3) {
            assert!(set.remove(catalog_id(ws, r)));
        }
        assert!(!set.remove(catalog_id(WebsiteId(4), 5)));
        assert!(!set.contains(ObjectId(7)));
        assert!(set.is_inline() && set.clone().is_inline());
        assert_eq!(
            set.len(),
            INLINE_WORDS * 64 - (INLINE_WORDS * 64).div_ceil(3)
        );

        let mut spilled = set.clone();
        spilled.insert(ObjectId(7));
        spilled.remove(ObjectId(7));
        set.insert(catalog_id(ws, INLINE_WORDS * 64));
        set.remove(catalog_id(ws, INLINE_WORDS * 64));
        assert!(!set.is_inline() && !spilled.is_inline(), "never moves back");
        assert!(set.iter().eq(spilled.iter()));
    }

    /// An idle node holds no buffer: emptied by `remove` or by
    /// `clear`, a map holds no allocation, and its next entry
    /// allocates room for one again.
    #[test]
    fn an_emptied_small_map_holds_no_allocation() {
        let mut m: SmallMap<u16, [u64; 32]> = SmallMap::default();
        for k in 1..=3 {
            m.insert(k, [0; 32]);
        }
        m.remove(&1);
        m.remove(&3);
        assert_eq!(m.capacity(), 3, "a map left with an entry keeps its slots");
        m.remove(&2);
        assert_eq!(m.capacity(), 0, "emptied by remove");
        m.insert(4, [0; 32]);
        assert_eq!(m.capacity(), 1);
        m.insert(5, [0; 32]);
        m.clear();
        assert_eq!((m.len(), m.capacity()), (0, 0), "emptied by clear");
        assert_eq!(m.remove(&4), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// What the oracle below draws from: ids of the owner's website 3
    /// and of website 4 at ranks either side of a word boundary and of
    /// the inline limit, at the paper's last rank (`nb-ob` − 1) and
    /// either side of the spill rank, and keys that are no catalog id.
    fn rank_set_pool() -> Vec<ObjectId> {
        let ranks = [
            0,
            1,
            63,
            64,
            INLINE_WORDS * 64 - 1,
            INLINE_WORDS * 64,
            499,
            RANK_WORDS_MAX * 64 - 1,
            RANK_WORDS_MAX * 64,
        ];
        let made_up = [3, 7919 * 5 + 3, u64::MAX / 5, u64::MAX].map(ObjectId);
        [3, 4]
            .into_iter()
            .flat_map(|ws| ranks.map(|r| catalog_id(WebsiteId(ws), r)))
            .chain(made_up)
            .collect()
    }

    proptest! {
        /// `RankSet` against `BTreeSet<ObjectId>` as the model: the
        /// same `insert`/`remove` answers, and after every step the
        /// same `contains` for the whole pool, the same `len`, and the
        /// model's members iterated once each — bits by rank, then the
        /// spill by key. The set is inline exactly while it has never
        /// held a rank from `INLINE_WORDS · 64` on or a spilled id.
        #[test]
        fn rank_set_matches_the_btree_model(
            ops in proptest::collection::vec((0u8..3, 0usize..22), 1..150)
        ) {
            let pool = rank_set_pool();
            let mut set = RankSet::new(WebsiteId(3));
            let mut model: BTreeSet<ObjectId> = BTreeSet::new();
            let mut ever_past_inline = false;
            for (op, i) in ops {
                let o = pool[i];
                match op {
                    0 => {
                        ever_past_inline |= set.rank(o).is_none_or(|r| r >= INLINE_WORDS * 64);
                        prop_assert_eq!(set.insert(o), model.insert(o));
                    }
                    1 => prop_assert_eq!(set.remove(o), model.remove(&o)),
                    _ => prop_assert_eq!(set.contains(o), model.contains(&o)),
                }
                prop_assert_eq!(set.is_inline(), !ever_past_inline);
                for o in &pool {
                    prop_assert_eq!(set.contains(*o), model.contains(o));
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
                let mut expect: Vec<ObjectId> = model.iter().copied().collect();
                expect.sort_by_key(|o| (set.rank(*o).is_none(), set.rank(*o), o.key()));
                prop_assert_eq!(set.iter().collect::<Vec<_>>(), expect);
            }
        }

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
                if map.is_empty() {
                    prop_assert_eq!(map.capacity(), 0, "an empty map holds no array");
                }
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
