//! Cache replacement policies for content peers.
//!
//! The paper assumes "a content peer has enough storage potential to
//! avoid replacing its content through the experiment's duration"
//! (§6.1) and defers cache expiration/replacement to future work
//! (§8, footnote 1). This module implements that future work: bounded
//! per-peer caches with classic replacement policies. Evictions flow
//! through the normal change log, so pushes keep the directory index
//! consistent (∆list removals) and stale redirects exercise the §5.1
//! retry machinery.

use bloom::ObjectId;

use crate::idmap::IdMap;

/// Which object to evict when a bounded cache overflows.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CachePolicy {
    /// The paper's evaluation model: nothing is ever evicted.
    #[default]
    Unbounded,
    /// Evict the least recently used object.
    Lru,
    /// Evict the least frequently used object (ties broken by
    /// recency).
    Lfu,
}

/// Replacement bookkeeping for one content peer's cache.
///
/// Tracks access order and frequency; the owning
/// [`crate::content::ContentPeerState`] consults it on insertion to
/// decide evictions. An unbounded cache never evicts, so it tracks
/// nothing: the only reader of the per-object bookkeeping is victim
/// selection.
#[derive(Clone, Debug)]
pub struct CacheManager {
    policy: CachePolicy,
    /// Maximum objects held (ignored when unbounded).
    capacity: usize,
    /// Logical clock advanced on every touch.
    clock: u64,
    /// Per-object (last-touch, frequency); empty when unbounded.
    meta: IdMap<ObjectId, (u64, u64)>,
}

impl CacheManager {
    /// A manager with the given policy; `capacity` bounds the cache
    /// for the bounded policies.
    pub fn new(policy: CachePolicy, capacity: usize) -> Self {
        if policy != CachePolicy::Unbounded {
            assert!(capacity > 0, "bounded cache needs positive capacity");
        }
        CacheManager {
            policy,
            capacity,
            clock: 0,
            meta: IdMap::default(),
        }
    }

    /// The paper's unbounded behaviour.
    pub fn unbounded() -> Self {
        CacheManager::new(CachePolicy::Unbounded, 0)
    }

    /// The configured policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// The configured capacity (meaningless when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record an access (hit or insertion) of `o`.
    pub fn touch(&mut self, o: ObjectId) {
        self.clock += 1;
        if self.policy == CachePolicy::Unbounded {
            return;
        }
        let e = self.meta.entry(o).or_insert((0, 0));
        e.0 = self.clock;
        e.1 += 1;
    }

    /// Forget an object (evicted or dropped externally).
    pub fn forget(&mut self, o: ObjectId) {
        self.meta.remove(&o);
    }

    /// Called before inserting a new object into a cache currently
    /// holding `len` objects: returns the object to evict, if the
    /// bound requires one.
    pub fn evict_for_insert(&mut self, len: usize) -> Option<ObjectId> {
        if self.policy == CachePolicy::Unbounded || len < self.capacity {
            return None;
        }
        let victim = match self.policy {
            CachePolicy::Unbounded => unreachable!(),
            CachePolicy::Lru => self
                .meta
                .iter()
                .min_by_key(|(o, (last, _))| (*last, o.key()))
                .map(|(o, _)| *o),
            CachePolicy::Lfu => self
                .meta
                .iter()
                .min_by_key(|(o, (last, freq))| (*freq, *last, o.key()))
                .map(|(o, _)| *o),
        };
        if let Some(v) = victim {
            self.meta.remove(&v);
        }
        victim
    }

    /// Number of tracked objects (always 0 when unbounded).
    pub fn tracked(&self) -> usize {
        self.meta.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ObjectId = ObjectId(1);
    const B: ObjectId = ObjectId(2);
    const C: ObjectId = ObjectId(3);

    #[test]
    fn unbounded_never_evicts() {
        let mut m = CacheManager::unbounded();
        for i in 0..1000u64 {
            m.touch(ObjectId(i));
            assert_eq!(m.evict_for_insert(i as usize), None);
        }
        assert_eq!(m.tracked(), 0, "nothing to evict, nothing to track");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut m = CacheManager::new(CachePolicy::Lru, 2);
        m.touch(A);
        m.touch(B);
        m.touch(A); // A is now more recent than B.
        assert_eq!(m.evict_for_insert(2), Some(B));
        m.touch(C);
        // Cache now {A, C}; A was touched before C.
        assert_eq!(m.evict_for_insert(2), Some(A));
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut m = CacheManager::new(CachePolicy::Lfu, 2);
        m.touch(A);
        m.touch(A);
        m.touch(A);
        m.touch(B);
        m.touch(B);
        m.touch(C); // C: freq 1 → victim.
        assert_eq!(m.evict_for_insert(3), Some(C));
    }

    #[test]
    fn lfu_ties_break_by_recency() {
        let mut m = CacheManager::new(CachePolicy::Lfu, 2);
        m.touch(A); // freq 1, older
        m.touch(B); // freq 1, newer
        assert_eq!(m.evict_for_insert(2), Some(A));
    }

    #[test]
    fn no_eviction_below_capacity() {
        let mut m = CacheManager::new(CachePolicy::Lru, 5);
        m.touch(A);
        assert_eq!(m.evict_for_insert(1), None);
        assert_eq!(m.evict_for_insert(4), None);
        m.touch(B);
        assert!(m.evict_for_insert(5).is_some());
    }

    #[test]
    fn forget_removes_from_tracking() {
        let mut m = CacheManager::new(CachePolicy::Lru, 1);
        m.touch(A);
        m.forget(A);
        assert_eq!(m.tracked(), 0);
        // Nothing to evict even though len says full (external state).
        assert_eq!(m.evict_for_insert(1), None);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn bounded_zero_capacity_rejected() {
        let _ = CacheManager::new(CachePolicy::Lfu, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Under any access pattern, a bounded LRU manager holds at
        /// most `cap` objects if the caller inserts/evicts as told.
        #[test]
        fn lru_respects_capacity(accesses in proptest::collection::vec(0u64..30, 1..200), cap in 1usize..10) {
            let mut m = CacheManager::new(CachePolicy::Lru, cap);
            let mut cache: crate::idmap::IdSet<ObjectId> = Default::default();
            for a in accesses {
                let o = ObjectId(a);
                if cache.contains(&o) {
                    m.touch(o);
                    continue;
                }
                if let Some(v) = m.evict_for_insert(cache.len()) {
                    prop_assert!(cache.remove(&v), "evicted object not in cache");
                }
                cache.insert(o);
                m.touch(o);
                prop_assert!(cache.len() <= cap);
            }
        }

        /// The evicted LRU victim is never the most recently touched
        /// object.
        #[test]
        fn lru_never_evicts_most_recent(objs in proptest::collection::vec(0u64..20, 2..50)) {
            let mut m = CacheManager::new(CachePolicy::Lru, 1);
            let mut last = None;
            for a in objs {
                let o = ObjectId(a);
                m.touch(o);
                last = Some(o);
            }
            if let Some(v) = m.evict_for_insert(5) {
                // capacity 1 with several touched: victim != last touched
                // (unless only one distinct object was ever touched).
                if m.tracked() > 0 {
                    prop_assert_ne!(Some(v), last);
                }
            }
        }
    }
}
