//! The content peer (§4, Algorithms 4–5).
//!
//! A content peer `c_{ws,loc}` keeps the objects of `ws` it has
//! requested, and participates in its overlay's gossip:
//!
//! * **content-list** — the objects currently held, with a change log
//!   feeding the push protocol (Algorithm 5);
//! * **view** — a bounded partial view of the overlay
//!   ([`gossip::View`]), each entry carrying the contact's content
//!   summary, maintained by the active/passive exchange of
//!   Algorithm 4;
//! * **directory entry** — a special (address, age) entry for
//!   `d_{ws,loc}`, piggybacked on every gossip exchange so directory
//!   replacements propagate epidemically (§4.2.1, §5.2).
//!
//! Once a client has become a content peer, "any subsequent queries
//! use the content overlay instead of the D-ring" (§3.4): the local
//! search order is own content → view summaries → directory peer.

use bloom::{ContentSummary, ObjectId, SummaryBits};
use gossip::{ChangeKind, ChangeLog, PushPolicy, View, ViewEntry};
use rand::Rng;
use simnet::{Locality, NodeId};
use workload::WebsiteId;

use crate::cache::{CacheManager, CachePolicy};
use crate::idmap::RankSet;
use crate::msg::{GossipEntry, GossipPayload};

/// State of one content-peer role (one per website the node supports).
#[derive(Clone, Debug)]
pub struct ContentPeerState {
    website: WebsiteId,
    /// The overlay's locality: overlays are scoped by (website,
    /// locality), and gossip must never leak across localities.
    locality: Locality,
    /// The objects held (the content-list): a bit per catalog rank of
    /// `website`, so `has`, an admit and an evict test one word.
    content: RankSet,
    /// Replacement bookkeeping of a bounded cache; `None` under
    /// [`CachePolicy::Unbounded`], which never evicts and so keeps
    /// none.
    cache: Option<Box<CacheManager>>,
    /// The changes not pushed yet (Algorithm 5's ∆list); `None` while
    /// there is none, so a role with nothing to report holds no log.
    changes: Option<Box<ChangeLog<ObjectId>>>,
    view: View<NodeId, Option<ContentSummary>>,
    dir: Option<NodeId>,
    dir_age: u32,
    /// §5.3 PetalUp: how many directory instances the petal had live
    /// when our directory last told us (1 = base design). Lets the
    /// peer re-derive its hash-assigned instance and ignore gossip
    /// hints that point at a sibling instance.
    petal_live: u32,
    /// The bits of the peer's own content summary, maintained instead
    /// of rebuilt per gossip exchange: an admit to `content` sets the
    /// object's `k` bits (once there are bits: below two objects the
    /// summary is its object id), an evict or invalidate marks them
    /// stale and the next snapshot re-derives them from `content`.
    /// Snapshots are identical to a from-scratch build over `content`
    /// and share the bits, so a role holds them once.
    summary: SummaryBits,
}

impl ContentPeerState {
    /// A fresh content peer for `(website, locality)` with view bound
    /// `v_gossip`.
    pub fn new(
        website: WebsiteId,
        locality: Locality,
        v_gossip: usize,
        summary_capacity: usize,
    ) -> Self {
        Self::with_cache(
            website,
            locality,
            v_gossip,
            summary_capacity,
            CacheManager::unbounded(),
        )
    }

    /// A content peer with a bounded cache (the §8 replacement-policy
    /// extension).
    pub fn with_cache(
        website: WebsiteId,
        locality: Locality,
        v_gossip: usize,
        summary_capacity: usize,
        cache: CacheManager,
    ) -> Self {
        ContentPeerState {
            website,
            locality,
            content: RankSet::new(website),
            cache: (cache.policy() != CachePolicy::Unbounded).then(|| Box::new(cache)),
            changes: None,
            view: View::new(v_gossip),
            dir: None,
            dir_age: 0,
            petal_live: 1,
            summary: SummaryBits::empty(summary_capacity),
        }
    }

    /// The website this role serves.
    pub fn website(&self) -> WebsiteId {
        self.website
    }

    /// The locality of the overlay this role belongs to.
    pub fn locality(&self) -> Locality {
        self.locality
    }

    /// Does this peer hold `o`?
    pub fn has(&self, o: ObjectId) -> bool {
        self.content.contains(o)
    }

    /// Number of objects held.
    pub fn content_len(&self) -> usize {
        self.content.len()
    }

    /// Store an object (after being served); logged for the next
    /// push. A bounded cache may evict a victim first (also logged, so
    /// the directory learns via the next ∆list).
    pub fn insert_object(&mut self, o: ObjectId) {
        if !self.content.insert(o) {
            self.touch_object(o);
            return;
        }
        // The cache tracks held objects only, and `o` was not one: the
        // victim is never `o`.
        let len = self.content.len() - 1;
        if let Some(victim) = self.cache.as_mut().and_then(|c| c.evict_for_insert(len)) {
            debug_assert_ne!(victim, o, "the cache tracked an object not held");
            if self.content.remove(victim) {
                self.summary.last_occurrence_gone();
                self.record(victim, ChangeKind::Removed);
            }
        }
        self.summary.first_occurrence(o);
        self.touch_object(o);
        self.record(o, ChangeKind::Added);
    }

    /// Log one change for the next push; a change that cancels the log
    /// to empty frees it.
    fn record(&mut self, o: ObjectId, kind: ChangeKind) {
        let log = self.changes.get_or_insert_default();
        log.record(o, kind);
        if log.is_empty() {
            self.changes = None;
        }
    }

    /// Record a cache hit (replacement bookkeeping).
    pub fn touch_object(&mut self, o: ObjectId) {
        if let Some(cache) = &mut self.cache {
            cache.touch(o);
        }
    }

    /// Drop an object (external invalidation); logged for the next
    /// push.
    pub fn remove_object(&mut self, o: ObjectId) {
        if self.content.remove(o) {
            self.summary.last_occurrence_gone();
            if let Some(cache) = &mut self.cache {
                cache.forget(o);
            }
            self.record(o, ChangeKind::Removed);
        }
    }

    /// The peer's *current* content summary: a snapshot of the
    /// maintained bits (cached between content mutations),
    /// bit-identical to what a from-scratch rebuild over the content
    /// set would produce.
    pub fn current_summary(&mut self) -> ContentSummary {
        self.summary
            .snapshot(self.content.iter(), self.content.len())
    }

    /// Whether the next [`ContentPeerState::current_summary`] call is
    /// a clone of the last snapshot instead of a new one.
    pub fn summary_is_cached(&self) -> bool {
        self.summary.is_cached()
    }

    /// Pending unreported changes.
    pub fn pending_changes(&self) -> usize {
        self.changes.as_ref().map_or(0, |log| log.count())
    }

    /// Algorithm 5's gate: extract the ∆list if the push threshold is
    /// reached. Also resets the directory entry age ("the pushing peer
    /// resets to 0 its age field of d"), performed by the caller via
    /// [`ContentPeerState::reset_dir_age`] after actually sending.
    pub fn take_push(&mut self, policy: PushPolicy) -> Option<(Vec<ObjectId>, Vec<ObjectId>)> {
        if !policy.should_push(self.pending_changes(), self.content.len()) {
            return None;
        }
        let delta = *self.changes.take()?;
        Some((delta.added, delta.removed))
    }

    // ---- directory tracking (§4.2.1) ----

    /// The directory peer this content peer currently believes in.
    pub fn directory(&self) -> Option<NodeId> {
        self.dir
    }

    /// Age of the directory entry (ticks since last confirmation).
    pub fn dir_age(&self) -> u32 {
        self.dir_age
    }

    /// Adopt a directory peer (join, gossip hint, replacement).
    pub fn set_directory(&mut self, dir: NodeId) {
        self.dir = Some(dir);
        self.dir_age = 0;
    }

    /// Reset the directory age (after a push or keepalive).
    pub fn reset_dir_age(&mut self) {
        self.dir_age = 0;
    }

    /// Forget a dead directory (§5.2, detection).
    pub fn clear_directory(&mut self) {
        self.dir = None;
        self.dir_age = 0;
    }

    /// The live-instance count of our petal as last announced (§5.3).
    pub fn petal_live(&self) -> u32 {
        self.petal_live
    }

    /// Adopt a petal live-instance count from an admission (§5.3).
    pub fn set_petal_live(&mut self, live: u32) {
        self.petal_live = live.max(1);
    }

    /// §5.3 re-pointing: the peer was moved to a different directory
    /// instance; flag every held object as an unreported addition so
    /// the next push rebuilds its entry at the new directory in full —
    /// the same "gradually builds its directory upon receiving push
    /// messages" mechanism §5.2 replacements rely on, just not gradual.
    pub fn mark_all_dirty(&mut self) {
        let mut held: Vec<ObjectId> = self.content.iter().collect();
        // ∆lists follow `ObjectId` order (the content set iterates in
        // rank order, which is not a protocol-visible order).
        held.sort_unstable();
        for o in held {
            self.record(o, ChangeKind::Added);
        }
    }

    // ---- view management (Algorithm 4) ----

    /// Read-only access to the view.
    pub fn view(&self) -> &View<NodeId, Option<ContentSummary>> {
        &self.view
    }

    /// Seed the view with contacts of unknown content (admission from
    /// the directory index or a serving peer's view subset): "F's
    /// initial view will not have content summaries but will
    /// progressively fill them via gossip".
    pub fn seed_view(&mut self, peers: &[NodeId], myself: NodeId) {
        for p in peers {
            if *p != myself && !self.view.contains(*p) {
                self.view.insert_fresh(*p, None);
            }
        }
    }

    /// The gossip period elapsed: age the view and the directory
    /// entry, and pick the exchange partner (`select_oldest`).
    pub fn gossip_tick(&mut self) -> Option<NodeId> {
        self.view.increment_ages();
        self.dir_age = self.dir_age.saturating_add(1);
        self.view.select_oldest().map(|e| e.peer)
    }

    /// Build the gossip message content: own current summary, a random
    /// `Lgossip`-subset of the view, and the directory hint. `&mut`
    /// only for the summary-snapshot cache.
    pub fn build_gossip<R: Rng>(&mut self, rng: &mut R, l_gossip: usize) -> GossipPayload {
        let subset = self
            .view
            .select_subset(rng, l_gossip)
            .into_iter()
            .map(|e| GossipEntry {
                peer: e.peer,
                age: e.age,
                summary: e.data.clone(),
            })
            .collect();
        GossipPayload {
            website: self.website,
            locality: self.locality,
            summary: self.current_summary(),
            subset,
            dir_hint: self.dir.map(|d| (d, self.dir_age)),
        }
    }

    /// Merge a received gossip payload (both the active and passive
    /// sides end with this): refresh the partner's entry with its
    /// fresh summary, fold the subset, adopt a fresher directory hint.
    ///
    /// `max_hint_age` bounds how stale a directory hint may be and
    /// still be adopted (hints about a dead directory keep circulating
    /// for a while; without the bound they would resurrect it
    /// endlessly and §5.2 replacement could never start).
    pub fn absorb_gossip(
        &mut self,
        myself: NodeId,
        from: NodeId,
        payload: GossipPayload,
        max_hint_age: u32,
    ) {
        let partner = ViewEntry::fresh(from, Some(payload.summary));
        let subset = payload
            .subset
            .into_iter()
            .map(|e| ViewEntry {
                peer: e.peer,
                age: e.age,
                data: e.summary,
            })
            .collect();
        self.view.merge(myself, partner, subset);
        if let Some((dir, age)) = payload.dir_hint {
            if age >= max_hint_age {
                return;
            }
            // Adopt strictly fresher knowledge about the directory, or
            // any (sufficiently fresh) directory if we lost ours.
            if self.dir.is_none() || (Some(dir) != self.dir && age < self.dir_age) {
                self.dir = Some(dir);
                self.dir_age = age;
            } else if Some(dir) == self.dir {
                self.dir_age = self.dir_age.min(age);
            }
        }
    }

    /// The view contact to probe for `o`: the youngest one (ties to
    /// the lower node id) whose summary suggests it holds the object,
    /// excluding already-tried peers.
    pub fn summary_candidates(&self, o: ObjectId, tried: &[NodeId]) -> Option<NodeId> {
        self.view
            .iter()
            .filter(|e| !tried.contains(&e.peer))
            .filter(|e| e.data.as_ref().is_some_and(|s| s.might_contain(o)))
            .min_by_key(|e| (e.age, e.peer.0))
            .map(|e| e.peer)
    }

    /// Drop a dead or departed contact (§5.4: peers that changed
    /// locality "are removed from contacts as with dead peers").
    pub fn forget_peer(&mut self, peer: NodeId) {
        self.view.remove(peer);
        if self.dir == Some(peer) {
            self.clear_directory();
        }
    }

    /// All objects held (for directory hand-off seeding and tests),
    /// in rank order: sort before anything order-sensitive.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.content.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use workload::catalog_id;

    const ME: NodeId = NodeId(0);
    const O1: ObjectId = catalog_id(WebsiteId(1), 101);
    const O2: ObjectId = catalog_id(WebsiteId(1), 202);

    /// The object of rank `rank` of website 1, every test peer's.
    fn obj(rank: usize) -> ObjectId {
        catalog_id(WebsiteId(1), rank)
    }

    fn peer() -> ContentPeerState {
        ContentPeerState::new(WebsiteId(1), Locality(0), 10, 100)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn content_and_changes() {
        let mut c = peer();
        c.insert_object(O1);
        c.insert_object(O1); // duplicate: no double change
        assert!(c.has(O1));
        assert_eq!(c.pending_changes(), 1);
        c.remove_object(O1);
        assert_eq!(c.pending_changes(), 0, "add+remove cancels");
        assert!(!c.has(O1));
    }

    #[test]
    fn push_respects_threshold() {
        let mut c = peer();
        // 10 objects held, 1 change → 10% with threshold 0.5: no push.
        for i in 0..10 {
            c.insert_object(obj(i));
        }
        let _ = c.take_push(PushPolicy::new(0.0001)); // drain initial adds
        c.insert_object(obj(100));
        assert!(c.take_push(PushPolicy::new(0.5)).is_none());
        // threshold 0.05 → push fires with the single pending change.
        let (added, removed) = c.take_push(PushPolicy::new(0.05)).expect("push due");
        assert_eq!(added, vec![obj(100)]);
        assert!(removed.is_empty());
        assert_eq!(c.pending_changes(), 0);
    }

    #[test]
    fn summary_reflects_current_content() {
        let mut c = peer();
        c.insert_object(O1);
        assert!(c.current_summary().might_contain(O1));
        c.remove_object(O1);
        assert!(
            !c.current_summary().might_contain(O1),
            "summary is rebuilt, not stale"
        );
    }

    #[test]
    fn gossip_tick_ages_and_selects_oldest() {
        let mut c = peer();
        c.seed_view(&[NodeId(1), NodeId(2)], ME);
        assert!(c.gossip_tick().is_some());
        // Refresh 2 via gossip; 1 becomes the oldest.
        c.absorb_gossip(
            ME,
            NodeId(2),
            GossipPayload {
                website: WebsiteId(1),
                locality: Locality(0),
                summary: ContentSummary::empty(100),
                subset: vec![],
                dir_hint: None,
            },
            10,
        );
        assert_eq!(c.gossip_tick(), Some(NodeId(1)));
    }

    #[test]
    fn absorb_gossip_fills_summaries() {
        let mut c = peer();
        let mut s = ContentSummary::empty(100);
        s.insert(O1);
        c.absorb_gossip(
            ME,
            NodeId(5),
            GossipPayload {
                website: WebsiteId(1),
                locality: Locality(0),
                summary: s,
                subset: vec![GossipEntry {
                    peer: NodeId(6),
                    age: 2,
                    summary: None,
                }],
                dir_hint: None,
            },
            10,
        );
        assert_eq!(c.summary_candidates(O1, &[]), Some(NodeId(5)));
        assert!(c.view().contains(NodeId(6)));
        // Tried peers are excluded.
        assert_eq!(c.summary_candidates(O1, &[NodeId(5)]), None);
    }

    #[test]
    fn self_never_enters_view() {
        let mut c = peer();
        c.seed_view(&[ME, NodeId(1)], ME);
        assert!(!c.view().contains(ME));
        c.absorb_gossip(
            ME,
            NodeId(1),
            GossipPayload {
                website: WebsiteId(1),
                locality: Locality(0),
                summary: ContentSummary::empty(100),
                subset: vec![GossipEntry {
                    peer: ME,
                    age: 0,
                    summary: None,
                }],
                dir_hint: None,
            },
            10,
        );
        assert!(!c.view().contains(ME));
    }

    #[test]
    fn dir_hint_adoption_rules() {
        let mut c = peer();
        c.set_directory(NodeId(9));
        // Age our knowledge by 3 ticks.
        for _ in 0..3 {
            c.gossip_tick();
        }
        assert_eq!(c.dir_age(), 3);
        // A staler hint about another node is ignored.
        let hint = |dir: u32, age: u32| GossipPayload {
            website: WebsiteId(1),
            locality: Locality(0),
            summary: ContentSummary::empty(100),
            subset: vec![],
            dir_hint: Some((NodeId(dir), age)),
        };
        c.absorb_gossip(ME, NodeId(1), hint(8, 5), 10);
        assert_eq!(c.directory(), Some(NodeId(9)));
        // A fresher hint about a new directory wins (§5.2 epidemic
        // propagation of the replacement).
        c.absorb_gossip(ME, NodeId(1), hint(8, 1), 10);
        assert_eq!(c.directory(), Some(NodeId(8)));
        assert_eq!(c.dir_age(), 1);
        // Same-directory hints only lower the age.
        c.absorb_gossip(ME, NodeId(2), hint(8, 0), 10);
        assert_eq!(c.dir_age(), 0);
        // Having lost the directory, any hint is adopted.
        c.clear_directory();
        c.absorb_gossip(ME, NodeId(3), hint(7, 9), 10);
        assert_eq!(c.directory(), Some(NodeId(7)));
    }

    #[test]
    fn gossip_payload_shape() {
        let mut c = peer();
        c.set_directory(NodeId(9));
        c.seed_view(&(1..=8).map(NodeId).collect::<Vec<_>>(), ME);
        let p = c.build_gossip(&mut rng(), 4);
        assert_eq!(p.subset.len(), 4);
        assert_eq!(p.dir_hint, Some((NodeId(9), 0)));
        assert_eq!(p.website, WebsiteId(1));
    }

    #[test]
    fn forget_peer_clears_view_and_dir() {
        let mut c = peer();
        c.seed_view(&[NodeId(1)], ME);
        c.set_directory(NodeId(1));
        c.forget_peer(NodeId(1));
        assert!(!c.view().contains(NodeId(1)));
        assert_eq!(c.directory(), None);
    }

    #[test]
    fn candidates_sorted_young_first() {
        let mut c = peer();
        let with_obj = |age: u32, p: u32| {
            let mut s = ContentSummary::empty(100);
            s.insert(O2);
            GossipEntry {
                peer: NodeId(p),
                age,
                summary: Some(s),
            }
        };
        c.absorb_gossip(
            ME,
            NodeId(50),
            GossipPayload {
                website: WebsiteId(1),
                locality: Locality(0),
                summary: ContentSummary::empty(100),
                subset: vec![
                    with_obj(5, 1),
                    with_obj(1, 4),
                    with_obj(1, 2),
                    with_obj(3, 3),
                ],
                dir_hint: None,
            },
            10,
        );
        // Youngest first, equal ages by node id; each probe that
        // fails joins `tried` and the next youngest takes over.
        let mut tried = Vec::new();
        for expect in [2, 4, 3, 1] {
            assert_eq!(c.summary_candidates(O2, &tried), Some(NodeId(expect)));
            tried.push(NodeId(expect));
        }
        assert_eq!(c.summary_candidates(O2, &tried), None);
    }

    /// A summary is one word of form and capacity plus one of object
    /// id or filter pointer, so a view slot with one stays 24 B. An
    /// object set is two inline bit words or a `Vec` in the space of
    /// one `Vec`, and one word of count, bit-word count and website,
    /// so a directory entry is that and an age; a content role keeps
    /// replacement bookkeeping behind one pointer, absent when
    /// unbounded, its change log behind one more, absent while empty,
    /// and its summary bits behind a third, the filter its snapshots
    /// share.
    #[test]
    fn summaries_and_view_entries_keep_their_layout() {
        use std::mem::size_of;
        assert_eq!(size_of::<ContentSummary>(), 16);
        assert_eq!(size_of::<Option<ContentSummary>>(), 16);
        assert_eq!(size_of::<ViewEntry<NodeId, Option<ContentSummary>>>(), 24);
        assert_eq!(size_of::<RankSet>(), 32);
        assert!(size_of::<ContentPeerState>() <= 128);
        assert!(size_of::<crate::directory::DirEntry>() <= 40);
        // A member-order table bucket: 48 B plus one control byte, so
        // 2^16 buckets are 3 211 280 B with the table's 16 trailing bytes.
        assert_eq!(size_of::<(NodeId, crate::directory::DirEntry)>(), 48);
    }

    /// A role with nothing to push holds no change-log box: not when
    /// new, not after an add and a remove of the same object cancel
    /// out, not after a push takes the ∆list.
    #[test]
    fn a_role_with_no_pending_change_holds_no_change_log() {
        let mut c = peer();
        assert!(c.changes.is_none());
        c.insert_object(O1);
        assert!(c.changes.is_some());
        c.remove_object(O1);
        assert!(c.changes.is_none(), "add then remove");
        c.insert_object(O1);
        c.insert_object(O2);
        let (added, removed) = c.take_push(PushPolicy::new(0.0001)).expect("push due");
        assert_eq!((added.len(), removed.len()), (2, 0));
        assert!(c.changes.is_none(), "pushed");
        c.remove_object(O2);
        c.insert_object(O2);
        assert!(c.changes.is_none(), "remove then add");
        assert!(c.take_push(PushPolicy::new(0.0001)).is_none());
    }

    /// Ids that are no rank of the peer's website — another website's,
    /// made-up keys — take the set's spill list, and are held, found,
    /// evicted and summarised exactly like the peer's own.
    #[test]
    fn foreign_and_made_up_ids_are_held_exactly() {
        let cache = CacheManager::new(CachePolicy::Lru, 3);
        let mut c = ContentPeerState::with_cache(WebsiteId(1), Locality(0), 10, 20, cache);
        let foreign = catalog_id(WebsiteId(2), 101);
        let made_up = [ObjectId(7919 * 5 + 3), ObjectId(u64::MAX / 5)];
        for o in [O1, foreign, made_up[0]] {
            c.insert_object(o);
        }
        assert!(c.has(O1) && c.has(foreign) && c.has(made_up[0]));
        assert!(!c.has(catalog_id(WebsiteId(2), 202)) && !c.has(made_up[1]));
        c.insert_object(made_up[1]); // evicts O1, the least recent
        assert!(!c.has(O1) && c.has(made_up[1]));
        assert_eq!(held(&c), {
            let mut v = vec![foreign, made_up[0], made_up[1]];
            v.sort_unstable();
            v
        });
        assert_eq!(
            c.current_summary(),
            ContentSummary::from_objects(20, &held(&c))
        );
        c.remove_object(made_up[0]);
        assert_eq!(c.content_len(), 2);
        assert_eq!(
            c.current_summary(),
            ContentSummary::from_objects(20, &held(&c))
        );
    }

    fn held(c: &ContentPeerState) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = c.objects().collect();
        v.sort_unstable();
        v
    }

    proptest! {
        /// Random admits (evicting from a bounded cache), hits on held
        /// objects, invalidations and snapshots: every snapshot is the
        /// from-scratch filter over `content`, and `summary_is_cached`
        /// (what the `BloomCowClones` / `BloomRebuilds` counters read)
        /// holds exactly when `content` did not change since the last.
        #[test]
        fn every_summary_equals_a_rebuild_over_the_content(
            lfu in any::<bool>(),
            capacity in 1usize..6,
            ops in proptest::collection::vec((0u8..5, 0u64..12), 0..150),
        ) {
            let policy = if lfu { CachePolicy::Lfu } else { CachePolicy::Lru };
            let cache = CacheManager::new(policy, capacity);
            let mut c = ContentPeerState::with_cache(WebsiteId(1), Locality(0), 10, 20, cache);
            let mut cached = false;
            for (op, key) in ops {
                let o = obj(key as usize * 61);
                let before = held(&c);
                match op {
                    0 | 1 => c.insert_object(o),
                    2 if c.has(o) => c.touch_object(o),
                    2 => {}
                    3 => c.remove_object(o),
                    _ => {
                        prop_assert_eq!(c.summary_is_cached(), cached);
                        prop_assert_eq!(c.current_summary(), ContentSummary::from_objects(20, &before));
                        cached = true;
                    }
                }
                cached &= held(&c) == before;
                prop_assert!(c.content_len() <= capacity);
            }
            prop_assert_eq!(c.summary_is_cached(), cached);
            prop_assert_eq!(c.current_summary(), ContentSummary::from_objects(20, &held(&c)));
        }
    }
}
