//! The directory peer (§3.3–3.4, Algorithm 3, §4.2.1 directory
//! management, §5.1 failure handling).
//!
//! A directory peer `d_{ws,loc}` maintains:
//!
//! * **directory-index(ws, loc)** — one entry per content peer of its
//!   overlay: address, age (failure detection) and the list of object
//!   identifiers the peer holds. The paper calls this "a complete view
//!   of its content overlay".
//! * **directory-summaries(ws, locj)** — Bloom summaries of the
//!   directory indexes of the *other* directory peers of the same
//!   website it knows through its routing table (its ring
//!   neighbours), refreshed lazily (§4.2.1).
//!
//! Query processing is exactly Algorithm 3: try the index, then the
//! summaries, then the origin server. The index is kept fresh by
//! pushes and keepalives; entries whose age reaches `Tdead` are
//! evicted (§5.1).
//!
//! ## Two owners
//!
//! [`DirectoryState`] composes two private structures; each is the
//! only writer of its fields and keeps one invariant:
//!
//! * the **member order** holds the index entries, their ages, `Sco`
//!   and `Tdead`, and the recency order
//!   [`DirectoryState::view_seed`] reads: a `fresh` heap of the ids
//!   set to age 0 since the last tick and an `aged` list of the
//!   survivors of that tick. Every member is valid in exactly one of
//!   the two.
//! * the **holder index** holds the inverted index `object → holder
//!   list`, the listing count, the directory summary's bits and the
//!   gossip summaries of §5.2-seeded members. It lists exactly the
//!   members' object sets — only indexed members, each listing once —
//!   and keeps a gossip summary only for a member.
//!
//! ## Holder lookup cost
//!
//! Algorithm 3's step 1 reads exactly the holders of the requested
//! object from the holder index instead of scanning the whole overlay
//! (at 100k nodes a scan per query dominated the engine profile).
//!
//! A list is put into node-id order when it is read, not when it is
//! written: a new holder is appended, and the two readers that need
//! the order — [`DirectoryState::process`] and the removal of a
//! holder — first sort the appended tail and merge it into the sorted
//! prefix. Algorithm 5's ∆list pushes outnumber Algorithm 3's holder
//! draws 8.5 : 1 on `query_storm_10k`, so a sorted insert per push
//! paid for an order that was mostly never looked at. The set of
//! holders is exact after every write, so a reader sees the same
//! sorted list and Algorithm 3 draws the same holder.
//!
//! The only lookups the holder index cannot answer are the
//! gossip-summary entries of a freshly promoted §5.2 directory (exact
//! object lists unknown until pushes rebuild them); the summary scan
//! runs only while such entries exist, and visits only them. A seeded
//! member sheds its summary on the *first push* from that peer, whose
//! exact ∆lists are authoritative from then on, so a promoted
//! directory pays the scan just until its seeded members push or age
//! out.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;

use bloom::{ContentSummary, ObjectId, SummaryBits};
use chord::ChordId;
use gossip::PushPolicy;
use rand::seq::SliceRandom;
use rand::Rng;
use simnet::{Locality, NodeId};
use workload::WebsiteId;

use crate::idmap::{IdMap, RankSet};

/// One directory-index entry (§3.3): a content peer of the overlay.
#[derive(Clone, Debug)]
pub struct DirEntry {
    /// Age, in directory ticks, since the peer last pushed or sent a
    /// keepalive.
    pub age: u32,
    /// Object identifiers the peer reported holding: a bit per catalog
    /// rank of the directory's website, so an admission and each ∆list
    /// item test one word.
    pub objects: RankSet,
}

impl DirEntry {
    fn fresh(website: WebsiteId) -> Self {
        DirEntry {
            age: 0,
            objects: RankSet::new(website),
        }
    }
}

/// Push `id` onto the implicit binary min-heap `heap`.
fn heap_push(heap: &mut Vec<u32>, id: u32) {
    let mut at = heap.len();
    heap.push(id);
    while at > 0 {
        let parent = (at - 1) / 2;
        if heap[parent] <= id {
            break;
        }
        heap[at] = heap[parent];
        at = parent;
    }
    heap[at] = id;
}

/// The index entries in the order [`DirectoryState::view_seed`]
/// reads them, `(age, id)` ascending, in two halves. Ages only reset
/// to 0 or advance together at a tick, so:
///
/// * `fresh` holds the id of every entry set to age 0 since the last
///   tick, as an implicit binary min-heap. A refresh is one push (a
///   random id sifts O(1) levels on average) and nothing is taken
///   out: an id is *valid* there iff its entry is at age 0, and one
///   removed and re-admitted inside a tick is filed twice. Keepalives
///   outnumber `view_seed` reads 9 : 1 (`steady_100k`), so the reader
///   works the order out.
/// * `aged` holds `(age, id)` of every survivor of the last tick,
///   sorted by the sweep the tick makes anyway. A record is valid iff
///   the entry is still at that age.
///
/// Every member is valid in exactly one of the two.
#[derive(Clone, Debug, Default)]
struct MemberOrder {
    entries: IdMap<NodeId, DirEntry>,
    fresh: Vec<u32>,
    aged: Vec<(u32, u32)>,
    /// Overlay capacity `Sco`.
    capacity: usize,
    /// Age at which an entry is evicted.
    t_dead: u32,
}

impl MemberOrder {
    fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Is `peer` a member younger than `Tdead`?
    fn is_live(&self, peer: NodeId) -> bool {
        self.entries.get(&peer).is_some_and(|e| e.age < self.t_dead)
    }

    /// `peer`'s entry, reset to age 0 and filed in `fresh` if it was
    /// older; a new empty one if `peer` is not a member and the
    /// overlay has room; `None` if it has none.
    fn refresh(&mut self, peer: NodeId, website: WebsiteId) -> Option<&mut DirEntry> {
        let full = self.is_full();
        match self.entries.entry(peer) {
            Entry::Occupied(e) => {
                let e = e.into_mut();
                if e.age != 0 {
                    e.age = 0;
                    heap_push(&mut self.fresh, peer.0);
                }
                Some(e)
            }
            Entry::Vacant(_) if full => None,
            Entry::Vacant(e) => {
                heap_push(&mut self.fresh, peer.0);
                Some(e.insert(DirEntry::fresh(website)))
            }
        }
    }

    /// Add `peer`, not a member yet, at its entry's age. An aged entry
    /// is appended to `aged` unsorted: [`MemberOrder::install`] sorts.
    fn insert(&mut self, peer: NodeId, e: DirEntry) {
        if e.age == 0 {
            heap_push(&mut self.fresh, peer.0);
        } else {
            self.aged.push((e.age, peer.0));
        }
        self.entries.insert(peer, e);
    }

    /// Replace every entry with `members`.
    fn install(&mut self, members: impl IntoIterator<Item = (NodeId, DirEntry)>) {
        self.entries.clear();
        self.fresh.clear();
        self.aged.clear();
        for (peer, e) in members {
            self.insert(peer, e);
        }
        self.aged.sort_unstable();
    }

    fn remove(&mut self, peer: NodeId) -> Option<DirEntry> {
        self.entries.remove(&peer)
    }

    /// Age every entry and evict those that reach `Tdead`, returning
    /// them. No member is at age 0 afterwards, so `fresh` empties, and
    /// the sweep refills `aged` with the survivors, sorted once — the
    /// only ordering work between two ticks that is not a reader's.
    fn tick(&mut self) -> Vec<(NodeId, DirEntry)> {
        self.fresh.clear();
        self.aged.clear();
        let mut dead = Vec::new();
        for (peer, e) in &mut self.entries {
            e.age = e.age.saturating_add(1);
            if e.age >= self.t_dead {
                dead.push(*peer);
            } else {
                self.aged.push((e.age, peer.0));
            }
        }
        self.aged.sort_unstable();
        dead.into_iter()
            .filter_map(|peer| Some((peer, self.entries.remove(&peer)?)))
            .collect()
    }

    /// See [`DirectoryState::view_seed`].
    fn view_seed(&self, n: usize, exclude: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(n.min(self.entries.len()));
        if n == 0 {
            return out;
        }
        let age_of = |id: u32| self.entries.get(&NodeId(id)).map(|e| e.age);
        let mut frontier = BinaryHeap::with_capacity(n + 2);
        if let Some(&root) = self.fresh.first() {
            frontier.push(Reverse((root, 0)));
        }
        while let Some(Reverse((id, at))) = frontier.pop() {
            if id != exclude.0 && out.last() != Some(&NodeId(id)) && age_of(id) == Some(0) {
                out.push(NodeId(id));
                if out.len() == n {
                    return out;
                }
            }
            for child in [2 * at + 1, 2 * at + 2] {
                if let Some(&id) = self.fresh.get(child) {
                    frontier.push(Reverse((id, child)));
                }
            }
        }
        for &(age, id) in &self.aged {
            if id != exclude.0 && age_of(id) == Some(age) {
                out.push(NodeId(id));
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }
}

/// Put a holder list into node-id order. [`HolderIndex::add`]
/// appends, so a list is a sorted prefix followed by the holders
/// listed since it was last read; the stable sort takes the prefix as
/// one run, sorts the short tail and merges it in. A list no one
/// appended to since is only scanned.
fn sort_holders(hs: &mut [NodeId]) {
    if !hs.is_sorted() {
        hs.sort();
    }
}

/// The inverted index `object → members whose exact object list
/// contains it`, and what follows it: the listing count, the bits of
/// the directory summary, and the members whose §5.2 gossip summary
/// answers for an object list not known yet.
#[derive(Clone, Debug)]
struct HolderIndex {
    /// A new holder is appended; the readers that need node-id order
    /// — Algorithm 3's deterministic candidate order, and the binary
    /// search of a removal — sort a list when they read it (module
    /// docs, "Holder lookup cost"). No list is kept empty.
    holders_of: IdMap<ObjectId, Vec<NodeId>>,
    /// Listings, one per `(member, object)`: the refresh ratio's
    /// denominator and the summary's item count.
    listings: usize,
    /// The directory summary's bits, maintained instead of rebuilt by
    /// a scan per §4.2.1 refresh: a new `holders_of` key sets its
    /// object's bits, an emptied one marks them stale for the next
    /// snapshot to re-derive from the keys. Gossip summaries never
    /// enter them, as a scan visits only exact object lists.
    summary: SummaryBits,
    /// Gossip-learned content summaries of members (§5.2 seeding): a
    /// freshly promoted directory peer answers from these until pushes
    /// rebuild the index ("meanwhile, d answers first queries from its
    /// content summaries"). While non-empty, holder lookups must also
    /// scan them.
    seeds: IdMap<NodeId, ContentSummary>,
}

impl HolderIndex {
    /// List `peer` (a member whose entry just gained `o`, so not yet
    /// listed) as holding `o`: appended, in no order until a reader
    /// sorts it. `o`'s first listing sets its summary bits.
    fn add(&mut self, o: ObjectId, peer: NodeId) {
        let hs = self.holders_of.entry(o).or_default();
        hs.push(peer);
        self.listings += 1;
        if hs.len() == 1 {
            self.summary.first_occurrence(o);
        }
    }

    /// Unlist `peer` as holding `o`; `o`'s last listing leaves its
    /// summary bits stale.
    fn remove(&mut self, o: ObjectId, peer: NodeId) {
        if let Some(hs) = self.holders_of.get_mut(&o) {
            sort_holders(hs);
            if let Ok(pos) = hs.binary_search_by_key(&peer.0, |n| n.0) {
                hs.remove(pos);
                self.listings -= 1;
                if hs.is_empty() {
                    self.holders_of.remove(&o);
                    self.summary.last_occurrence_gone();
                }
            }
        }
    }

    /// Unlist everything of `peer`'s removed entry `e`.
    fn drop_member(&mut self, peer: NodeId, e: &DirEntry) {
        for o in e.objects.iter() {
            self.remove(o, peer);
        }
        self.unseed(peer);
    }

    /// The holders of `o`, in node-id order, and the §5.2 gossip
    /// summaries that may answer for it besides.
    fn lookup(&mut self, o: ObjectId) -> (&[NodeId], &IdMap<NodeId, ContentSummary>) {
        let hs = self
            .holders_of
            .get_mut(&o)
            .map_or(&mut [][..], |hs| &mut hs[..]);
        sort_holders(hs);
        (hs, &self.seeds)
    }

    /// Give the new member `peer` its gossip summary.
    fn seed(&mut self, peer: NodeId, summary: ContentSummary) {
        self.seeds.insert(peer, summary);
    }

    /// Drop `peer`'s gossip summary, if any: it pushed its exact
    /// list, or left.
    fn unseed(&mut self, peer: NodeId) {
        if !self.seeds.is_empty() {
            self.seeds.remove(&peer);
        }
    }

    /// The directory summary: a snapshot of the maintained bits.
    fn snapshot(&mut self) -> ContentSummary {
        self.summary
            .snapshot(self.holders_of.keys().copied(), self.listings)
    }

    fn clear(&mut self) {
        self.holders_of.clear();
        self.listings = 0;
        self.summary.clear();
        self.seeds.clear();
    }
}

/// A received directory summary of a neighbouring directory peer.
#[derive(Clone, Debug)]
pub struct NeighborSummary {
    /// The neighbour's underlay address.
    pub dir: NodeId,
    /// The neighbour's locality.
    pub locality: Locality,
    /// The neighbour's ring id.
    pub dir_id: ChordId,
    /// Bloom summary of its directory index.
    pub summary: ContentSummary,
}

/// Algorithm 3's decision for a query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DirDecision {
    /// Redirect to a content peer of this overlay listed as holding
    /// the object.
    ToHolder(NodeId),
    /// Redirect to another directory peer of the same website whose
    /// directory summary matched.
    ToDirectory(NodeId),
    /// No peer can serve: fall back to the origin server.
    ToServer,
}

/// Load counters of one directory instance (§5.3 PetalUp): what the
/// split/merge policy and the per-instance load report read. The
/// index size itself is [`DirectoryState::overlay_size`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirLoad {
    /// Queries processed through Algorithm 3 (lifetime).
    pub queries: u64,
    /// Queries processed since the window was last taken
    /// ([`DirectoryState::take_window_queries`]) — the split/merge
    /// policy's signal.
    pub window_queries: u64,
}

/// The state of one directory role `d_{ws,loc}` — or, with §5.3
/// instance bits, one directory *instance* `d_{ws,loc,i}`.
#[derive(Clone, Debug)]
pub struct DirectoryState {
    website: WebsiteId,
    locality: Locality,
    /// Which §5.3 instance of the petal this is (0 in the base
    /// design; the petal primary when instances are in play).
    instance: u32,
    members: MemberOrder,
    holders: HolderIndex,
    neighbor_summaries: Vec<NeighborSummary>,
    /// Objects newly indexed since the last summary broadcast.
    new_since_refresh: usize,
    /// Per-instance load counters (§5.3 PetalUp).
    load: DirLoad,
}

impl DirectoryState {
    /// An empty directory for `(website, locality)`, §5.3 instance
    /// `instance` (0 in the base design).
    pub fn new(
        website: WebsiteId,
        locality: Locality,
        instance: u32,
        capacity: usize,
        t_dead: u32,
        summary_capacity: usize,
    ) -> Self {
        DirectoryState {
            website,
            locality,
            instance,
            members: MemberOrder {
                capacity,
                t_dead,
                ..MemberOrder::default()
            },
            holders: HolderIndex {
                holders_of: IdMap::default(),
                listings: 0,
                summary: SummaryBits::empty(summary_capacity),
                seeds: IdMap::default(),
            },
            neighbor_summaries: Vec::new(),
            new_since_refresh: 0,
            load: DirLoad::default(),
        }
    }

    /// The website this directory serves.
    pub fn website(&self) -> WebsiteId {
        self.website
    }

    /// The locality this directory covers.
    pub fn locality(&self) -> Locality {
        self.locality
    }

    /// The §5.3 instance index of this directory within its petal.
    pub fn instance(&self) -> u32 {
        self.instance
    }

    /// The load counters of this instance.
    pub fn load(&self) -> DirLoad {
        self.load
    }

    /// Count one query processed through Algorithm 3 (the caller runs
    /// [`DirectoryState::process`] right after).
    pub fn note_query(&mut self) {
        self.load.queries += 1;
        self.load.window_queries += 1;
    }

    /// Read and reset the windowed query counter — one split/merge
    /// policy window per directory tick.
    pub fn take_window_queries(&mut self) -> u64 {
        std::mem::take(&mut self.load.window_queries)
    }

    /// Number of content peers currently indexed.
    pub fn overlay_size(&self) -> usize {
        self.members.entries.len()
    }

    /// True when the overlay reached `Sco` (§5.3: no more joins).
    pub fn is_full(&self) -> bool {
        self.members.is_full()
    }

    /// Is `peer` a member of this overlay?
    pub fn contains(&self, peer: NodeId) -> bool {
        self.members.entries.contains_key(&peer)
    }

    /// Iterate over the indexed members.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.entries.keys().copied()
    }

    /// **Algorithm 3**: decide where to send `query(o)`.
    ///
    /// `exclude` is the querying peer itself (it obviously does not
    /// want a redirect to itself). Holders whose entry age has reached
    /// `Tdead` are skipped ("after checking its aliveness"); among the
    /// live holders one is drawn uniformly, which spreads the load
    /// "rather evenly across the set of content peers holding copies"
    /// (§4.1).
    ///
    /// Takes `&mut self` because it sorts the holder list it reads
    /// (module docs, "Holder lookup cost"): the list's order changes,
    /// never its contents.
    pub fn process<R: Rng>(
        &mut self,
        rng: &mut R,
        object: ObjectId,
        exclude: NodeId,
        max_dir_hops: u8,
        dir_hops: u8,
    ) -> DirDecision {
        // 1. directory-index lookup, from the holder list in node-id
        // order: the draw is a pure function of the RNG.
        let members = &self.members;
        let (hs, seeds) = self.holders.lookup(object);
        if seeds.is_empty() {
            // Steady-state path. Outside `tick()` every member is
            // younger than `Tdead` and only members are listed, so the
            // only holder to pass over is `exclude`: locate it by
            // binary search and make the `gen_range(0..count)` draw
            // `choose` would make on the list without it — O(log H)
            // instead of a collect per query.
            let excluded = hs.binary_search_by_key(&exclude.0, |n| n.0).ok();
            let count = hs.len() - usize::from(excluded.is_some());
            if count > 0 {
                let i = rng.gen_range(0..count);
                let at = match excluded {
                    Some(ep) if i >= ep => i + 1,
                    _ => i,
                };
                let h = hs[at];
                debug_assert!(
                    h != exclude && members.is_live(h),
                    "holder list out of sync with the index"
                );
                return DirDecision::ToHolder(h);
            }
        } else {
            // §5.2 fresh-takeover path: members known only through
            // gossip summaries; their exact lists are disjoint from
            // the listed holders (`objects` does not contain the
            // object), so the merge needs a sort but no dedup.
            let live = |p: NodeId| p != exclude && members.is_live(p);
            let mut holders: Vec<NodeId> = hs.iter().copied().filter(|p| live(*p)).collect();
            for (peer, s) in seeds {
                if live(*peer)
                    && s.might_contain(object)
                    && !members.entries[peer].objects.contains(object)
                {
                    holders.push(*peer);
                }
            }
            holders.sort_unstable_by_key(|n| n.0);
            if let Some(h) = holders.choose(rng) {
                return DirDecision::ToHolder(*h);
            }
        }
        // 2. directory summaries (only if the query may still travel).
        if dir_hops < max_dir_hops {
            let candidates: Vec<NodeId> = self
                .neighbor_summaries
                .iter()
                .filter(|n| n.summary.might_contain(object))
                .map(|n| n.dir)
                .collect();
            if let Some(d) = candidates.choose(rng) {
                return DirDecision::ToDirectory(*d);
            }
        }
        // 3. the origin server.
        DirDecision::ToServer
    }

    /// Optimistic entry creation (§3.4): after serving a new client,
    /// "d optimistically adds a new entry in its directory index: peer
    /// F with its requested object, and age zero". Returns false when
    /// the peer is new and the overlay is full (admission denied).
    pub fn admit_or_refresh(&mut self, peer: NodeId, object: ObjectId) -> bool {
        let Some(e) = self.members.refresh(peer, self.website) else {
            return false;
        };
        if e.objects.insert(object) {
            self.new_since_refresh += 1;
            self.holders.add(object, peer);
        }
        true
    }

    /// Apply a push `∆list` (Algorithm 6): update the pushing peer's
    /// entry and reset its age. Unknown pushers are admitted if
    /// capacity allows (they may have joined under a previous
    /// directory incarnation; §5.2).
    ///
    /// One index lookup per push: the holder lists are updated while
    /// the ∆list is walked, additions first.
    pub fn apply_push(&mut self, peer: NodeId, added: &[ObjectId], removed: &[ObjectId]) {
        let Some(e) = self.members.refresh(peer, self.website) else {
            return;
        };
        // First push from a §5.2-seeded member: its exact ∆lists are
        // authoritative from here on — drop the gossip summary (and,
        // once no seeded entry remains, the summary-scan tax with it).
        self.holders.unseed(peer);
        for &o in added {
            if e.objects.insert(o) {
                self.new_since_refresh += 1;
                self.holders.add(o, peer);
            }
        }
        for &o in removed {
            if e.objects.remove(o) {
                self.holders.remove(o, peer);
            }
        }
    }

    /// A keepalive arrived (§5.1): reset the sender's age. A keepalive
    /// from a member we do not index is direct evidence of membership
    /// (we may be a fresh §5.2 replacement, or the entry aged out):
    /// re-admit it optimistically with an empty object list — its
    /// objects return with its next push, exactly how the paper's new
    /// directory "gradually builds its directory upon receiving push
    /// messages".
    pub fn keepalive(&mut self, peer: NodeId) {
        self.members.refresh(peer, self.website);
    }

    /// Directory tick (Algorithm 6 active behaviour): age all entries,
    /// evicting those that reached `Tdead`. Returns the evicted peers.
    pub fn tick(&mut self) -> Vec<NodeId> {
        let mut dead = Vec::new();
        for (peer, e) in self.members.tick() {
            self.holders.drop_member(peer, &e);
            dead.push(peer);
        }
        dead.sort_unstable_by_key(|n| n.0);
        dead
    }

    /// Remove an entry after a redirection failure (§5.1: "the
    /// directory peer removes the invalid directory entry").
    pub fn remove_entry(&mut self, peer: NodeId) -> bool {
        let Some(e) = self.members.remove(peer) else {
            return false;
        };
        self.holders.drop_member(peer, &e);
        true
    }

    /// Store/refresh a neighbour directory's summary (§3.3).
    pub fn update_neighbor_summary(&mut self, n: NeighborSummary) {
        if let Some(existing) = self
            .neighbor_summaries
            .iter_mut()
            .find(|x| x.dir_id == n.dir_id)
        {
            *existing = n;
        } else {
            self.neighbor_summaries.push(n);
        }
    }

    /// Drop a neighbour summary (its directory died).
    pub fn remove_neighbor(&mut self, dir: NodeId) {
        self.neighbor_summaries.retain(|n| n.dir != dir);
    }

    /// The neighbour summaries currently held.
    pub fn neighbor_summaries(&self) -> &[NeighborSummary] {
        &self.neighbor_summaries
    }

    /// Should a refreshed directory summary be broadcast? (§4.2.1:
    /// "only when the percentage of new object identifiers reaches a
    /// threshold" — `policy`, the rule a content peer's push follows,
    /// over the objects newly indexed and the listings.) Resets the
    /// change counter when answering yes.
    pub fn take_summary_refresh(&mut self, policy: PushPolicy) -> Option<ContentSummary> {
        if !policy.should_push(self.new_since_refresh, self.holders.listings) {
            return None;
        }
        self.new_since_refresh = 0;
        Some(self.build_summary())
    }

    /// Bloom summary over every object currently indexed: a snapshot
    /// of the maintained bits (cached between index mutations),
    /// bit-identical to a full-index scan (one insert per `(member,
    /// object)` listing, so `items` matches the scan's tally too).
    pub fn build_summary(&mut self) -> ContentSummary {
        let held = self.members.entries.values().map(|e| e.objects.len());
        debug_assert_eq!(self.holders.listings, held.sum(), "listings drifted");
        self.holders.snapshot()
    }

    /// A view seed for a joining client: up to `n` members (the
    /// youngest entries first — most likely alive): the first `n` by
    /// `(age, id)` ascending, `exclude` skipped.
    ///
    /// Age 0 comes first, by a best-first walk of the `fresh` heap:
    /// pop the smallest id off a frontier that starts at the root, put
    /// its two children in. Ids come out ascending at `O(log n)` each,
    /// and `exclude`, an id filed twice and invalid entries are passed
    /// over. Then `aged`, front to back: its invalid entries are at
    /// most those of `fresh` plus the removals since the tick.
    pub fn view_seed(&self, n: usize, exclude: NodeId) -> Vec<NodeId> {
        self.members.view_seed(n, exclude)
    }

    /// Seed the index from a gossip view after a §5.2 takeover: the
    /// new directory knows members and their summaries, but not their
    /// exact object lists yet.
    pub fn seed_from_view(
        &mut self,
        entries: impl IntoIterator<Item = (NodeId, Option<ContentSummary>)>,
    ) {
        for (peer, summary) in entries {
            if self.is_full() || self.contains(peer) {
                continue;
            }
            if let Some(s) = summary {
                self.holders.seed(peer, s);
            }
            self.members.insert(peer, DirEntry::fresh(self.website));
        }
    }

    /// Install a snapshot received in a voluntary hand-off (§5.2),
    /// replacing everything: the listings and the summary bits restart
    /// from the snapshot's distinct listings, so an object listed
    /// twice for one member counts once.
    pub fn install_snapshot(&mut self, entries: Vec<(NodeId, u32, Vec<ObjectId>)>) {
        self.holders.clear();
        let members = entries.into_iter().map(|(peer, age, objects)| {
            let mut e = DirEntry::fresh(self.website);
            e.age = age;
            for o in objects {
                if e.objects.insert(o) {
                    self.holders.add(o, peer);
                }
            }
            (peer, e)
        });
        self.members.install(members);
    }

    /// Export the index for a voluntary hand-off (§5.2), in
    /// deterministic (node-id) order.
    pub fn snapshot(&self) -> Vec<(NodeId, u32, Vec<ObjectId>)> {
        let mut snap: Vec<(NodeId, u32, Vec<ObjectId>)> = self
            .members
            .entries
            .iter()
            .map(|(p, e)| {
                let mut objs: Vec<ObjectId> = e.objects.iter().collect();
                objs.sort_unstable();
                (*p, e.age, objs)
            })
            .collect();
        snap.sort_unstable_by_key(|(p, _, _)| p.0);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, BTreeSet};
    use workload::catalog_id;

    fn dir() -> DirectoryState {
        DirectoryState::new(WebsiteId(1), Locality(0), 0, 3, 5, 100)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// The object of rank `rank` of website 1, every test directory's.
    fn obj(rank: usize) -> ObjectId {
        catalog_id(WebsiteId(1), rank)
    }

    const O1: ObjectId = catalog_id(WebsiteId(1), 11);
    const O2: ObjectId = catalog_id(WebsiteId(1), 22);

    #[test]
    fn algorithm3_prefers_index_then_summaries_then_server() {
        let mut d = dir();
        let mut r = rng();
        // Empty: server.
        assert_eq!(
            d.process(&mut r, O1, NodeId(99), 1, 0),
            DirDecision::ToServer
        );
        // Neighbour summary knows O1: directory redirect.
        let mut s = ContentSummary::empty(100);
        s.insert(O1);
        d.update_neighbor_summary(NeighborSummary {
            dir: NodeId(50),
            locality: Locality(1),
            dir_id: ChordId(5),
            summary: s,
        });
        assert_eq!(
            d.process(&mut r, O1, NodeId(99), 1, 0),
            DirDecision::ToDirectory(NodeId(50))
        );
        // Local holder wins over the summary.
        assert!(d.admit_or_refresh(NodeId(1), O1));
        assert_eq!(
            d.process(&mut r, O1, NodeId(99), 1, 0),
            DirDecision::ToHolder(NodeId(1))
        );
    }

    #[test]
    fn dir_hop_budget_disables_summary_redirect() {
        let mut d = dir();
        let mut r = rng();
        let mut s = ContentSummary::empty(100);
        s.insert(O1);
        d.update_neighbor_summary(NeighborSummary {
            dir: NodeId(50),
            locality: Locality(1),
            dir_id: ChordId(5),
            summary: s,
        });
        // Budget exhausted → server, not another directory.
        assert_eq!(
            d.process(&mut r, O1, NodeId(99), 1, 1),
            DirDecision::ToServer
        );
    }

    #[test]
    fn querying_peer_is_never_its_own_holder() {
        let mut d = dir();
        let mut r = rng();
        assert!(d.admit_or_refresh(NodeId(1), O1));
        assert_eq!(
            d.process(&mut r, O1, NodeId(1), 1, 0),
            DirDecision::ToServer
        );
    }

    #[test]
    fn load_spreads_over_holders() {
        let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 0, 10, 5, 100);
        let mut r = rng();
        for p in 0..5u32 {
            assert!(d.admit_or_refresh(NodeId(p), O1));
        }
        let mut seen = BTreeSet::new();
        for _ in 0..200 {
            if let DirDecision::ToHolder(h) = d.process(&mut r, O1, NodeId(99), 1, 0) {
                seen.insert(h);
            }
        }
        assert_eq!(seen.len(), 5, "redirections must hit every holder");
    }

    #[test]
    fn capacity_blocks_admission_but_not_refresh() {
        let mut d = dir(); // capacity 3
        assert!(d.admit_or_refresh(NodeId(1), O1));
        assert!(d.admit_or_refresh(NodeId(2), O1));
        assert!(d.admit_or_refresh(NodeId(3), O1));
        assert!(d.is_full());
        assert!(
            !d.admit_or_refresh(NodeId(4), O1),
            "full overlay rejects new peers"
        );
        assert!(d.admit_or_refresh(NodeId(1), O2), "members always refresh");
        assert_eq!(d.overlay_size(), 3);
    }

    #[test]
    fn tick_ages_and_evicts_at_tdead() {
        let mut d = dir(); // Tdead = 5
        d.admit_or_refresh(NodeId(1), O1);
        d.admit_or_refresh(NodeId(2), O1);
        for _ in 0..4 {
            assert!(d.tick().is_empty());
        }
        // Keepalive saves peer 2.
        d.keepalive(NodeId(2));
        let dead = d.tick();
        assert_eq!(dead, vec![NodeId(1)]);
        assert!(!d.contains(NodeId(1)));
        assert!(d.contains(NodeId(2)));
    }

    #[test]
    fn push_updates_entry_and_age() {
        let mut d = dir();
        d.admit_or_refresh(NodeId(1), O1);
        d.tick();
        d.apply_push(NodeId(1), &[O2], &[O1]);
        let mut r = rng();
        assert_eq!(
            d.process(&mut r, O2, NodeId(99), 1, 0),
            DirDecision::ToHolder(NodeId(1))
        );
        assert_eq!(
            d.process(&mut r, O1, NodeId(99), 1, 0),
            DirDecision::ToServer
        );
    }

    #[test]
    fn stale_holders_are_skipped() {
        let mut d = dir();
        let mut r = rng();
        d.admit_or_refresh(NodeId(1), O1);
        for _ in 0..5 {
            d.tick(); // evicts at age 5
        }
        assert_eq!(
            d.process(&mut r, O1, NodeId(99), 1, 0),
            DirDecision::ToServer
        );
    }

    #[test]
    fn summary_refresh_threshold() {
        let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 0, 100, 5, 100);
        for p in 0..10u32 {
            d.admit_or_refresh(NodeId(p), obj(p as usize));
        }
        // 10 new / 10 total = 1.0 ≥ 0.5 → refresh.
        let s = d
            .take_summary_refresh(PushPolicy::new(0.5))
            .expect("refresh due");
        assert!(s.might_contain(obj(3)));
        // Counter reset: no refresh until enough new changes.
        assert!(d.take_summary_refresh(PushPolicy::new(0.5)).is_none());
        d.admit_or_refresh(NodeId(0), obj(100));
        // 1 new / 11 total < 0.5.
        assert!(d.take_summary_refresh(PushPolicy::new(0.5)).is_none());
        assert!(d.take_summary_refresh(PushPolicy::new(0.05)).is_some());
    }

    /// The §4.2.1 refresh decides by the push rule exactly as the
    /// ratio it used to work out itself — `new / max(listings, 1) ≥
    /// threshold` — at the protocol's threshold, over pairs of (newly
    /// indexed, listings), zero listings with new ones among them.
    #[test]
    fn summary_refresh_decides_like_the_ratio_rule() {
        let threshold = crate::node::SUMMARY_REFRESH_THRESHOLD;
        let ratio_rule = |new: usize, listings: usize| {
            new != 0 && new as f64 / listings.max(1) as f64 >= threshold
        };
        for new in 0..6 {
            for listings in 0..40 {
                let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 0, 10, 5, 100);
                let old: Vec<ObjectId> = (0..listings).map(obj).collect();
                d.apply_push(NodeId(1), &old, &[]);
                d.take_summary_refresh(PushPolicy::new(f64::MIN_POSITIVE));
                // `new` objects indexed, then `new` listings gone.
                let added: Vec<ObjectId> = (listings..listings + new).map(obj).collect();
                let removed: Vec<ObjectId> = (0..new).map(obj).collect();
                d.apply_push(NodeId(1), &added, &removed);
                assert_eq!((d.new_since_refresh, d.holders.listings), (new, listings));
                assert_eq!(
                    d.take_summary_refresh(PushPolicy::new(threshold)).is_some(),
                    ratio_rule(new, listings),
                    "{new} new of {listings} listings"
                );
            }
        }
    }

    #[test]
    fn view_seed_prefers_young_entries() {
        let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 0, 100, 10, 100);
        d.admit_or_refresh(NodeId(1), O1);
        d.tick();
        d.tick();
        d.admit_or_refresh(NodeId(2), O1); // younger
        let seed = d.view_seed(1, NodeId(99));
        assert_eq!(seed, vec![NodeId(2)]);
        // exclusion works
        assert_eq!(d.view_seed(5, NodeId(2)), vec![NodeId(1)]);
    }

    #[test]
    fn takeover_seeding_answers_from_summaries() {
        let mut d = dir();
        let mut r = rng();
        let mut s = ContentSummary::empty(100);
        s.insert(O1);
        d.seed_from_view([(NodeId(7), Some(s)), (NodeId(8), None)]);
        assert_eq!(d.overlay_size(), 2);
        assert_eq!(
            d.process(&mut r, O1, NodeId(99), 1, 0),
            DirDecision::ToHolder(NodeId(7))
        );
    }

    #[test]
    fn first_push_clears_the_seeded_summary() {
        let mut d = dir();
        let mut r = rng();
        let mut s = ContentSummary::empty(100);
        s.insert(O1);
        d.seed_from_view([(NodeId(7), Some(s))]);
        // Answered from the summary while no push arrived.
        assert_eq!(
            d.process(&mut r, O1, NodeId(99), 1, 0),
            DirDecision::ToHolder(NodeId(7))
        );
        // The peer's first push is authoritative: it holds O2, not O1.
        d.apply_push(NodeId(7), &[O2], &[]);
        assert!(d.holders.seeds.is_empty(), "the push drops the seed");
        assert_eq!(
            d.process(&mut r, O1, NodeId(99), 1, 0),
            DirDecision::ToServer,
            "stale summary must stop matching after the push"
        );
        assert_eq!(
            d.process(&mut r, O2, NodeId(99), 1, 0),
            DirDecision::ToHolder(NodeId(7))
        );
    }

    /// Evicting or removing the last seeded member empties `seeds`,
    /// and `process` is back on the steady-state path: it draws a
    /// holder exactly as a directory that was never seeded does.
    #[test]
    fn losing_the_last_seeded_member_empties_the_seeds() {
        let mut s = ContentSummary::empty(100);
        s.insert(O1);
        let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 0, 10, 2, 100);
        d.apply_push(NodeId(1), &[O1], &[]);
        d.seed_from_view([(NodeId(7), Some(s.clone())), (NodeId(8), Some(s))]);
        assert_eq!(d.holders.seeds.len(), 2);
        assert!(d.remove_entry(NodeId(7)));
        assert_eq!(d.holders.seeds.len(), 1);
        // Ticks evict 8, never heard from; 1 stays by its keepalives.
        for _ in 0..2 {
            d.keepalive(NodeId(1));
            d.tick();
        }
        assert!(!d.contains(NodeId(8)) && d.contains(NodeId(1)));
        assert!(d.holders.seeds.is_empty());

        let mut plain = DirectoryState::new(WebsiteId(1), Locality(0), 0, 10, 2, 100);
        plain.apply_push(NodeId(1), &[O1], &[]);
        let (mut r1, mut r2) = (rng(), rng());
        assert_eq!(
            d.process(&mut r1, O1, NodeId(99), 1, 0),
            plain.process(&mut r2, O1, NodeId(99), 1, 0),
        );
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "same draws");
    }

    #[test]
    fn load_counters_track_protocol_traffic() {
        let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 3, 10, 5, 100);
        assert_eq!(d.instance(), 3);
        assert_eq!(d.load(), DirLoad::default());
        d.note_query();
        d.note_query();
        // Only queries are load: pushes and keepalives count nothing.
        d.apply_push(NodeId(1), &[O1], &[]);
        d.keepalive(NodeId(1));
        let l = d.load();
        assert_eq!((l.queries, l.window_queries), (2, 2));
        // The window drains; the lifetime counter does not.
        assert_eq!(d.take_window_queries(), 2);
        assert_eq!(d.take_window_queries(), 0);
        assert_eq!(d.load().queries, 2);
    }

    /// What `build_summary` used to compute: a from-scratch scan over
    /// every `(member, object)` listing.
    fn scan_summary(d: &DirectoryState) -> ContentSummary {
        let mut s = ContentSummary::empty(d.holders.summary.capacity());
        for e in d.members.entries.values() {
            for o in e.objects.iter() {
                s.insert(o);
            }
        }
        s
    }

    #[test]
    fn maintained_summary_tracks_every_index_mutation() {
        let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 0, 10, 3, 100);
        assert_eq!(d.build_summary(), scan_summary(&d));
        // Admissions (new entry + refresh).
        d.admit_or_refresh(NodeId(1), O1);
        d.admit_or_refresh(NodeId(2), O1);
        d.admit_or_refresh(NodeId(1), O2);
        assert_eq!(d.build_summary(), scan_summary(&d));
        // Pushes with adds and removes, including a §5.2-seeded entry
        // (whose gossip summary must never enter the filter).
        let mut s = ContentSummary::empty(100);
        s.insert(obj(77));
        d.seed_from_view([(NodeId(3), Some(s))]);
        assert_eq!(d.build_summary(), scan_summary(&d));
        d.apply_push(NodeId(3), &[obj(40), obj(41)], &[]);
        d.apply_push(NodeId(1), &[], &[O2]);
        assert_eq!(d.build_summary(), scan_summary(&d));
        // Redirection-failure removal and Tdead eviction.
        d.remove_entry(NodeId(2));
        assert_eq!(d.build_summary(), scan_summary(&d));
        for _ in 0..3 {
            d.tick();
        }
        assert_eq!(d.overlay_size(), 0, "everything aged out");
        assert_eq!(d.build_summary(), scan_summary(&d));
        assert_eq!(d.build_summary(), ContentSummary::empty(100));
        // §5.2 hand-off snapshot install restarts the counters.
        d.install_snapshot(vec![(NodeId(7), 1, vec![O1, O2]), (NodeId(8), 0, vec![O1])]);
        assert_eq!(d.build_summary(), scan_summary(&d));
        assert!(d.build_summary().might_contain(O1));
    }

    /// A hand-off entry that lists an object twice indexes it once:
    /// one listing, whose removal clears the object's bits.
    #[test]
    fn a_duplicated_hand_off_listing_counts_once() {
        let mut d = dir();
        d.install_snapshot(vec![(NodeId(7), 0, vec![O1, O1, O2])]);
        assert_eq!(d.holders.listings, 2);
        assert_eq!(d.build_summary(), scan_summary(&d));
        d.apply_push(NodeId(7), &[], &[O1]);
        assert_eq!(d.build_summary(), ContentSummary::from_objects(100, &[O2]));
        d.remove_entry(NodeId(7));
        assert_eq!(d.build_summary(), ContentSummary::empty(100));
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut d = dir();
        d.admit_or_refresh(NodeId(1), O1);
        d.admit_or_refresh(NodeId(1), O2);
        d.tick();
        let snap = d.snapshot();
        let mut d2 = dir();
        d2.install_snapshot(snap);
        assert!(d2.contains(NodeId(1)));
        let mut r = rng();
        assert_eq!(
            d2.process(&mut r, O1, NodeId(99), 1, 0),
            DirDecision::ToHolder(NodeId(1))
        );
    }

    #[test]
    fn remove_entry_after_redirection_failure() {
        let mut d = dir();
        d.admit_or_refresh(NodeId(1), O1);
        assert!(d.remove_entry(NodeId(1)));
        assert!(!d.remove_entry(NodeId(1)));
        assert!(!d.contains(NodeId(1)));
    }

    #[test]
    fn neighbor_summary_replaced_not_duplicated() {
        let mut d = dir();
        let mk = |o: ObjectId| {
            let mut s = ContentSummary::empty(100);
            s.insert(o);
            NeighborSummary {
                dir: NodeId(50),
                locality: Locality(1),
                dir_id: ChordId(5),
                summary: s,
            }
        };
        d.update_neighbor_summary(mk(O1));
        d.update_neighbor_summary(mk(O2));
        assert_eq!(d.neighbor_summaries().len(), 1);
        assert!(d.neighbor_summaries()[0].summary.might_contain(O2));
    }

    /// The order as it was kept before the `fresh` / `aged` split — an
    /// ordered set of `(age − ticks, id)` stamps, re-keyed on every
    /// write — over the ages alone: the oracle `view_seed` must equal.
    struct OrderedSetReference {
        ages: BTreeMap<u32, u32>,
        capacity: usize,
        t_dead: u32,
        ticks: i64,
        recency: BTreeSet<(i64, u32)>,
    }

    impl OrderedSetReference {
        fn new(capacity: usize, t_dead: u32) -> Self {
            OrderedSetReference {
                ages: BTreeMap::new(),
                capacity,
                t_dead,
                ticks: 0,
                recency: BTreeSet::new(),
            }
        }

        fn admit(&mut self, peer: u32) {
            if !self.ages.contains_key(&peer) && self.ages.len() < self.capacity {
                self.ages.insert(peer, 0);
                self.recency.insert((-self.ticks, peer));
            }
        }

        /// What `admit_or_refresh`, `apply_push` and `keepalive` do
        /// to the order.
        fn refresh(&mut self, peer: u32) {
            match self.ages.get_mut(&peer) {
                Some(age) => {
                    self.recency.remove(&(*age as i64 - self.ticks, peer));
                    self.recency.insert((-self.ticks, peer));
                    *age = 0;
                }
                None => self.admit(peer),
            }
        }

        fn remove(&mut self, peer: u32) {
            if let Some(age) = self.ages.remove(&peer) {
                self.recency.remove(&(age as i64 - self.ticks, peer));
            }
        }

        fn tick(&mut self) {
            self.ticks += 1;
            for age in self.ages.values_mut() {
                *age += 1;
            }
            let dead: Vec<u32> = self
                .ages
                .iter()
                .filter(|(_, age)| **age >= self.t_dead)
                .map(|(peer, _)| *peer)
                .collect();
            for peer in dead {
                self.remove(peer);
            }
        }

        fn install(&mut self, entries: &[(u32, u32)]) {
            self.ages.clear();
            self.recency.clear();
            for &(peer, age) in entries {
                self.ages.insert(peer, age);
                self.recency.insert((age as i64 - self.ticks, peer));
            }
        }

        fn view_seed(&self, n: usize, exclude: u32) -> Vec<NodeId> {
            assert_eq!(self.recency.len(), self.ages.len());
            self.recency
                .iter()
                .filter(|&&(_, p)| p != exclude)
                .take(n)
                .map(|&(_, p)| NodeId(p))
                .collect()
        }
    }

    const NON_MEMBER: u32 = 1_000;

    /// `view_seed` equals the reference for `n` ∈ {0, 1, 8, more than
    /// there are members}, excluding a non-member and the last member
    /// a full answer names.
    fn assert_seeds_like(d: &DirectoryState, r: &OrderedSetReference) {
        assert_eq!(d.overlay_size(), r.ages.len());
        for n in [0, 1, 8, r.capacity + 5] {
            let full = r.view_seed(n, NON_MEMBER);
            assert_eq!(d.view_seed(n, NodeId(NON_MEMBER)), full, "n = {n}");
            if let Some(member) = full.last() {
                assert_eq!(
                    d.view_seed(n, *member),
                    r.view_seed(n, member.0),
                    "n = {n}, excluding {member:?}"
                );
            }
        }
    }

    #[test]
    fn readmission_inside_one_tick_is_filed_twice_and_named_once() {
        let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 0, 10, 5, 100);
        for p in [1, 2, 3] {
            d.admit_or_refresh(NodeId(p), O1);
        }
        assert!(d.remove_entry(NodeId(2)));
        d.keepalive(NodeId(2));
        assert_eq!(d.members.fresh.iter().filter(|&&p| p == 2).count(), 2);
        assert_eq!(
            d.view_seed(8, NodeId(99)),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(d.view_seed(2, NodeId(1)), vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn the_read_right_after_a_tick_comes_from_the_sorted_survivors() {
        let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 0, 10, 5, 100);
        d.admit_or_refresh(NodeId(7), O1);
        d.tick();
        d.apply_push(NodeId(3), &[O1], &[]);
        d.keepalive(NodeId(9));
        d.tick();
        assert!(
            d.members.fresh.is_empty(),
            "no member is at age 0 after a tick"
        );
        assert_eq!(d.members.aged, vec![(1, 3), (1, 9), (2, 7)]);
        assert_eq!(
            d.view_seed(8, NodeId(99)),
            vec![NodeId(3), NodeId(9), NodeId(7)]
        );
        // A refresh moves to the front and leaves its `aged` entry
        // behind, invalid; a removal leaves one too.
        d.keepalive(NodeId(7));
        d.remove_entry(NodeId(3));
        assert_eq!(d.view_seed(8, NodeId(99)), vec![NodeId(7), NodeId(9)]);
    }

    #[test]
    fn a_full_overlay_files_nobody_new() {
        let mut d = dir(); // Sco = 3
        for p in [5, 6, 7] {
            d.keepalive(NodeId(p));
        }
        assert!(!d.admit_or_refresh(NodeId(1), O1));
        d.keepalive(NodeId(2));
        d.apply_push(NodeId(3), &[O1], &[]);
        d.seed_from_view([(NodeId(4), None)]);
        assert_eq!(d.members.fresh.len(), 3);
        assert_eq!(
            d.view_seed(8, NodeId(99)),
            vec![NodeId(5), NodeId(6), NodeId(7)]
        );
    }

    #[test]
    fn a_snapshot_mixing_fresh_and_aged_members_keeps_the_order() {
        let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 0, 10, 5, 100);
        d.admit_or_refresh(NodeId(50), O1); // replaced wholesale
        d.install_snapshot(vec![
            (NodeId(9), 2, vec![O1]),
            (NodeId(4), 0, vec![]),
            (NodeId(8), 1, vec![O2]),
            (NodeId(2), 0, vec![O1]),
            (NodeId(3), 2, vec![]),
        ]);
        let order = [2, 4, 8, 3, 9].map(NodeId);
        assert_eq!(d.view_seed(8, NodeId(99)), order);
        assert_eq!(d.view_seed(2, NodeId(2)), order[1..3]);
        // The round trip through `snapshot` changes nothing.
        let mut d2 = dir();
        d2.install_snapshot(d.snapshot());
        assert_eq!(d2.view_seed(8, NodeId(99)), order);
    }

    #[test]
    fn members_evicted_at_tdead_leave_the_order() {
        let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 0, 10, 2, 100);
        d.keepalive(NodeId(1));
        d.tick();
        d.keepalive(NodeId(2));
        assert_eq!(d.tick(), vec![NodeId(1)]);
        assert_eq!(d.members.aged, vec![(1, 2)]);
        assert_eq!(d.view_seed(8, NodeId(99)), vec![NodeId(2)]);
    }

    /// One member of [`SortedInsertReference`].
    struct ReferenceMember {
        age: u32,
        objects: BTreeSet<ObjectId>,
        summary: Option<ContentSummary>,
    }

    /// The directory index as it was before holder lists were sorted
    /// on read — every listing a sorted insert that skips a holder
    /// already listed, every removal a binary search — over ordered
    /// std collections: the oracle `process`, `build_summary` and the
    /// listing count must agree with after any sequence of writes.
    struct SortedInsertReference {
        capacity: usize,
        t_dead: u32,
        members: BTreeMap<u32, ReferenceMember>,
        holders_of: BTreeMap<ObjectId, Vec<NodeId>>,
        listings: usize,
        neighbours: Vec<(NodeId, ContentSummary)>,
    }

    impl SortedInsertReference {
        fn new(capacity: usize, t_dead: u32) -> Self {
            SortedInsertReference {
                capacity,
                t_dead,
                members: BTreeMap::new(),
                holders_of: BTreeMap::new(),
                listings: 0,
                neighbours: Vec::new(),
            }
        }

        fn add_holder(&mut self, o: ObjectId, peer: NodeId) {
            let hs = self.holders_of.entry(o).or_default();
            if let Err(pos) = hs.binary_search_by_key(&peer.0, |n| n.0) {
                hs.insert(pos, peer);
                self.listings += 1;
            }
        }

        fn remove_holder(&mut self, o: ObjectId, peer: NodeId) {
            if let Some(hs) = self.holders_of.get_mut(&o) {
                if let Ok(pos) = hs.binary_search_by_key(&peer.0, |n| n.0) {
                    hs.remove(pos);
                    self.listings -= 1;
                    if hs.is_empty() {
                        self.holders_of.remove(&o);
                    }
                }
            }
        }

        fn is_full(&self) -> bool {
            self.members.len() >= self.capacity
        }

        /// The member `peer`, admitted with nothing if there is room.
        fn member(&mut self, peer: NodeId) -> Option<&mut ReferenceMember> {
            if !self.members.contains_key(&peer.0) && self.is_full() {
                return None;
            }
            let m = self.members.entry(peer.0).or_insert(ReferenceMember {
                age: 0,
                objects: BTreeSet::new(),
                summary: None,
            });
            m.age = 0;
            Some(m)
        }

        fn admit_or_refresh(&mut self, peer: NodeId, o: ObjectId) -> bool {
            let Some(m) = self.member(peer) else {
                return false;
            };
            if m.objects.insert(o) {
                self.add_holder(o, peer);
            }
            true
        }

        fn apply_push(&mut self, peer: NodeId, added: &[ObjectId], removed: &[ObjectId]) {
            let Some(m) = self.member(peer) else { return };
            m.summary = None;
            let new: Vec<ObjectId> = added
                .iter()
                .filter(|o| m.objects.insert(**o))
                .copied()
                .collect();
            let gone: Vec<ObjectId> = removed
                .iter()
                .filter(|o| m.objects.remove(*o))
                .copied()
                .collect();
            for o in new {
                self.add_holder(o, peer);
            }
            for o in gone {
                self.remove_holder(o, peer);
            }
        }

        fn keepalive(&mut self, peer: NodeId) {
            self.member(peer);
        }

        fn remove_entry(&mut self, peer: NodeId) -> bool {
            let Some(m) = self.members.remove(&peer.0) else {
                return false;
            };
            for o in m.objects {
                self.remove_holder(o, peer);
            }
            true
        }

        fn tick(&mut self) -> Vec<NodeId> {
            for m in self.members.values_mut() {
                m.age = m.age.saturating_add(1);
            }
            let dead: Vec<NodeId> = self
                .members
                .iter()
                .filter(|(_, m)| m.age >= self.t_dead)
                .map(|(p, _)| NodeId(*p))
                .collect();
            for p in &dead {
                self.remove_entry(*p);
            }
            dead
        }

        fn seed_from_view(&mut self, entries: &[(NodeId, Option<ContentSummary>)]) {
            for (peer, summary) in entries {
                if !self.is_full() && !self.members.contains_key(&peer.0) {
                    let m = self.member(*peer).expect("room checked");
                    m.summary = summary.clone();
                }
            }
        }

        fn install_snapshot(&mut self, entries: &[(NodeId, u32, Vec<ObjectId>)]) {
            self.members.clear();
            self.holders_of.clear();
            self.listings = 0;
            for (peer, age, objects) in entries {
                for o in objects {
                    self.add_holder(*o, *peer);
                }
                let m = ReferenceMember {
                    age: *age,
                    objects: objects.iter().copied().collect(),
                    summary: None,
                };
                self.members.insert(peer.0, m);
            }
        }

        /// Algorithm 3 as `process` made it before lists were sorted
        /// on read.
        fn process(
            &self,
            rng: &mut StdRng,
            object: ObjectId,
            exclude: NodeId,
            max_dir_hops: u8,
            dir_hops: u8,
        ) -> DirDecision {
            if self.members.values().all(|m| m.summary.is_none()) {
                if let Some(hs) = self.holders_of.get(&object) {
                    let excluded = hs.binary_search_by_key(&exclude.0, |n| n.0).ok();
                    let count = hs.len() - usize::from(excluded.is_some());
                    if count > 0 {
                        let i = rng.gen_range(0..count);
                        let at = match excluded {
                            Some(ep) if i >= ep => i + 1,
                            _ => i,
                        };
                        return DirDecision::ToHolder(hs[at]);
                    }
                }
            } else {
                let live = |p: &NodeId| {
                    *p != exclude && self.members.get(&p.0).is_some_and(|m| m.age < self.t_dead)
                };
                let mut holders: Vec<NodeId> = self
                    .holders_of
                    .get(&object)
                    .into_iter()
                    .flatten()
                    .copied()
                    .filter(live)
                    .collect();
                for (peer, m) in &self.members {
                    if live(&NodeId(*peer))
                        && !m.objects.contains(&object)
                        && m.summary.as_ref().is_some_and(|s| s.might_contain(object))
                    {
                        holders.push(NodeId(*peer));
                    }
                }
                holders.sort_unstable_by_key(|n| n.0);
                if let Some(h) = holders.choose(rng) {
                    return DirDecision::ToHolder(*h);
                }
            }
            if dir_hops < max_dir_hops {
                let candidates: Vec<NodeId> = self
                    .neighbours
                    .iter()
                    .filter(|(_, s)| s.might_contain(object))
                    .map(|(d, _)| *d)
                    .collect();
                if let Some(d) = candidates.choose(rng) {
                    return DirDecision::ToDirectory(*d);
                }
            }
            DirDecision::ToServer
        }

        /// The summary a from-scratch scan of the listings builds.
        fn scan_summary(&self, capacity: usize) -> ContentSummary {
            let mut s = ContentSummary::empty(capacity);
            for m in self.members.values() {
                for o in &m.objects {
                    s.insert(*o);
                }
            }
            s
        }
    }

    /// The member order's invariant: every member is valid in exactly
    /// one of `fresh` (filed there, at age 0) and `aged` (recorded
    /// once, at its age); `fresh` is a min-heap and `aged` sorted.
    fn assert_member_order_exact(d: &DirectoryState) {
        let m = &d.members;
        let heap = (1..m.fresh.len()).all(|i| m.fresh[(i - 1) / 2] <= m.fresh[i]);
        assert!(heap, "fresh is not a min-heap: {:?}", m.fresh);
        assert!(m.aged.is_sorted(), "aged is not sorted: {:?}", m.aged);
        for (p, e) in &m.entries {
            let in_fresh = e.age == 0 && m.fresh.contains(&p.0);
            let in_aged = m.aged.iter().filter(|&&r| r == (e.age, p.0)).count();
            assert!(
                usize::from(in_fresh) + in_aged == 1,
                "{p:?} at age {} is valid {} times",
                e.age,
                usize::from(in_fresh) + in_aged
            );
        }
    }

    /// The holder index's invariant: it lists exactly the index's
    /// object sets — `o ∈ index[p].objects` iff `p ∈ holders_of[o]`,
    /// each listing once — keeps no empty list, and keeps gossip
    /// summaries only for members.
    fn assert_inverted_index_exact(d: &DirectoryState) {
        for (p, e) in &d.members.entries {
            for o in e.objects.iter() {
                assert!(
                    d.holders
                        .holders_of
                        .get(&o)
                        .is_some_and(|hs| hs.contains(p)),
                    "{p:?} holds {o:?} but is not listed"
                );
            }
        }
        for (o, hs) in &d.holders.holders_of {
            assert!(!hs.is_empty(), "empty holder list kept for {o:?}");
            for p in hs {
                assert!(
                    d.members
                        .entries
                        .get(p)
                        .is_some_and(|e| e.objects.contains(*o)),
                    "{p:?} listed under {o:?} without holding it"
                );
            }
        }
        let listed: usize = d.holders.holders_of.values().map(Vec::len).sum();
        let held: usize = d.members.entries.values().map(|e| e.objects.len()).sum();
        assert_eq!(listed, held, "a holder is listed twice");
        assert_eq!(d.holders.listings, listed);
        for p in d.holders.seeds.keys() {
            assert!(d.contains(*p), "{p:?} seeded without being a member");
        }
    }

    /// The members whose gossip summary `d` scans: exactly those the
    /// reference has a summary for, so no entry outside `seeds` is
    /// treated as seeded.
    fn assert_seeded_like(d: &DirectoryState, r: &SortedInsertReference) {
        let mut seeded: Vec<u32> = d.holders.seeds.keys().map(|p| p.0).collect();
        seeded.sort_unstable();
        let expect = r.members.iter().filter(|(_, m)| m.summary.is_some());
        assert_eq!(seeded, expect.map(|(p, _)| *p).collect::<Vec<_>>());
    }

    /// Both owners' invariants.
    fn assert_owners_exact(d: &DirectoryState) {
        assert_member_order_exact(d);
        assert_inverted_index_exact(d);
    }

    proptest! {
        /// Any sequence of index writes — admissions, pushes that add
        /// and remove, keepalives, ticks that evict, removals, §5.2
        /// seeding, hand-offs with an object listed twice — leaves
        /// the appended, sorted-on-read holder lists deciding exactly
        /// like the sorted-insert reference: after every step, the
        /// same Algorithm 3 decision from the same RNG state (and the
        /// same RNG state after it) for several objects and excludes,
        /// the same summary and listing count, and an exact inverted
        /// index.
        #[test]
        fn holder_lists_decide_like_the_sorted_insert_reference(
            ops in proptest::collection::vec((0u8..9, 0u32..10, 0u64..8), 1..120),
        ) {
            let (capacity, t_dead, bits) = (8, 3, 30);
            let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 0, capacity, t_dead, bits);
            let mut r = SortedInsertReference::new(capacity, t_dead);
            let obj = |k: u64| obj(k as usize * 31 + 5);
            let neighbour = ContentSummary::from_objects(bits, &[obj(1), obj(6)]);
            d.update_neighbor_summary(NeighborSummary {
                dir: NodeId(50),
                locality: Locality(1),
                dir_id: ChordId(5),
                summary: neighbour.clone(),
            });
            r.neighbours.push((NodeId(50), neighbour));
            for (step, (op, peer, k)) in ops.into_iter().enumerate() {
                let p = NodeId(peer);
                match op {
                    0 => prop_assert_eq!(d.admit_or_refresh(p, obj(k)), r.admit_or_refresh(p, obj(k))),
                    1 => {
                        let (added, removed) = ([obj(k), obj(k + 1)], [obj(k + 2)]);
                        d.apply_push(p, &added, &removed);
                        r.apply_push(p, &added, &removed);
                    }
                    2 => {
                        let (added, removed) = ([obj(k)], [obj(k), obj(k + 1)]);
                        d.apply_push(p, &added, &removed);
                        r.apply_push(p, &added, &removed);
                    }
                    3 => {
                        d.keepalive(p);
                        r.keepalive(p);
                    }
                    4 => prop_assert_eq!(d.tick(), r.tick()),
                    5 => prop_assert_eq!(d.remove_entry(p), r.remove_entry(p)),
                    6 => {
                        let s = ContentSummary::from_objects(bits, &[obj(k)]);
                        let entries = [(p, Some(s)), (NodeId(peer + 1), None)];
                        d.seed_from_view(entries.iter().cloned());
                        r.seed_from_view(&entries);
                    }
                    7 => {
                        let mut snap = d.snapshot();
                        if let Some((_, _, objects)) = snap.first_mut() {
                            objects.extend([obj(k), obj(k)]);
                        }
                        r.install_snapshot(&snap);
                        d.install_snapshot(snap);
                    }
                    _ => {
                        // Members listed out of node-id order.
                        for q in [peer + 3, peer, peer + 1].map(NodeId) {
                            d.apply_push(q, &[obj(k)], &[]);
                            r.apply_push(q, &[obj(k)], &[]);
                        }
                    }
                }
                assert_owners_exact(&d);
                assert_seeded_like(&d, &r);
                prop_assert_eq!(d.holders.listings, r.listings);
                prop_assert_eq!(d.build_summary(), r.scan_summary(bits));
                for k in 0..9 {
                    for exclude in [NodeId(NON_MEMBER), NodeId(peer), NodeId(2)] {
                        let mut rd = StdRng::seed_from_u64(step as u64 * 16 + k);
                        let mut rr = rd.clone();
                        prop_assert_eq!(
                            d.process(&mut rd, obj(k), exclude, 1, 0),
                            r.process(&mut rr, obj(k), exclude, 1, 0),
                            "step {}, object {}, excluding {:?}", step, k, exclude
                        );
                        prop_assert_eq!(rd.gen::<u64>(), rr.gen::<u64>());
                    }
                }
            }
        }

        /// Random index mutations, hand-offs with a duplicated listing
        /// among them: every directory summary is the from-scratch
        /// filter over the index's listings, one insert per `(member,
        /// object)`.
        #[test]
        fn every_summary_equals_a_scan_of_the_listings(
            ops in proptest::collection::vec((0u8..8, 0u32..10, 0u64..8), 1..150),
        ) {
            let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 0, 8, 3, 30);
            let obj = |k: u64| obj(k as usize * 31 + 5);
            for (op, peer, k) in ops {
                let p = NodeId(peer);
                match op {
                    0 => {
                        d.admit_or_refresh(p, obj(k));
                    }
                    1 => d.apply_push(p, &[obj(k), obj(k + 1)], &[obj(k + 2)]),
                    2 => d.apply_push(p, &[], &[obj(k), obj(k + 1)]),
                    3 => {
                        let s = ContentSummary::from_objects(30, &[obj(k)]);
                        d.seed_from_view([(p, Some(s)), (NodeId(peer + 1), None)]);
                    }
                    4 => {
                        d.remove_entry(p);
                    }
                    5 => {
                        d.tick();
                    }
                    6 => {
                        let mut snap = d.snapshot();
                        if let Some((_, _, objects)) = snap.first_mut() {
                            objects.extend([obj(k), obj(k)]);
                        }
                        d.install_snapshot(snap);
                    }
                    _ => prop_assert_eq!(d.build_summary(), scan_summary(&d)),
                }
                assert_owners_exact(&d);
            }
            prop_assert_eq!(d.build_summary(), scan_summary(&d));
        }

        /// Any sequence of writes leaves `view_seed` equal to the
        /// ordered-set reference after every step.
        #[test]
        fn view_seed_equals_the_ordered_set_reference(
            capacity in 1usize..20,
            t_dead in 1u32..6,
            ops in proptest::collection::vec((0u8..10, 0u32..24), 1..200),
        ) {
            let mut d = DirectoryState::new(WebsiteId(1), Locality(0), 0, capacity, t_dead, 100);
            let mut r = OrderedSetReference::new(capacity, t_dead);
            for (op, peer) in ops {
                match op {
                    0 => {
                        d.admit_or_refresh(NodeId(peer), O1);
                        r.refresh(peer);
                    }
                    1 => {
                        d.apply_push(NodeId(peer), &[O2], &[O1]);
                        r.refresh(peer);
                    }
                    2..=4 => {
                        d.keepalive(NodeId(peer));
                        r.refresh(peer);
                    }
                    5 => {
                        d.remove_entry(NodeId(peer));
                        r.remove(peer);
                    }
                    6 => {
                        d.tick();
                        r.tick();
                        prop_assert!(d.members.fresh.is_empty());
                        prop_assert_eq!(d.members.aged.len(), d.overlay_size());
                    }
                    7 => {
                        let s = ContentSummary::empty(100);
                        d.seed_from_view([(NodeId(peer), None), (NodeId(peer + 1), Some(s))]);
                        r.admit(peer);
                        r.admit(peer + 1);
                    }
                    8 => {
                        // Ages 0 ..= Tdead, the last evicted by the
                        // next tick.
                        let entries: Vec<(u32, u32)> = (0..capacity as u32 / 2)
                            .map(|i| (peer + 2 * i, (peer + i) % (t_dead + 1)))
                            .collect();
                        d.install_snapshot(
                            entries.iter().map(|&(p, age)| (NodeId(p), age, vec![O1])).collect(),
                        );
                        r.install(&entries);
                    }
                    _ => {
                        let snap = d.snapshot();
                        let entries: Vec<(u32, u32)> =
                            snap.iter().map(|(p, age, _)| (p.0, *age)).collect();
                        d.install_snapshot(snap);
                        r.install(&entries);
                    }
                }
                assert_seeds_like(&d, &r);
                assert_owners_exact(&d);
            }
        }
    }
}
