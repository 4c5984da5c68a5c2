//! Pure, message-free Chord routing state.
//!
//! Everything here is a deterministic function of the node's knowledge
//! (predecessor, successor list, finger table), which makes the
//! routing and maintenance decisions unit-testable without a network.
//! The message-passing protocol around this state lives in
//! [`crate::proto`].

use simnet::NodeId;

use crate::id::ChordId;

/// A reference to a DHT peer: its ring identifier and its underlay
/// address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PeerRef {
    /// Ring position.
    pub id: ChordId,
    /// Underlay address to send messages to.
    pub node: NodeId,
}

/// Tunables of the Chord instance.
#[derive(Clone, Debug)]
pub struct ChordConfig {
    /// Length of the successor list (robustness to consecutive
    /// failures).
    pub successor_list_len: usize,
    /// Routing TTL: a routed message that exceeds this many hops is
    /// delivered at the current node (the application decides how to
    /// recover).
    pub max_hops: u8,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            successor_list_len: 8,
            max_hops: 64,
        }
    }
}

/// The local routing state of one Chord peer.
#[derive(Clone, Debug)]
pub struct ChordState {
    cfg: ChordConfig,
    me: PeerRef,
    predecessor: Option<PeerRef>,
    /// Immediate successor first; deduplicated; length bounded by
    /// `cfg.successor_list_len`.
    successors: Vec<PeerRef>,
    /// The finger table, slot `i` ≈ successor(me.id + 2^i), as its
    /// maximal runs of equal consecutive slots: `(first slot, value)`,
    /// ascending, the first at slot 0, no two neighbours equal — one
    /// form per table. A converged ring of `n` peers fills the low
    /// slots with the immediate successor and the rest with
    /// ≈ log2(n) distinct fingers, so the table is a dozen runs rather
    /// than 64 slots.
    fingers: Box<[(u8, Option<PeerRef>)]>,
    next_finger: u32,
    /// The routing view [`Self::known_peers`] hands out: a function of
    /// `predecessor`, `successors` and `fingers` only, kept at its
    /// exact length. Every mutator below that changes one of those
    /// slots calls [`Self::rebuild_view`]; nothing else writes it. The
    /// mutators compare before writing — a converged ring's stabilize
    /// replies and finger fixes rewrite what is already there — so a
    /// view is rebuilt only on a real change. Exact-sized rather than a
    /// reusable buffer: spare capacity per directory showed in the
    /// benchmark's `peak_rss_mb` and buys nothing on a table read
    /// millions of times and changed a few thousand.
    view: Box<[PeerRef]>,
}

impl ChordState {
    /// A fresh single-node ring.
    pub fn new(me: PeerRef, cfg: ChordConfig) -> Self {
        ChordState {
            cfg,
            me,
            predecessor: None,
            successors: Vec::new(),
            fingers: runs(&[None; SLOTS]),
            next_finger: 0,
            view: Box::default(),
        }
    }

    /// A joined state at `me` rebuilt from the neighbour list of a
    /// departing peer at the same id ([`Self::handoff_neighbors`]): the
    /// heir of a voluntary hand-off (§5.2) assumes the position.
    pub fn from_handoff(me: PeerRef, neighbors: &[PeerRef], cfg: ChordConfig) -> Self {
        let mut others: Vec<PeerRef> = neighbors
            .iter()
            .filter(|p| p.node != me.node)
            .copied()
            .collect();
        // Ring order around our id: clockwise distance sorts the old
        // successor list back into place; the closest
        // counter-clockwise neighbour is the predecessor.
        let pred = others
            .iter()
            .copied()
            .min_by_key(|p| p.id.clockwise_distance(me.id));
        others.sort_by_key(|p| me.id.clockwise_distance(p.id));
        let mut st = ChordState::new(me, cfg);
        st.install(pred, others, vec![None; SLOTS]);
        st
    }

    /// The neighbours a voluntary hand-off ships to the heir: the
    /// successor list and the predecessor, enough for
    /// [`Self::from_handoff`] to rebuild a working state at this id.
    pub fn handoff_neighbors(&self) -> Vec<PeerRef> {
        let mut out = self.successors.clone();
        if let Some(p) = self.predecessor {
            if out.iter().all(|q| q.node != p.node) {
                out.push(p);
            }
        }
        out
    }

    /// After a join: the underlay node that already holds this exact
    /// id, if the position turned out to be taken.
    pub fn position_taken_by(&self) -> Option<NodeId> {
        self.successor()
            .filter(|s| s.id == self.me.id && s.node != self.me.node)
            .map(|s| s.node)
    }

    /// This peer's reference.
    pub fn me(&self) -> PeerRef {
        self.me
    }

    /// This peer's ring id.
    pub fn id(&self) -> ChordId {
        self.me.id
    }

    /// The configuration.
    pub fn config(&self) -> &ChordConfig {
        &self.cfg
    }

    /// Current predecessor, if known.
    pub fn predecessor(&self) -> Option<PeerRef> {
        self.predecessor
    }

    /// Immediate successor, if any.
    pub fn successor(&self) -> Option<PeerRef> {
        self.successors.first().copied()
    }

    /// The whole successor list.
    pub fn successors(&self) -> &[PeerRef] {
        &self.successors
    }

    /// The finger table (sparse): each filled slot's peer, in slot
    /// order, a peer repeated once per slot it fills.
    pub fn fingers(&self) -> impl Iterator<Item = PeerRef> + '_ {
        self.finger_slots().into_iter().flatten()
    }

    /// The 64 finger slots, expanded from their runs (each run fills
    /// the rest of the table, up to where the next one starts).
    fn finger_slots(&self) -> [Option<PeerRef>; SLOTS] {
        let mut slots = [None; SLOTS];
        for &(first, f) in &self.fingers {
            slots[first as usize..].fill(f);
        }
        slots
    }

    /// Is this node responsible for `key`? True when `key ∈
    /// (predecessor, me]`, or when the node knows no one else.
    pub fn is_responsible(&self, key: ChordId) -> bool {
        match self.predecessor {
            Some(p) => ChordId::in_open_closed(p.id, self.me.id, key),
            // No predecessor: responsible unless a known successor is
            // a better owner (conservative bootstrap behaviour).
            None => match self.successor() {
                Some(s) => !ChordId::in_open_closed(self.me.id, s.id, key) || s.id == self.me.id,
                None => true,
            },
        }
    }

    /// Every peer this node knows — successor list, fingers and
    /// predecessor — in ascending ring-id order (entries with equal
    /// ids keep that listing order).
    ///
    /// Deduplication is by underlay node and *adjacent-only*, applied
    /// after the sort: of a run of neighbouring entries with the same
    /// node, the first stays. So a peer present in several slots
    /// appears once; a node known under two ids loses the larger id
    /// when nothing sorts between the two; and two nodes claiming one
    /// id (racing §5.2 replacements) both stay, possibly more than
    /// once (`a, b, a`). Routing tie-breaks depend on this order.
    ///
    /// The slice is maintained state, rebuilt only when a routing slot
    /// changes; reading it allocates and sorts nothing.
    pub fn known_peers(&self) -> &[PeerRef] {
        debug_assert_eq!(
            *self.view,
            *self.build_view(),
            "routing view drifted from the routing slots"
        );
        &self.view
    }

    /// The view from scratch. A run of equal finger slots is listed
    /// once: nothing is listed between its slots, so the stable sort
    /// would leave them adjacent and the dedup drop the repeats anyway
    /// — and on a converged ring that is 50-odd of the 64 slots, which
    /// keeps the sort on its short-slice path.
    fn build_view(&self) -> Box<[PeerRef]> {
        let mut out: Vec<PeerRef> =
            Vec::with_capacity(self.successors.len() + self.fingers.len() + 1);
        out.extend_from_slice(&self.successors);
        out.extend(self.fingers.iter().filter_map(|&(_, f)| f));
        out.extend(self.predecessor);
        out.sort_by_key(|p| p.id.0);
        out.dedup_by_key(|p| p.node);
        out.into_boxed_slice()
    }

    /// Recompute the view after a routing slot changed.
    fn rebuild_view(&mut self) {
        self.view = self.build_view();
    }

    /// The classic `closest_preceding_node`: the known peer with the
    /// largest id in `(me, key)`, i.e. the longest safe jump toward
    /// `key` that cannot overshoot the owner (the last such entry of
    /// [`Self::known_peers`] when several share that id).
    pub fn closest_preceding(&self, key: ChordId) -> Option<PeerRef> {
        // `x ∈ (me, key)` is `0 < d(x) < d(key)` clockwise from `me`,
        // and the whole ring but `me` when `key == me`: less one and
        // wrapping, both are the single compare `d(x) - 1 < d(key) - 1`.
        let from_me = |id: ChordId| self.me.id.clockwise_distance(id).wrapping_sub(1);
        let span = from_me(key);
        self.known_peers()
            .iter()
            .filter(|p| from_me(p.id) < span && p.node != self.me.node)
            .max_by_key(|p| from_me(p.id))
            .copied()
    }

    /// The paper's `local_lookup(key)` (Algorithm 1): the best
    /// candidate for `key` among this node and its routing table.
    /// Returns `me` when this node believes it is the owner.
    pub fn local_lookup(&self, key: ChordId) -> PeerRef {
        if self.is_responsible(key) {
            return self.me;
        }
        if let Some(s) = self.successor() {
            if ChordId::in_open_closed(self.me.id, s.id, key) {
                return s;
            }
        }
        self.closest_preceding(key)
            .or(self.successor())
            .unwrap_or(self.me)
    }

    /// Install a peer into the finger table slot it fixes.
    pub fn set_finger(&mut self, index: u32, peer: PeerRef) {
        let slot = (peer.node != self.me.node).then_some(peer);
        // A converged ring's finger fixes rewrite the value already
        // there: only a real change pays for new runs and a new view.
        // The run is found by a scan from slot 0, not a binary search:
        // the first run spans most of the table (every target short of
        // the immediate successor), so the scan mostly stops at once.
        let run = self.fingers[1..]
            .iter()
            .take_while(|&&(first, _)| u32::from(first) <= index)
            .count();
        if self.fingers[run].1 != slot {
            let mut slots = self.finger_slots();
            slots[index as usize] = slot;
            self.fingers = runs(&slots);
            self.rebuild_view();
        }
    }

    /// Round-robin finger index to refresh next, with its target key.
    pub fn next_finger_target(&mut self) -> (u32, ChordId) {
        let i = self.next_finger;
        self.next_finger = (self.next_finger + 1) % ChordId::BITS;
        (i, self.me.id.finger_target(i))
    }

    /// Adopt `s` as immediate successor (join/repair), keeping the
    /// rest of the list.
    pub fn adopt_successor(&mut self, s: PeerRef) {
        if s.node == self.me.node {
            return;
        }
        // Already first and listed nowhere else: the steps below would
        // rewrite the same list.
        if self.successors.first() == Some(&s)
            && self.successors[1..].iter().all(|p| p.node != s.node)
        {
            return;
        }
        self.successors.retain(|p| p.node != s.node);
        self.successors.insert(0, s);
        self.successors.truncate(self.cfg.successor_list_len);
        self.rebuild_view();
    }

    /// Merge the successor's own list into ours (stabilization step):
    /// `ours = [succ] ++ succ_list_of_succ`, truncated and deduped.
    pub fn refresh_successor_list(&mut self, succ: PeerRef, its_list: &[PeerRef]) {
        let mut merged = Vec::with_capacity(self.cfg.successor_list_len);
        merged.push(succ);
        for p in its_list {
            if p.node != self.me.node && !merged.iter().any(|q| q.node == p.node) {
                merged.push(*p);
            }
            if merged.len() >= self.cfg.successor_list_len {
                break;
            }
        }
        // Stabilize replies on a converged ring carry the list we hold.
        if self.successors != merged {
            self.successors = merged;
            self.rebuild_view();
        }
    }

    /// Chord's `notify`: `candidate` claims to be our predecessor.
    /// Accept if we have none or it sits between the current
    /// predecessor and us. Returns true if adopted.
    pub fn on_notify(&mut self, candidate: PeerRef) -> bool {
        if candidate.node == self.me.node {
            return false;
        }
        let adopt = match self.predecessor {
            None => true,
            Some(p) => ChordId::in_open(p.id, self.me.id, candidate.id),
        };
        if adopt {
            self.predecessor = Some(candidate);
            self.rebuild_view();
        }
        adopt
    }

    /// Stabilization: our successor reported its predecessor `x`. If
    /// `x` sits between us and the successor, it becomes our new
    /// successor. Returns the peer we should `notify`.
    pub fn on_successor_predecessor(&mut self, succ: PeerRef, x: Option<PeerRef>) -> PeerRef {
        if let Some(x) = x {
            if x.node != self.me.node && ChordId::in_open(self.me.id, succ.id, x.id) {
                self.adopt_successor(x);
                return x;
            }
        }
        succ
    }

    /// Purge a dead peer from every routing structure. Returns true if
    /// anything referenced it.
    pub fn on_peer_dead(&mut self, node: NodeId) -> bool {
        let mut touched = false;
        if self.predecessor.map(|p| p.node) == Some(node) {
            self.predecessor = None;
            touched = true;
        }
        let before = self.successors.len();
        self.successors.retain(|p| p.node != node);
        touched |= self.successors.len() != before;
        let mut cleared = false;
        for (_, f) in self.fingers.iter_mut() {
            if f.is_some_and(|p| p.node == node) {
                *f = None;
                cleared = true;
            }
        }
        if cleared {
            // A cleared run may now equal a neighbour.
            self.fingers = runs(&self.finger_slots());
            touched = true;
        }
        if touched {
            self.rebuild_view();
        }
        touched
    }

    /// Directly install full state (used to bootstrap the paper's
    /// "stable D-ring" start condition and by tests).
    pub fn install(
        &mut self,
        predecessor: Option<PeerRef>,
        successors: Vec<PeerRef>,
        fingers: Vec<Option<PeerRef>>,
    ) {
        let fingers: &[Option<PeerRef>; SLOTS] = fingers
            .as_slice()
            .try_into()
            .unwrap_or_else(|_| panic!("finger table must have {SLOTS} slots"));
        self.predecessor = predecessor;
        self.successors = successors;
        self.successors.truncate(self.cfg.successor_list_len);
        self.fingers = runs(fingers);
        self.rebuild_view();
    }
}

/// Finger slots per table: one per bit of a [`ChordId`].
const SLOTS: usize = ChordId::BITS as usize;

/// The maximal runs of equal consecutive `slots`.
fn runs(slots: &[Option<PeerRef>; SLOTS]) -> Box<[(u8, Option<PeerRef>)]> {
    let mut out: Vec<(u8, Option<PeerRef>)> = Vec::new();
    for (i, &f) in slots.iter().enumerate() {
        if out.last().is_none_or(|&(_, last)| last != f) {
            out.push((i as u8, f));
        }
    }
    out.into_boxed_slice()
}

/// Compute exact, globally consistent Chord states for a set of
/// members — the paper's evaluation "starts with a stable D-ring", and
/// Squirrel likewise starts from a converged ring.
///
/// Members must have distinct ids and nodes. Returns states in the
/// same order as `members`.
pub fn stable_ring(members: &[PeerRef], cfg: &ChordConfig) -> Vec<ChordState> {
    assert!(!members.is_empty(), "ring needs at least one member");
    let n = members.len();
    // Sort member indices, not members: the sort then also yields each
    // member's ring position, without a search per member.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| members[i].id.0);
    let sorted: Vec<PeerRef> = order.iter().map(|&i| members[i]).collect();
    for w in sorted.windows(2) {
        assert!(w[0].id != w[1].id, "duplicate ring id {:?}", w[0].id);
    }
    let mut position = vec![0usize; n];
    for (pos, &i) in order.iter().enumerate() {
        position[i] = pos;
    }
    // successor(key): first member with id >= key, wrapping.
    let successor_of_key = |key: ChordId| -> PeerRef {
        match sorted.binary_search_by(|p| p.id.0.cmp(&key.0)) {
            Ok(i) => sorted[i],
            Err(i) => sorted[i % n],
        }
    };

    members
        .iter()
        .zip(position)
        .map(|(me, pos)| {
            let mut st = ChordState::new(*me, cfg.clone());
            let pred = sorted[(pos + n - 1) % n];
            let succs: Vec<PeerRef> = (1..=cfg.successor_list_len.min(n - 1))
                .map(|d| sorted[(pos + d) % n])
                .collect();
            // All but the top ≈ log2(n) finger targets fall short of
            // the immediate successor: those need no search.
            let next = sorted[(pos + 1) % n];
            let fingers: Vec<Option<PeerRef>> = (0..ChordId::BITS)
                .map(|i| {
                    let t = me.id.finger_target(i);
                    let s = if ChordId::in_open_closed(me.id, next.id, t) {
                        next
                    } else {
                        successor_of_key(t)
                    };
                    if s.node == me.node {
                        None
                    } else {
                        Some(s)
                    }
                })
                .collect();
            let pred = if n == 1 { None } else { Some(pred) };
            st.install(pred, succs, fingers);
            st
        })
        .collect()
}

/// The routing decision as it was computed before the view became
/// state — collect every slot, sort, dedup, scan, on each call. Kept
/// as the oracle the maintained view and the scans over it are tested
/// against.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn known_peers(st: &ChordState) -> Vec<PeerRef> {
        let mut out: Vec<PeerRef> = st.successors.clone();
        out.extend(st.fingers());
        out.extend(st.predecessor);
        out.sort_by_key(|p| p.id.0);
        out.dedup_by_key(|p| p.node);
        out
    }

    pub fn closest_preceding(st: &ChordState, key: ChordId) -> Option<PeerRef> {
        known_peers(st)
            .into_iter()
            .filter(|p| p.node != st.me.node && ChordId::in_open(st.me.id, key, p.id))
            .max_by_key(|p| st.me.id.clockwise_distance(p.id))
    }

    pub fn local_lookup(st: &ChordState, key: ChordId) -> PeerRef {
        if st.is_responsible(key) {
            return st.me;
        }
        if let Some(s) = st.successor() {
            if ChordId::in_open_closed(st.me.id, s.id, key) {
                return s;
            }
        }
        closest_preceding(st, key)
            .or(st.successor())
            .unwrap_or(st.me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(id: u64, node: u32) -> PeerRef {
        PeerRef {
            id: ChordId(id),
            node: NodeId(node),
        }
    }

    fn ring(ids: &[u64]) -> Vec<ChordState> {
        let members: Vec<PeerRef> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| peer(*id, i as u32))
            .collect();
        stable_ring(&members, &ChordConfig::default())
    }

    #[test]
    fn single_node_owns_everything() {
        let sts = ring(&[42]);
        assert!(sts[0].is_responsible(ChordId(0)));
        assert!(sts[0].is_responsible(ChordId(u64::MAX)));
        assert_eq!(sts[0].local_lookup(ChordId(7)).node, NodeId(0));
    }

    #[test]
    fn stable_ring_structure() {
        let sts = ring(&[10, 20, 30, 40]);
        // Node with id 20: predecessor 10, successor 30.
        let s20 = &sts[1];
        assert_eq!(s20.predecessor().unwrap().id, ChordId(10));
        assert_eq!(s20.successor().unwrap().id, ChordId(30));
        // Responsibility: (10, 20].
        assert!(s20.is_responsible(ChordId(15)));
        assert!(s20.is_responsible(ChordId(20)));
        assert!(!s20.is_responsible(ChordId(10)));
        assert!(!s20.is_responsible(ChordId(25)));
        // Wrap-around: node 10 owns (40, 10].
        assert!(sts[0].is_responsible(ChordId(5)));
        assert!(sts[0].is_responsible(ChordId(u64::MAX)));
    }

    #[test]
    fn local_lookup_finds_owner_or_progress() {
        let sts = ring(&[10, 20, 30, 40]);
        // From node 10, key 25 is owned by 30; 10's successor is 20 so
        // lookup must return a node strictly closer to 30.
        let next = sts[0].local_lookup(ChordId(25));
        assert!(next.id == ChordId(20) || next.id == ChordId(30));
        // Owner lookup is identity.
        assert_eq!(sts[2].local_lookup(ChordId(25)).id, ChordId(30));
    }

    #[test]
    fn closest_preceding_never_overshoots() {
        let sts = ring(&[0, 1 << 16, 1 << 32, 1 << 48]);
        let st = &sts[0];
        for key in [5u64, 1 << 20, 1 << 40, 1 << 60, u64::MAX] {
            if let Some(p) = st.closest_preceding(ChordId(key)) {
                assert!(ChordId::in_open(st.id(), ChordId(key), p.id));
            }
        }
    }

    #[test]
    fn notify_adopts_closer_predecessor() {
        let mut st = ChordState::new(peer(100, 0), ChordConfig::default());
        assert!(st.on_notify(peer(50, 1)));
        assert_eq!(st.predecessor().unwrap().id, ChordId(50));
        // 80 ∈ (50, 100): closer predecessor, adopt.
        assert!(st.on_notify(peer(80, 2)));
        // 20 ∉ (80, 100): reject.
        assert!(!st.on_notify(peer(20, 3)));
        assert_eq!(st.predecessor().unwrap().id, ChordId(80));
    }

    #[test]
    fn stabilize_adopts_interposed_node() {
        let mut st = ChordState::new(peer(10, 0), ChordConfig::default());
        st.adopt_successor(peer(30, 2));
        // Successor 30 reports predecessor 20: 20 ∈ (10, 30) → new succ.
        let to_notify = st.on_successor_predecessor(peer(30, 2), Some(peer(20, 1)));
        assert_eq!(to_notify.id, ChordId(20));
        assert_eq!(st.successor().unwrap().id, ChordId(20));
        // Successor list keeps 30 as backup.
        assert!(st.successors().iter().any(|p| p.id == ChordId(30)));
    }

    #[test]
    fn peer_death_purges_everywhere() {
        let sts = ring(&[10, 20, 30, 40]);
        let mut st = sts[0].clone();
        let dead = st.successor().unwrap();
        assert!(st.on_peer_dead(dead.node));
        assert_ne!(st.successor().map(|p| p.node), Some(dead.node));
        assert!(st.known_peers().iter().all(|p| p.node != dead.node));
        assert!(!st.on_peer_dead(dead.node), "second purge is a no-op");
    }

    #[test]
    fn successor_list_is_bounded_and_deduped() {
        let cfg = ChordConfig {
            successor_list_len: 3,
            ..Default::default()
        };
        let mut st = ChordState::new(peer(0, 0), cfg);
        st.adopt_successor(peer(10, 1));
        st.refresh_successor_list(
            peer(10, 1),
            &[
                peer(20, 2),
                peer(10, 1),
                peer(30, 3),
                peer(40, 4),
                peer(0, 0),
            ],
        );
        let ids: Vec<u64> = st.successors().iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![10, 20, 30]);
    }

    #[test]
    fn next_finger_round_robin() {
        let mut st = ChordState::new(peer(0, 0), ChordConfig::default());
        let (i0, t0) = st.next_finger_target();
        assert_eq!((i0, t0), (0, ChordId(1)));
        let (i1, t1) = st.next_finger_target();
        assert_eq!((i1, t1), (1, ChordId(2)));
        for _ in 2..64 {
            st.next_finger_target();
        }
        assert_eq!(st.next_finger_target().0, 0, "wraps after BITS fingers");
    }

    #[test]
    fn fingers_skip_self() {
        let mut st = ChordState::new(peer(0, 0), ChordConfig::default());
        st.set_finger(3, peer(0, 0));
        assert_eq!(st.fingers().count(), 0);
        st.set_finger(3, peer(9, 1));
        assert_eq!(st.fingers().count(), 1);
    }

    /// A state at id 100 / node 0 with exactly these fingers (slot =
    /// position in `fingers`), no successors, no predecessor.
    fn with_fingers(fingers: &[PeerRef]) -> ChordState {
        let mut st = ChordState::new(peer(100, 0), ChordConfig::default());
        for (i, f) in fingers.iter().enumerate() {
            st.set_finger(i as u32, *f);
        }
        st
    }

    #[test]
    fn view_dedup_is_by_node_and_adjacent_only() {
        // One peer in several slots: listed once.
        let st = with_fingers(&[peer(200, 1), peer(200, 1), peer(300, 2), peer(200, 1)]);
        assert_eq!(st.known_peers(), [peer(200, 1), peer(300, 2)]);
        // One node under two ids, nothing sorting between them: the
        // larger id is dropped ...
        let st = with_fingers(&[peer(300, 1), peer(200, 1)]);
        assert_eq!(st.known_peers(), [peer(200, 1)]);
        // ... but kept when another node's id separates the two.
        let st = with_fingers(&[peer(300, 1), peer(200, 1), peer(250, 2)]);
        assert_eq!(st.known_peers(), [peer(200, 1), peer(250, 2), peer(300, 1)]);
        // Two nodes claiming one id stay in listing order, repeats
        // included while they alternate.
        let st = with_fingers(&[peer(200, 1), peer(200, 2), peer(200, 1)]);
        assert_eq!(st.known_peers(), [peer(200, 1), peer(200, 2), peer(200, 1)]);
    }

    #[test]
    fn closest_preceding_takes_the_last_of_equal_ids() {
        // Nodes 1 and 2 both claim id 200 (a §5.2 replacement race):
        // the later-listed claimant is the jump target.
        let st = with_fingers(&[peer(200, 1), peer(200, 2), peer(150, 3)]);
        assert_eq!(st.closest_preceding(ChordId(250)), Some(peer(200, 2)));
        let st = with_fingers(&[peer(200, 2), peer(200, 1), peer(150, 3)]);
        assert_eq!(st.closest_preceding(ChordId(250)), Some(peer(200, 1)));
        // The key itself and `me` bound the interval, both excluded;
        // `key == me` opens it to the whole ring.
        assert_eq!(st.closest_preceding(ChordId(200)), Some(peer(150, 3)));
        assert_eq!(st.closest_preceding(ChordId(150)), None);
        assert_eq!(st.closest_preceding(ChordId(100)), Some(peer(200, 1)));
    }

    #[test]
    fn unchanged_rewrites_keep_the_view() {
        let sts = ring(&[10, 20, 30, 40, 50]);
        let mut st = sts[0].clone();
        let before = st.known_peers().as_ptr();
        let (succ, list) = (sts[1].me(), sts[1].successors().to_vec());
        st.refresh_successor_list(succ, &list);
        st.adopt_successor(succ);
        let slots = st.finger_slots();
        let slot = slots.iter().position(|f| f.is_some()).unwrap();
        st.set_finger(slot as u32, slots[slot].unwrap());
        assert!(!st.on_notify(sts[3].me()));
        let runs = st.fingers.as_ptr();
        assert!(!st.on_peer_dead(NodeId(99)));
        st.set_finger(slot as u32, slots[slot].unwrap());
        assert_eq!(st.fingers.as_ptr(), runs, "runs were rebuilt");
        assert_eq!(st.known_peers().as_ptr(), before, "view was rebuilt");
        assert_eq!(st.known_peers(), reference::known_peers(&st));
    }

    #[test]
    fn adopting_the_current_successor_purges_its_other_ids() {
        // Not an unchanged rewrite: node 1 is also listed under id 40.
        let mut st = ChordState::new(peer(10, 0), ChordConfig::default());
        let fingers = vec![None; ChordId::BITS as usize];
        st.install(None, vec![peer(20, 1), peer(30, 2), peer(40, 1)], fingers);
        st.adopt_successor(peer(20, 1));
        assert_eq!(st.successors(), [peer(20, 1), peer(30, 2)]);
        assert_eq!(st.known_peers(), reference::known_peers(&st));
    }

    #[test]
    fn dead_peer_in_successors_and_fingers_leaves_the_view() {
        let sts = ring(&[10, 20, 30, 40, 50]);
        let mut st = sts[0].clone();
        let dead = st.successor().unwrap();
        assert!(st.fingers().any(|f| f.node == dead.node));
        assert!(st.on_peer_dead(dead.node));
        assert_eq!(st.known_peers(), reference::known_peers(&st));
        assert!(st.known_peers().iter().all(|p| p.node != dead.node));
    }

    #[test]
    fn handoff_rebuilds_a_routable_position() {
        let ids: Vec<u64> = (0..18).map(crate::id::hash64).collect();
        let sts = ring(&ids);
        // Node 4 hands off to a fresh node 100 at the same id.
        let neighbors = sts[4].handoff_neighbors();
        assert!(!neighbors.is_empty(), "handoff must ship neighbours");
        let heir = peer(ids[4], 100);
        let st = ChordState::from_handoff(heir, &neighbors, ChordConfig::default());
        assert_eq!(st.id(), sts[4].id());
        assert!(
            !st.known_peers().is_empty(),
            "heir must know its neighbourhood"
        );
        assert_eq!(st.successors(), sts[4].successors());
        assert_eq!(st.predecessor(), sts[4].predecessor());
        assert_eq!(st.known_peers(), reference::known_peers(&st));
    }

    #[test]
    fn a_taken_position_names_its_holder() {
        let sts = ring(&[10, 20, 30]);
        assert_eq!(sts[0].position_taken_by(), None);
        // A join at id 20 whose lookup found the node already there.
        let mut joiner = ChordState::new(peer(20, 9), ChordConfig::default());
        assert_eq!(joiner.position_taken_by(), None);
        joiner.adopt_successor(sts[1].me());
        assert_eq!(joiner.position_taken_by(), Some(NodeId(1)));
    }

    /// A converged 600-member D-ring (the paper's Table 1) holds a
    /// dozen finger runs per member, not 64 slots.
    #[test]
    fn a_converged_ring_holds_few_finger_runs() {
        let ids: Vec<u64> = (0..600).map(crate::id::hash64).collect();
        let sts = ring(&ids);
        let most = sts.iter().map(|st| st.fingers.len()).max().unwrap();
        assert!(most <= 16, "{most} runs");
    }

    #[test]
    #[should_panic(expected = "duplicate ring id")]
    fn stable_ring_rejects_duplicate_ids() {
        let members = vec![peer(5, 0), peer(5, 1)];
        let _ = stable_ring(&members, &ChordConfig::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn distinct_ids() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::btree_set(any::<u64>(), 1..40).prop_map(|s| s.into_iter().collect())
    }

    /// Ring ids of the peer pool: both ends of the id space, close
    /// pairs and far jumps, so intervals wrap.
    const POOL_IDS: [u64; 6] = [0, 5, 1 << 20, 1 << 40, 1 << 63, u64::MAX - 3];

    /// A peer out of 6 ids × 5 nodes. A pool this small makes random
    /// sequences rewrite slots with the value they hold, list one node
    /// under two ids and two nodes under one id, and reference node 0,
    /// which is `me`.
    fn pool_peer() -> impl Strategy<Value = PeerRef> {
        (0usize..POOL_IDS.len(), 0u32..5).prop_map(|(i, node)| PeerRef {
            id: ChordId(POOL_IDS[i]),
            node: NodeId(node),
        })
    }

    /// One call of one of the seven mutators, drawn from `kind`.
    type Step = (u32, u32, PeerRef, PeerRef, Vec<PeerRef>);

    fn step() -> impl Strategy<Value = Step> {
        (
            0u32..7,
            0u32..ChordId::BITS,
            pool_peer(),
            pool_peer(),
            proptest::collection::vec(pool_peer(), 0..10),
        )
    }

    fn apply(st: &mut ChordState, (kind, slot, a, b, list): &Step) {
        match kind {
            0 => st.set_finger(*slot, *a),
            1 => st.adopt_successor(*a),
            2 => st.refresh_successor_list(*a, list),
            3 => {
                st.on_notify(*a);
            }
            4 => {
                st.on_successor_predecessor(*a, (slot % 2 == 0).then_some(*b));
            }
            5 => {
                st.on_peer_dead(a.node);
            }
            _ => {
                let mut fingers = vec![None; ChordId::BITS as usize];
                for (k, f) in list.iter().enumerate() {
                    // Runs of equal slots and gaps between them.
                    fingers[(*slot as usize + 3 * k) % 64] = Some(*f);
                    fingers[(*slot as usize + 3 * k + 1) % 64] = Some(*f);
                }
                st.install((slot % 3 != 0).then_some(*b), list.clone(), fingers);
            }
        }
    }

    /// Every pool id and its two neighbours on the ring.
    fn pool_keys() -> impl Iterator<Item = u64> {
        POOL_IDS
            .iter()
            .flat_map(|id| [id.wrapping_sub(1), *id, id.wrapping_add(1)])
    }

    /// The view is the from-scratch build, and the scans over it take
    /// the decisions the sort-per-call routing took for `keys`.
    fn check_against_reference(st: &ChordState, keys: impl IntoIterator<Item = u64>) {
        prop_assert_eq!(st.known_peers(), reference::known_peers(st));
        for key in keys.into_iter().map(ChordId) {
            prop_assert_eq!(
                st.closest_preceding(key),
                reference::closest_preceding(st, key)
            );
            prop_assert_eq!(st.local_lookup(key), reference::local_lookup(st, key));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the mutators are fed — values already in place,
        /// references to `me`, a node listed under several ids, a dead
        /// peer that sits in successors and fingers — the maintained
        /// view and the routing over it match the oracle after every
        /// step, and applying a step a second time moves nothing.
        #[test]
        fn view_tracks_every_mutation(
            me in pool_peer(),
            steps in proptest::collection::vec(step(), 1..40),
            probe in any::<u64>(),
        ) {
            let mut st = ChordState::new(me, ChordConfig::default());
            for s in &steps {
                apply(&mut st, s);
                check_against_reference(&st, pool_keys().chain([probe]));
                let view = st.known_peers().to_vec();
                apply(&mut st, s);
                check_against_reference(&st, pool_keys().chain([probe]));
                prop_assert_eq!(st.known_peers(), &view[..]);
            }
        }

        /// The finger runs against 64 plain slots: after every
        /// `set_finger`, `on_peer_dead`, `install` and `from_handoff`
        /// of a random sequence the table lists the slots' peers, the
        /// view is built from the slots, and the runs are maximal.
        #[test]
        fn finger_runs_hold_the_slots(
            me in pool_peer(),
            steps in proptest::collection::vec(step(), 1..40),
        ) {
            let mut st = ChordState::new(me, ChordConfig::default());
            let mut slots = [None; SLOTS];
            for s in &steps {
                let (kind, slot, a, _, list) = s;
                match kind % 4 {
                    0 => {
                        st.set_finger(*slot, *a);
                        slots[*slot as usize] = (a.node != me.node).then_some(*a);
                    }
                    1 => {
                        st.on_peer_dead(a.node);
                        for f in &mut slots {
                            if f.is_some_and(|p| p.node == a.node) {
                                *f = None;
                            }
                        }
                    }
                    2 => {
                        apply(&mut st, &(6, *slot, *a, *a, list.clone()));
                        slots = [None; SLOTS];
                        for (k, f) in list.iter().enumerate() {
                            slots[(*slot as usize + 3 * k) % 64] = Some(*f);
                            slots[(*slot as usize + 3 * k + 1) % 64] = Some(*f);
                        }
                    }
                    _ => {
                        st = ChordState::from_handoff(me, list, ChordConfig::default());
                        slots = [None; SLOTS];
                    }
                }
                let listed: Vec<PeerRef> = st.fingers().collect();
                let expect: Vec<PeerRef> = slots.iter().flatten().copied().collect();
                prop_assert_eq!(listed, expect);
                let mut view = st.successors.clone();
                view.extend(slots.iter().flatten());
                view.extend(st.predecessor);
                view.sort_by_key(|p| p.id.0);
                view.dedup_by_key(|p| p.node);
                prop_assert_eq!(st.known_peers(), &view[..]);
                prop_assert_eq!(st.fingers[0].0, 0);
                for w in st.fingers.windows(2) {
                    prop_assert!(w[0].0 < w[1].0 && w[0].1 != w[1].1, "runs {:?}", st.fingers);
                }
            }
        }

        /// Converged rings route as they did with the per-call sort.
        #[test]
        fn stable_ring_routes_like_the_reference(ids in distinct_ids(), probe in any::<u64>()) {
            let members: Vec<PeerRef> = ids
                .iter()
                .enumerate()
                .map(|(i, id)| PeerRef { id: ChordId(*id), node: NodeId(i as u32) })
                .collect();
            for st in stable_ring(&members, &ChordConfig::default()) {
                let keys = ids.iter().map(|id| id.wrapping_add(1)).chain([probe]);
                check_against_reference(&st, keys);
            }
        }

        /// In a stable ring, exactly one member is responsible for any
        /// key, and it is the clockwise successor of the key.
        #[test]
        fn unique_owner(ids in distinct_ids(), key in any::<u64>()) {
            let members: Vec<PeerRef> = ids
                .iter()
                .enumerate()
                .map(|(i, id)| PeerRef { id: ChordId(*id), node: NodeId(i as u32) })
                .collect();
            let states = stable_ring(&members, &ChordConfig::default());
            let owners: Vec<&ChordState> =
                states.iter().filter(|s| s.is_responsible(ChordId(key))).collect();
            prop_assert_eq!(owners.len(), 1, "key must have exactly one owner");
            // The owner is the member minimizing clockwise distance key→owner.
            let owner = owners[0].id();
            for m in &members {
                prop_assert!(
                    ChordId(key).clockwise_distance(owner) <= ChordId(key).clockwise_distance(m.id)
                );
            }
        }

        /// local_lookup from any member makes progress: the result is
        /// either the owner or strictly closer (clockwise) to the key.
        #[test]
        fn lookup_progress(ids in distinct_ids(), key in any::<u64>()) {
            let members: Vec<PeerRef> = ids
                .iter()
                .enumerate()
                .map(|(i, id)| PeerRef { id: ChordId(*id), node: NodeId(i as u32) })
                .collect();
            let states = stable_ring(&members, &ChordConfig::default());
            let key = ChordId(key);
            // The true owner minimizes the clockwise distance key→owner.
            let owner = members
                .iter()
                .min_by_key(|p| key.clockwise_distance(p.id))
                .unwrap();
            for st in &states {
                let next = st.local_lookup(key);
                if next.node == st.me().node {
                    prop_assert!(st.is_responsible(key));
                    prop_assert_eq!(next.node, owner.node, "self-delivery at a non-owner");
                } else {
                    // Either we hand directly to the owner, or we jump
                    // strictly closer to the key (remaining clockwise
                    // distance next→key shrinks).
                    let me_to_key = st.id().clockwise_distance(key);
                    let next_to_key = next.id.clockwise_distance(key);
                    prop_assert!(
                        next.node == owner.node || next_to_key < me_to_key,
                        "no progress: me={:?} next={:?} key={:?}", st.id(), next.id, key
                    );
                }
            }
        }
    }
}
