//! The DHT under the D-ring (§3.1): one directory peer's Chord
//! position, routed with the website-aware Algorithm 2 policy.
//!
//! The paper builds the D-ring on "a standard DHT (e.g., Chord,
//! Pastry)" and evaluates it on Chord (§6.1); so does this crate.
//! [`ChordSubstrate`] is what [`crate::node::DirRole`] holds: [`chord`]
//! routing state plus the [`DringPolicy`], with the operations the
//! directory role needs. Each one that sends takes the caller's
//! [`chord::Transport`] (the node's adapter over the simulator context;
//! a collecting one in tests) and reports what terminated here as at
//! most one [`SubstrateEvent`].

use chord::Transport;
use simnet::NodeId;

use crate::id::KeyScheme;
use crate::msg::Query;
use crate::policy::DringPolicy;

/// The D-ring identifier space: 64-bit ring positions laid out by
/// [`crate::id::KeyScheme`].
pub type DhtKey = chord::ChordId;

/// A D-ring peer: ring position plus underlay address.
pub type PeerRef = chord::PeerRef;

/// D-ring wire traffic (routing + ring maintenance), embedded in
/// [`crate::msg::FlowerMsg::Dht`].
pub type SubstrateMsg = chord::ChordMsg<Query>;

/// The message a plain client (no ring position of its own) sends to a
/// bootstrap directory to inject `query` into the D-ring toward `key`.
pub fn client_entry_msg(key: DhtKey, query: Query) -> SubstrateMsg {
    chord::ChordMsg::Route {
        key,
        hops: 0,
        payload: chord::RoutePayload::App(query),
    }
}

/// The application query `msg` carries, if any — what a node without a
/// directory role can still rescue from a bounced or stray D-ring
/// message.
pub fn carried_query(msg: &SubstrateMsg) -> Option<Query> {
    match msg {
        chord::ChordMsg::Route {
            payload: chord::RoutePayload::App(q),
            ..
        } => Some(*q),
        _ => None,
    }
}

/// What a ring operation surfaced to the embedding node.
#[derive(Debug)]
pub enum SubstrateEvent {
    /// A routed query terminated at this node (it is the responsible
    /// directory position, or the hop limit forced local delivery).
    Deliver {
        /// The delivered query.
        query: Query,
        /// Hops the query took through the ring.
        hops: u8,
    },
    /// This node's join completed; the routing state is usable.
    JoinComplete,
    /// This node's in-flight join lookup was lost (e.g. it bounced off
    /// a dead hop); the node should retry through another entry point.
    NeedRejoin,
}

fn event(outcome: Option<chord::ChordOutcome<Query>>) -> Option<SubstrateEvent> {
    outcome.map(|o| match o {
        chord::ChordOutcome::Deliver { payload, hops, .. } => SubstrateEvent::Deliver {
            query: payload,
            hops,
        },
        chord::ChordOutcome::JoinComplete => SubstrateEvent::JoinComplete,
    })
}

/// One directory peer's position on the D-ring: Chord routing state
/// plus the Algorithm 2 next-hop policy.
#[derive(Debug)]
pub struct ChordSubstrate {
    st: chord::ChordState,
    policy: DringPolicy,
}

impl ChordSubstrate {
    /// Wrap an existing Chord state.
    pub fn new(st: chord::ChordState, scheme: KeyScheme) -> Self {
        ChordSubstrate {
            st,
            policy: DringPolicy::new(scheme),
        }
    }

    /// A fresh, not-yet-joined position at `me` (§5.2 replacement
    /// joins).
    pub fn fresh(scheme: KeyScheme, me: PeerRef) -> Self {
        Self::new(
            chord::ChordState::new(me, chord::ChordConfig::default()),
            scheme,
        )
    }

    /// Converged positions over `members`, in `members` order — the
    /// stable ring the paper's evaluation starts from.
    pub fn stable_network(scheme: KeyScheme, members: &[PeerRef]) -> Vec<Self> {
        chord::stable_ring(members, &chord::ChordConfig::default())
            .into_iter()
            .map(|st| Self::new(st, scheme))
            .collect()
    }

    /// A joined position at `me` rebuilt from a hand-off's neighbour
    /// list (§5.2 voluntary leave: the heir assumes the position).
    pub fn from_handoff(scheme: KeyScheme, me: PeerRef, neighbors: &[PeerRef]) -> Self {
        let cfg = chord::ChordConfig::default();
        let mut others: Vec<PeerRef> = neighbors
            .iter()
            .filter(|p| p.node != me.node)
            .copied()
            .collect();
        // Ring order around our key: clockwise distance sorts the old
        // successor list back into place; the closest
        // counter-clockwise neighbour is the predecessor.
        let pred = others
            .iter()
            .copied()
            .min_by_key(|p| p.id.clockwise_distance(me.id));
        others.sort_by_key(|p| me.id.clockwise_distance(p.id));
        others.truncate(cfg.successor_list_len);
        let mut st = chord::ChordState::new(me, cfg);
        st.install(pred, others, vec![None; DhtKey::BITS as usize]);
        Self::new(st, scheme)
    }

    /// This position's key.
    pub fn key(&self) -> DhtKey {
        self.st.id()
    }

    /// Start joining through `entry` (a live ring member); a later
    /// [`Self::dispatch`] yields [`SubstrateEvent::JoinComplete`].
    pub fn join<T: Transport<Query>>(&mut self, t: &mut T, entry: NodeId) {
        chord::start_join(&mut self.st, t, entry);
    }

    /// Route `query` toward the owner of `key`, starting locally. May
    /// deliver immediately.
    pub fn route<T: Transport<Query>>(
        &mut self,
        t: &mut T,
        key: DhtKey,
        query: Query,
    ) -> Option<SubstrateEvent> {
        event(chord::start_route(
            &mut self.st,
            t,
            key,
            query,
            &self.policy,
        ))
    }

    /// Dispatch an incoming ring message.
    pub fn dispatch<T: Transport<Query>>(
        &mut self,
        t: &mut T,
        from: NodeId,
        msg: SubstrateMsg,
    ) -> Option<SubstrateEvent> {
        event(chord::handle(&mut self.st, t, from, msg, &self.policy))
    }

    /// A message this position sent to `to` bounced (destination
    /// down): purge the dead peer and recover what can be recovered.
    pub fn undeliverable<T: Transport<Query>>(
        &mut self,
        t: &mut T,
        to: NodeId,
        msg: SubstrateMsg,
        joining: bool,
    ) -> Option<SubstrateEvent> {
        chord::on_undeliverable(&mut self.st, to, &msg);
        let chord::ChordMsg::Route { payload, .. } = &msg else {
            return None;
        };
        let me = self.st.me().node;
        if let chord::RoutePayload::FindSuccessor { requester, token } = payload {
            if requester.node == me {
                // Our own lookup bounced. A lost join lookup must be
                // retried through another entry point (the node picks
                // it); a lost finger fix simply waits for the next
                // period.
                return (joining && *token == chord::LookupToken::Join)
                    .then_some(SubstrateEvent::NeedRejoin);
            }
            if joining {
                // No usable routing state to forward with yet.
                return None;
            }
        }
        // Take the routing step again now that the dead hop is purged:
        // neither an application payload nor someone else's lookup may
        // be lost (§5.2 joins depend on the latter while the ring
        // heals).
        self.dispatch(t, me, msg)
    }

    /// Periodic neighbour maintenance: probe the successor.
    pub fn stabilize<T: Transport<Query>>(&mut self, t: &mut T) {
        chord::start_stabilize(&mut self.st, t);
    }

    /// Periodic routing repair: look up the next finger target.
    pub fn fix_finger<T: Transport<Query>>(&mut self, t: &mut T) {
        chord::start_fix_finger(&mut self.st, t, &self.policy);
    }

    /// Every peer this position currently knows, in ascending ring-id
    /// order (the D-ring piggybacks directory summaries and replica
    /// offers on this neighbourhood).
    pub fn known_peers(&self) -> &[PeerRef] {
        self.st.known_peers()
    }

    /// The neighbours a voluntary hand-off ships to the heir, enough
    /// for [`Self::from_handoff`] to rebuild a working routing state
    /// at the same key.
    pub fn handoff_neighbors(&self) -> Vec<PeerRef> {
        let mut out = self.st.successors().to_vec();
        if let Some(p) = self.st.predecessor() {
            if out.iter().all(|q| q.node != p.node) {
                out.push(p);
            }
        }
        out
    }

    /// Peers mentioned in `msg` that claim this position's exact key
    /// from a different underlay node — duplicate D-ring positions
    /// from racing §5.2 replacements. The node resolves the conflict
    /// (lowest node id stays).
    pub fn conflict_peers(&self, msg: &SubstrateMsg) -> Vec<PeerRef> {
        let me = self.st.me();
        let claims_my_key = |p: &PeerRef| p.id == me.id && p.node != me.node;
        match msg {
            chord::ChordMsg::Notify { peer } if claims_my_key(peer) => vec![*peer],
            chord::ChordMsg::NeighborsResp { pred, succs } => pred
                .iter()
                .chain(succs.iter())
                .filter(|p| claims_my_key(p))
                .copied()
                .collect(),
            _ => Vec::new(),
        }
    }

    /// After a join: the underlay node that already owns this exact
    /// key, if the position turned out to be taken.
    pub fn position_taken_by(&self) -> Option<NodeId> {
        let me = self.st.me();
        self.st
            .successor()
            .filter(|s| s.id == me.id && s.node != me.node)
            .map(|s| s.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chord::{ChordMsg, LookupToken, RoutePayload};
    use simnet::{Locality, SimTime};
    use workload::WebsiteId;

    /// Collects sends for synchronous replay.
    #[derive(Default)]
    struct Collect {
        sent: Vec<(NodeId, SubstrateMsg)>,
    }

    impl Transport<Query> for Collect {
        fn send_chord(&mut self, to: NodeId, msg: SubstrateMsg) {
            self.sent.push((to, msg));
        }
    }

    fn scheme() -> KeyScheme {
        KeyScheme::new(8, 0)
    }

    fn query(key_ws: u16) -> Query {
        Query {
            id: 1,
            origin: NodeId(900),
            origin_locality: Locality(0),
            website: WebsiteId(key_ws),
            object: bloom::ObjectId(7),
            submitted_at: SimTime::ZERO,
            dir_hops: 0,
            holder_retries: 0,
        }
    }

    fn dring_members(websites: u16, localities: u16) -> Vec<PeerRef> {
        let s = scheme();
        let mut members = Vec::new();
        let mut idx = 0u32;
        for ws in 0..websites {
            for l in 0..localities {
                members.push(PeerRef {
                    id: s.key(WebsiteId(ws), Locality(l)),
                    node: NodeId(idx),
                });
                idx += 1;
            }
        }
        members
    }

    /// Route `query` toward `key` from `roles[start]` (indexed in
    /// `members` order), pumping messages until a delivery. Returns
    /// `(member index, hops)`; panics if the query is lost or routing
    /// does not terminate.
    fn route_to_delivery(
        roles: &mut [ChordSubstrate],
        members: &[PeerRef],
        start: usize,
        key: DhtKey,
        query: Query,
    ) -> (usize, u8) {
        let mut out = Collect::default();
        let mut pending = roles[start].route(&mut out, key, query);
        let mut at = start;
        let mut guard = 0;
        loop {
            if let Some(SubstrateEvent::Deliver { hops, .. }) = pending {
                return (at, hops);
            }
            let Some((to, msg)) = out.sent.pop() else {
                panic!("query lost before delivery")
            };
            guard += 1;
            assert!(guard < 10_000, "routing storm");
            at = members
                .iter()
                .position(|m| m.node == to)
                .expect("route reached unknown node");
            pending = roles[at].dispatch(&mut out, NodeId(u32::MAX), msg);
        }
    }

    #[test]
    fn dring_keys_are_delivered_to_their_owners() {
        let members = dring_members(8, 4);
        let mut roles = ChordSubstrate::stable_network(scheme(), &members);
        for ws in 0..8u16 {
            for l in 0..4u16 {
                let key = scheme().key(WebsiteId(ws), Locality(l));
                let expect = members
                    .iter()
                    .position(|m| m.id == key)
                    .expect("directory exists");
                let start = ((ws as usize) * 7 + l as usize) % members.len();
                let (got, _) = route_to_delivery(&mut roles, &members, start, key, query(ws));
                assert_eq!(got, expect, "key for ws{ws}/loc{l} missed its owner");
            }
        }
    }

    #[test]
    fn absent_keys_land_on_same_website_directories() {
        let s = scheme();
        // Website 3 has localities 0..4; route a key for locality 5.
        let members = dring_members(8, 4);
        let key = s.key(WebsiteId(3), Locality(5));
        let mut roles = ChordSubstrate::stable_network(s, &members);
        let (got, _) = route_to_delivery(&mut roles, &members, 0, key, query(3));
        assert!(
            s.same_website(members[got].id, key),
            "absent key landed on the wrong website ({:?})",
            members[got].id
        );
    }

    #[test]
    fn handoff_role_rebuilds_a_routable_position() {
        let members = dring_members(6, 3);
        let s = scheme();
        let roles = ChordSubstrate::stable_network(s, &members);
        // Node 4 hands off to a fresh node 100 at the same key.
        let neighbors = roles[4].handoff_neighbors();
        assert!(!neighbors.is_empty(), "handoff must ship neighbours");
        let heir = PeerRef {
            id: members[4].id,
            node: NodeId(100),
        };
        let role = ChordSubstrate::from_handoff(s, heir, &neighbors);
        assert_eq!(role.key(), members[4].id);
        assert!(
            !role.known_peers().is_empty(),
            "heir must know its neighbourhood"
        );
    }

    #[test]
    fn conflict_detection_sees_duplicate_positions() {
        let members = dring_members(4, 2);
        let roles = ChordSubstrate::stable_network(scheme(), &members);
        let me = members[0];
        let usurper = PeerRef {
            id: me.id,
            node: NodeId(77),
        };
        let conflicts = roles[0].conflict_peers(&ChordMsg::Notify { peer: usurper });
        assert_eq!(conflicts, vec![usurper], "duplicate position not flagged");
        // Our own announcements are not conflicts.
        assert!(roles[0]
            .conflict_peers(&ChordMsg::Notify { peer: me })
            .is_empty());
    }

    #[test]
    fn carried_query_is_recoverable_from_the_wire_format() {
        let q = query(2);
        let msg = client_entry_msg(scheme().key(WebsiteId(2), Locality(0)), q);
        assert_eq!(carried_query(&msg).map(|c| c.id), Some(q.id));
        assert!(msg.is_routing());
        assert!(msg.wire_size() > 0);
        assert!(carried_query(&ChordMsg::NeighborsReq).is_none());
    }

    #[test]
    fn a_query_whose_next_hop_died_is_rerouted_or_delivered_never_lost() {
        let s = scheme();
        // On a ring: the bounced query goes to a different live peer.
        let members = dring_members(8, 4);
        let mut roles = ChordSubstrate::stable_network(s, &members);
        let key = s.key(WebsiteId(6), Locality(2));
        let mut out = Collect::default();
        assert!(roles[0].route(&mut out, key, query(6)).is_none());
        let (dead, bounced) = out.sent.pop().expect("forwarded to a next hop");
        assert!(roles[0].known_peers().iter().any(|p| p.node == dead));
        let ev = roles[0].undeliverable(&mut out, dead, bounced, false);
        assert!(ev.is_none(), "other members remain: forward, not deliver");
        assert!(roles[0].known_peers().iter().all(|p| p.node != dead));
        let [(to, msg)] = &out.sent[..] else {
            panic!("exactly one re-sent message, got {:?}", out.sent)
        };
        assert_ne!(*to, dead);
        assert!(members.iter().any(|m| m.node == *to));
        assert_eq!(carried_query(msg).map(|q| q.id), Some(query(6).id));

        // With the only other member dead: delivered locally.
        let pair = dring_members(1, 2);
        let mut roles = ChordSubstrate::stable_network(s, &pair);
        let mut out = Collect::default();
        assert!(roles[0].route(&mut out, pair[1].id, query(0)).is_none());
        let (dead, bounced) = out.sent.pop().expect("forwarded to the owner");
        assert_eq!(dead, pair[1].node);
        let ev = roles[0].undeliverable(&mut out, dead, bounced, false);
        assert!(
            matches!(ev, Some(SubstrateEvent::Deliver { query: q, .. }) if q.id == query(0).id),
            "last member standing must take the query, got {ev:?}"
        );
        assert!(out.sent.is_empty());
    }

    #[test]
    fn own_bounced_join_lookup_needs_a_rejoin_only_while_joining() {
        let me = PeerRef {
            id: scheme().key(WebsiteId(1), Locality(1)),
            node: NodeId(50),
        };
        let mut role = ChordSubstrate::fresh(scheme(), me);
        let mut out = Collect::default();
        role.join(&mut out, NodeId(3));
        let (entry, lookup) = out.sent.pop().expect("join sends one lookup");
        assert_eq!(entry, NodeId(3));

        let ev = role.undeliverable(&mut out, entry, lookup.clone(), true);
        assert!(matches!(ev, Some(SubstrateEvent::NeedRejoin)), "got {ev:?}");
        // A bounce arriving after a successful retry is stale.
        assert!(role.undeliverable(&mut out, entry, lookup, false).is_none());
        // A lost finger fix waits for the next period.
        let finger_fix = ChordMsg::Route {
            key: me.id,
            hops: 0,
            payload: RoutePayload::FindSuccessor {
                requester: me,
                token: LookupToken::Finger(3),
            },
        };
        for joining in [true, false] {
            assert!(role
                .undeliverable(&mut out, entry, finger_fix.clone(), joining)
                .is_none());
        }
        assert!(out.sent.is_empty(), "own lookups are never re-sent");
    }

    #[test]
    fn a_forwarded_lookup_is_rerouted_unless_joining() {
        let s = scheme();
        let members = dring_members(8, 4);
        let mut roles = ChordSubstrate::stable_network(s, &members);
        // A §5.2 replacement (node 99) joining at ws6/loc2, entering
        // the ring at member 0.
        let requester = PeerRef {
            id: s.key(WebsiteId(6), Locality(2)),
            node: NodeId(99),
        };
        let mut out = Collect::default();
        ChordSubstrate::fresh(s, requester).join(&mut out, members[0].node);
        let (_, lookup) = out.sent.pop().expect("join sends one lookup");
        assert!(roles[0]
            .dispatch(&mut out, requester.node, lookup)
            .is_none());
        let (dead, bounced) = out.sent.pop().expect("forwarded to a next hop");

        // Mid-join we have no usable routing state: drop it.
        assert!(roles[0]
            .undeliverable(&mut out, dead, bounced.clone(), true)
            .is_none());
        assert!(out.sent.is_empty());

        assert!(roles[0]
            .undeliverable(&mut out, dead, bounced, false)
            .is_none());
        let [(to, msg)] = &out.sent[..] else {
            panic!("exactly one re-sent message, got {:?}", out.sent)
        };
        assert_ne!(*to, dead);
        assert!(matches!(
            msg,
            ChordMsg::Route {
                payload: RoutePayload::FindSuccessor { requester: r, token: LookupToken::Join },
                ..
            } if *r == requester
        ));
    }
}
