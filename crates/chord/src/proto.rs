//! The Chord message protocol: recursive key-based routing
//! (Algorithm 1 of the Flower-CDN paper), join, stabilization and
//! finger maintenance.
//!
//! The protocol is written against a tiny [`Transport`] abstraction so
//! that higher-level protocols (Flower-CDN's D-ring, Squirrel) can
//! embed [`ChordMsg`] inside their own message enums and drive this
//! module from their event handlers.
//!
//! Routing is *recursive*: each hop runs `local_lookup` and forwards,
//! exactly as the paper's Algorithm 1 presents it. The next-hop choice
//! can be adjusted by a [`RoutePolicy`] — the single extension point
//! Flower-CDN's Algorithm 2 needs (the conditional website-aware
//! lookup), demonstrating the paper's claim that D-ring integrates
//! into an existing DHT without modifying it.

use simnet::NodeId;

use crate::id::ChordId;
use crate::state::{ChordState, PeerRef};

/// Bytes of the fixed routing header we model for every Chord message
/// (key + hop counter + addressing).
pub const HEADER_BYTES: u32 = 24;

/// Application payloads carried through the DHT must report their
/// modelled wire size.
pub trait Wire {
    /// Serialized size in bytes.
    fn wire_size(&self) -> u32;
}

/// Outcome of handling a Chord message, surfaced to the embedding
/// protocol.
#[derive(Debug)]
pub enum ChordOutcome<A> {
    /// A routed application payload terminated here: this node owns
    /// the key, or the hop limit forced local delivery.
    Deliver {
        /// The application payload.
        payload: A,
        /// Hops taken from the first routing step.
        hops: u8,
    },
    /// This node's join lookup completed; the state has adopted the
    /// returned successor.
    JoinComplete,
    /// This node's join lookup bounced off a dead hop while joining
    /// (see [`on_undeliverable`]); the node should retry through
    /// another entry point.
    JoinLost,
}

/// Messages exchanged by Chord peers. `A` is the application payload
/// type routed through the ring.
#[derive(Clone, Debug)]
pub enum ChordMsg<A> {
    /// A routed message: forwarded greedily toward the owner of `key`.
    Route {
        /// Destination key.
        key: ChordId,
        /// Hops taken so far.
        hops: u8,
        /// What is being routed.
        payload: RoutePayload<A>,
    },
    /// Direct answer to a routed `FindSuccessor`.
    FoundSuccessor {
        /// Correlates with the lookup request.
        token: LookupToken,
        /// The owner of the looked-up key.
        owner: PeerRef,
    },
    /// Stabilization: ask a peer for its predecessor and successors.
    NeighborsReq,
    /// Stabilization answer.
    NeighborsResp {
        /// The peer's predecessor.
        pred: Option<PeerRef>,
        /// The peer's successor list.
        succs: Vec<PeerRef>,
    },
    /// Chord `notify`: the sender believes it is our predecessor.
    Notify {
        /// The candidate predecessor.
        peer: PeerRef,
    },
}

/// What a lookup was for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LookupToken {
    /// Fixing finger `i`.
    Finger(u32),
    /// A join lookup for our own id.
    Join,
}

/// Internal payloads routed through the ring.
#[derive(Clone, Debug)]
pub enum RoutePayload<A> {
    /// An application message.
    App(A),
    /// A successor lookup on behalf of `requester`.
    FindSuccessor {
        /// Who asked (gets the `FoundSuccessor` reply directly).
        requester: PeerRef,
        /// Correlation token.
        token: LookupToken,
    },
}

impl<A: Wire> ChordMsg<A> {
    /// Modelled wire size of this message.
    pub fn wire_size(&self) -> u32 {
        match self {
            ChordMsg::Route { payload, .. } => {
                HEADER_BYTES
                    + match payload {
                        RoutePayload::App(a) => a.wire_size(),
                        RoutePayload::FindSuccessor { .. } => 16,
                    }
            }
            ChordMsg::FoundSuccessor { .. } => HEADER_BYTES + 16,
            ChordMsg::NeighborsReq => HEADER_BYTES,
            ChordMsg::NeighborsResp { succs, .. } => HEADER_BYTES + 16 + 16 * succs.len() as u32,
            ChordMsg::Notify { .. } => HEADER_BYTES + 16,
        }
    }

    /// Whether this message is routing traffic (`Route`,
    /// `FoundSuccessor`) as opposed to ring maintenance.
    pub fn is_routing(&self) -> bool {
        matches!(
            self,
            ChordMsg::Route { .. } | ChordMsg::FoundSuccessor { .. }
        )
    }
}

impl<A> ChordMsg<A> {
    /// The application payload this message routes, if any: what a
    /// node off the ring can still rescue from a bounced or stray
    /// message.
    pub fn app_payload(&self) -> Option<&A> {
        match self {
            ChordMsg::Route {
                payload: RoutePayload::App(a),
                ..
            } => Some(a),
            _ => None,
        }
    }
}

/// Message-sending abstraction the embedding protocol provides.
pub trait Transport<A> {
    /// Send a Chord message to an underlay node.
    fn send_chord(&mut self, to: NodeId, msg: ChordMsg<A>);
}

/// Next-hop adjustment hook — Algorithm 2 of the paper overrides this
/// for website-aware D-ring routing.
pub trait RoutePolicy {
    /// Given the default candidate `dflt` chosen by `local_lookup`,
    /// return the peer to actually forward to. The default
    /// implementation is the unmodified DHT (Algorithm 1).
    fn adjust_next_hop(&self, st: &ChordState, key: ChordId, dflt: PeerRef) -> PeerRef {
        let _ = (st, key);
        dflt
    }
}

/// The unmodified Chord routing of Algorithm 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct StandardPolicy;

impl RoutePolicy for StandardPolicy {}

/// Start routing `payload` toward `key` from this node (the first
/// routing step runs locally). May deliver immediately.
pub fn start_route<A: Wire, T: Transport<A>>(
    st: &mut ChordState,
    t: &mut T,
    key: ChordId,
    payload: A,
    policy: &impl RoutePolicy,
) -> Option<ChordOutcome<A>> {
    step_route(st, t, key, 0, RoutePayload::App(payload), policy)
}

/// Handle an incoming Chord message. Returns an outcome if something
/// terminated at this node.
pub fn handle<A: Wire, T: Transport<A>>(
    st: &mut ChordState,
    t: &mut T,
    from: NodeId,
    msg: ChordMsg<A>,
    policy: &impl RoutePolicy,
) -> Option<ChordOutcome<A>> {
    match msg {
        ChordMsg::Route { key, hops, payload } => step_route(st, t, key, hops, payload, policy),
        ChordMsg::FoundSuccessor { token, owner } => {
            match token {
                LookupToken::Finger(i) => {
                    st.set_finger(i, owner);
                    None
                }
                LookupToken::Join => {
                    st.adopt_successor(owner);
                    // Kick stabilization toward the new successor so
                    // the ring learns about us quickly.
                    t.send_chord(owner.node, ChordMsg::NeighborsReq);
                    t.send_chord(owner.node, ChordMsg::Notify { peer: st.me() });
                    Some(ChordOutcome::JoinComplete)
                }
            }
        }
        ChordMsg::NeighborsReq => {
            let resp = ChordMsg::NeighborsResp {
                pred: st.predecessor(),
                succs: st.successors().to_vec(),
            };
            t.send_chord(from, resp);
            None
        }
        ChordMsg::NeighborsResp { pred, succs } => {
            // `from` is (one of) our successors answering stabilize.
            if let Some(succ) = st.successors().iter().copied().find(|p| p.node == from) {
                let to_notify = st.on_successor_predecessor(succ, pred);
                if to_notify.node == succ.node {
                    st.refresh_successor_list(succ, &succs);
                }
                t.send_chord(to_notify.node, ChordMsg::Notify { peer: st.me() });
            }
            None
        }
        ChordMsg::Notify { peer } => {
            st.on_notify(peer);
            None
        }
    }
}

/// One recursive routing step at this node.
fn step_route<A: Wire, T: Transport<A>>(
    st: &mut ChordState,
    t: &mut T,
    key: ChordId,
    hops: u8,
    payload: RoutePayload<A>,
    policy: &impl RoutePolicy,
) -> Option<ChordOutcome<A>> {
    let candidate = st.local_lookup(key);
    let me = st.me();
    // The owner, or the hop limit: the application decides how to
    // recover from the latter (Flower-CDN falls back to the origin
    // server).
    if candidate.node == me.node || hops >= st.config().max_hops {
        return terminate(st, t, hops, payload);
    }
    let next = policy.adjust_next_hop(st, key, candidate);
    if next.node == me.node {
        return terminate(st, t, hops, payload);
    }
    t.send_chord(
        next.node,
        ChordMsg::Route {
            key,
            hops: hops + 1,
            payload,
        },
    );
    None
}

fn terminate<A: Wire, T: Transport<A>>(
    st: &mut ChordState,
    t: &mut T,
    hops: u8,
    payload: RoutePayload<A>,
) -> Option<ChordOutcome<A>> {
    match payload {
        RoutePayload::App(payload) => Some(ChordOutcome::Deliver { payload, hops }),
        RoutePayload::FindSuccessor { requester, token } => {
            t.send_chord(
                requester.node,
                ChordMsg::FoundSuccessor {
                    token,
                    owner: st.me(),
                },
            );
            None
        }
    }
}

/// Periodic stabilization tick: probe our successor.
pub fn start_stabilize<A: Wire, T: Transport<A>>(st: &mut ChordState, t: &mut T) {
    if let Some(s) = st.successor() {
        t.send_chord(s.node, ChordMsg::NeighborsReq);
    }
}

/// Periodic finger-fix tick: look up the next finger target through
/// the ring.
pub fn start_fix_finger<A: Wire, T: Transport<A>>(
    st: &mut ChordState,
    t: &mut T,
    policy: &impl RoutePolicy,
) {
    let (i, target) = st.next_finger_target();
    let me = st.me();
    let payload = RoutePayload::FindSuccessor {
        requester: me,
        token: LookupToken::Finger(i),
    };
    let _ = step_route::<A, T>(st, t, target, 0, payload, policy);
}

/// Join the ring through `bootstrap`: route a successor lookup for our
/// own id. The [`ChordOutcome::JoinComplete`] outcome arrives via the
/// `FoundSuccessor` reply.
pub fn start_join<A: Wire, T: Transport<A>>(st: &mut ChordState, t: &mut T, bootstrap: NodeId) {
    let me = st.me();
    let msg = ChordMsg::Route {
        key: me.id,
        hops: 0,
        payload: RoutePayload::FindSuccessor {
            requester: me,
            token: LookupToken::Join,
        },
    };
    t.send_chord(bootstrap, msg);
}

/// A message this node sent to `dead` bounced (the destination is
/// down): purge the dead peer, then take the routing step again around
/// it, so that neither an application payload nor another node's
/// lookup is lost (§5.2 joins depend on the latter while the ring
/// heals). Our own lookups are not re-sent: a lost finger fix waits
/// for the next period, and a lost join lookup comes back as
/// [`ChordOutcome::JoinLost`] while `joining`. A joining node has no
/// usable routing state, so it drops another node's lookup.
pub fn on_undeliverable<A: Wire, T: Transport<A>>(
    st: &mut ChordState,
    t: &mut T,
    dead: NodeId,
    msg: ChordMsg<A>,
    joining: bool,
    policy: &impl RoutePolicy,
) -> Option<ChordOutcome<A>> {
    st.on_peer_dead(dead);
    let ChordMsg::Route { key, hops, payload } = msg else {
        return None;
    };
    if let RoutePayload::FindSuccessor { requester, token } = payload {
        if requester.node == st.me().node {
            return (joining && token == LookupToken::Join).then_some(ChordOutcome::JoinLost);
        }
        if joining {
            return None;
        }
    }
    step_route(st, t, key, hops, payload, policy)
}

/// Peers `msg` mentions that claim this node's exact ring id from a
/// different underlay node: duplicate positions, as two racing §5.2
/// replacements create. Resolving the conflict is the embedding
/// protocol's business.
pub fn conflict_peers<A>(st: &ChordState, msg: &ChordMsg<A>) -> Vec<PeerRef> {
    let me = st.me();
    let claims_my_id = |p: &PeerRef| p.id == me.id && p.node != me.node;
    match msg {
        ChordMsg::Notify { peer } if claims_my_id(peer) => vec![*peer],
        ChordMsg::NeighborsResp { pred, succs } => pred
            .iter()
            .chain(succs)
            .filter(|p| claims_my_id(p))
            .copied()
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{stable_ring, ChordConfig};

    #[derive(Clone, Debug, PartialEq)]
    struct Payload(u64);
    impl Wire for Payload {
        fn wire_size(&self) -> u32 {
            8
        }
    }

    /// A loop-back transport over a vector of (to, msg).
    #[derive(Default)]
    struct VecTransport {
        out: Vec<(NodeId, ChordMsg<Payload>)>,
    }
    impl Transport<Payload> for VecTransport {
        fn send_chord(&mut self, to: NodeId, msg: ChordMsg<Payload>) {
            self.out.push((to, msg));
        }
    }

    fn ring(ids: &[u64]) -> Vec<ChordState> {
        let members: Vec<PeerRef> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| PeerRef {
                id: ChordId(*id),
                node: NodeId(i as u32),
            })
            .collect();
        stable_ring(&members, &ChordConfig::default())
    }

    /// Synchronously run routing across a set of states until delivery.
    fn route_to_completion(
        states: &mut [ChordState],
        start: usize,
        key: ChordId,
        payload: Payload,
    ) -> (usize, u8) {
        let mut t = VecTransport::default();
        if let Some(ChordOutcome::Deliver { hops, .. }) = start_route(
            &mut states[start],
            &mut t,
            key,
            payload.clone(),
            &StandardPolicy,
        ) {
            return (start, hops);
        }
        let mut steps = 0;
        while let Some((to, msg)) = t.out.pop() {
            steps += 1;
            assert!(steps < 1000, "routing did not terminate");
            let idx = to.idx();
            if let Some(ChordOutcome::Deliver {
                hops, payload: p, ..
            }) = handle(&mut states[idx], &mut t, NodeId(0), msg, &StandardPolicy)
            {
                assert_eq!(p, payload);
                return (idx, hops);
            }
        }
        panic!("message lost");
    }

    #[test]
    fn routes_reach_the_owner() {
        let ids: Vec<u64> = (0..32).map(crate::id::hash64).collect();
        let mut states = ring(&ids);
        // The owner of key k is the member minimizing clockwise k→owner.
        for probe in 0..50u64 {
            let key = ChordId(crate::id::hash64(1000 + probe));
            let expected = states
                .iter()
                .map(|s| s.me())
                .min_by_key(|p| key.clockwise_distance(p.id))
                .unwrap();
            let (got, _) =
                route_to_completion(&mut states, (probe % 32) as usize, key, Payload(probe));
            assert_eq!(
                states[got].me().node,
                expected.node,
                "wrong owner for {key:?}"
            );
        }
    }

    #[test]
    fn hop_count_is_logarithmic() {
        let n = 256u64;
        let ids: Vec<u64> = (0..n).map(crate::id::hash64).collect();
        let mut states = ring(&ids);
        let mut total_hops = 0u32;
        let probes = 100u64;
        for probe in 0..probes {
            let key = ChordId(crate::id::hash64(77_000 + probe));
            let (_, hops) =
                route_to_completion(&mut states, (probe % n) as usize, key, Payload(probe));
            total_hops += hops as u32;
        }
        let avg = total_hops as f64 / probes as f64;
        // log2(256) = 8; expect roughly half that on average, never more.
        assert!(avg <= 8.0, "average hops {avg} too high for 256 nodes");
        assert!(avg >= 1.0, "suspiciously low hop count {avg}");
    }

    #[test]
    fn exact_key_delivers_at_exact_owner() {
        let ids = [100u64, 200, 300];
        let mut states = ring(&ids);
        let (idx, _) = route_to_completion(&mut states, 0, ChordId(200), Payload(1));
        assert_eq!(states[idx].id(), ChordId(200));
    }

    #[test]
    fn find_successor_fixes_finger() {
        let ids = [0u64, 1 << 62, 1 << 63];
        let mut states = ring(&ids);
        // Clear node 0's finger for 2^62 and re-fix it via lookup.
        let me0 = states[0].me();
        states[0].set_finger(62, me0);
        let mut t = VecTransport::default();
        // Force the round-robin to index 62.
        for _ in 0..62 {
            states[0].next_finger_target();
        }
        start_fix_finger(&mut states[0], &mut t, &StandardPolicy);
        // Drive messages.
        let mut guard = 0;
        while let Some((to, msg)) = t.out.pop() {
            guard += 1;
            assert!(guard < 100);
            let idx = to.idx();
            let _ = handle(&mut states[idx], &mut t, NodeId(99), msg, &StandardPolicy);
        }
        let f: Vec<ChordId> = states[0].fingers().map(|p| p.id).collect();
        assert!(f.contains(&ChordId(1 << 62)), "finger 62 not fixed: {f:?}");
    }

    #[test]
    fn join_adopts_successor_and_notifies() {
        let ids = [100u64, 200];
        let mut states = ring(&ids);
        let newbie_ref = PeerRef {
            id: ChordId(150),
            node: NodeId(2),
        };
        let mut newbie = ChordState::new(newbie_ref, ChordConfig::default());
        let mut t = VecTransport::default();
        start_join(&mut newbie, &mut t, NodeId(0));
        let mut all = [states.remove(0), states.remove(0), newbie];
        let mut joined = false;
        let mut guard = 0;
        while let Some((to, msg)) = t.out.pop() {
            guard += 1;
            assert!(guard < 100);
            let idx = to.idx();
            if let Some(ChordOutcome::JoinComplete) =
                handle(&mut all[idx], &mut t, NodeId(0), msg, &StandardPolicy)
            {
                joined = true;
            }
        }
        assert!(joined);
        // 150's successor is 200 (owner of key 150).
        assert_eq!(all[2].successor().unwrap().id, ChordId(200));
        // 200 should have been notified and adopted 150 as predecessor.
        assert_eq!(all[1].predecessor().unwrap().id, ChordId(150));
    }

    #[test]
    fn stabilization_repairs_successor() {
        // 10 → 30 ring, node 20 interposed (it joined; 10 doesn't know).
        let mut s10 = ChordState::new(
            PeerRef {
                id: ChordId(10),
                node: NodeId(0),
            },
            ChordConfig::default(),
        );
        let mut s30 = ChordState::new(
            PeerRef {
                id: ChordId(30),
                node: NodeId(2),
            },
            ChordConfig::default(),
        );
        s10.adopt_successor(s30.me());
        s30.on_notify(PeerRef {
            id: ChordId(20),
            node: NodeId(1),
        });
        let mut t = VecTransport::default();
        start_stabilize(&mut s10, &mut t);
        // s30 answers NeighborsReq.
        let (to, msg) = t.out.remove(0);
        assert_eq!(to, NodeId(2));
        let _ = handle(&mut s30, &mut t, NodeId(0), msg, &StandardPolicy);
        // s10 processes the response.
        let (to, msg) = t.out.remove(0);
        assert_eq!(to, NodeId(0));
        let _ = handle(&mut s10, &mut t, NodeId(2), msg, &StandardPolicy);
        assert_eq!(
            s10.successor().unwrap().id,
            ChordId(20),
            "stabilize must adopt 20"
        );
        // And s10 notifies 20.
        assert!(t
            .out
            .iter()
            .any(|(to, m)| *to == NodeId(1) && matches!(m, ChordMsg::Notify { .. })));
    }

    #[test]
    fn undeliverable_purges_dead_peer() {
        let ids = [1u64, 2, 3];
        let mut states = ring(&ids);
        let dead = states[0].successor().unwrap().node;
        let bounced: ChordMsg<Payload> = ChordMsg::NeighborsReq;
        let mut t = VecTransport::default();
        let out = on_undeliverable(
            &mut states[0],
            &mut t,
            dead,
            bounced,
            false,
            &StandardPolicy,
        );
        assert!(out.is_none());
        assert_ne!(states[0].successor().map(|p| p.node), Some(dead));
        assert!(t.out.is_empty(), "maintenance is not re-sent");
    }

    /// A key half the ring away from `st`: never its own.
    fn far_key(st: &ChordState) -> ChordId {
        ChordId(st.id().0.wrapping_add(1 << 63))
    }

    #[test]
    fn a_payload_whose_next_hop_died_is_rerouted_or_delivered_never_lost() {
        // On a ring: the bounced payload goes to a different live peer.
        let ids: Vec<u64> = (0..32).map(crate::id::hash64).collect();
        let mut states = ring(&ids);
        let key = far_key(&states[0]);
        let mut t = VecTransport::default();
        assert!(start_route(&mut states[0], &mut t, key, Payload(6), &StandardPolicy).is_none());
        let (dead, bounced) = t.out.pop().expect("forwarded to a next hop");
        assert!(states[0].known_peers().iter().any(|p| p.node == dead));
        let out = on_undeliverable(
            &mut states[0],
            &mut t,
            dead,
            bounced,
            false,
            &StandardPolicy,
        );
        assert!(out.is_none(), "other members remain: forward, not deliver");
        assert!(states[0].known_peers().iter().all(|p| p.node != dead));
        let [(to, msg)] = &t.out[..] else {
            panic!("exactly one re-sent message, got {:?}", t.out)
        };
        assert_ne!(*to, dead);
        assert!(to.idx() < ids.len());
        assert_eq!(msg.app_payload(), Some(&Payload(6)));

        // With the only other member dead: delivered locally.
        let mut pair = ring(&[100, 200]);
        let mut t = VecTransport::default();
        assert!(start_route(
            &mut pair[0],
            &mut t,
            ChordId(200),
            Payload(0),
            &StandardPolicy
        )
        .is_none());
        let (dead, bounced) = t.out.pop().expect("forwarded to the owner");
        assert_eq!(dead, pair[1].me().node);
        let out = on_undeliverable(&mut pair[0], &mut t, dead, bounced, false, &StandardPolicy);
        assert!(
            matches!(
                out,
                Some(ChordOutcome::Deliver {
                    payload: Payload(0),
                    ..
                })
            ),
            "last member standing must take the payload, got {out:?}"
        );
        assert!(t.out.is_empty());
    }

    #[test]
    fn own_bounced_join_lookup_is_lost_only_while_joining() {
        let me = PeerRef {
            id: ChordId(150),
            node: NodeId(50),
        };
        let mut st = ChordState::new(me, ChordConfig::default());
        let mut t = VecTransport::default();
        start_join(&mut st, &mut t, NodeId(3));
        let (entry, lookup) = t.out.pop().expect("join sends one lookup");
        assert_eq!(entry, NodeId(3));

        let out = on_undeliverable(
            &mut st,
            &mut t,
            entry,
            lookup.clone(),
            true,
            &StandardPolicy,
        );
        assert!(matches!(out, Some(ChordOutcome::JoinLost)), "got {out:?}");
        // A bounce arriving after a successful retry is stale.
        assert!(on_undeliverable(&mut st, &mut t, entry, lookup, false, &StandardPolicy).is_none());
        // A lost finger fix waits for the next period.
        let finger_fix: ChordMsg<Payload> = ChordMsg::Route {
            key: me.id,
            hops: 0,
            payload: RoutePayload::FindSuccessor {
                requester: me,
                token: LookupToken::Finger(3),
            },
        };
        for joining in [true, false] {
            let bounced = finger_fix.clone();
            assert!(
                on_undeliverable(&mut st, &mut t, entry, bounced, joining, &StandardPolicy)
                    .is_none()
            );
        }
        assert!(t.out.is_empty(), "own lookups are never re-sent");
    }

    #[test]
    fn a_forwarded_lookup_is_rerouted_unless_joining() {
        let ids: Vec<u64> = (0..32).map(crate::id::hash64).collect();
        let mut states = ring(&ids);
        // A newcomer (node 99) joining half the ring away from member
        // 0, entering the ring there.
        let requester = PeerRef {
            id: far_key(&states[0]),
            node: NodeId(99),
        };
        let mut newcomer = ChordState::new(requester, ChordConfig::default());
        let mut t = VecTransport::default();
        start_join(&mut newcomer, &mut t, states[0].me().node);
        let (_, lookup) = t.out.pop().expect("join sends one lookup");
        assert!(handle(
            &mut states[0],
            &mut t,
            requester.node,
            lookup,
            &StandardPolicy
        )
        .is_none());
        let (dead, bounced) = t.out.pop().expect("forwarded to a next hop");

        // Mid-join we have no usable routing state: drop it.
        let b = bounced.clone();
        assert!(on_undeliverable(&mut states[0], &mut t, dead, b, true, &StandardPolicy).is_none());
        assert!(t.out.is_empty());

        assert!(on_undeliverable(
            &mut states[0],
            &mut t,
            dead,
            bounced,
            false,
            &StandardPolicy
        )
        .is_none());
        let [(to, msg)] = &t.out[..] else {
            panic!("exactly one re-sent message, got {:?}", t.out)
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

    #[test]
    fn conflict_detection_sees_duplicate_positions() {
        let states = ring(&[100, 200, 300, 400]);
        let me = states[0].me();
        let usurper = PeerRef {
            id: me.id,
            node: NodeId(77),
        };
        let notify = |peer| ChordMsg::<Payload>::Notify { peer };
        let conflicts = conflict_peers(&states[0], &notify(usurper));
        assert_eq!(conflicts, vec![usurper], "duplicate position not flagged");
        // Our own announcements are not conflicts.
        assert!(conflict_peers(&states[0], &notify(me)).is_empty());
        // Nor is anything in a message that names no peers.
        assert!(conflict_peers(&states[0], &ChordMsg::<Payload>::NeighborsReq).is_empty());
        let resp = ChordMsg::<Payload>::NeighborsResp {
            pred: Some(me),
            succs: vec![states[1].me(), usurper],
        };
        assert_eq!(conflict_peers(&states[0], &resp), vec![usurper]);
    }

    #[test]
    fn app_payload_is_recoverable_from_the_wire_format() {
        let msg: ChordMsg<Payload> = ChordMsg::Route {
            key: ChordId(2),
            hops: 0,
            payload: RoutePayload::App(Payload(1)),
        };
        assert_eq!(msg.app_payload(), Some(&Payload(1)));
        assert!(msg.is_routing());
        assert!(msg.wire_size() > 0);
        assert!(ChordMsg::<Payload>::NeighborsReq.app_payload().is_none());
        let lookup: ChordMsg<Payload> = ChordMsg::Route {
            key: ChordId(2),
            hops: 0,
            payload: RoutePayload::FindSuccessor {
                requester: PeerRef {
                    id: ChordId(2),
                    node: NodeId(0),
                },
                token: LookupToken::Join,
            },
        };
        assert!(lookup.app_payload().is_none());
    }

    #[test]
    fn wire_sizes_are_plausible() {
        let m: ChordMsg<Payload> = ChordMsg::Route {
            key: ChordId(1),
            hops: 0,
            payload: RoutePayload::App(Payload(9)),
        };
        assert_eq!(m.wire_size(), HEADER_BYTES + 8);
        assert!(m.is_routing());
        let n: ChordMsg<Payload> = ChordMsg::NeighborsResp {
            pred: None,
            succs: vec![
                PeerRef {
                    id: ChordId(0),
                    node: NodeId(0)
                };
                3
            ],
        };
        assert_eq!(n.wire_size(), HEADER_BYTES + 16 + 48);
        assert!(!n.is_routing());
    }
}
