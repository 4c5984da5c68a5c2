//! The pluggable DHT substrate under the D-ring (§3.1).
//!
//! The paper claims the D-ring "can be integrated into any existing
//! structured overlay based on a standard DHT (e.g., Chord, Pastry)".
//! This module turns that claim into an interface: [`DhtSubstrate`]
//! captures the operations [`crate::node::FlowerNode`]'s directory
//! role actually needs — joining, key-based routing with an
//! application payload, message dispatch, periodic maintenance, and
//! the neighbour knowledge the directory protocol piggybacks on — and
//! [`ChordSubstrate`] / [`PastrySubstrate`] implement it over the
//! [`chord`] and [`pastry`] crates respectively.
//!
//! Substrate selection is a runtime configuration choice
//! ([`SubstrateKind`], carried in [`crate::config::FlowerConfig`]), so
//! every experiment can run over either DHT from config alone. The two
//! substrates share the 64-bit identifier space ([`DhtKey`]) and the
//! [`crate::id::KeyScheme`] layout; they differ in ownership rule
//! (clockwise successor vs. numerically closest), routing structure
//! (fingers vs. prefix table + leaf set) and maintenance traffic
//! (stabilize/fix-finger vs. leaf probing).

use std::borrow::Cow;

use simnet::NodeId;

use crate::id::KeyScheme;
use crate::msg::Query;
use crate::policy::DringPolicy;

/// The identifier space shared by all substrates (Chord and Pastry
/// both interpret D-ring keys as 64-bit ring positions).
pub type DhtKey = chord::ChordId;

/// A substrate peer: ring/mesh position plus underlay address.
pub type PeerRef = chord::PeerRef;

/// Wire messages of the selected substrate, embedded in
/// [`crate::msg::FlowerMsg::Dht`]. The enum is closed over the two
/// shipped substrates so the protocol message type stays non-generic;
/// a role built by one [`SubstrateKind`] only ever sees (and sends)
/// its own variant.
#[derive(Clone, Debug)]
pub enum SubstrateMsg {
    /// Chord traffic (routing + ring maintenance).
    Chord(chord::ChordMsg<Query>),
    /// Pastry traffic (routing + leaf-set maintenance).
    Pastry(pastry::PastryMsg<Query>),
}

impl SubstrateMsg {
    /// Modelled wire size of this message.
    pub fn wire_size(&self) -> u32 {
        match self {
            SubstrateMsg::Chord(m) => m.wire_size(),
            SubstrateMsg::Pastry(m) => m.wire_size(),
        }
    }

    /// Whether this is routing traffic, as opposed to substrate
    /// maintenance (drives the traffic-class split of the paper's
    /// bandwidth accounting).
    pub fn is_routing(&self) -> bool {
        match self {
            SubstrateMsg::Chord(m) => m.is_routing(),
            SubstrateMsg::Pastry(m) => m.is_routing(),
        }
    }

    /// The application query this message carries, if any — what a
    /// node without a directory role can still rescue from a bounced
    /// or stray substrate message.
    pub fn carried_query(&self) -> Option<Query> {
        match self {
            SubstrateMsg::Chord(chord::ChordMsg::Route {
                payload: chord::RoutePayload::App(q),
                ..
            }) => Some(*q),
            SubstrateMsg::Pastry(pastry::PastryMsg::Route {
                payload: pastry::proto::RoutePayload::App(q),
                ..
            }) => Some(*q),
            _ => None,
        }
    }
}

/// What a substrate operation surfaced to the embedding node — the
/// substrate's outcome stream.
#[derive(Debug)]
pub enum SubstrateEvent {
    /// A routed query terminated at this node (it is the responsible
    /// directory position, or the hop limit forced local delivery).
    Deliver {
        /// The delivered query.
        query: Query,
        /// Hops the query took through the substrate.
        hops: u8,
    },
    /// This node's join completed; the routing state is usable.
    JoinComplete,
    /// This node's in-flight join lookup was lost (e.g. it bounced off
    /// a dead hop); the node should retry through another entry point.
    NeedRejoin,
}

/// Periodic maintenance ticks the node's timers drive. Substrates map
/// them onto their own maintenance traffic and may ignore ticks they
/// have no use for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MaintTick {
    /// Primary neighbour maintenance (Chord: stabilize; Pastry: leaf
    /// probing).
    Stabilize,
    /// Routing-structure repair (Chord: fix one finger; Pastry: the
    /// leaf exchange already refreshes the table — no-op).
    FixFinger,
}

/// Where a substrate role sends its wire messages (implemented by the
/// node over the simulator context).
pub trait SubstrateOut {
    /// Send `msg` to underlay node `to`.
    fn send(&mut self, to: NodeId, msg: SubstrateMsg);
}

/// One node's view of the DHT substrate its directory role runs on.
///
/// Object-safe on purpose: the substrate is chosen at runtime from
/// [`SubstrateKind`], so [`crate::node::DirRole`] holds a
/// `Box<dyn DhtSubstrate>` and the rest of the node is written against
/// this trait alone.
pub trait DhtSubstrate: std::fmt::Debug + Send {
    /// This role's position in the identifier space.
    fn key(&self) -> DhtKey;

    /// Start joining through `entry` (a live substrate member). The
    /// outcome stream later yields [`SubstrateEvent::JoinComplete`].
    fn join(&mut self, out: &mut dyn SubstrateOut, entry: NodeId);

    /// Route `query` toward the owner of `key`, starting locally. May
    /// deliver immediately (the outcome stream is the return value).
    fn route(
        &mut self,
        out: &mut dyn SubstrateOut,
        key: DhtKey,
        query: Query,
    ) -> Vec<SubstrateEvent>;

    /// Dispatch an incoming substrate message.
    fn dispatch(
        &mut self,
        out: &mut dyn SubstrateOut,
        from: NodeId,
        msg: SubstrateMsg,
    ) -> Vec<SubstrateEvent>;

    /// A message this role sent to `to` bounced (destination down):
    /// purge the dead peer and recover what can be recovered
    /// (re-route around the dead hop, flag lost join lookups).
    fn undeliverable(
        &mut self,
        out: &mut dyn SubstrateOut,
        to: NodeId,
        msg: SubstrateMsg,
        joining: bool,
    ) -> Vec<SubstrateEvent>;

    /// Drive periodic maintenance.
    fn maintenance(&mut self, out: &mut dyn SubstrateOut, tick: MaintTick);

    /// Whether this substrate makes use of `tick`. The node stops
    /// rescheduling the corresponding timer when it does not, so a
    /// substrate with no work on a tick costs no simulator events.
    fn wants_tick(&self, tick: MaintTick) -> bool {
        let _ = tick;
        true
    }

    /// Every peer this role currently knows, in ascending ring-id
    /// order (the D-ring piggybacks directory summaries and replica
    /// offers on this neighbourhood). Borrowed where the substrate
    /// keeps the list as state.
    fn known_peers(&self) -> Cow<'_, [PeerRef]>;

    /// The neighbours a voluntary hand-off ships to the heir, enough
    /// for [`SubstrateKind::handoff_role`] to rebuild a working
    /// routing state at the same key.
    fn handoff_neighbors(&self) -> Vec<PeerRef>;

    /// Peers mentioned in `msg` that claim this role's exact key from
    /// a different underlay node — duplicate D-ring positions from
    /// racing §5.2 replacements. The node resolves the conflict
    /// (lowest node id stays).
    fn conflict_peers(&self, msg: &SubstrateMsg) -> Vec<PeerRef>;

    /// After a join: the underlay node that already owns this exact
    /// key, if the position turned out to be taken.
    fn position_taken_by(&self) -> Option<NodeId>;
}

// ---------------------------------------------------------------------
// Chord
// ---------------------------------------------------------------------

/// [`DhtSubstrate`] over the [`chord`] crate, routing with the
/// website-aware Algorithm 2 policy.
#[derive(Debug)]
pub struct ChordSubstrate {
    st: chord::ChordState,
    policy: DringPolicy,
}

impl ChordSubstrate {
    /// Wrap an existing Chord state (simulation bootstrap).
    pub fn new(st: chord::ChordState, scheme: KeyScheme) -> Self {
        ChordSubstrate {
            st,
            policy: DringPolicy::new(scheme),
        }
    }

    /// The underlying ring state (tests, inspection).
    pub fn chord_state(&self) -> &chord::ChordState {
        &self.st
    }
}

struct ChordOut<'a> {
    out: &'a mut dyn SubstrateOut,
}

impl chord::Transport<Query> for ChordOut<'_> {
    fn send_chord(&mut self, to: NodeId, msg: chord::ChordMsg<Query>) {
        self.out.send(to, SubstrateMsg::Chord(msg));
    }
}

fn chord_events(outcome: Option<chord::ChordOutcome<Query>>) -> Vec<SubstrateEvent> {
    match outcome {
        None => Vec::new(),
        Some(chord::ChordOutcome::Deliver { payload, hops, .. }) => {
            vec![SubstrateEvent::Deliver {
                query: payload,
                hops,
            }]
        }
        Some(chord::ChordOutcome::JoinComplete) => vec![SubstrateEvent::JoinComplete],
    }
}

impl DhtSubstrate for ChordSubstrate {
    fn key(&self) -> DhtKey {
        self.st.id()
    }

    fn join(&mut self, out: &mut dyn SubstrateOut, entry: NodeId) {
        let mut t = ChordOut { out };
        chord::start_join(&mut self.st, &mut t, entry);
    }

    fn route(
        &mut self,
        out: &mut dyn SubstrateOut,
        key: DhtKey,
        query: Query,
    ) -> Vec<SubstrateEvent> {
        let mut t = ChordOut { out };
        chord_events(chord::start_route(
            &mut self.st,
            &mut t,
            key,
            query,
            &self.policy,
        ))
    }

    fn dispatch(
        &mut self,
        out: &mut dyn SubstrateOut,
        from: NodeId,
        msg: SubstrateMsg,
    ) -> Vec<SubstrateEvent> {
        let SubstrateMsg::Chord(cm) = msg else {
            debug_assert!(false, "pastry message reached a chord role");
            return Vec::new();
        };
        let mut t = ChordOut { out };
        chord_events(chord::handle(&mut self.st, &mut t, from, cm, &self.policy))
    }

    fn undeliverable(
        &mut self,
        out: &mut dyn SubstrateOut,
        to: NodeId,
        msg: SubstrateMsg,
        joining: bool,
    ) -> Vec<SubstrateEvent> {
        let SubstrateMsg::Chord(cm) = msg else {
            return Vec::new();
        };
        chord::on_undeliverable(&mut self.st, to, &cm);
        let chord::ChordMsg::Route { key, hops, payload } = cm else {
            return Vec::new();
        };
        match payload {
            // Re-route the application payload around the dead hop.
            chord::RoutePayload::App(query) => {
                let me = self.st.me().node;
                let mut t = ChordOut { out };
                chord_events(chord::handle(
                    &mut self.st,
                    &mut t,
                    me,
                    chord::ChordMsg::Route {
                        key,
                        hops,
                        payload: chord::RoutePayload::App(query),
                    },
                    &self.policy,
                ))
            }
            chord::RoutePayload::FindSuccessor { requester, token } => {
                if requester.node == self.st.me().node {
                    // Our own lookup bounced. A lost join lookup must
                    // be retried through another entry point (the node
                    // picks it); a lost finger fix simply waits for
                    // the next period.
                    if joining && matches!(token, chord::LookupToken::Join) {
                        vec![SubstrateEvent::NeedRejoin]
                    } else {
                        Vec::new()
                    }
                } else if !joining {
                    // We were forwarding someone else's lookup and the
                    // next hop died: re-route around it so the lookup
                    // is not lost (§5.2 joins depend on it while the
                    // ring heals).
                    let me = self.st.me().node;
                    let mut t = ChordOut { out };
                    let _ = chord::handle(
                        &mut self.st,
                        &mut t,
                        me,
                        chord::ChordMsg::Route {
                            key,
                            hops,
                            payload: chord::RoutePayload::FindSuccessor { requester, token },
                        },
                        &self.policy,
                    );
                    Vec::new()
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn maintenance(&mut self, out: &mut dyn SubstrateOut, tick: MaintTick) {
        let mut t = ChordOut { out };
        match tick {
            MaintTick::Stabilize => chord::start_stabilize(&mut self.st, &mut t),
            MaintTick::FixFinger => chord::start_fix_finger(&mut self.st, &mut t, &self.policy),
        }
    }

    fn known_peers(&self) -> Cow<'_, [PeerRef]> {
        Cow::Borrowed(self.st.known_peers())
    }

    fn handoff_neighbors(&self) -> Vec<PeerRef> {
        let mut out = self.st.successors().to_vec();
        if let Some(p) = self.st.predecessor() {
            if out.iter().all(|q| q.node != p.node) {
                out.push(p);
            }
        }
        out
    }

    fn conflict_peers(&self, msg: &SubstrateMsg) -> Vec<PeerRef> {
        let SubstrateMsg::Chord(cm) = msg else {
            return Vec::new();
        };
        let me = self.st.me();
        let claims_my_key = |p: &PeerRef| p.id == me.id && p.node != me.node;
        match cm {
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

    fn position_taken_by(&self) -> Option<NodeId> {
        let me = self.st.me();
        self.st
            .successor()
            .filter(|s| s.id == me.id && s.node != me.node)
            .map(|s| s.node)
    }
}

// ---------------------------------------------------------------------
// Pastry
// ---------------------------------------------------------------------

/// [`DhtSubstrate`] over the [`pastry`] crate. No routing policy is
/// needed: Pastry's numerically-closest delivery already lands an
/// absent directory's key on a ring-adjacent directory, which the
/// D-ring id layout makes a same-website one (see
/// `crates/pastry/tests/dring_over_pastry.rs`) — Algorithm 2's goal
/// falls out of the delivery rule.
#[derive(Debug)]
pub struct PastrySubstrate {
    st: pastry::PastryState,
}

impl PastrySubstrate {
    /// Wrap an existing Pastry state (simulation bootstrap).
    pub fn new(st: pastry::PastryState) -> Self {
        PastrySubstrate { st }
    }

    /// The underlying mesh state (tests, inspection).
    pub fn pastry_state(&self) -> &pastry::PastryState {
        &self.st
    }
}

struct PastryOut<'a> {
    out: &'a mut dyn SubstrateOut,
}

impl pastry::proto::Transport<Query> for PastryOut<'_> {
    fn send_pastry(&mut self, to: NodeId, msg: pastry::PastryMsg<Query>) {
        self.out.send(to, SubstrateMsg::Pastry(msg));
    }
}

fn pastry_events(outcome: Option<pastry::PastryOutcome<Query>>) -> Vec<SubstrateEvent> {
    match outcome {
        None => Vec::new(),
        Some(pastry::PastryOutcome::Deliver { payload, hops, .. }) => {
            vec![SubstrateEvent::Deliver {
                query: payload,
                hops,
            }]
        }
        Some(pastry::PastryOutcome::JoinComplete) => vec![SubstrateEvent::JoinComplete],
    }
}

impl DhtSubstrate for PastrySubstrate {
    fn key(&self) -> DhtKey {
        self.st.me().id
    }

    fn join(&mut self, out: &mut dyn SubstrateOut, entry: NodeId) {
        let mut t = PastryOut { out };
        pastry::proto::start_join(&mut self.st, &mut t, entry);
    }

    fn route(
        &mut self,
        out: &mut dyn SubstrateOut,
        key: DhtKey,
        query: Query,
    ) -> Vec<SubstrateEvent> {
        let mut t = PastryOut { out };
        pastry_events(pastry::proto::start_route(&mut self.st, &mut t, key, query))
    }

    fn dispatch(
        &mut self,
        out: &mut dyn SubstrateOut,
        from: NodeId,
        msg: SubstrateMsg,
    ) -> Vec<SubstrateEvent> {
        let SubstrateMsg::Pastry(pm) = msg else {
            debug_assert!(false, "chord message reached a pastry role");
            return Vec::new();
        };
        let mut t = PastryOut { out };
        pastry_events(pastry::proto::handle(&mut self.st, &mut t, from, pm))
    }

    fn undeliverable(
        &mut self,
        out: &mut dyn SubstrateOut,
        to: NodeId,
        msg: SubstrateMsg,
        joining: bool,
    ) -> Vec<SubstrateEvent> {
        let SubstrateMsg::Pastry(pm) = msg else {
            return Vec::new();
        };
        pastry::proto::on_undeliverable(&mut self.st, to, &pm);
        let pastry::PastryMsg::Route { key, hops, payload } = pm else {
            return Vec::new();
        };
        match payload {
            // Re-route the application payload around the dead hop
            // (the purge above removed it from leaf sets and table).
            pastry::proto::RoutePayload::App(query) => {
                let me = self.st.me().node;
                let mut t = PastryOut { out };
                pastry_events(pastry::proto::handle(
                    &mut self.st,
                    &mut t,
                    me,
                    pastry::PastryMsg::Route {
                        key,
                        hops,
                        payload: pastry::proto::RoutePayload::App(query),
                    },
                ))
            }
            pastry::proto::RoutePayload::Join { joiner } => {
                if joiner.node == self.st.me().node {
                    // Our own join request bounced. Retry only while
                    // the join is still in flight; a bounce arriving
                    // after a successful retry is stale and dropped
                    // (mirroring the Chord lookup handling).
                    if joining {
                        vec![SubstrateEvent::NeedRejoin]
                    } else {
                        Vec::new()
                    }
                } else if !joining {
                    let me = self.st.me().node;
                    let mut t = PastryOut { out };
                    let _ = pastry::proto::handle(
                        &mut self.st,
                        &mut t,
                        me,
                        pastry::PastryMsg::Route {
                            key,
                            hops,
                            payload: pastry::proto::RoutePayload::Join { joiner },
                        },
                    );
                    Vec::new()
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn maintenance(&mut self, out: &mut dyn SubstrateOut, tick: MaintTick) {
        match tick {
            MaintTick::Stabilize => {
                let mut t = PastryOut { out };
                pastry::proto::start_probe(&mut self.st, &mut t);
            }
            // The leaf exchange already refreshes the routing table.
            MaintTick::FixFinger => {}
        }
    }

    fn wants_tick(&self, tick: MaintTick) -> bool {
        // The leaf exchange covers routing-table refresh; a separate
        // fix-finger tick would be pure no-op simulator load.
        tick != MaintTick::FixFinger
    }

    fn known_peers(&self) -> Cow<'_, [PeerRef]> {
        Cow::Owned(self.st.known_peers())
    }

    fn handoff_neighbors(&self) -> Vec<PeerRef> {
        self.st.known_peers()
    }

    fn conflict_peers(&self, msg: &SubstrateMsg) -> Vec<PeerRef> {
        let SubstrateMsg::Pastry(pm) = msg else {
            return Vec::new();
        };
        let me = self.st.me();
        let claims_my_key = |p: &PeerRef| p.id == me.id && p.node != me.node;
        match pm {
            pastry::PastryMsg::JoinResp {
                leaves,
                table_peers,
            } => leaves
                .iter()
                .chain(table_peers.iter())
                .filter(|p| claims_my_key(p))
                .copied()
                .collect(),
            pastry::PastryMsg::LeafResp { leaves } => leaves
                .iter()
                .filter(|p| claims_my_key(p))
                .copied()
                .collect(),
            pastry::PastryMsg::LeafProbe { from } if claims_my_key(from) => vec![*from],
            _ => Vec::new(),
        }
    }

    fn position_taken_by(&self) -> Option<NodeId> {
        let me = self.st.me();
        self.st
            .leaves()
            .find(|p| p.id == me.id && p.node != me.node)
            .map(|p| p.node)
    }
}

// ---------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------

/// Which DHT the D-ring runs on — a runtime configuration choice
/// carried in [`crate::config::FlowerConfig`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SubstrateKind {
    /// Chord (the paper's simulated substrate; the default).
    #[default]
    Chord,
    /// Pastry (the paper's other named substrate).
    Pastry,
}

impl SubstrateKind {
    /// Parse `"chord"` or `"pastry"` (case-insensitive).
    pub fn parse(s: &str) -> Result<SubstrateKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "chord" => Ok(SubstrateKind::Chord),
            "pastry" => Ok(SubstrateKind::Pastry),
            other => Err(format!(
                "unknown substrate {other:?} (expected chord or pastry)"
            )),
        }
    }

    /// A fresh, not-yet-joined role at `me` (§5.2 replacement joins).
    pub fn fresh_role(self, scheme: KeyScheme, me: PeerRef) -> Box<dyn DhtSubstrate> {
        match self {
            SubstrateKind::Chord => Box::new(ChordSubstrate::new(
                chord::ChordState::new(me, chord::ChordConfig::default()),
                scheme,
            )),
            SubstrateKind::Pastry => Box::new(PastrySubstrate::new(pastry::PastryState::new(
                me,
                pastry::PastryConfig::default(),
            ))),
        }
    }

    /// Converged per-member roles over `members` — the stable network
    /// the paper's evaluation starts from (mirrors
    /// `chord::stable_ring` / `pastry::stable_mesh`). Returned in
    /// `members` order.
    pub fn stable_network(
        self,
        scheme: KeyScheme,
        members: &[PeerRef],
    ) -> Vec<Box<dyn DhtSubstrate>> {
        match self {
            SubstrateKind::Chord => chord::stable_ring(members, &chord::ChordConfig::default())
                .into_iter()
                .map(|st| Box::new(ChordSubstrate::new(st, scheme)) as Box<dyn DhtSubstrate>)
                .collect(),
            SubstrateKind::Pastry => pastry::stable_mesh(members, &pastry::PastryConfig::default())
                .into_iter()
                .map(|st| Box::new(PastrySubstrate::new(st)) as Box<dyn DhtSubstrate>)
                .collect(),
        }
    }

    /// A joined role at `me` rebuilt from a hand-off's neighbour list
    /// (§5.2 voluntary leave: the heir assumes the position).
    pub fn handoff_role(
        self,
        scheme: KeyScheme,
        me: PeerRef,
        neighbors: &[PeerRef],
    ) -> Box<dyn DhtSubstrate> {
        match self {
            SubstrateKind::Chord => {
                let mut st = chord::ChordState::new(me, chord::ChordConfig::default());
                let mut others: Vec<PeerRef> = neighbors
                    .iter()
                    .filter(|p| p.node != me.node)
                    .copied()
                    .collect();
                // Ring order around our key: clockwise distance sorts
                // the old successor list back into place; the closest
                // counter-clockwise neighbour is the predecessor.
                let pred = others
                    .iter()
                    .copied()
                    .min_by_key(|p| p.id.clockwise_distance(me.id));
                others.sort_by_key(|p| me.id.clockwise_distance(p.id));
                others.truncate(chord::ChordConfig::default().successor_list_len);
                st.install(pred, others, vec![None; DhtKey::BITS as usize]);
                Box::new(ChordSubstrate::new(st, scheme))
            }
            SubstrateKind::Pastry => {
                let mut st = pastry::PastryState::new(me, pastry::PastryConfig::default());
                for p in neighbors {
                    st.absorb_peer(*p);
                }
                Box::new(PastrySubstrate::new(st))
            }
        }
    }

    /// The wire message a plain client (no substrate role of its own)
    /// sends to a bootstrap directory to inject `query` into the
    /// D-ring toward `key`.
    pub fn client_entry_msg(self, key: DhtKey, query: Query) -> SubstrateMsg {
        match self {
            SubstrateKind::Chord => SubstrateMsg::Chord(chord::ChordMsg::Route {
                key,
                hops: 0,
                payload: chord::RoutePayload::App(query),
            }),
            SubstrateKind::Pastry => SubstrateMsg::Pastry(pastry::PastryMsg::Route {
                key,
                hops: 0,
                payload: pastry::proto::RoutePayload::App(query),
            }),
        }
    }
}

impl std::fmt::Display for SubstrateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SubstrateKind::Chord => "chord",
            SubstrateKind::Pastry => "pastry",
        })
    }
}

/// Synchronous test drivers for substrate roles, shared by this
/// module's unit tests and integration tests in other crates
/// (`crates/pastry/tests/dring_over_pastry.rs`). Hidden from docs:
/// not part of the supported API.
#[doc(hidden)]
pub mod test_support {
    use super::*;

    /// Collects substrate sends for synchronous replay.
    #[derive(Default)]
    pub struct CollectOut {
        /// `(destination, message)` pairs in send order.
        pub sent: Vec<(NodeId, SubstrateMsg)>,
    }

    impl SubstrateOut for CollectOut {
        fn send(&mut self, to: NodeId, msg: SubstrateMsg) {
            self.sent.push((to, msg));
        }
    }

    /// Route `query` toward `key` from `roles[start]` (indexed in
    /// `members` order), pumping messages until the outcome stream
    /// yields a delivery. Returns `(member index, hops)`; panics if
    /// the query is lost or routing does not terminate.
    pub fn route_to_delivery(
        roles: &mut [Box<dyn DhtSubstrate>],
        members: &[PeerRef],
        start: usize,
        key: DhtKey,
        query: crate::msg::Query,
    ) -> (usize, u8) {
        let mut out = CollectOut::default();
        let mut pending = roles[start].route(&mut out, key, query);
        let mut at = start;
        let mut guard = 0;
        loop {
            for ev in pending.drain(..) {
                if let SubstrateEvent::Deliver { hops, .. } = ev {
                    return (at, hops);
                }
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
}

#[cfg(test)]
mod tests {
    use super::test_support::route_to_delivery;
    use super::*;
    use simnet::{Locality, SimTime};
    use workload::WebsiteId;

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

    #[test]
    fn both_substrates_deliver_dring_keys_to_their_owners() {
        let members = dring_members(8, 4);
        for kind in [SubstrateKind::Chord, SubstrateKind::Pastry] {
            let mut roles = kind.stable_network(scheme(), &members);
            for ws in 0..8u16 {
                for l in 0..4u16 {
                    let key = scheme().key(WebsiteId(ws), Locality(l));
                    let expect = members
                        .iter()
                        .position(|m| m.id == key)
                        .expect("directory exists");
                    let start = ((ws as usize) * 7 + l as usize) % members.len();
                    let (got, _) = route_to_delivery(&mut roles, &members, start, key, query(ws));
                    assert_eq!(
                        got, expect,
                        "{kind}: key for ws{ws}/loc{l} missed its owner"
                    );
                }
            }
        }
    }

    #[test]
    fn absent_keys_land_on_same_website_directories_under_both_substrates() {
        let s = scheme();
        // Website 3 has localities 0..4; route a key for locality 5.
        let members = dring_members(8, 4);
        let key = s.key(WebsiteId(3), Locality(5));
        for kind in [SubstrateKind::Chord, SubstrateKind::Pastry] {
            let mut roles = kind.stable_network(s, &members);
            let (got, _) = route_to_delivery(&mut roles, &members, 0, key, query(3));
            assert!(
                s.same_website(members[got].id, key),
                "{kind}: absent key landed on the wrong website ({:?})",
                members[got].id
            );
        }
    }

    #[test]
    fn substrate_kind_parses_and_prints() {
        assert_eq!(SubstrateKind::parse("chord").unwrap(), SubstrateKind::Chord);
        assert_eq!(
            SubstrateKind::parse("Pastry").unwrap(),
            SubstrateKind::Pastry
        );
        assert!(SubstrateKind::parse("kademlia").is_err());
        assert_eq!(SubstrateKind::Chord.to_string(), "chord");
        assert_eq!(SubstrateKind::Pastry.to_string(), "pastry");
        assert_eq!(SubstrateKind::default(), SubstrateKind::Chord);
    }

    #[test]
    fn handoff_role_rebuilds_a_routable_position() {
        let members = dring_members(6, 3);
        let s = scheme();
        for kind in [SubstrateKind::Chord, SubstrateKind::Pastry] {
            let roles = kind.stable_network(s, &members);
            // Node 4 hands off to a fresh node 100 at the same key.
            let neighbors = roles[4].handoff_neighbors();
            assert!(
                !neighbors.is_empty(),
                "{kind}: handoff must ship neighbours"
            );
            let heir = PeerRef {
                id: members[4].id,
                node: NodeId(100),
            };
            let role = kind.handoff_role(s, heir, &neighbors);
            assert_eq!(role.key(), members[4].id);
            assert!(
                !role.known_peers().is_empty(),
                "{kind}: heir must know its neighbourhood"
            );
        }
    }

    #[test]
    fn conflict_detection_sees_duplicate_positions() {
        let members = dring_members(4, 2);
        let s = scheme();
        for kind in [SubstrateKind::Chord, SubstrateKind::Pastry] {
            let roles = kind.stable_network(s, &members);
            let me = members[0];
            let usurper = PeerRef {
                id: me.id,
                node: NodeId(77),
            };
            let msg = match kind {
                SubstrateKind::Chord => {
                    SubstrateMsg::Chord(chord::ChordMsg::Notify { peer: usurper })
                }
                SubstrateKind::Pastry => {
                    SubstrateMsg::Pastry(pastry::PastryMsg::LeafProbe { from: usurper })
                }
            };
            let conflicts = roles[0].conflict_peers(&msg);
            assert_eq!(
                conflicts,
                vec![usurper],
                "{kind}: duplicate position not flagged"
            );
            // Our own announcements are not conflicts.
            let own = match kind {
                SubstrateKind::Chord => SubstrateMsg::Chord(chord::ChordMsg::Notify { peer: me }),
                SubstrateKind::Pastry => {
                    SubstrateMsg::Pastry(pastry::PastryMsg::LeafProbe { from: me })
                }
            };
            assert!(roles[0].conflict_peers(&own).is_empty());
        }
    }

    #[test]
    fn carried_query_is_recoverable_from_both_wire_formats() {
        let q = query(2);
        let key = scheme().key(WebsiteId(2), Locality(0));
        for kind in [SubstrateKind::Chord, SubstrateKind::Pastry] {
            let msg = kind.client_entry_msg(key, q);
            assert_eq!(msg.carried_query().map(|c| c.id), Some(q.id));
            assert!(msg.is_routing());
            assert!(msg.wire_size() > 0);
        }
    }
}
