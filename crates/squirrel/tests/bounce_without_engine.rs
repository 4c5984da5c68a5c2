//! Squirrel's dead-hop re-route, driven with no engine behind it: the
//! test lends its own clock, RNG, sinks and action buffer to one
//! `SquirrelNode` through `simnet::Ctx::new`, bounces the query the
//! node routed, and reads back what the node did. No Squirrel run
//! reaches this path (the ring starts stable and no churn or fault is
//! scripted), so this is its only check.

use std::sync::Arc;

use bloom::ObjectId;
use chord::{stable_ring, ChordConfig, ChordId, ChordMsg, PeerRef};
use metrics::MetricSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{
    node_stream_seed, Action, Ctx, Event, Node, NodeId, QueryStats, SimDuration, SimTime, Topology,
    TopologyConfig,
};
use squirrel::{SquirrelDeployment, SquirrelMsg, SquirrelNode};
use workload::{Catalog, CatalogConfig, WebsiteId};

/// Everything a handler call borrows, owned by the test.
struct Harness {
    topo: Topology,
    rng: StdRng,
    query_stats: QueryStats,
    metrics: MetricSet,
    out: Vec<Action<SquirrelMsg>>,
}

impl Harness {
    fn new(id: NodeId) -> Self {
        Harness {
            topo: Topology::generate(&TopologyConfig::small_test(), 5),
            rng: StdRng::seed_from_u64(node_stream_seed(42, id)),
            query_stats: QueryStats::new(SimDuration::from_secs(30)),
            metrics: MetricSet::new(),
            out: Vec::new(),
        }
    }

    /// Run one event on `node` (which is `id`) and hand back the
    /// actions it buffered.
    fn step(
        &mut self,
        node: &mut SquirrelNode,
        id: NodeId,
        ev: Event<SquirrelMsg>,
    ) -> Vec<Action<SquirrelMsg>> {
        let mut ctx = Ctx::new(
            SimTime::from_secs(1),
            id,
            &self.topo,
            &mut self.rng,
            &mut self.query_stats,
            &mut self.metrics,
            &mut self.out,
        );
        node.on_event(&mut ctx, ev);
        std::mem::take(&mut self.out)
    }

    /// Submit query `qid` for `object` at `node` (which is `id`) and
    /// return the one message the node sent.
    fn submit(
        &mut self,
        node: &mut SquirrelNode,
        id: NodeId,
        qid: u64,
        object: ObjectId,
    ) -> (NodeId, SquirrelMsg) {
        let submit = Event::Recv {
            from: id,
            msg: SquirrelMsg::Submit {
                qid,
                website: WebsiteId(0),
                object,
            },
        };
        only_send(self.step(node, id, submit))
    }
}

fn only_send(actions: Vec<Action<SquirrelMsg>>) -> (NodeId, SquirrelMsg) {
    let [Action::Send { to, msg }] = <[_; 1]>::try_from(actions)
        .unwrap_or_else(|actions| panic!("expected one action, got {actions:?}"))
    else {
        panic!("expected a send");
    };
    (to, msg)
}

/// The id of the query `msg` routes through the ring, if it does.
fn routed_query(msg: &SquirrelMsg) -> Option<u64> {
    match msg {
        SquirrelMsg::Chord(cm) => cm.app_payload().map(|q| q.id),
        _ => None,
    }
}

/// A stable ring of `n` participants (nodes `0..n`, ids hashed as the
/// Squirrel deployment hashes them), and the node of member 0.
fn ring(n: u32) -> (SquirrelNode, Vec<PeerRef>) {
    let catalog = Catalog::new(CatalogConfig::small_test());
    let servers = vec![NodeId(59); catalog.websites().count()];
    let shared = Arc::new(SquirrelDeployment { catalog, servers });
    let members: Vec<PeerRef> = (0..n)
        .map(|i| PeerRef {
            id: ChordId(chord::hash64(0x5014 ^ i as u64)),
            node: NodeId(i),
        })
        .collect();
    let mut states = stable_ring(&members, &ChordConfig::default());
    (
        SquirrelNode::participant(shared, states.swap_remove(0)),
        members,
    )
}

fn object(rank: usize) -> ObjectId {
    Catalog::new(CatalogConfig::small_test()).object_id(WebsiteId(0), rank)
}

#[test]
fn a_query_whose_next_hop_died_is_rerouted_never_lost_or_resent_to_it() {
    let me = NodeId(0);
    let (mut node, members) = ring(16);
    let mut h = Harness::new(me);
    // The first object whose home is not this node: its query leaves
    // through a next hop.
    let (rank, dead, bounced) = (0..)
        .find_map(|rank| {
            let (to, msg) = h.submit(&mut node, me, rank as u64, object(rank));
            (to != me).then_some((rank, to, msg))
        })
        .expect("some home is elsewhere");
    assert_eq!(routed_query(&bounced), Some(rank as u64));

    let undeliverable = Event::Undeliverable {
        to: dead,
        msg: bounced,
    };
    let (to, msg) = only_send(h.step(&mut node, me, undeliverable));
    assert_ne!(to, dead, "re-sent to the dead hop");
    assert!(members.iter().any(|m| m.node == to), "re-sent off the ring");
    assert_eq!(routed_query(&msg), Some(rank as u64), "query dropped");

    // The dead hop is gone from the routing state: no later query,
    // the same object's included, is routed through it.
    let objects = CatalogConfig::small_test().objects_per_website;
    for r in 0..objects {
        let (to, _) = h.submit(&mut node, me, 1000 + r as u64, object(r));
        assert_ne!(to, dead, "object rank {r} routed through the dead hop");
    }
    assert_eq!(h.query_stats.submitted(), (rank + 1 + objects) as u64);
}

#[test]
fn the_last_member_standing_answers_a_bounced_query_itself() {
    let me = NodeId(0);
    let (mut node, members) = ring(2);
    let mut h = Harness::new(me);
    let (rank, bounced) = (0..)
        .find_map(|rank| {
            let (to, msg) = h.submit(&mut node, me, rank as u64, object(rank));
            (to == members[1].node).then_some((rank, msg))
        })
        .expect("some home is the other member");
    let undeliverable = Event::Undeliverable {
        to: members[1].node,
        msg: bounced,
    };
    // The origin is now the home: its pointer answer (empty, nothing
    // was downloaded yet) goes to itself.
    let (to, msg) = only_send(h.step(&mut node, me, undeliverable));
    assert_eq!(to, me);
    let SquirrelMsg::Pointers { query, candidates } = msg else {
        panic!("expected the home's pointer answer, got {msg:?}");
    };
    assert_eq!(query.id, rank as u64);
    assert!(candidates.is_empty());
    assert_eq!(node.home_entries(), 1);
}

#[test]
fn a_bounced_maintenance_message_is_not_resent() {
    let me = NodeId(0);
    let (mut node, members) = ring(4);
    let mut h = Harness::new(me);
    let undeliverable = Event::Undeliverable {
        to: members[1].node,
        msg: SquirrelMsg::Chord(ChordMsg::NeighborsReq),
    };
    assert!(h.step(&mut node, me, undeliverable).is_empty());
}
