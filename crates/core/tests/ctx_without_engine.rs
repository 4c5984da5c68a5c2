//! A protocol handler driven with no engine behind it: the test owns
//! the clock, the node's RNG stream, the two sinks and the action
//! buffer, lends them to `on_event` through `simnet::Ctx::new`, and
//! reads back what the handler did. This is the whole harness a
//! transient explorer or an invariant checker needs to run a node one
//! event at a time.

use std::sync::Arc;

use flower_core::idmap::IdMap;
use flower_core::msg::{FlowerMsg, Query};
use flower_core::node::timers;
use flower_core::substrate::carried_query;
use flower_core::{Deployment, FlowerConfig, FlowerNode, KeyScheme};
use metrics::{Counter, MetricSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{
    node_stream_seed, Action, Ctx, Event, Node, NodeId, QueryStats, SimDuration, SimTime, Topology,
    TopologyConfig,
};
use workload::{Catalog, CatalogConfig, WebsiteId};

/// Everything a handler call borrows, owned by the test.
struct Harness {
    topo: Topology,
    rng: StdRng,
    query_stats: QueryStats,
    metrics: MetricSet,
    out: Vec<Action<FlowerMsg>>,
}

impl Harness {
    /// Run one event on `node` (which is `id`) at `now`, and hand back
    /// the actions it buffered.
    fn step(
        &mut self,
        node: &mut FlowerNode,
        id: NodeId,
        now: SimTime,
        ev: Event<FlowerMsg>,
    ) -> Vec<Action<FlowerMsg>> {
        let mut ctx = Ctx::new(
            now,
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
}

/// A new client submits a query, hears nothing, and degrades to the
/// origin server once its timeout fires with no retry budget left:
/// two handler calls, each checked by the actions it emitted and by
/// the query and registry cells it recorded.
#[test]
fn a_client_submits_times_out_and_degrades_to_the_origin() {
    let topo = Topology::generate(&TopologyConfig::small_test(), 5);
    let (client, server, bootstrap) = (NodeId(3), NodeId(7), NodeId(11));
    let timeout = SimDuration::from_secs(2);
    let catalog = Catalog::new(CatalogConfig::small_test());
    let ws = WebsiteId(0);
    let object = catalog.object_id(ws, 0);
    let deployment = Arc::new(Deployment {
        cfg: FlowerConfig {
            query_timeout: Some(timeout),
            query_retry_budget: 0,
            ..FlowerConfig::fast_test()
        },
        catalog,
        scheme: KeyScheme::new(8, 0),
        servers: vec![server, server],
        bootstrap_dirs: vec![bootstrap],
        dir_instances: IdMap::default(),
    });
    let mut node = FlowerNode::client(deployment);
    let mut h = Harness {
        rng: StdRng::seed_from_u64(node_stream_seed(42, client)),
        topo,
        query_stats: QueryStats::new(SimDuration::from_secs(30)),
        metrics: MetricSet::new(),
        out: Vec::new(),
    };

    let qid = 77;
    let submit = Event::Recv {
        from: client,
        msg: FlowerMsg::Submit {
            qid,
            website: ws,
            object,
        },
    };
    let t0 = SimTime::from_secs(1);
    let actions = h.step(&mut node, client, t0, submit);
    // The timeout is armed first, then the query enters the D-ring
    // through the one bootstrap directory.
    let [Action::Timer { delay, kind, tag }, Action::Send { to, msg }] = &actions[..] else {
        panic!("expected a timer and a send, got {actions:?}");
    };
    assert_eq!((*delay, *kind, *tag), (timeout, timers::QUERY_TIMEOUT, qid));
    assert_eq!(*to, bootstrap);
    let FlowerMsg::Dht(entry) = msg else {
        panic!("a new client enters through the D-ring, got {msg:?}");
    };
    let query: Query = carried_query(entry).expect("the route carries the query");
    assert_eq!(
        (query.id, query.origin, query.object),
        (qid, client, object)
    );
    assert_eq!(query.submitted_at, t0);
    assert_eq!(h.query_stats.submitted(), 1);
    assert_eq!(h.query_stats.resolved(), 0);
    assert_eq!(h.metrics.counter(Counter::DirQueryTimeouts), 0);

    let fired = Event::Timer {
        kind: timers::QUERY_TIMEOUT,
        tag: qid,
    };
    let actions = h.step(&mut node, client, t0 + timeout, fired);
    // Past the budget: the next timeout is armed at twice the delay and
    // the query goes to its website's origin server.
    let [Action::Timer { delay, .. }, Action::Send { to, msg }] = &actions[..] else {
        panic!("expected a timer and a send, got {actions:?}");
    };
    assert_eq!(*delay, SimDuration::from_secs(4));
    assert_eq!(*to, server);
    assert!(matches!(msg, FlowerMsg::ServerQuery { query } if query.id == qid));
    assert_eq!(h.metrics.counter(Counter::DirQueryTimeouts), 1);
    assert_eq!(h.metrics.counter(Counter::DirQueryOriginFallbacks), 1);
    assert_eq!(h.metrics.counter(Counter::DirQueryRetries), 0);
    assert_eq!(h.query_stats.submitted(), 1);
}
