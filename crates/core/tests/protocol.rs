//! Protocol-level integration tests for the §5 administrative paths:
//! voluntary directory hand-off and locality migration, driven through
//! the engine as an operator would.

use std::sync::Arc;

use bloom::ObjectId;
use flower_core::idmap::IdMap;
use flower_core::msg::{FlowerMsg, ProviderKind};
use flower_core::node::timers;
use flower_core::system::{FlowerSystem, SystemConfig};
use flower_core::{CachePolicy, Deployment, FlowerConfig, FlowerNode, KeyScheme};
use metrics::MetricSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{
    node_stream_seed, Action, Ctx, Event, Locality, Node, NodeId, QueryStats, SimDuration, SimTime,
    Topology, TopologyConfig,
};
use workload::{Catalog, CatalogConfig, WebsiteId};

fn cfg(seed: u64) -> SystemConfig {
    SystemConfig {
        seed,
        ..SystemConfig::small_test()
    }
}

/// §5.2 voluntary leave: `AdminLeave` makes the directory transfer its
/// index and ring position to its youngest member via `DirHandoff`.
#[test]
fn admin_leave_hands_directory_to_a_member() {
    let c = cfg(41);
    let mut sys = FlowerSystem::build(&c);
    let ws = WebsiteId(0);
    let loc = Locality(0);
    let old_dir = sys.initial_directory(ws, loc).unwrap();

    // Let the overlay form first.
    sys.run_until(SimTime::from_mins(4));
    let members_before = {
        let role = sys
            .engine()
            .node(old_dir)
            .dir_role()
            .expect("old dir active");
        assert!(
            role.dir.overlay_size() > 0,
            "overlay must have members for a hand-off"
        );
        role.dir.overlay_size()
    };

    let t = SimTime::from_mins(4) + SimDuration::from_secs(1);
    sys.engine_mut().schedule_at(
        t,
        old_dir,
        Event::Recv {
            from: old_dir,
            msg: FlowerMsg::AdminLeave,
        },
    );
    sys.run_until(SimTime::from_ms(c.workload.duration_ms) + SimDuration::from_secs(30));

    // The old node stood down...
    assert!(
        !sys.engine().node(old_dir).is_directory(),
        "old directory must abdicate"
    );
    // ...and exactly one community member inherited the directory,
    // including the transferred index.
    let heirs: Vec<_> = sys
        .community(ws, loc)
        .iter()
        .copied()
        .filter(|n| {
            sys.engine()
                .node(*n)
                .dir_role()
                .map(|r| r.dir.website() == ws && r.dir.locality() == loc)
                .unwrap_or(false)
        })
        .collect();
    assert_eq!(heirs.len(), 1, "exactly one heir expected, got {heirs:?}");
    let heir_role = sys.engine().node(heirs[0]).dir_role().unwrap();
    assert!(
        heir_role.dir.overlay_size() + 5 >= members_before,
        "hand-off must carry the index ({} vs {} before)",
        heir_role.dir.overlay_size(),
        members_before
    );
    // The system keeps resolving queries after the hand-off.
    let r = sys.report();
    assert!(
        r.resolved as f64 > r.submitted as f64 * 0.95,
        "{}/{}",
        r.resolved,
        r.submitted
    );
}

/// The node holding the directory role of `(ws, loc)` among its
/// community, if exactly one does.
fn directory_of(sys: &FlowerSystem, ws: WebsiteId, loc: Locality) -> Option<NodeId> {
    let holders: Vec<NodeId> = sys
        .community(ws, loc)
        .iter()
        .copied()
        .filter(|n| {
            sys.engine()
                .node(*n)
                .dir_role()
                .is_some_and(|r| r.dir.website() == ws && r.dir.locality() == loc)
        })
        .collect();
    (holders.len() == 1).then(|| holders[0])
}

fn admin_leave_at(sys: &mut FlowerSystem, t: SimTime, node: NodeId) {
    sys.engine_mut().schedule_at(
        t,
        node,
        Event::Recv {
            from: node,
            msg: FlowerMsg::AdminLeave,
        },
    );
}

/// §5.2: a leaving directory that is itself a member of its overlay
/// (here an earlier heir) re-points its own content role to its heir
/// at once; naming itself, it would drop its own pushes and advertise
/// itself as the directory until gossip corrected it.
#[test]
fn a_leaving_heir_names_its_own_heir_as_directory() {
    let c = cfg(41);
    let mut sys = FlowerSystem::build(&c);
    let ws = WebsiteId(0);
    let loc = Locality(0);
    let old_dir = sys.initial_directory(ws, loc).unwrap();

    sys.run_until(SimTime::from_mins(4));
    admin_leave_at(
        &mut sys,
        SimTime::from_mins(4) + SimDuration::from_secs(1),
        old_dir,
    );
    sys.run_until(SimTime::from_mins(5));
    let first_heir = directory_of(&sys, ws, loc).expect("one heir after the first leave");
    assert_eq!(
        sys.engine()
            .node(first_heir)
            .content_role(ws)
            .and_then(|cp| cp.directory()),
        Some(first_heir),
        "the heir is its own overlay's directory"
    );

    let t = SimTime::from_mins(5) + SimDuration::from_secs(1);
    admin_leave_at(&mut sys, t, first_heir);
    sys.run_until(t + SimDuration::from_secs(1));
    let second_heir = directory_of(&sys, ws, loc).expect("one heir after the second leave");
    assert_ne!(second_heir, first_heir);
    assert_eq!(
        sys.engine()
            .node(first_heir)
            .content_role(ws)
            .and_then(|cp| cp.directory()),
        Some(second_heir),
        "the leaver must name its heir, not itself"
    );
}

/// §5.2 + §5.3: when the primary of a *split* petal leaves
/// voluntarily, the heir inherits the live-instance count instead of
/// restarting at `live = 1` — restarting would orphan the active
/// siblings (still serving, never routed to, never merged away).
#[test]
fn dir_handoff_carries_live_instance_count() {
    let mut c = cfg(41);
    c.flower.instance_bits = 2; // deploy up to 4 instances per petal
    c.flower.petal_merge_floor = 0; // idle-load merges would re-fold the petal
    let mut sys = FlowerSystem::build(&c);
    let ws = WebsiteId(0);
    let loc = Locality(0);
    let old_dir = sys.initial_directory(ws, loc).unwrap();

    sys.run_until(SimTime::from_mins(4));
    // Stage a split petal at the primary (the §5.3 policy would get
    // here under load; staging it keeps the test fast and exact).
    sys.engine_mut()
        .node_mut(old_dir)
        .dir_role_mut()
        .expect("old dir active")
        .petal
        .live = 2;

    let t = SimTime::from_mins(4) + SimDuration::from_secs(1);
    sys.engine_mut().schedule_at(
        t,
        old_dir,
        Event::Recv {
            from: old_dir,
            msg: FlowerMsg::AdminLeave,
        },
    );
    sys.run_until(t + SimDuration::from_secs(10));

    assert!(!sys.engine().node(old_dir).is_directory());
    let heir_live: Vec<u32> = sys
        .community(ws, loc)
        .iter()
        .filter_map(|n| sys.engine().node(*n).dir_role())
        .filter(|r| r.dir.website() == ws && r.dir.locality() == loc)
        .map(|r| r.petal.live)
        .collect();
    assert_eq!(
        heir_live,
        vec![2],
        "the heir must continue the split petal at live = 2"
    );
    // The heir's *content* role adopts the carried count too: its own
    // pushes and §5.3 instance pinning must keep honouring the split
    // petal instead of falling back to single-instance routing until
    // the next admission re-announces it.
    let heir = sys
        .community(ws, loc)
        .iter()
        .copied()
        .find(|n| {
            sys.engine()
                .node(*n)
                .dir_role()
                .map(|r| r.dir.website() == ws && r.dir.locality() == loc)
                .unwrap_or(false)
        })
        .expect("heir found above");
    let cp = sys
        .engine()
        .node(heir)
        .content_role(ws)
        .expect("the heir keeps a content role");
    assert_eq!(
        cp.petal_live(),
        2,
        "the heir's content role must adopt the carried live count"
    );
}

/// §5.4 locality change: the peer leaves its overlays and rejoins (as
/// a new client) in the new locality on its next query.
#[test]
fn admin_change_locality_migrates_the_peer() {
    let c = cfg(43);
    let mut sys = FlowerSystem::build(&c);
    let ws = WebsiteId(0);
    let old_loc = Locality(0);
    let new_loc = Locality(1);

    sys.run_until(SimTime::from_mins(4));
    // Pick a community member that actually joined.
    let mover = sys
        .community(ws, old_loc)
        .iter()
        .copied()
        .find(|n| sys.engine().node(*n).is_content_peer(ws))
        .expect("some member joined during warm-up");

    let t = SimTime::from_mins(4) + SimDuration::from_secs(1);
    sys.engine_mut().schedule_at(
        t,
        mover,
        Event::Recv {
            from: mover,
            msg: FlowerMsg::AdminChangeLocality { to: new_loc },
        },
    );
    sys.run_until(t + SimDuration::from_ms(1));
    assert!(
        !sys.engine().node(mover).is_content_peer(ws),
        "locality change must drop the old membership"
    );

    sys.run_until(SimTime::from_ms(c.workload.duration_ms) + SimDuration::from_secs(30));
    // If the workload made the mover query again, it re-joined — and
    // must have done so through the *new* locality's directory.
    if let Some(cp) = sys.engine().node(mover).content_role(ws) {
        let new_dir = sys.initial_directory(ws, new_loc).unwrap();
        assert_eq!(
            cp.directory(),
            Some(new_dir),
            "rejoined peer must belong to the new locality's overlay"
        );
    }
    let r = sys.report();
    assert!(r.resolved as f64 > r.submitted as f64 * 0.95);
}

/// The old overlay forgets a moved peer when gossiping with it
/// (`Moved` replies, §5.4).
#[test]
fn old_overlay_forgets_moved_peers() {
    let c = cfg(44);
    let mut sys = FlowerSystem::build(&c);
    let ws = WebsiteId(0);
    let old_loc = Locality(0);
    sys.run_until(SimTime::from_mins(5));
    let mover = sys
        .community(ws, old_loc)
        .iter()
        .copied()
        .find(|n| sys.engine().node(*n).is_content_peer(ws))
        .expect("warm-up produced members");
    let t = SimTime::from_mins(5) + SimDuration::from_secs(1);
    sys.engine_mut().schedule_at(
        t,
        mover,
        Event::Recv {
            from: mover,
            msg: FlowerMsg::AdminChangeLocality { to: Locality(2) },
        },
    );
    // Run long enough for several gossip periods so contacts probe the
    // mover and receive `Moved`.
    sys.run_until(SimTime::from_ms(c.workload.duration_ms) + SimDuration::from_secs(30));
    let mut still_known = 0;
    for n in sys.community(ws, old_loc) {
        if *n == mover {
            continue;
        }
        if let Some(cp) = sys.engine().node(*n).content_role(ws) {
            if cp.knows(mover) {
                still_known += 1;
            }
        }
    }
    // Gossip copies of the stale entry may still circulate, but peers
    // that contacted the mover directly must have dropped it; demand
    // that most of the overlay forgot it.
    let members: usize = sys
        .community(ws, old_loc)
        .iter()
        .filter(|n| sys.engine().node(**n).is_content_peer(ws))
        .count();
    assert!(
        still_known * 2 <= members,
        "{still_known}/{members} members still list the moved peer"
    );
}

/// One node driven with no engine behind it (as in
/// `ctx_without_engine.rs`): each call runs one event at a fixed time
/// and returns the messages the node sent.
struct Bench {
    topo: Topology,
    rng: StdRng,
    query_stats: QueryStats,
    metrics: MetricSet,
    node: FlowerNode,
    id: NodeId,
}

impl Bench {
    /// Run `ev` on the node; every action it buffered.
    fn step(&mut self, ev: Event<FlowerMsg>) -> Vec<Action<FlowerMsg>> {
        let mut out = Vec::new();
        let mut ctx = Ctx::new(
            SimTime::from_secs(1),
            self.id,
            &self.topo,
            &mut self.rng,
            &mut self.query_stats,
            &mut self.metrics,
            &mut out,
        );
        self.node.on_event(&mut ctx, ev);
        out
    }

    fn recv(&mut self, from: NodeId, msg: FlowerMsg) -> Vec<(NodeId, FlowerMsg)> {
        self.step(Event::Recv { from, msg })
            .into_iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    /// Join `ws`'s overlay at `locality` under directory `dir`; the
    /// pushes the admission triggers.
    fn admit(
        &mut self,
        ws: WebsiteId,
        locality: Locality,
        dir: NodeId,
    ) -> Vec<(NodeId, FlowerMsg)> {
        let admission = FlowerMsg::Admission {
            website: ws,
            locality,
            admitted: true,
            dir,
            petal_live: 1,
            view_seed: Vec::new(),
        };
        self.recv(dir, admission)
    }

    /// Query `object` (no view contact to ask, so the query goes to
    /// the origin `server`) and get it served; the push that follows.
    fn fetch(&mut self, qid: u64, ws: WebsiteId, object: ObjectId, server: NodeId) -> FlowerMsg {
        let me = self.id;
        let sent = self.recv(
            me,
            FlowerMsg::Submit {
                qid,
                website: ws,
                object,
            },
        );
        let query = sent
            .into_iter()
            .find_map(|(to, msg)| match msg {
                FlowerMsg::ServerQuery { query } if to == server => Some(query),
                _ => None,
            })
            .expect("a member with an empty view asks the origin");
        let serve = FlowerMsg::ServeObject {
            query,
            resolved_at: SimTime::from_secs(1),
            provider: ProviderKind::OriginServer,
            size: 1,
            view_seed: Vec::new(),
        };
        let mut pushes = self.recv(server, serve);
        assert_eq!(pushes.len(), 1, "one push per admitted object");
        pushes.pop().expect("checked").1
    }
}

fn push_lists(msg: &FlowerMsg) -> (Vec<ObjectId>, Vec<ObjectId>) {
    match msg {
        FlowerMsg::Push { added, removed, .. } => (added.clone(), removed.clone()),
        other => panic!("expected a push, got {other:?}"),
    }
}

/// §5.4 with a bounded LRU cache: the objects a moving peer parks come
/// back at the rejoin in `ObjectId` order — the order of its first
/// ∆list to the new directory and of its cache's clock, so the first
/// eviction takes the smallest id. Neither the order the objects were
/// fetched in nor the content set's order may show.
#[test]
fn a_moved_lru_peer_rejoins_and_evicts_in_object_id_order() {
    let topo = Topology::generate(&TopologyConfig::small_test(), 5);
    let (me, server, old_dir, new_dir) = (NodeId(3), NodeId(7), NodeId(11), NodeId(12));
    let old_loc = topo.locality(me);
    let new_loc = Locality((old_loc.0 + 1) % topo.num_localities() as u16);
    let catalog = Catalog::new(CatalogConfig::small_test());
    let ws = WebsiteId(0);
    // Fetched from the highest rank down: neither fetch order nor rank
    // order is `ObjectId` order.
    let fetched: Vec<ObjectId> = [9, 5, 2, 0].map(|r| catalog.object_id(ws, r)).to_vec();
    let mut by_id = fetched.clone();
    by_id.sort_unstable();
    let mut by_rank = fetched.clone();
    by_rank.reverse();
    assert!(
        by_id != fetched && by_id != by_rank,
        "the ranks must tell the orders apart"
    );
    let later = catalog.object_id(ws, 13);
    let deployment = Arc::new(Deployment {
        cfg: FlowerConfig {
            cache_policy: CachePolicy::Lru,
            cache_capacity: fetched.len(),
            ..FlowerConfig::fast_test()
        },
        catalog,
        scheme: KeyScheme::new(8, 0),
        servers: vec![server, server],
        bootstrap_dirs: vec![old_dir],
        dir_instances: IdMap::default(),
    });
    let mut b = Bench {
        rng: StdRng::seed_from_u64(node_stream_seed(42, me)),
        topo,
        query_stats: QueryStats::new(SimDuration::from_secs(30)),
        metrics: MetricSet::new(),
        node: FlowerNode::client(deployment),
        id: me,
    };

    assert!(b.admit(ws, old_loc, old_dir).is_empty(), "nothing held yet");
    for (qid, o) in fetched.iter().enumerate() {
        assert_eq!(
            push_lists(&b.fetch(qid as u64, ws, *o, server)),
            (vec![*o], vec![])
        );
    }
    let sent = b.recv(me, FlowerMsg::AdminChangeLocality { to: new_loc });
    assert!(sent.is_empty() && !b.node.is_content_peer(ws));

    let pushes = b.admit(ws, new_loc, new_dir);
    let [(to, push)] = &pushes[..] else {
        panic!("expected one push to the new directory, got {pushes:?}");
    };
    assert_eq!(*to, new_dir);
    assert_eq!(
        push_lists(push),
        (by_id.clone(), vec![]),
        "∆list in ObjectId order"
    );
    let evicting = b.fetch(99, ws, later, server);
    assert_eq!(
        push_lists(&evicting),
        (vec![later], vec![by_id[0]]),
        "the least recently used is the smallest id"
    );
}

/// How many `REPLACE_DIR` timers `actions` arm.
fn replace_timers(actions: &[Action<FlowerMsg>]) -> usize {
    actions
        .iter()
        .filter(|a| matches!(a, Action::Timer { kind, .. } if *kind == timers::REPLACE_DIR))
        .count()
}

/// The two pieces of node state kept out of line, one event at a
/// time. An object served before the admission is parked, then
/// reported in the admission's ∆list. Two bounced keepalives to the
/// same dead directory arm one §5.2 `REPLACE_DIR` timer (the
/// `replacing` guard), and a bounce after that timer fired arms
/// another. Afterwards the node holds neither.
#[test]
fn parked_objects_and_the_replacement_guard_leave_no_interim_state() {
    let topo = Topology::generate(&TopologyConfig::small_test(), 5);
    let (me, server, dir) = (NodeId(3), NodeId(7), NodeId(11));
    let loc = topo.locality(me);
    let catalog = Catalog::new(CatalogConfig::small_test());
    let ws = WebsiteId(0);
    let object = catalog.object_id(ws, 4);
    let deployment = Arc::new(Deployment {
        cfg: FlowerConfig::fast_test(),
        catalog,
        scheme: KeyScheme::new(8, 0),
        servers: vec![server, server],
        bootstrap_dirs: vec![dir],
        dir_instances: IdMap::default(),
    });
    let mut b = Bench {
        rng: StdRng::seed_from_u64(node_stream_seed(42, me)),
        topo,
        query_stats: QueryStats::new(SimDuration::from_secs(30)),
        metrics: MetricSet::new(),
        node: FlowerNode::client(deployment),
        id: me,
    };
    assert!(!b.node.has_interim_state());

    // A new client's query enters the D-ring; the object comes back
    // before the admission does.
    let submit = FlowerMsg::Submit {
        qid: 1,
        website: ws,
        object,
    };
    let query = b
        .recv(me, submit)
        .into_iter()
        .find_map(|(_, msg)| match msg {
            FlowerMsg::Dht(route) => route.app_payload().copied(),
            _ => None,
        })
        .expect("a new client routes through the D-ring");
    let serve = FlowerMsg::ServeObject {
        query,
        resolved_at: SimTime::from_secs(1),
        provider: ProviderKind::OriginServer,
        size: 1,
        view_seed: Vec::new(),
    };
    assert!(b.recv(server, serve).is_empty());
    assert!(!b.node.is_content_peer(ws) && b.node.has_interim_state());
    let pushes = b.admit(ws, loc, dir);
    let [(to, push)] = &pushes[..] else {
        panic!("expected one push to the directory, got {pushes:?}");
    };
    assert_eq!((*to, push_lists(push)), (dir, (vec![object], vec![])));
    assert!(
        !b.node.has_interim_state(),
        "the parked object was unparked"
    );

    let bounce = || Event::Undeliverable {
        to: dir,
        msg: FlowerMsg::KeepAlive { website: ws },
    };
    let fire = || Event::Timer {
        kind: timers::REPLACE_DIR,
        tag: ws.0 as u64,
    };
    let armed = replace_timers(&b.step(bounce())) + replace_timers(&b.step(bounce()));
    assert_eq!(armed, 1, "one replacement per outage");
    assert!(b.node.has_interim_state());
    // The attempt starts a §5.2 join and clears the guard.
    assert_eq!(replace_timers(&b.step(fire())), 0);
    assert!(b.node.dir_role().is_some_and(|r| r.joining));
    assert!(!b.node.has_interim_state());
    assert_eq!(
        replace_timers(&b.step(bounce())),
        1,
        "the guard was cleared"
    );
    // Mid-join, the second attempt stands aside.
    assert_eq!(replace_timers(&b.step(fire())), 0);
    assert!(!b.node.has_interim_state());
}
