//! The Flower-CDN protocol node: one state machine per underlay node,
//! combining up to three roles:
//!
//! * **directory peer** (§3) — a D-ring member: a Chord position
//!   ([`ChordSubstrate`]) and a [`DirectoryState`], processing queries
//!   per Algorithm 3;
//! * **content peer** (§4) — one [`ContentPeerState`] per supported
//!   website, gossiping, pushing and answering fetches;
//! * **origin server** — the website's web server, the fallback
//!   provider (always has every object of its site).
//!
//! Plus the client behaviour: submitting queries, collecting served
//! objects, joining overlays, and — per §5 — reacting to redirection
//! failures, directory failures (detection, jittered replacement,
//! conflict resolution) and locality changes.
//!
//! A node holds protocol state only. What it does is counted once,
//! where the rest of the run is: the paper's query metrics through
//! [`Ctx::query_stats`], every other fact as a declared registry cell
//! through [`Ctx::metrics`].

use std::sync::Arc;

use bloom::ObjectId;
use gossip::PushPolicy;
use metrics::{Counter, Hist};
use rand::seq::SliceRandom;
use rand::Rng;
use simnet::stats::ServedBy;
use simnet::{Ctx, Event, Locality, Message as _, NodeId, SimDuration, SimTime};
use workload::{Catalog, WebsiteId};

use crate::config::FlowerConfig;
use crate::content::ContentPeerState;
use crate::directory::{DirDecision, DirectoryState, NeighborSummary};
use crate::id::{instance_for, KeyScheme};
use crate::idmap::{IdMap, SmallMap};
use crate::msg::{FlowerMsg, IndexSnapshotEntry, ProviderKind, Query};
use crate::substrate::{
    carried_query, client_entry_msg, ChordSubstrate, PeerRef, SubstrateEvent, SubstrateMsg,
};

/// How many summary-matched view candidates a content peer probes
/// before giving up on the overlay.
pub(crate) const SUMMARY_FETCH_RETRIES: usize = 2;
/// Redirection retries before falling back to the server when holders
/// turn out dead (§5.1).
pub(crate) const HOLDER_RETRIES: u8 = 3;
/// Fraction of new indexed objects triggering a directory-summary
/// refresh to neighbour directory peers (§4.2.1, "delayed
/// propagation").
pub(crate) const SUMMARY_REFRESH_THRESHOLD: f64 = 0.1;
/// How many of the most-requested objects each §8 replication round
/// offers to neighbour overlays.
pub(crate) const REPLICATION_TOP_K: usize = 10;

/// Timer kinds used by [`FlowerNode`].
pub mod timers {
    /// Gossip period elapsed for a content role (tag = website).
    pub const GOSSIP: u16 = 1;
    /// Keepalive period elapsed for a content role (tag = website).
    pub const KEEPALIVE: u16 = 2;
    /// Directory age tick (Algorithm 6 active behaviour).
    pub const DIR_TICK: u16 = 3;
    /// D-ring neighbour-maintenance tick (Chord stabilize).
    pub const STABILIZE: u16 = 4;
    /// D-ring routing-repair tick (fix one Chord finger).
    pub const FIX_FINGER: u16 = 5;
    /// Jittered directory-replacement attempt (tag = website; §5.2).
    pub const REPLACE_DIR: u16 = 6;
    /// Watchdog for an in-flight §5.2 replacement join (tag =
    /// website): retries the join or stands down if a winner emerged.
    pub const JOIN_RETRY: u16 = 7;
    /// §8 active-replication round at a directory peer.
    pub const REPLICATE: u16 = 8;
    /// Pending-query timeout (tag = query id): fires when neither a
    /// serve nor a bounce arrived — the silent-loss/partition case
    /// the §5 synchronous failure signals cannot cover.
    pub const QUERY_TIMEOUT: u16 = 9;
}

/// Deployment-wide shared knowledge (who the origin servers are, how
/// to reach the D-ring). Everything here is public information a real
/// deployment would ship in client configuration.
#[derive(Debug)]
pub struct Deployment {
    /// Protocol parameters.
    pub cfg: FlowerConfig,
    /// The website/object universe.
    pub catalog: Catalog,
    /// The D-ring key layout.
    pub scheme: KeyScheme,
    /// Origin server node of each website (indexed by website id).
    pub servers: Vec<NodeId>,
    /// Well-known D-ring entry points for new clients and for §5.2
    /// replacement joins.
    pub bootstrap_dirs: Vec<NodeId>,
    /// §5.3 PetalUp: the deployed directory instances of every petal,
    /// indexed by instance. Like `servers` and `bootstrap_dirs`, this
    /// is the public deployment directory a real system would ship in
    /// client configuration; liveness and the *live* instance count
    /// remain protocol state.
    pub dir_instances: IdMap<(WebsiteId, Locality), Vec<NodeId>>,
}

impl Deployment {
    /// The origin server of `ws`.
    pub fn server_of(&self, ws: WebsiteId) -> NodeId {
        self.servers[ws.idx()]
    }

    /// The deployed directory node of petal `(ws, loc)` instance
    /// `instance`.
    pub fn instance_node(&self, ws: WebsiteId, loc: Locality, instance: u32) -> NodeId {
        self.dir_instances[&(ws, loc)][instance as usize]
    }
}

/// §5.3 PetalUp state of one directory instance within its petal.
#[derive(Debug)]
pub struct PetalState {
    /// This role's instance index (0 = the petal primary).
    pub instance: u32,
    /// Live instances of the petal. Authoritative at the primary,
    /// which runs the split/merge policy; siblings cache the count
    /// from the last `PetalActivate`/`PetalDeactivate`.
    pub live: u32,
    /// Whether this instance processes queries. The primary is always
    /// active; siblings activate on a split and go dormant on a merge
    /// (a dormant sibling forwards deliveries to the primary).
    pub active: bool,
    /// Last windowed query load reported per instance (index 0 = the
    /// primary's own window). Only maintained at the primary.
    pub sibling_loads: Vec<u64>,
    /// Merge back-off: ticks to wait after a resize before merging
    /// again — a resize resets the primary's window counter mid-way,
    /// so the very next tick would otherwise read an artificially
    /// quiet petal and fold a fresh split straight back.
    pub merge_hold: u8,
    /// Where this sibling last saw the petal primary: the sender of
    /// the most recent `PetalActivate`/`PetalDeactivate`. `None`
    /// falls back to the statically deployed instance-0 node. After a
    /// §5.2 primary replacement the new primary's resizes re-point
    /// this, so sibling load reports (and dormant relays) keep
    /// reaching whoever actually runs the split/merge policy instead
    /// of the deployed corpse.
    pub primary: Option<NodeId>,
    /// Instances that left for good (crashed mid-forward or retired
    /// voluntarily) — only the primary maintains this. A sibling role
    /// is never re-installed after the initial deployment, so a
    /// retired slot permanently caps how far the petal can split:
    /// re-activating it would silently black-hole its query share (an
    /// alive-but-roleless node produces no bounce to heal from).
    pub retired: Vec<bool>,
}

impl PetalState {
    fn new(instance: u32, instances: u32) -> Self {
        PetalState {
            instance,
            live: 1,
            active: instance == 0,
            sibling_loads: vec![0; instances as usize],
            merge_hold: 0,
            primary: None,
            retired: vec![false; instances as usize],
        }
    }

    /// The node this instance should address the petal primary at:
    /// the last observed primary, or the deployed instance-0 node
    /// before any resize was seen.
    pub fn primary_node(&self, deployed_primary: NodeId) -> NodeId {
        self.primary.unwrap_or(deployed_primary)
    }

    /// The largest power-of-two live count the petal can still reach:
    /// doubling stops at the first retired slot (assignments nest, so
    /// only contiguous power-of-two prefixes are usable).
    fn usable_instances(&self, instances: u32) -> u32 {
        let mut l = 1u32;
        while l * 2 <= instances
            && self.retired[l as usize..(l * 2) as usize]
                .iter()
                .all(|r| !*r)
        {
            l *= 2;
        }
        l
    }
}

/// The §5.3 split sizing: double `live` until the projected
/// per-instance share of `load` drops under `threshold` (clamped to
/// the deployed instance count).
fn sized_split(live: u32, instances: u32, load: u64, threshold: u64) -> u32 {
    let mut new_live = live;
    let mut projected = load;
    while new_live < instances && projected > threshold {
        new_live *= 2;
        projected /= 2;
    }
    new_live
}

/// The §5.3 shrink target when instance `below` left the petal: the
/// largest power-of-two live count that excludes it (nesting keeps
/// every surviving assignment valid).
fn shrunk_below(live: u32, below: u32) -> u32 {
    let mut new_live = live;
    while new_live > below {
        new_live /= 2;
    }
    new_live.max(1)
}

/// The directory role of a node.
#[derive(Debug)]
pub struct DirRole {
    /// D-ring position and routing state.
    pub substrate: ChordSubstrate,
    /// The directory itself.
    pub dir: DirectoryState,
    /// True while a §5.2 replacement join is still in flight.
    pub joining: bool,
    /// §5.3 PetalUp instance state.
    pub petal: PetalState,
}

/// A query this node originated and is still waiting on.
#[derive(Debug, Clone, Default)]
struct PendingQuery {
    /// Summary candidates already probed (includes bounced peers).
    tried: Vec<NodeId>,
    /// The query itself, kept for timeout-driven re-routing (only
    /// populated when `query_timeout` is configured).
    query: Option<Query>,
    /// Timeout-driven re-route attempts made so far.
    retries: u8,
}

/// The per-node protocol state machine. Implements
/// [`simnet::Node<FlowerMsg>`].
pub struct FlowerNode {
    shared: Arc<Deployment>,
    /// §5.4: a peer may detect a locality different from the
    /// topology's initial assignment.
    locality_override: Option<Locality>,
    /// The directory role, if this node is (or is becoming) a
    /// directory peer.
    pub(crate) dir_role: Option<Box<DirRole>>,
    /// Content-peer roles by website.
    pub(crate) content: SmallMap<WebsiteId, ContentPeerState>,
    /// Which website this node is the origin server of.
    server_for: Option<WebsiteId>,
    /// Queries in flight that we originated.
    pending: SmallMap<u64, PendingQuery>,
    /// Objects served before the admission decision arrived.
    parked_objects: SmallMap<WebsiteId, Vec<ObjectId>>,
    /// Websites for which a replacement attempt is scheduled/running.
    replacing: SmallMap<WebsiteId, ()>,
}

/// Adapter exposing the simulator context as the D-ring's message
/// sink.
struct CtxTransport<'a, 'b> {
    ctx: &'a mut Ctx<'b, FlowerMsg>,
}

impl chord::Transport<Query> for CtxTransport<'_, '_> {
    fn send_chord(&mut self, to: NodeId, msg: SubstrateMsg) {
        self.ctx.send(to, FlowerMsg::Dht(msg));
    }
}

/// Send a copy of `msg` to every directory peer of this role's own
/// website that its routing table knows — the neighbourhood §4.2.1
/// summaries and §8 replica offers travel on — in ascending ring-id
/// order.
fn send_to_website_neighbours(
    ctx: &mut Ctx<'_, FlowerMsg>,
    substrate: &ChordSubstrate,
    scheme: KeyScheme,
    msg: &FlowerMsg,
) {
    let (me, my_id) = (ctx.id(), substrate.key());
    for p in substrate.known_peers() {
        if p.node != me && scheme.same_website(p.id, my_id) {
            ctx.send(p.node, msg.clone());
        }
    }
}

impl FlowerNode {
    /// A plain client node.
    pub fn client(shared: Arc<Deployment>) -> Self {
        FlowerNode {
            shared,
            locality_override: None,
            dir_role: None,
            content: SmallMap::default(),
            server_for: None,
            pending: SmallMap::default(),
            parked_objects: SmallMap::default(),
            replacing: SmallMap::default(),
        }
    }

    /// An origin-server node for `ws`.
    pub fn server(shared: Arc<Deployment>, ws: WebsiteId) -> Self {
        let mut n = Self::client(shared);
        n.server_for = Some(ws);
        n
    }

    /// A directory-peer node for `(ws, loc)`, §5.3 instance
    /// `instance`, with a pre-installed D-ring position (the paper's
    /// evaluation starts from a stable D-ring).
    pub fn directory(
        shared: Arc<Deployment>,
        ws: WebsiteId,
        loc: Locality,
        instance: u32,
        substrate: ChordSubstrate,
    ) -> Self {
        let dir = DirectoryState::new(
            ws,
            loc,
            instance,
            shared.cfg.max_overlay,
            shared.cfg.t_dead,
            shared.catalog.objects_per_website(),
        );
        let petal = PetalState::new(instance, shared.scheme.instances() as u32);
        let mut n = Self::client(shared);
        n.dir_role = Some(Box::new(DirRole {
            substrate,
            dir,
            joining: false,
            petal,
        }));
        n
    }

    /// Is this node currently a directory peer?
    pub fn is_directory(&self) -> bool {
        self.dir_role.as_ref().is_some_and(|r| !r.joining)
    }

    /// The directory role, if any.
    pub fn dir_role(&self) -> Option<&DirRole> {
        self.dir_role.as_deref()
    }

    /// Mutable directory role (harness setup, e.g. staging a §5.3
    /// petal state before driving an administrative path).
    pub fn dir_role_mut(&mut self) -> Option<&mut DirRole> {
        self.dir_role.as_deref_mut()
    }

    /// Is this node a content peer of `ws`?
    pub fn is_content_peer(&self, ws: WebsiteId) -> bool {
        self.content.contains_key(&ws)
    }

    /// The content role for `ws`, if any.
    pub fn content_role(&self, ws: WebsiteId) -> Option<&ContentPeerState> {
        self.content.get(&ws)
    }

    /// Any participant role at all (content or directory)?
    pub fn is_participant(&self) -> bool {
        self.is_directory() || !self.content.is_empty()
    }

    /// The locality this node considers itself in (§5.4 override or
    /// the topology's landmark measurement).
    fn my_locality(&self, ctx: &Ctx<'_, FlowerMsg>) -> Locality {
        self.locality_override
            .unwrap_or_else(|| ctx.locality(ctx.id()))
    }

    /// §5.4: the peer detects it moved to another locality. All
    /// content roles are dropped (contacts learn via `Moved` replies);
    /// held objects are parked so the rejoin pushes them to the new
    /// directory. A directory role is handed off first.
    pub fn change_locality(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, new: Locality) {
        if let Some(role) = &self.dir_role {
            if !role.joining {
                self.voluntary_dir_handoff(ctx);
            }
        }
        self.locality_override = Some(new);
        let mut websites: Vec<WebsiteId> = self.content.keys().copied().collect();
        websites.sort_unstable();
        for ws in websites {
            if let Some(cp) = self.content.remove(&ws) {
                let objs: Vec<ObjectId> = cp.objects().collect();
                self.parked_objects
                    .get_or_insert_with(ws, Vec::new)
                    .extend(objs);
            }
        }
    }

    /// §5.2 voluntary leave: pick the youngest (most recently alive)
    /// index entry and transfer the directory to it.
    pub fn voluntary_dir_handoff(&mut self, ctx: &mut Ctx<'_, FlowerMsg>) -> Option<NodeId> {
        let instance = self.dir_role.as_ref()?.petal.instance;
        if instance != 0 {
            // A §5.3 sibling instance has no hand-off protocol: it
            // returns its members to the petal primary (Admission
            // under live = 1; the primary re-admits and the next
            // split redistributes them) and tells the primary to
            // shrink the petal so forwards stop flowing here — the
            // node stays alive, so nothing would ever bounce.
            let me = ctx.id();
            self.repartition_members(ctx, me, 1);
            let role = self.dir_role.take().expect("checked above");
            let ws = role.dir.website();
            let loc = role.dir.locality();
            ctx.send(
                role.petal
                    .primary_node(self.shared.instance_node(ws, loc, 0)),
                FlowerMsg::PetalRetire {
                    website: ws,
                    locality: loc,
                    instance,
                },
            );
            return None;
        }
        let role = self.dir_role.take()?;
        let me = ctx.id();
        let seeded = role.dir.view_seed(1, me);
        {
            let mut m = ctx.metrics();
            m.incr(Counter::DirViewSeeds);
            m.record(Hist::DirViewSeedLen, seeded.len() as u64);
        }
        let target = seeded.first().copied();
        let Some(target) = target else {
            // Nobody to hand off to; the directory simply disappears
            // and §5.2 crash recovery will eventually elect a peer.
            return None;
        };
        let index = role
            .dir
            .snapshot()
            .into_iter()
            .map(|(peer, age, objects)| IndexSnapshotEntry { peer, age, objects })
            .collect();
        ctx.send(
            target,
            FlowerMsg::DirHandoff {
                website: role.dir.website(),
                locality: role.dir.locality(),
                index,
                neighbors: role.substrate.handoff_neighbors(),
                live: role.petal.live,
            },
        );
        Some(target)
    }

    // ------------------------------------------------------------------
    // Query origination
    // ------------------------------------------------------------------

    fn on_submit(
        &mut self,
        ctx: &mut Ctx<'_, FlowerMsg>,
        qid: u64,
        ws: WebsiteId,
        object: ObjectId,
    ) {
        ctx.query_stats().on_submit();
        let me = ctx.id();
        let query = Query {
            id: qid,
            origin: me,
            origin_locality: self.my_locality(ctx),
            website: ws,
            object,
            submitted_at: ctx.now(),
            dir_hops: 0,
            holder_retries: 0,
        };

        if let Some(cp) = self.content.get(&ws) {
            // Content-peer path (§3.4: subsequent queries bypass D-ring).
            if cp.has(object) {
                // Served from the local cache: no lookup, no transfer.
                self.content
                    .get_mut(&ws)
                    .expect("checked")
                    .touch_object(object);
                let now = ctx.now();
                ctx.query_stats()
                    .on_resolved(now, me, 0, 0, ServedBy::OwnCache);
                return;
            }
            if let Some(target) = cp.summary_candidates(object, &[]) {
                self.pending.insert(
                    qid,
                    PendingQuery {
                        tried: vec![target],
                        query: self.shared.cfg.query_timeout.map(|_| query),
                        retries: 0,
                    },
                );
                self.arm_query_timeout(ctx, qid, 0);
                ctx.send(target, FlowerMsg::PeerFetch { query });
                return;
            }
            // §3.4: members use the content overlay *instead of* the
            // D-ring; with no summary match the query leaves the P2P
            // system.
            self.track_pending(ctx, query);
            ctx.send(self.shared.server_of(ws), FlowerMsg::ServerQuery { query });
            return;
        }

        // New-client path: route through the D-ring (§3.4).
        self.track_pending(ctx, query);
        self.route_via_dring(ctx, query);
    }

    /// Register `query` in the pending map and arm its timeout (when
    /// configured).
    fn track_pending(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, query: Query) {
        self.pending.insert(
            query.id,
            PendingQuery {
                tried: Vec::new(),
                query: self.shared.cfg.query_timeout.map(|_| query),
                retries: 0,
            },
        );
        self.arm_query_timeout(ctx, query.id, 0);
    }

    /// Arm the pending-query timeout for attempt number `retries`
    /// (exponential backoff: the base timeout doubles per attempt).
    /// A no-op when `query_timeout` is `None` — the paper's base
    /// system, which relies purely on synchronous bounces.
    fn arm_query_timeout(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, qid: u64, retries: u8) {
        if let Some(t) = self.shared.cfg.query_timeout {
            let delay = SimDuration::from_ms(t.as_ms() << retries.min(5));
            ctx.set_timer(delay, timers::QUERY_TIMEOUT, qid);
        }
    }

    /// A pending query heard nothing — no serve, no bounce — for a
    /// whole timeout window: partitions and silent loss leave exactly
    /// this trace. Re-route within the retry budget (a sibling petal
    /// instance where §5.3 provides one, else a fresh D-ring entry),
    /// then degrade to the origin server, which is reachable whenever
    /// the client's own uplink works.
    fn on_query_timeout(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, qid: u64) {
        let Some(p) = self.pending.get_mut(&qid) else {
            // Resolved in the meantime: the timer outlived the query.
            return;
        };
        let Some(query) = p.query else {
            return;
        };
        p.retries += 1;
        let retries = p.retries;
        ctx.metrics().incr(Counter::DirQueryTimeouts);
        if retries <= self.shared.cfg.query_retry_budget {
            ctx.metrics().incr(Counter::DirQueryRetries);
            self.arm_query_timeout(ctx, qid, retries);
            self.reroute_query(ctx, query, retries);
        } else {
            // Retry budget exhausted: graceful degradation. Counted
            // as a miss by the hit-ratio series, but the user is
            // served — availability over locality.
            ctx.metrics().incr(Counter::DirQueryOriginFallbacks);
            self.arm_query_timeout(ctx, qid, retries);
            ctx.send(
                self.shared.server_of(query.website),
                FlowerMsg::ServerQuery { query },
            );
        }
    }

    /// Timeout-driven re-route of attempt `attempt`: with §5.3
    /// instance bits the query walks to the *next* sibling petal
    /// instance (a deterministic rotation from the client's
    /// hash-assigned one); on the flat D-ring it re-enters through a
    /// freshly drawn bootstrap directory.
    fn reroute_query(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, query: Query, attempt: u8) {
        let instances = self.shared.scheme.instances() as u32;
        if instances > 1 {
            let base = instance_for(query.origin, instances);
            let instance = (base + attempt as u32) % instances;
            self.route_via_dring_instance(ctx, query, instance);
        } else {
            self.route_via_dring(ctx, query);
        }
    }

    /// Route a query into the D-ring toward `d_{ws,loc}` — or, with
    /// §5.3 instance bits, toward the client's hash-assigned instance
    /// `d_{ws,loc,i}`. The instance choice is a pure function of the
    /// client id over the *deployed* instance set; if the chosen
    /// instance is dormant it relays to the petal primary, which
    /// re-dispatches over the live set (the nesting property of
    /// [`instance_for`] keeps the two consistent).
    fn route_via_dring(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, query: Query) {
        let instance = instance_for(query.origin, self.shared.scheme.instances() as u32);
        self.route_via_dring_instance(ctx, query, instance);
    }

    /// As [`FlowerNode::route_via_dring`], but toward an explicit
    /// petal instance (timeout re-routes rotate through siblings).
    fn route_via_dring_instance(
        &mut self,
        ctx: &mut Ctx<'_, FlowerMsg>,
        query: Query,
        instance: u32,
    ) {
        let scheme = self.shared.scheme;
        let key = scheme.key_with_instance(query.website, query.origin_locality, instance);
        // If we are ourselves on the D-ring (and fully joined), route
        // from here; a node mid-join has no usable routing state yet.
        if self.dir_role.as_ref().is_some_and(|r| !r.joining) {
            let role = self.dir_role.as_mut().expect("checked");
            let mut t = CtxTransport { ctx };
            let event = role.substrate.route(&mut t, key, query);
            self.on_substrate_event(ctx, event);
            return;
        }
        // Otherwise enter through a random well-known directory peer.
        let entry = *self
            .shared
            .bootstrap_dirs
            .choose(ctx.rng())
            .expect("deployment has at least one bootstrap directory");
        ctx.send(entry, FlowerMsg::Dht(client_entry_msg(key, query)));
    }

    // ------------------------------------------------------------------
    // Directory-side query processing (Algorithm 3)
    // ------------------------------------------------------------------

    fn dir_process_query(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, query: Query) {
        let me = ctx.id();
        let Some(role) = &mut self.dir_role else {
            // Not a directory (e.g. we abdicated moments ago): let the
            // origin server handle it rather than dropping the query.
            ctx.send(
                self.shared.server_of(query.website),
                FlowerMsg::ServerQuery { query },
            );
            return;
        };
        if role.dir.website() != query.website {
            // Cross-website delivery can only happen when the whole
            // website block is absent from D-ring; fall back (§3.4).
            ctx.send(
                self.shared.server_of(query.website),
                FlowerMsg::ServerQuery { query },
            );
            return;
        }

        // §5.3 PetalUp dispatch. A dormant sibling instance never
        // processes: it relays to the petal primary, the one node that
        // knows the live instance count. The primary re-selects the
        // owning instance as a pure function of (origin id, live set)
        // and hands the query over when it is not instance 0's.
        if !role.petal.active {
            let primary = role.petal.primary_node(self.shared.instance_node(
                query.website,
                role.dir.locality(),
                0,
            ));
            ctx.metrics().incr(Counter::DirPetalForwards);
            ctx.send(primary, FlowerMsg::ClientQuery { query });
            return;
        }
        if role.petal.instance == 0
            && role.petal.live > 1
            && role.dir.locality() == query.origin_locality
        {
            let owner = instance_for(query.origin, role.petal.live);
            if owner != 0 {
                let sibling = self
                    .shared
                    .instance_node(query.website, role.dir.locality(), owner);
                ctx.metrics().incr(Counter::DirPetalForwards);
                ctx.send(sibling, FlowerMsg::ClientQuery { query });
                return;
            }
        }

        // Optimistic admission (§3.4) happens at the origin's own
        // locality directory only.
        let admits_here =
            role.dir.locality() == query.origin_locality && !role.dir.contains(query.origin);
        role.dir.note_query();
        role.dir.note_request(query.object);
        let max_hops = self.shared.cfg.max_dir_hops;
        let decision = role.dir.process(
            ctx.rng(),
            query.object,
            query.origin,
            max_hops,
            query.dir_hops,
        );
        ctx.metrics().incr(Counter::DirProcess);
        if role.dir.locality() == query.origin_locality {
            let admitted = role.dir.admit_or_refresh(query.origin, query.object);
            if admits_here {
                let view_seed = role.dir.view_seed(8, query.origin);
                let mut m = ctx.metrics();
                m.incr(Counter::DirViewSeeds);
                m.record(Hist::DirViewSeedLen, view_seed.len() as u64);
                ctx.send(
                    query.origin,
                    FlowerMsg::Admission {
                        website: query.website,
                        locality: role.dir.locality(),
                        admitted,
                        dir: me,
                        petal_live: role.petal.live,
                        view_seed,
                    },
                );
            }
        }
        match decision {
            DirDecision::ToHolder(h) => {
                ctx.metrics().incr(Counter::DirToHolder);
                ctx.send(h, FlowerMsg::RedirectToHolder { query });
            }
            DirDecision::ToDirectory(d) => {
                ctx.metrics().incr(Counter::DirToDirectory);
                let mut q = query;
                q.dir_hops += 1;
                ctx.send(d, FlowerMsg::SummaryRedirect { query: q });
            }
            DirDecision::ToServer => {
                ctx.metrics().incr(Counter::DirToServer);
                ctx.send(
                    self.shared.server_of(query.website),
                    FlowerMsg::ServerQuery { query },
                );
            }
        }
        self.maybe_split_on_load(ctx);
        self.maybe_broadcast_summary(ctx);
    }

    /// Event-driven half of the §5.3 split policy: the moment a petal
    /// primary's windowed load crosses the split threshold it resizes,
    /// rather than waiting out the rest of the tick window — a hot
    /// website's first load wave otherwise lands entirely on one
    /// instance. (The tick-driven policy still handles sibling-peak
    /// splits and all merges.)
    fn maybe_split_on_load(&mut self, ctx: &mut Ctx<'_, FlowerMsg>) {
        let instances = self.shared.scheme.instances() as u32;
        if instances <= 1 {
            return;
        }
        let me = ctx.id();
        let threshold = self.shared.cfg.petal_split_threshold;
        let Some(role) = &self.dir_role else {
            return;
        };
        let usable = role.petal.usable_instances(instances);
        if role.joining || role.petal.instance != 0 || role.petal.live >= usable {
            return;
        }
        let window = role.dir.load().window_queries;
        if window <= threshold {
            return;
        }
        let new_live = sized_split(role.petal.live, usable, window, threshold);
        self.resize_petal(ctx, me, new_live);
    }

    /// §4.2.1: if enough of the index changed, send a refreshed
    /// directory summary to the same-website directory peers we know
    /// through the routing table.
    fn maybe_broadcast_summary(&mut self, ctx: &mut Ctx<'_, FlowerMsg>) {
        let scheme = self.shared.scheme;
        let Some(role) = &mut self.dir_role else {
            return;
        };
        let Some(summary) = role.dir.take_summary_refresh(SUMMARY_REFRESH_THRESHOLD) else {
            return;
        };
        let msg = FlowerMsg::DirSummary {
            website: role.dir.website(),
            locality: role.dir.locality(),
            dir_id: role.substrate.key(),
            summary,
        };
        send_to_website_neighbours(ctx, &role.substrate, scheme, &msg);
    }

    // ------------------------------------------------------------------
    // Serving
    // ------------------------------------------------------------------

    /// Serve `query` from this node's cache (content peer) or as the
    /// origin server.
    fn serve(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, query: Query, provider: ProviderKind) {
        let size = self.shared.catalog.object_size(query.object);
        let view_seed = match provider {
            ProviderKind::ContentPeer => self
                .content
                .get(&query.website)
                .map(|cp| {
                    cp.view()
                        .select_subset(ctx.rng(), 8)
                        .into_iter()
                        .map(|e| e.peer)
                        .collect()
                })
                .unwrap_or_default(),
            ProviderKind::OriginServer => Vec::new(),
        };
        let now = ctx.now();
        ctx.send(
            query.origin,
            FlowerMsg::ServeObject {
                query,
                resolved_at: now,
                provider,
                size,
                view_seed,
            },
        );
    }

    fn on_serve_object(
        &mut self,
        ctx: &mut Ctx<'_, FlowerMsg>,
        from: NodeId,
        query: Query,
        resolved_at: SimTime,
        provider: ProviderKind,
        view_seed: Vec<NodeId>,
    ) {
        if self.pending.remove(&query.id).is_none() {
            // Duplicate serve (e.g. a retry raced a slow holder): the
            // metrics already counted this query.
            return;
        }
        let me = ctx.id();
        let lookup_ms = resolved_at.since(query.submitted_at).as_ms();
        let transfer_ms = ctx.latency_ms(me, from);
        let served_by = match provider {
            ProviderKind::OriginServer => ServedBy::OriginServer,
            ProviderKind::ContentPeer => {
                if ctx.locality(from) == self.my_locality(ctx) {
                    ServedBy::LocalOverlay
                } else {
                    ServedBy::RemoteOverlay
                }
            }
        };
        let now = ctx.now();
        ctx.query_stats()
            .on_resolved(now, me, lookup_ms, transfer_ms, served_by);

        // Keep the object (§4.1: "after being served, p keeps its copy
        // of o for subsequent requests").
        let provider_locality = ctx.locality(from);
        if let Some(cp) = self.content.get_mut(&query.website) {
            cp.insert_object(query.object);
            // View seeds only make sense from our own overlay (§4.2:
            // the serving peer A and the client F share an overlay);
            // a remote-overlay or server provider contributes none.
            if !view_seed.is_empty() && provider_locality == cp.locality() {
                cp.seed_view(&view_seed, me);
            }
            self.maybe_push(ctx, query.website);
        } else {
            // Not (yet) a member: park the object until the admission
            // decision. The provider's `view_seed` is dropped — a new
            // member's view starts from the seed its admission carries.
            let parked = self
                .parked_objects
                .get_or_insert_with(query.website, Vec::new);
            if !parked.contains(&query.object) {
                parked.push(query.object);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_admission(
        &mut self,
        ctx: &mut Ctx<'_, FlowerMsg>,
        ws: WebsiteId,
        locality: Locality,
        admitted: bool,
        dir: NodeId,
        petal_live: u32,
        view_seed: Vec<NodeId>,
    ) {
        if !admitted {
            self.parked_objects.remove(&ws);
            return;
        }
        let me = ctx.id();
        let cfg = &self.shared.cfg;
        // A stale admission from an overlay we no longer belong to
        // (e.g. after a §5.4 move) must not resurrect the old role.
        if locality != self.my_locality(ctx) {
            return;
        }
        // An admission into a different locality's overlay than the
        // role we hold means we moved: start a fresh role.
        if self
            .content
            .get(&ws)
            .is_some_and(|cp| cp.locality() != locality)
        {
            self.content.remove(&ws);
        }
        let is_new = !self.content.contains_key(&ws);
        let cp = self.content.get_or_insert_with(ws, || {
            ContentPeerState::with_cache(
                ws,
                locality,
                cfg.v_gossip,
                self.shared.catalog.objects_per_website(),
                crate::cache::CacheManager::new(cfg.cache_policy, cfg.cache_capacity.max(1)),
            )
        });
        let prev_dir = cp.directory();
        cp.set_directory(dir);
        cp.set_petal_live(petal_live);
        if prev_dir.is_some_and(|d| d != dir) {
            // §5.3 re-pointing (petal split/merge): our entry at the
            // new instance starts empty, so flag everything held as
            // unreported — the push below rebuilds it in full.
            cp.mark_all_dirty();
        }
        cp.seed_view(&view_seed, me);
        if let Some(parked) = self.parked_objects.remove(&ws) {
            for o in parked {
                cp.insert_object(o);
            }
        }
        if is_new {
            // One sample per join: accumulated over time this is
            // the participant count of Figure 5.
            let now = ctx.now();
            ctx.query_stats().on_join(now);
            // Stagger periodic behaviour so overlays do not beat in
            // lock-step.
            let g = ctx.rng().gen_range(0..cfg.t_gossip.as_ms().max(1));
            ctx.set_timer(SimDuration::from_ms(g), timers::GOSSIP, ws.0 as u64);
            let k = ctx.rng().gen_range(0..cfg.keepalive_period.as_ms().max(1));
            ctx.set_timer(SimDuration::from_ms(k), timers::KEEPALIVE, ws.0 as u64);
        }
        self.maybe_push(ctx, ws);
    }

    // ------------------------------------------------------------------
    // Gossip & push (Algorithms 4–6)
    // ------------------------------------------------------------------

    fn on_gossip_timer(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, ws: WebsiteId) {
        let l_gossip = self.shared.cfg.l_gossip;
        let t_gossip = self.shared.cfg.t_gossip;
        let Some(cp) = self.content.get_mut(&ws) else {
            return;
        };
        if let Some(target) = cp.gossip_tick() {
            let cached = cp.summary_is_cached();
            let payload = cp.build_gossip(ctx.rng(), l_gossip);
            let msg = FlowerMsg::GossipReq(payload);
            {
                let mut m = ctx.metrics();
                m.incr(Counter::GossipExchanges);
                m.record(Hist::GossipPayloadBytes, msg.wire_size() as u64);
                m.incr(if cached {
                    Counter::BloomCowClones
                } else {
                    Counter::BloomRebuilds
                });
            }
            ctx.send(target, msg);
        }
        ctx.set_timer(t_gossip, timers::GOSSIP, ws.0 as u64);
    }

    fn on_gossip_req(
        &mut self,
        ctx: &mut Ctx<'_, FlowerMsg>,
        from: NodeId,
        payload: crate::msg::GossipPayload,
    ) {
        let ws = payload.website;
        let l_gossip = self.shared.cfg.l_gossip;
        let me = ctx.id();
        match self.content.get_mut(&ws) {
            // Overlays are scoped by (website, locality): only
            // same-overlay exchanges are answered.
            Some(cp) if cp.locality() == payload.locality => {
                let cached = cp.summary_is_cached();
                let reply = cp.build_gossip(ctx.rng(), l_gossip);
                let msg = FlowerMsg::GossipResp(reply);
                {
                    let mut m = ctx.metrics();
                    m.record(Hist::GossipPayloadBytes, msg.wire_size() as u64);
                    m.incr(if cached {
                        Counter::BloomCowClones
                    } else {
                        Counter::BloomRebuilds
                    });
                }
                ctx.send(from, msg);
                cp.absorb_gossip(me, from, payload, self.shared.cfg.t_dead);
                self.pin_own_directory(me, ws);
                self.pin_petal_directory(me, ws);
            }
            // We are not (any more) in this overlay: §5.4 — the
            // contact should forget us.
            _ => ctx.send(from, FlowerMsg::Moved { website: ws }),
        }
    }

    /// Invariant repair: a node that *is* the directory of its
    /// overlay must never be talked out of it by stale gossip hints
    /// (a §5.2/§5.2-handoff heir can receive hints that still point
    /// to its predecessor).
    fn pin_own_directory(&mut self, me: NodeId, ws: WebsiteId) {
        let Some(role) = &self.dir_role else { return };
        if role.joining || role.dir.website() != ws {
            return;
        }
        let loc = role.dir.locality();
        if let Some(cp) = self.content.get_mut(&ws) {
            if cp.locality() == loc && cp.directory() != Some(me) {
                cp.set_directory(me);
            }
        }
    }

    // ------------------------------------------------------------------
    // §5.3 PetalUp: load-adaptive directory instances per petal
    // ------------------------------------------------------------------

    /// Invariant repair for members of a split petal: gossip hints
    /// point at whatever directory the sender believes in, which in a
    /// multi-instance petal is frequently a *sibling* instance. A
    /// member that knows its petal runs `live > 1` instances re-derives
    /// its hash-assigned instance and pins its directory there.
    fn pin_petal_directory(&mut self, me: NodeId, ws: WebsiteId) {
        if self.shared.scheme.instances() <= 1 {
            return;
        }
        let Some(cp) = self.content.get_mut(&ws) else {
            return;
        };
        let live = cp.petal_live();
        if live <= 1 {
            return;
        }
        let assigned = self
            .shared
            .instance_node(ws, cp.locality(), instance_for(me, live));
        if assigned != me && cp.directory().is_some_and(|d| d != assigned) {
            cp.set_directory(assigned);
        }
    }

    /// One directory-tick of the §5.3 split/merge policy. Siblings
    /// report their window to the primary; the primary folds its own
    /// window in and grows the petal when any live instance ran hot,
    /// or shrinks it when the whole petal went quiet. Every decision
    /// is a pure function of per-node protocol state, so it is
    /// identical under any engine shard layout.
    fn petal_policy_tick(&mut self, ctx: &mut Ctx<'_, FlowerMsg>) {
        let instances = self.shared.scheme.instances() as u32;
        let me = ctx.id();
        let Some(role) = &mut self.dir_role else {
            return;
        };
        if role.joining {
            return;
        }
        let window = role.dir.take_window_queries();
        if instances <= 1 {
            return;
        }
        let ws = role.dir.website();
        let loc = role.dir.locality();
        if role.petal.instance != 0 {
            if role.petal.active {
                // Report to the *current* primary (last resize
                // sender), not the statically deployed node — after a
                // §5.2 replacement the deployed node is a corpse and
                // load-driven split/merge would go blind.
                let primary = role
                    .petal
                    .primary_node(self.shared.instance_node(ws, loc, 0));
                ctx.send(
                    primary,
                    FlowerMsg::PetalLoad {
                        website: ws,
                        locality: loc,
                        instance: role.petal.instance,
                        queries: window,
                    },
                );
            }
            return;
        }
        role.petal.sibling_loads[0] = window;
        let live = role.petal.live;
        let usable = role.petal.usable_instances(instances);
        let loads = &role.petal.sibling_loads[..live as usize];
        let peak = loads.iter().copied().max().unwrap_or(0);
        let total: u64 = loads.iter().sum();
        let held = role.petal.merge_hold > 0;
        if held {
            role.petal.merge_hold -= 1;
        }
        let cfg = &self.shared.cfg;
        if live < usable && peak > cfg.petal_split_threshold {
            // Size the split to the overload: a petal at 4× the
            // threshold jumps straight to 4 instances instead of
            // losing a window per doubling.
            let new_live = sized_split(live, usable, peak, cfg.petal_split_threshold);
            self.resize_petal(ctx, me, new_live);
        } else if !held && live > 1 && total < cfg.petal_merge_floor {
            self.resize_petal(ctx, me, live / 2);
        }
    }

    /// Primary-side petal resize to `new_live` instances: informs the
    /// siblings (activation with the new live count, or deactivation
    /// with re-pointing duty), then re-points the primary's own moved
    /// members. State travels by protocol — moved members push their
    /// content to their new instance themselves.
    fn resize_petal(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, me: NodeId, new_live: u32) {
        let shared = Arc::clone(&self.shared);
        let Some(role) = &mut self.dir_role else {
            return;
        };
        let ws = role.dir.website();
        let loc = role.dir.locality();
        let old_live = role.petal.live;
        let new_live = new_live.max(1);
        if new_live == old_live {
            return;
        }
        // Every sibling below the new live count learns it. On a
        // split the dormant ones activate and the already-active ones
        // re-partition under the larger set; on a merge the survivors
        // need the shrunk count too — their admissions advertise it,
        // and a stale value would pin members to deactivated
        // instances. (`usable_instances` guarantees none of these
        // slots is retired.)
        for inst in 1..new_live {
            ctx.send(
                shared.instance_node(ws, loc, inst),
                FlowerMsg::PetalActivate {
                    website: ws,
                    locality: loc,
                    live: new_live,
                },
            );
        }
        // Counted per doubling/halving (live counts are powers of two),
        // so a split sized straight to 4× and the two merges that undo
        // it balance — the gate holds merges to splits.
        if new_live > old_live {
            let doublings = (new_live / old_live).trailing_zeros();
            ctx.metrics().add(Counter::DirPetalSplits, doublings as u64);
        } else {
            let halvings = (old_live / new_live).trailing_zeros();
            ctx.metrics().add(Counter::DirPetalMerges, halvings as u64);
            for inst in new_live..old_live {
                ctx.send(
                    shared.instance_node(ws, loc, inst),
                    FlowerMsg::PetalDeactivate {
                        website: ws,
                        locality: loc,
                        live: new_live,
                    },
                );
            }
            for stale in &mut role.petal.sibling_loads[new_live as usize..old_live as usize] {
                *stale = 0;
            }
        }
        role.petal.live = new_live;
        // The windowed counter restarts with the new layout (the
        // event-driven trigger would otherwise keep escalating on the
        // pre-split cumulative count), and merges back off for a
        // couple of full windows.
        role.dir.take_window_queries();
        role.petal.merge_hold = 2;
        self.repartition_members(ctx, me, new_live);
    }

    /// Re-point every indexed member whose hash assignment under
    /// `live` instances is another instance of this petal: each gets a
    /// fresh `Admission` naming its new directory, upon which it
    /// re-pushes its full content there (`mark_all_dirty`). Entries at
    /// this instance are left to age out — they still describe real
    /// holders, so Algorithm 3 keeps using them meanwhile.
    fn repartition_members(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, me: NodeId, live: u32) {
        let shared = Arc::clone(&self.shared);
        let Some(role) = &mut self.dir_role else {
            return;
        };
        let ws = role.dir.website();
        let loc = role.dir.locality();
        let my_inst = role.petal.instance;
        let mut movers: Vec<(NodeId, u32)> = role
            .dir
            .members()
            .filter(|m| *m != me)
            .map(|m| (m, instance_for(m, live)))
            .filter(|(_, owner)| *owner != my_inst)
            .collect();
        movers.sort_unstable_by_key(|(m, _)| m.0);
        for (m, owner) in movers {
            ctx.send(
                m,
                FlowerMsg::Admission {
                    website: ws,
                    locality: loc,
                    admitted: true,
                    dir: shared.instance_node(ws, loc, owner),
                    petal_live: live,
                    view_seed: Vec::new(),
                },
            );
        }
    }

    /// A query forwarded to a sibling instance bounced: the sibling is
    /// dead. Shrink the petal below the dead instance (the power-of-two
    /// nesting keeps every surviving assignment valid) so traffic
    /// stops flowing at the corpse. Returns true when handled.
    fn petal_sibling_down(
        &mut self,
        ctx: &mut Ctx<'_, FlowerMsg>,
        dead: NodeId,
        ws: WebsiteId,
    ) -> bool {
        let me = ctx.id();
        let Some(role) = &self.dir_role else {
            return false;
        };
        if role.petal.instance != 0 || role.petal.live <= 1 || role.dir.website() != ws {
            return false;
        }
        let loc = role.dir.locality();
        let live = role.petal.live;
        let Some(dead_inst) = (1..live).find(|i| self.shared.instance_node(ws, loc, *i) == dead)
        else {
            return false;
        };
        // A crashed sibling never gets its role back (NodeUp wipes
        // volatile state): cap the petal below it for good instead of
        // re-splitting over the corpse and thrashing on every bounce.
        if let Some(role) = &mut self.dir_role {
            role.petal.retired[dead_inst as usize] = true;
        }
        self.resize_petal(ctx, me, shrunk_below(live, dead_inst));
        true
    }

    fn maybe_push(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, ws: WebsiteId) {
        let policy = PushPolicy::new(self.shared.cfg.push_threshold);
        let Some(cp) = self.content.get_mut(&ws) else {
            return;
        };
        let Some(dir) = cp.directory() else { return };
        let Some((added, removed)) = cp.take_push(policy) else {
            return;
        };
        cp.reset_dir_age();
        if dir == ctx.id() {
            // We are the directory ourselves (post-§5.2 takeover).
            if let Some(role) = &mut self.dir_role {
                role.dir.apply_push(dir, &added, &removed);
            }
            return;
        }
        ctx.send(
            dir,
            FlowerMsg::Push {
                website: ws,
                added,
                removed,
            },
        );
    }

    fn on_keepalive_timer(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, ws: WebsiteId) {
        let period = self.shared.cfg.keepalive_period;
        let me = ctx.id();
        self.pin_own_directory(me, ws);
        if let Some(cp) = self.content.get_mut(&ws) {
            if let Some(dir) = cp.directory() {
                if dir != me {
                    // One-way probe for the *directory's* failure
                    // detection (§5.1); it does not refresh our own
                    // knowledge of the directory — only pushes and
                    // gossip hints do (§4.2.1).
                    ctx.send(dir, FlowerMsg::KeepAlive { website: ws });
                }
            }
            ctx.set_timer(period, timers::KEEPALIVE, ws.0 as u64);
        }
    }

    // ------------------------------------------------------------------
    // Directory failure handling (§5.2)
    // ------------------------------------------------------------------

    /// A message to our directory bounced: forget it and schedule a
    /// jittered replacement attempt.
    fn on_dir_unreachable(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, ws: WebsiteId, dead: NodeId) {
        let jitter_ms = self.shared.cfg.dir_replacement_jitter.as_ms().max(1);
        if let Some(cp) = self.content.get_mut(&ws) {
            if cp.directory() == Some(dead) {
                cp.clear_directory();
                // §5.3: stop pinning to a hash-assigned instance that
                // may be the dead node; fall back to hint-following
                // until a fresh admission re-announces the live count.
                cp.set_petal_live(1);
            }
            cp.forget_peer(dead);
            if self.replacing.insert(ws, ()).is_none() {
                let j = ctx.rng().gen_range(0..jitter_ms);
                ctx.set_timer(SimDuration::from_ms(j), timers::REPLACE_DIR, ws.0 as u64);
            }
        }
    }

    fn on_replace_dir_timer(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, ws: WebsiteId) {
        self.replacing.remove(&ws);
        let me = ctx.id();
        let Some(cp) = self.content.get(&ws) else {
            return;
        };
        if cp.directory().is_some() {
            // Gossip already told us about a replacement.
            return;
        }
        if self.dir_role.is_some() {
            // Base design: one D-ring position per node; leave the
            // take-over to another overlay member.
            return;
        }
        // §5.2: adopt the common key and join D-ring through a
        // bootstrap entry.
        let loc = self.my_locality(ctx);
        let key = self.shared.scheme.key(ws, loc);
        let substrate = ChordSubstrate::fresh(self.shared.scheme, PeerRef { id: key, node: me });
        let dir = DirectoryState::new(
            ws,
            loc,
            0,
            self.shared.cfg.max_overlay,
            self.shared.cfg.t_dead,
            self.shared.catalog.objects_per_website(),
        );
        // A §5.2 replacement assumes the petal-primary position; any
        // sibling instances re-attach through the bounce/merge path.
        let petal = PetalState::new(0, self.shared.scheme.instances() as u32);
        self.dir_role = Some(Box::new(DirRole {
            substrate,
            dir,
            joining: true,
            petal,
        }));
        let entry = *self
            .shared
            .bootstrap_dirs
            .choose(ctx.rng())
            .expect("deployment has at least one bootstrap directory");
        let role = self.dir_role.as_mut().expect("just installed");
        let mut t = CtxTransport { ctx };
        role.substrate.join(&mut t, entry);
        // Watchdog: lookups can be lost while the ring is healing
        // around the dead directory; retry until we win or learn of a
        // winner.
        let watchdog = self.shared.cfg.keepalive_period.mul(2);
        ctx.set_timer(watchdog, timers::JOIN_RETRY, ws.0 as u64);
    }

    /// The §5.2 join watchdog fired: stand down if a winner became
    /// known through gossip, otherwise retry the join.
    fn on_join_retry_timer(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, ws: WebsiteId) {
        let me = ctx.id();
        let Some(role) = &self.dir_role else { return };
        if !role.joining || role.dir.website() != ws {
            return;
        }
        // Did gossip tell us someone else already took the position?
        let learned_winner = self
            .content
            .get(&ws)
            .and_then(|cp| cp.directory())
            .filter(|d| *d != me);
        if let Some(winner) = learned_winner {
            ctx.metrics().incr(Counter::DirReplacementsLost);
            self.dir_role = None;
            if let Some(cp) = self.content.get_mut(&ws) {
                cp.set_directory(winner);
            }
            return;
        }
        let entry = *self
            .shared
            .bootstrap_dirs
            .choose(ctx.rng())
            .expect("deployment has at least one bootstrap directory");
        let role = self.dir_role.as_mut().expect("checked");
        let mut t = CtxTransport { ctx };
        role.substrate.join(&mut t, entry);
        let watchdog = self.shared.cfg.keepalive_period.mul(2);
        ctx.set_timer(watchdog, timers::JOIN_RETRY, ws.0 as u64);
    }

    /// The §5.2 join completed: either we own the position now, or
    /// someone else took it first and we abdicate.
    fn on_join_complete(&mut self, ctx: &mut Ctx<'_, FlowerMsg>) {
        let me = ctx.id();
        let Some(role) = &mut self.dir_role else {
            return;
        };
        if !role.joining {
            return;
        }
        let taken_by = role.substrate.position_taken_by();
        let ws = role.dir.website();
        if let Some(winner) = taken_by {
            // Position already appropriated (§5.2): adopt the winner
            // as our directory and stand down.
            ctx.metrics().incr(Counter::DirReplacementsLost);
            self.dir_role = None;
            if let Some(cp) = self.content.get_mut(&ws) {
                cp.set_directory(winner);
            }
            return;
        }
        role.joining = false;
        ctx.metrics().incr(Counter::DirReplacementsWon);
        // Seed the new directory from our gossip view: members and
        // their summaries ("answers first queries from its content
        // summaries").
        if let Some(cp) = self.content.get_mut(&ws) {
            let entries: Vec<(NodeId, Option<&bloom::ContentSummary>)> = cp
                .view()
                .iter()
                .map(|e| (e.peer, e.data.as_ref()))
                .collect();
            role.dir.seed_from_view(entries);
            // Index ourselves with our own content.
            for o in cp.objects().collect::<Vec<_>>() {
                role.dir.admit_or_refresh(me, o);
            }
            cp.set_directory(me);
        }
        self.schedule_dir_timers(ctx);
    }

    /// Arm the periodic directory-side timers.
    pub(crate) fn schedule_dir_timers(&mut self, ctx: &mut Ctx<'_, FlowerMsg>) {
        let cfg = &self.shared.cfg;
        ctx.set_timer(cfg.keepalive_period, timers::DIR_TICK, 0);
        let s = ctx.rng().gen_range(0..cfg.stabilize_period.as_ms().max(1));
        ctx.set_timer(SimDuration::from_ms(s), timers::STABILIZE, 0);
        let f = ctx.rng().gen_range(0..cfg.fix_finger_period.as_ms().max(1));
        ctx.set_timer(SimDuration::from_ms(f), timers::FIX_FINGER, 0);
        if let Some(p) = cfg.replication_period {
            let r = ctx.rng().gen_range(0..p.as_ms().max(1));
            ctx.set_timer(SimDuration::from_ms(r), timers::REPLICATE, 0);
        }
    }

    /// §8 active replication: offer our hottest objects to the
    /// same-website neighbour directories.
    fn on_replicate_timer(&mut self, ctx: &mut Ctx<'_, FlowerMsg>) {
        let Some(period) = self.shared.cfg.replication_period else {
            return;
        };
        let scheme = self.shared.scheme;
        let Some(role) = &mut self.dir_role else {
            return;
        };
        if role.joining {
            ctx.set_timer(period, timers::REPLICATE, 0);
            return;
        }
        let hot = role.dir.take_hot_objects(ctx.rng(), REPLICATION_TOP_K);
        if !hot.is_empty() {
            let msg = FlowerMsg::ReplicaOffer {
                website: role.dir.website(),
                objects: hot,
            };
            send_to_website_neighbours(ctx, &role.substrate, scheme, &msg);
        }
        ctx.set_timer(period, timers::REPLICATE, 0);
    }

    /// Conflict resolution for duplicate D-ring positions (two §5.2
    /// replacements racing): the lower node id stays, the other
    /// abdicates. Returns true if we abdicated.
    fn resolve_position_conflict(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, other: PeerRef) -> bool {
        let me = ctx.id();
        let Some(role) = &self.dir_role else {
            return false;
        };
        if other.id != role.substrate.key() || other.node == me {
            return false;
        }
        if me.0 < other.node.0 {
            return false; // we win; the other side will abdicate.
        }
        let ws = role.dir.website();
        ctx.metrics().incr(Counter::DirReplacementsLost);
        self.dir_role = None;
        if let Some(cp) = self.content.get_mut(&ws) {
            cp.set_directory(other.node);
        }
        true
    }

    // ------------------------------------------------------------------
    // D-ring plumbing
    // ------------------------------------------------------------------

    fn on_dht_msg(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, from: NodeId, msg: SubstrateMsg) {
        // Duplicate-position detection on maintenance traffic.
        let conflicts = self
            .dir_role
            .as_ref()
            .map(|r| r.substrate.conflict_peers(&msg))
            .unwrap_or_default();
        for p in conflicts {
            if self.resolve_position_conflict(ctx, p) {
                return;
            }
        }
        let Some(role) = &mut self.dir_role else {
            // DHT traffic for a node that is not (or no longer) on the
            // D-ring. If it carries a query, rescue it via the origin
            // server; everything else is dropped.
            if let Some(query) = carried_query(&msg) {
                ctx.send(
                    self.shared.server_of(query.website),
                    FlowerMsg::ServerQuery { query },
                );
            }
            return;
        };
        let mut t = CtxTransport { ctx };
        let event = role.substrate.dispatch(&mut t, from, msg);
        self.on_substrate_event(ctx, event);
    }

    /// Act on what a ring operation surfaced, if anything.
    fn on_substrate_event(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, event: Option<SubstrateEvent>) {
        match event {
            None => {}
            Some(SubstrateEvent::Deliver { query, .. }) => self.dir_process_query(ctx, query),
            Some(SubstrateEvent::JoinComplete) => self.on_join_complete(ctx),
            Some(SubstrateEvent::NeedRejoin) => {
                // Our §5.2 join lookup was lost while the ring was
                // healing: retry through another entry point.
                if let Some(role) = self.dir_role.as_mut().filter(|r| r.joining) {
                    let entry = *self
                        .shared
                        .bootstrap_dirs
                        .choose(ctx.rng())
                        .expect("bootstrap set non-empty");
                    let mut t = CtxTransport { ctx };
                    role.substrate.join(&mut t, entry);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Failure notifications
    // ------------------------------------------------------------------

    fn on_undeliverable(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, to: NodeId, msg: FlowerMsg) {
        match msg {
            FlowerMsg::Dht(sm) => {
                if self.dir_role.is_some() {
                    // The substrate purges the dead peer, re-routes
                    // payloads and lookups around it, and flags a lost
                    // join lookup for retry.
                    let role = self.dir_role.as_mut().expect("checked");
                    let joining = role.joining;
                    let mut t = CtxTransport { ctx };
                    let event = role.substrate.undeliverable(&mut t, to, sm, joining);
                    self.on_substrate_event(ctx, event);
                } else if let Some(query) = carried_query(&sm) {
                    // A client whose bootstrap died: try another entry
                    // point.
                    self.route_via_dring(ctx, query);
                }
            }
            FlowerMsg::RedirectToHolder { query } => {
                // §5.1 redirection failure: drop the entry, retry.
                ctx.query_stats().on_redirection_failure();
                if let Some(role) = &mut self.dir_role {
                    role.dir.remove_entry(to);
                }
                self.retry_after_holder_failure(ctx, query);
            }
            FlowerMsg::SummaryRedirect { query } => {
                if let Some(role) = &mut self.dir_role {
                    role.dir.remove_neighbor(to);
                }
                ctx.send(
                    self.shared.server_of(query.website),
                    FlowerMsg::ServerQuery { query },
                );
            }
            FlowerMsg::ClientQuery { query } => {
                // A petal primary's intra-petal forward bounced: the
                // sibling instance died. Shrink the petal and re-run
                // the dispatch — the query lands on a live instance.
                if self.petal_sibling_down(ctx, to, query.website) {
                    self.dir_process_query(ctx, query);
                    return;
                }
                self.on_dir_unreachable(ctx, query.website, to);
                ctx.send(
                    self.shared.server_of(query.website),
                    FlowerMsg::ServerQuery { query },
                );
            }
            FlowerMsg::PeerFetch { query } => {
                if let Some(cp) = self.content.get_mut(&query.website) {
                    cp.forget_peer(to);
                }
                self.continue_local_search(ctx, query, to);
            }
            FlowerMsg::Push { website, .. } | FlowerMsg::KeepAlive { website } => {
                self.on_dir_unreachable(ctx, website, to);
            }
            FlowerMsg::GossipReq(p) | FlowerMsg::GossipResp(p) => {
                if let Some(cp) = self.content.get_mut(&p.website) {
                    cp.forget_peer(to);
                }
            }
            FlowerMsg::PetalLoad { website, .. } => {
                // Our load report bounced off a dead primary: drop the
                // hint and fall back to the deployed instance-0 node
                // until the next resize (from whoever replaces it per
                // §5.2) re-points us.
                if let Some(role) = &mut self.dir_role {
                    if role.dir.website() == website && role.petal.primary == Some(to) {
                        role.petal.primary = None;
                    }
                }
            }
            FlowerMsg::ServeObject { .. }
            | FlowerMsg::Admission { .. }
            | FlowerMsg::FetchMiss { .. }
            | FlowerMsg::DirSummary { .. }
            | FlowerMsg::Moved { .. }
            | FlowerMsg::ServerQuery { .. }
            | FlowerMsg::DirHandoff { .. }
            | FlowerMsg::Submit { .. }
            | FlowerMsg::ReplicaOffer { .. }
            | FlowerMsg::ReplicaInstruct { .. }
            | FlowerMsg::ReplicaPull { .. }
            | FlowerMsg::ReplicaData { .. }
            | FlowerMsg::PetalActivate { .. }
            | FlowerMsg::PetalDeactivate { .. }
            | FlowerMsg::PetalRetire { .. }
            | FlowerMsg::AdminLeave
            | FlowerMsg::AdminChangeLocality { .. } => {}
        }
    }

    /// A redirected holder was dead or lacked the object: re-run
    /// Algorithm 3 with the retry budget, else fall back to the server
    /// (§5.1: "tries another redirection destination until an
    /// available copy is found").
    fn retry_after_holder_failure(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, query: Query) {
        let mut q = query;
        q.holder_retries += 1;
        if q.holder_retries > HOLDER_RETRIES {
            ctx.send(
                self.shared.server_of(q.website),
                FlowerMsg::ServerQuery { query: q },
            );
            return;
        }
        self.dir_process_query(ctx, q);
    }

    /// Continue the content-peer local search after a failed probe.
    fn continue_local_search(
        &mut self,
        ctx: &mut Ctx<'_, FlowerMsg>,
        query: Query,
        failed: NodeId,
    ) {
        let Some(p) = self.pending.get_mut(&query.id) else {
            return;
        };
        if !p.tried.contains(&failed) {
            p.tried.push(failed);
        }
        let Some(cp) = self.content.get(&query.website) else {
            return;
        };
        if p.tried.len() <= SUMMARY_FETCH_RETRIES {
            if let Some(next) = cp.summary_candidates(query.object, &p.tried) {
                p.tried.push(next);
                ctx.send(next, FlowerMsg::PeerFetch { query });
                return;
            }
        }
        // Overlay exhausted: §3.4 sends the query to the origin
        // server.
        ctx.send(
            self.shared.server_of(query.website),
            FlowerMsg::ServerQuery { query },
        );
    }
}

impl simnet::Node<FlowerMsg> for FlowerNode {
    /// What hangs off the node that nearly every handler reads first:
    /// the content-role array and the boxed directory role.
    #[inline]
    fn prefetch(&self) {
        self.content.prefetch();
        if let Some(role) = &self.dir_role {
            simnet::prefetch(&**role);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, FlowerMsg>, ev: Event<FlowerMsg>) {
        match ev {
            Event::Recv { from, msg } => match msg {
                FlowerMsg::Submit {
                    qid,
                    website,
                    object,
                } => self.on_submit(ctx, qid, website, object),
                FlowerMsg::Dht(m) => self.on_dht_msg(ctx, from, m),
                FlowerMsg::ClientQuery { query } => {
                    // Refresh the member's entry; then Algorithm 3.
                    self.dir_process_query(ctx, query);
                }
                FlowerMsg::SummaryRedirect { query } => self.dir_process_query(ctx, query),
                FlowerMsg::RedirectToHolder { query } => {
                    let has = self
                        .content
                        .get(&query.website)
                        .is_some_and(|cp| cp.has(query.object));
                    if has {
                        self.serve(ctx, query, ProviderKind::ContentPeer);
                    } else {
                        // Stale index entry (we dropped the object):
                        // tell the directory so it can retry.
                        ctx.send(from, FlowerMsg::FetchMiss { query });
                    }
                }
                FlowerMsg::PeerFetch { query } => {
                    let has = self
                        .content
                        .get(&query.website)
                        .is_some_and(|cp| cp.has(query.object));
                    if has {
                        self.serve(ctx, query, ProviderKind::ContentPeer);
                    } else {
                        ctx.send(from, FlowerMsg::FetchMiss { query });
                    }
                }
                FlowerMsg::FetchMiss { query } => {
                    if query.origin == ctx.id() {
                        // Our local-search probe missed (summary false
                        // positive): continue.
                        self.continue_local_search(ctx, query, from);
                    } else {
                        // We are the directory that redirected to a
                        // holder that no longer has the object.
                        if let Some(role) = &mut self.dir_role {
                            role.dir.apply_push(from, &[], &[query.object]);
                        }
                        self.retry_after_holder_failure(ctx, query);
                    }
                }
                FlowerMsg::ServerQuery { query } => {
                    debug_assert_eq!(
                        self.server_for,
                        Some(query.website),
                        "query at wrong server"
                    );
                    self.serve(ctx, query, ProviderKind::OriginServer);
                }
                FlowerMsg::ServeObject {
                    query,
                    resolved_at,
                    provider,
                    view_seed,
                    ..
                } => self.on_serve_object(ctx, from, query, resolved_at, provider, view_seed),
                FlowerMsg::Admission {
                    website,
                    locality,
                    admitted,
                    dir,
                    petal_live,
                    view_seed,
                } => {
                    self.on_admission(ctx, website, locality, admitted, dir, petal_live, view_seed)
                }
                FlowerMsg::GossipReq(p) => self.on_gossip_req(ctx, from, p),
                FlowerMsg::GossipResp(p) => {
                    let me = ctx.id();
                    let ws = p.website;
                    let t_dead = self.shared.cfg.t_dead;
                    if let Some(cp) = self.content.get_mut(&ws) {
                        if cp.locality() == p.locality {
                            cp.absorb_gossip(me, from, p, t_dead);
                            self.pin_own_directory(me, ws);
                            self.pin_petal_directory(me, ws);
                        }
                    }
                }
                FlowerMsg::Push {
                    website,
                    added,
                    removed,
                } => {
                    match &mut self.dir_role {
                        Some(role) if role.dir.website() == website => {
                            role.dir.apply_push(from, &added, &removed);
                            self.maybe_broadcast_summary(ctx);
                        }
                        _ => {
                            // We are not this overlay's directory (we
                            // stood down or handed off): tell the peer
                            // so it re-learns its directory via gossip.
                            ctx.send(from, FlowerMsg::Moved { website });
                        }
                    }
                }
                FlowerMsg::KeepAlive { website } => match &mut self.dir_role {
                    Some(role) if role.dir.website() == website => {
                        role.dir.keepalive(from);
                    }
                    _ => ctx.send(from, FlowerMsg::Moved { website }),
                },
                FlowerMsg::DirSummary {
                    website,
                    locality,
                    dir_id,
                    summary,
                } => {
                    if let Some(role) = &mut self.dir_role {
                        if role.dir.website() == website {
                            role.dir.update_neighbor_summary(NeighborSummary {
                                dir: from,
                                locality,
                                dir_id,
                                summary,
                            });
                        }
                    }
                }
                FlowerMsg::DirHandoff {
                    website,
                    locality,
                    index,
                    neighbors,
                    live,
                } => {
                    // §5.2 voluntary hand-off: assume the departing
                    // directory's identity and state.
                    let me = ctx.id();
                    let key = self.shared.scheme.key(website, locality);
                    let substrate = ChordSubstrate::from_handoff(
                        self.shared.scheme,
                        PeerRef { id: key, node: me },
                        &neighbors,
                    );
                    let mut dir = DirectoryState::new(
                        website,
                        locality,
                        0,
                        self.shared.cfg.max_overlay,
                        self.shared.cfg.t_dead,
                        self.shared.catalog.objects_per_website(),
                    );
                    let members: Vec<NodeId> =
                        index.iter().map(|e| e.peer).filter(|p| *p != me).collect();
                    dir.install_snapshot(
                        index
                            .into_iter()
                            .map(|e| (e.peer, e.age, e.objects))
                            .collect(),
                    );
                    // §5.2 + §5.3: the departing primary's petal keeps
                    // running — the heir inherits the live-instance
                    // count instead of restarting at 1, which would
                    // orphan the active siblings (they keep serving
                    // and reporting load, but nothing would ever route
                    // to them or shrink them again).
                    let mut petal = PetalState::new(0, self.shared.scheme.instances() as u32);
                    petal.live = live.clamp(1, self.shared.scheme.instances() as u32);
                    let inherited_live = petal.live;
                    self.dir_role = Some(Box::new(DirRole {
                        substrate,
                        dir,
                        joining: false,
                        petal,
                    }));
                    // The heir is an overlay member (it came from the
                    // directory index), but its own Admission may still
                    // be in flight: ensure the content role exists so
                    // the replacement hint spreads through gossip.
                    let cfg = &self.shared.cfg;
                    let is_new_role = !self.content.contains_key(&website);
                    let cp = self.content.get_or_insert_with(website, || {
                        ContentPeerState::with_cache(
                            website,
                            locality,
                            cfg.v_gossip,
                            self.shared.catalog.objects_per_website(),
                            crate::cache::CacheManager::new(
                                cfg.cache_policy,
                                cfg.cache_capacity.max(1),
                            ),
                        )
                    });
                    cp.set_directory(me);
                    // §5.3: the content role adopts the carried live
                    // count too — the heir's own pushes and instance
                    // pinning must keep honouring the split petal, not
                    // fall back to single-instance routing until the
                    // next admission re-announces it.
                    cp.set_petal_live(inherited_live);
                    cp.seed_view(&members, me);
                    if is_new_role {
                        let g = ctx.rng().gen_range(0..cfg.t_gossip.as_ms().max(1));
                        ctx.set_timer(SimDuration::from_ms(g), timers::GOSSIP, website.0 as u64);
                        let k = ctx.rng().gen_range(0..cfg.keepalive_period.as_ms().max(1));
                        ctx.set_timer(SimDuration::from_ms(k), timers::KEEPALIVE, website.0 as u64);
                    }
                    self.schedule_dir_timers(ctx);
                    // Tell the ring we exist.
                    let role = self.dir_role.as_mut().expect("just installed");
                    let mut t = CtxTransport { ctx };
                    role.substrate.stabilize(&mut t);
                }
                FlowerMsg::Moved { website } => {
                    if let Some(cp) = self.content.get_mut(&website) {
                        cp.forget_peer(from);
                    }
                }
                FlowerMsg::ReplicaOffer { website, objects } => {
                    // §8: pick a member to host each object we lack.
                    let Some(role) = &mut self.dir_role else {
                        return;
                    };
                    if role.dir.website() != website {
                        return;
                    }
                    for (object, holder) in objects {
                        // Skip objects some live member already holds.
                        let already = matches!(
                            role.dir.process(ctx.rng(), object, NodeId(u32::MAX), 0, 0),
                            crate::directory::DirDecision::ToHolder(_)
                        );
                        ctx.metrics().incr(Counter::DirProcess);
                        if already {
                            continue;
                        }
                        let seeded = role.dir.view_seed(1, holder);
                        {
                            let mut m = ctx.metrics();
                            m.incr(Counter::DirViewSeeds);
                            m.record(Hist::DirViewSeedLen, seeded.len() as u64);
                        }
                        if let Some(member) = seeded.first().copied() {
                            ctx.send(
                                member,
                                FlowerMsg::ReplicaInstruct {
                                    website,
                                    object,
                                    holder,
                                },
                            );
                        }
                    }
                }
                FlowerMsg::ReplicaInstruct {
                    website,
                    object,
                    holder,
                } => {
                    let should_pull = self.content.get(&website).is_some_and(|cp| !cp.has(object));
                    if should_pull {
                        ctx.send(holder, FlowerMsg::ReplicaPull { website, object });
                    }
                }
                FlowerMsg::ReplicaPull { website, object } => {
                    let has = self.content.get(&website).is_some_and(|cp| cp.has(object));
                    if has {
                        let size = self.shared.catalog.object_size(object);
                        ctx.send(
                            from,
                            FlowerMsg::ReplicaData {
                                website,
                                object,
                                size,
                            },
                        );
                    }
                }
                FlowerMsg::ReplicaData {
                    website, object, ..
                } => {
                    if let Some(cp) = self.content.get_mut(&website) {
                        cp.insert_object(object);
                    }
                    self.maybe_push(ctx, website);
                }
                FlowerMsg::PetalActivate {
                    website,
                    locality,
                    live,
                } => {
                    let me = ctx.id();
                    let mut repartition = false;
                    if let Some(role) = &mut self.dir_role {
                        if role.dir.website() == website
                            && role.dir.locality() == locality
                            && role.petal.instance != 0
                        {
                            role.petal.live = live;
                            role.petal.active = role.petal.instance < live;
                            // Only the petal primary resizes: its
                            // address is authoritative (it may be a
                            // §5.2 replacement, not the deployed node).
                            role.petal.primary = Some(from);
                            repartition = role.petal.active;
                        }
                    }
                    if repartition {
                        // An already-active sibling may now own fewer
                        // members (the petal grew): hand the moved
                        // ones to their new instances.
                        self.repartition_members(ctx, me, live);
                    }
                }
                FlowerMsg::PetalDeactivate {
                    website,
                    locality,
                    live,
                } => {
                    let me = ctx.id();
                    let mut stand_down = false;
                    if let Some(role) = &mut self.dir_role {
                        if role.dir.website() == website
                            && role.dir.locality() == locality
                            && role.petal.instance != 0
                        {
                            role.petal.live = live;
                            role.petal.active = role.petal.instance < live;
                            role.petal.primary = Some(from);
                            stand_down = !role.petal.active;
                        }
                    }
                    if stand_down {
                        // Re-point every member to its owner under the
                        // shrunk petal, then abandon the index — the
                        // members rebuild their entries by pushing
                        // (§5.2-style), nothing is teleported.
                        self.repartition_members(ctx, me, live);
                        if let Some(role) = &mut self.dir_role {
                            role.dir.install_snapshot(Vec::new());
                        }
                    }
                }
                FlowerMsg::PetalRetire {
                    website,
                    locality,
                    instance,
                } => {
                    let me = ctx.id();
                    let mut shrink_live = None;
                    if let Some(role) = &mut self.dir_role {
                        if role.petal.instance == 0
                            && role.dir.website() == website
                            && role.dir.locality() == locality
                            && instance != 0
                            && (instance as usize) < role.petal.retired.len()
                        {
                            // Gone for good — even a currently dormant
                            // retiree must never be re-activated by a
                            // later split (it has no role to answer
                            // with and, being alive, never bounces).
                            role.petal.retired[instance as usize] = true;
                            if instance < role.petal.live {
                                shrink_live = Some(role.petal.live);
                            }
                        }
                    }
                    if let Some(live) = shrink_live {
                        self.resize_petal(ctx, me, shrunk_below(live, instance));
                    }
                }
                FlowerMsg::PetalLoad {
                    website,
                    locality,
                    instance,
                    queries,
                } => {
                    if let Some(role) = &mut self.dir_role {
                        if role.dir.website() == website
                            && role.dir.locality() == locality
                            && role.petal.instance == 0
                        {
                            if let Some(slot) = role.petal.sibling_loads.get_mut(instance as usize)
                            {
                                *slot = queries;
                            }
                        }
                    }
                }
                FlowerMsg::AdminLeave => {
                    self.voluntary_dir_handoff(ctx);
                }
                FlowerMsg::AdminChangeLocality { to } => {
                    self.change_locality(ctx, to);
                }
            },
            Event::Timer { kind, tag } => match kind {
                timers::GOSSIP => self.on_gossip_timer(ctx, WebsiteId(tag as u16)),
                timers::KEEPALIVE => self.on_keepalive_timer(ctx, WebsiteId(tag as u16)),
                timers::DIR_TICK => {
                    let period = self.shared.cfg.keepalive_period;
                    if let Some(role) = &mut self.dir_role {
                        role.dir.tick();
                        ctx.set_timer(period, timers::DIR_TICK, 0);
                    }
                    // One tick = one §5.3 split/merge policy window.
                    self.petal_policy_tick(ctx);
                }
                timers::STABILIZE => {
                    let period = self.shared.cfg.stabilize_period;
                    if let Some(role) = &mut self.dir_role {
                        let mut t = CtxTransport { ctx };
                        role.substrate.stabilize(&mut t);
                        ctx.set_timer(period, timers::STABILIZE, 0);
                    }
                }
                timers::FIX_FINGER => {
                    let period = self.shared.cfg.fix_finger_period;
                    if let Some(role) = &mut self.dir_role {
                        let mut t = CtxTransport { ctx };
                        role.substrate.fix_finger(&mut t);
                        ctx.set_timer(period, timers::FIX_FINGER, 0);
                    }
                }
                timers::REPLACE_DIR => self.on_replace_dir_timer(ctx, WebsiteId(tag as u16)),
                timers::JOIN_RETRY => self.on_join_retry_timer(ctx, WebsiteId(tag as u16)),
                timers::REPLICATE => self.on_replicate_timer(ctx),
                timers::QUERY_TIMEOUT => self.on_query_timeout(ctx, tag),
                _ => {}
            },
            Event::Undeliverable { to, msg } => self.on_undeliverable(ctx, to, msg),
            Event::NodeUp => {
                // §5: a revived peer rejoins as a new client; volatile
                // state did not survive the crash.
                self.dir_role = None;
                self.content.clear();
                self.pending.clear();
                self.parked_objects.clear();
                self.replacing.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn petal_primary_hint_overrides_the_deployed_node() {
        let deployed = NodeId(10);
        let mut p = PetalState::new(2, 4);
        assert_eq!(
            p.primary_node(deployed),
            deployed,
            "no resize seen yet: fall back to the deployed instance-0 node"
        );
        p.primary = Some(NodeId(77));
        assert_eq!(
            p.primary_node(deployed),
            NodeId(77),
            "the last resize sender is the authoritative primary"
        );
        p.primary = None; // bounce reset
        assert_eq!(p.primary_node(deployed), deployed);
    }
}
