//! The Flower-CDN protocol node: one state machine per underlay node,
//! combining up to three roles:
//!
//! * **directory peer** (§3, module `dir_role`) — a D-ring member: a
//!   Chord position ([`ChordState`], routed with the Algorithm 2
//!   [`DringPolicy`]) and a [`DirectoryState`], processing queries per
//!   Algorithm 3;
//! * **content peer** (§4, `member`) — one [`ContentPeerState`] per
//!   supported website, gossiping, pushing and answering fetches;
//! * **origin server** — the website's web server, the fallback
//!   provider (always has every object of its site).
//!
//! Plus the client behaviour (`client`): submitting queries,
//! collecting served objects, joining overlays, and — per §5 —
//! reacting to redirection failures, directory failures (`replace`:
//! detection, jittered replacement, conflict resolution) and locality
//! changes. §5.3 PetalUp is `petal`; this module holds the state, the
//! dispatch and the shared helpers. [`simnet::Ctx`] is the boundary to
//! the simulator: it buffers the actions and hands out the clock, the
//! RNG and write-only sinks.
//!
//! A node holds protocol state only. What it does is counted once,
//! where the rest of the run is: the paper's query metrics through
//! [`simnet::Ctx::query_stats`], every other fact as a declared
//! registry cell through [`simnet::Ctx::metrics`].

mod client;
mod dir_role;
mod member;
mod petal;
mod replace;

use std::sync::Arc;

use bloom::ObjectId;
use chord::{ChordMsg, ChordState};
use rand::seq::SliceRandom;
use simnet::{Event, Locality, NodeId};
use workload::{Catalog, WebsiteId};

use crate::config::FlowerConfig;
use crate::content::ContentPeerState;
use crate::directory::{DirectoryState, NeighborSummary};
use crate::id::KeyScheme;
use crate::idmap::{IdMap, SmallMap};
use crate::msg::{FlowerMsg, ProviderKind, Query};
use crate::policy::DringPolicy;

pub use petal::PetalState;

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

/// The directory role of a node.
#[derive(Debug)]
pub struct DirRole {
    /// D-ring position and routing state.
    pub ring: ChordState,
    /// The directory itself.
    pub dir: DirectoryState,
    /// True while a §5.2 replacement join is still in flight.
    pub joining: bool,
    /// §5.3 PetalUp instance state.
    pub petal: PetalState,
}

/// A query this node originated and is still waiting on: 24 bytes
/// inline, and nothing on the heap unless a timeout is configured.
#[derive(Debug)]
struct PendingQuery {
    /// Summary candidates already probed (includes bounced peers): the
    /// first `tried_len`.
    tried: [NodeId; SUMMARY_FETCH_RETRIES + 1],
    tried_len: u8,
    /// Timeout-driven re-route attempts made so far.
    retries: u8,
    /// The query itself, kept for timeout-driven re-routing (only
    /// populated when `query_timeout` is configured).
    query: Option<Box<Query>>,
}

impl PendingQuery {
    /// The summary candidates probed so far.
    fn tried(&self) -> &[NodeId] {
        &self.tried[..usize::from(self.tried_len)]
    }

    /// Record a probed candidate; a full list drops it. The local
    /// search reads the list only while it holds at most
    /// `SUMMARY_FETCH_RETRIES` peers, and once full it stays full, so
    /// what a longer list would add is never read.
    fn add_tried(&mut self, peer: NodeId) {
        if let Some(slot) = self.tried.get_mut(usize::from(self.tried_len)) {
            *slot = peer;
            self.tried_len += 1;
        }
    }
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
    /// Parked objects and scheduled replacements; `None` whenever the
    /// node has neither.
    interim: Option<Box<Interim>>,
}

/// Node state that exists only while a join or a §5.2 directory
/// replacement is under way, kept out of line so the other nodes pay
/// one word for it.
#[derive(Debug, Default)]
struct Interim {
    /// Objects served before the admission decision arrived.
    parked_objects: SmallMap<WebsiteId, Vec<ObjectId>>,
    /// Websites for which a replacement attempt is scheduled.
    replacing: SmallMap<WebsiteId, ()>,
}

/// The simulator context every handler of a node runs in.
type Ctx<'a> = simnet::Ctx<'a, FlowerMsg>;

/// Adapter exposing the simulator context as the D-ring's message
/// sink.
struct CtxTransport<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
}

impl chord::Transport<Query> for CtxTransport<'_, '_> {
    fn send_chord(&mut self, to: NodeId, msg: ChordMsg<Query>) {
        self.ctx.send(to, FlowerMsg::Dht(msg));
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
            interim: None,
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
        ring: ChordState,
    ) -> Self {
        let mut n = Self::client(shared);
        n.install_dir_role(ws, loc, instance, ring, false);
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

    /// Does the node hold any join or replacement state — objects
    /// parked for an admission, or a scheduled directory replacement?
    pub fn has_interim_state(&self) -> bool {
        self.interim.is_some()
    }

    /// The join and replacement state, created empty if absent.
    fn interim(&mut self) -> &mut Interim {
        self.interim.get_or_insert_with(Box::default)
    }

    /// Take something out of the join and replacement state with
    /// `take`, and drop that state once it holds nothing.
    fn take_interim<R>(&mut self, take: impl FnOnce(&mut Interim) -> Option<R>) -> Option<R> {
        let interim = self.interim.as_deref_mut()?;
        let taken = take(interim);
        if interim.parked_objects.is_empty() && interim.replacing.is_empty() {
            self.interim = None;
        }
        taken
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
    fn my_locality(&self, ctx: &Ctx<'_>) -> Locality {
        self.locality_override
            .unwrap_or_else(|| ctx.locality(ctx.id()))
    }

    /// Take the directory role of petal `(ws, loc)` instance
    /// `instance` at ring position `ring`, with an empty index.
    fn install_dir_role(
        &mut self,
        ws: WebsiteId,
        loc: Locality,
        instance: u32,
        ring: ChordState,
        joining: bool,
    ) -> &mut DirRole {
        let (cfg, objects) = (&self.shared.cfg, self.shared.catalog.objects_per_website());
        let dir = DirectoryState::new(ws, loc, instance, cfg.max_overlay, cfg.t_dead, objects);
        let petal = PetalState::new(instance, self.shared.scheme.instances() as u32);
        self.dir_role.insert(Box::new(DirRole {
            ring,
            dir,
            joining,
            petal,
        }))
    }

    /// The directory role, if it serves `ws`.
    fn dir_for(&mut self, ws: WebsiteId) -> Option<&mut DirRole> {
        self.dir_role
            .as_deref_mut()
            .filter(|r| r.dir.website() == ws)
    }

    /// Run `op` on this node's D-ring position, with the context as its
    /// message transport and the Algorithm 2 routing policy; `None`
    /// when the node has no position.
    fn ring<R>(
        &mut self,
        ctx: &mut Ctx<'_>,
        op: impl FnOnce(&mut ChordState, &mut CtxTransport<'_, '_>, &DringPolicy) -> R,
    ) -> Option<R> {
        let role = self.dir_role.as_mut()?;
        let policy = DringPolicy::new(self.shared.scheme);
        Some(op(&mut role.ring, &mut CtxTransport { ctx }, &policy))
    }

    /// A random well-known directory peer: the D-ring entry of a
    /// client without a position, and of a §5.2 replacement join.
    fn bootstrap_entry(&self, ctx: &mut Ctx<'_>) -> NodeId {
        *self
            .shared
            .bootstrap_dirs
            .choose(ctx.rng())
            .expect("deployment has at least one bootstrap directory")
    }

    /// Send `query` to its website's origin server, the provider of
    /// last resort (§3.4) whenever the P2P system cannot serve it.
    fn to_origin(&self, ctx: &mut Ctx<'_>, query: Query) {
        let server = self.shared.server_of(query.website);
        ctx.send(server, FlowerMsg::ServerQuery { query });
    }

    /// Drop `peer` from our view of overlay `ws` (it died, or told us
    /// it moved away, §5.4).
    fn forget_peer(&mut self, ws: WebsiteId, peer: NodeId) {
        if let Some(cp) = self.content.get_mut(&ws) {
            cp.forget_peer(peer);
        }
    }

    fn on_recv(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: FlowerMsg) {
        match msg {
            FlowerMsg::Submit {
                qid,
                website,
                object,
            } => self.on_submit(ctx, qid, website, object),
            FlowerMsg::Dht(m) => self.on_dht_msg(ctx, from, m),
            // Algorithm 3 (which also refreshes a client's entry).
            FlowerMsg::ClientQuery { query } | FlowerMsg::SummaryRedirect { query } => {
                self.dir_process_query(ctx, query)
            }
            FlowerMsg::RedirectToHolder { query } | FlowerMsg::PeerFetch { query } => {
                self.serve_or_miss(ctx, from, query)
            }
            FlowerMsg::FetchMiss { query } => self.on_fetch_miss(ctx, from, query),
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
            } => self.on_admission(ctx, website, locality, admitted, dir, petal_live, view_seed),
            FlowerMsg::GossipReq(p) => self.on_gossip_req(ctx, from, p),
            FlowerMsg::GossipResp(p) => self.absorb_gossip(ctx.id(), from, p),
            FlowerMsg::Push {
                website,
                added,
                removed,
            } => self.on_push(ctx, from, website, &added, &removed),
            FlowerMsg::KeepAlive { website } => self.on_keepalive(ctx, from, website),
            FlowerMsg::DirSummary {
                website,
                locality,
                dir_id,
                summary,
            } => {
                let summary = NeighborSummary {
                    dir: from,
                    locality,
                    dir_id,
                    summary,
                };
                self.on_dir_summary(website, summary)
            }
            FlowerMsg::DirHandoff {
                website,
                locality,
                index,
                neighbors,
                live,
            } => self.on_dir_handoff(ctx, website, locality, index, &neighbors, live),
            FlowerMsg::Moved { website } => self.forget_peer(website, from),
            FlowerMsg::PetalActivate {
                website,
                locality,
                live,
            } => self.on_petal_resize(ctx, from, website, locality, live, true),
            FlowerMsg::PetalDeactivate {
                website,
                locality,
                live,
            } => self.on_petal_resize(ctx, from, website, locality, live, false),
            FlowerMsg::PetalRetire {
                website,
                locality,
                instance,
            } => self.on_petal_retire(ctx, website, locality, instance),
            FlowerMsg::PetalLoad {
                website,
                locality,
                instance,
                queries,
            } => self.on_petal_load(website, locality, instance, queries),
            FlowerMsg::AdminLeave => {
                self.voluntary_dir_handoff(ctx);
            }
            FlowerMsg::AdminChangeLocality { to } => self.change_locality(ctx, to),
        }
    }

    fn on_undeliverable(&mut self, ctx: &mut Ctx<'_>, to: NodeId, msg: FlowerMsg) {
        match msg {
            FlowerMsg::Dht(cm) => {
                if let Some(role) = &self.dir_role {
                    // Chord purges the dead peer, re-routes payloads and
                    // lookups around it, and reports a lost join lookup
                    // for retry.
                    let joining = role.joining;
                    let outcome = self.ring(ctx, |st, t, p| {
                        chord::on_undeliverable(st, t, to, cm, joining, p)
                    });
                    self.on_chord_outcome(ctx, outcome.flatten());
                } else if let Some(&query) = cm.app_payload() {
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
                self.to_origin(ctx, query);
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
                self.to_origin(ctx, query);
            }
            FlowerMsg::PeerFetch { query } => {
                self.forget_peer(query.website, to);
                self.continue_local_search(ctx, query, to);
            }
            FlowerMsg::Push { website, .. } | FlowerMsg::KeepAlive { website } => {
                self.on_dir_unreachable(ctx, website, to);
            }
            FlowerMsg::GossipReq(p) | FlowerMsg::GossipResp(p) => self.forget_peer(p.website, to),
            FlowerMsg::PetalLoad { website, .. } => self.on_petal_primary_down(website, to),
            // Every other message is fire-and-forget: its bounce needs
            // no action.
            _ => {}
        }
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

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event<FlowerMsg>) {
        match ev {
            Event::Recv { from, msg } => self.on_recv(ctx, from, msg),
            Event::Timer { kind, tag } => {
                let ws = WebsiteId(tag as u16);
                match kind {
                    timers::GOSSIP => self.on_gossip_timer(ctx, ws),
                    timers::KEEPALIVE => self.on_keepalive_timer(ctx, ws),
                    timers::DIR_TICK => self.on_dir_tick(ctx),
                    timers::STABILIZE | timers::FIX_FINGER => self.on_ring_timer(ctx, kind),
                    timers::REPLACE_DIR => self.on_replace_dir_timer(ctx, ws),
                    timers::JOIN_RETRY => self.on_join_retry_timer(ctx, ws),
                    timers::QUERY_TIMEOUT => self.on_query_timeout(ctx, tag),
                    _ => {}
                }
            }
            Event::Undeliverable { to, msg } => self.on_undeliverable(ctx, to, msg),
            Event::NodeUp => {
                // §5: a revived peer rejoins as a new client; volatile
                // state did not survive the crash.
                self.dir_role = None;
                self.content.clear();
                self.pending.clear();
                self.interim = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{GossipEntry, GossipPayload};
    use crate::FlowerConfig;
    use bloom::ContentSummary;
    use metrics::MetricSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simnet::{Action, Node, QueryStats, SimDuration, SimTime, Topology, TopologyConfig};
    use workload::CatalogConfig;

    /// A pending query is one 32-byte entry of the node's query map.
    #[test]
    fn a_pending_query_entry_fits_half_a_line() {
        assert!(std::mem::size_of::<(u64, PendingQuery)>() <= 32);
    }

    /// One node driven through `Ctx::new`, with no engine behind it.
    struct Driven {
        node: FlowerNode,
        me: NodeId,
        topo: Topology,
        rng: StdRng,
        query_stats: QueryStats,
        metrics: MetricSet,
        out: Vec<Action<FlowerMsg>>,
        now: SimTime,
    }

    impl Driven {
        /// A client at node 3 of a small topology, origin server 7.
        fn client() -> Self {
            let deployment = Arc::new(Deployment {
                cfg: FlowerConfig::fast_test(),
                catalog: Catalog::new(CatalogConfig::small_test()),
                scheme: KeyScheme::new(8, 0),
                servers: vec![NodeId(7), NodeId(7)],
                bootstrap_dirs: vec![NodeId(11)],
                dir_instances: IdMap::default(),
            });
            Driven {
                node: FlowerNode::client(deployment),
                me: NodeId(3),
                topo: Topology::generate(&TopologyConfig::small_test(), 5),
                rng: StdRng::seed_from_u64(42),
                query_stats: QueryStats::new(SimDuration::from_secs(30)),
                metrics: MetricSet::new(),
                out: Vec::new(),
                now: SimTime::from_secs(1),
            }
        }

        /// Deliver `msg` from `from`, and hand back what the node sent.
        fn recv(&mut self, from: NodeId, msg: FlowerMsg) -> Vec<(NodeId, FlowerMsg)> {
            self.now += SimDuration::from_ms(10);
            let mut ctx = Ctx::new(
                self.now,
                self.me,
                &self.topo,
                &mut self.rng,
                &mut self.query_stats,
                &mut self.metrics,
                &mut self.out,
            );
            self.node.on_event(&mut ctx, Event::Recv { from, msg });
            self.out
                .drain(..)
                .filter_map(|a| match a {
                    Action::Send { to, msg } => Some((to, msg)),
                    Action::Timer { .. } => None,
                })
                .collect()
        }
    }

    /// The queries a batch of sends probes a view contact with.
    fn fetches(sent: &[(NodeId, FlowerMsg)]) -> Vec<NodeId> {
        sent.iter()
            .filter(|(_, m)| matches!(m, FlowerMsg::PeerFetch { .. }))
            .map(|&(to, _)| to)
            .collect()
    }

    /// The queries a batch of sends hands to an origin server.
    fn to_origin(sent: &[(NodeId, FlowerMsg)]) -> Vec<Query> {
        sent.iter()
            .filter_map(|(_, m)| match m {
                FlowerMsg::ServerQuery { query } => Some(*query),
                _ => None,
            })
            .collect()
    }

    /// A member whose view has five contacts that all seem to hold the
    /// object probes exactly `SUMMARY_FETCH_RETRIES + 1` of them, the
    /// youngest first, then goes to the origin. A late miss from a
    /// contact it never probed sends the query to the origin again,
    /// and probes nobody. Once served, the node holds no query buffer.
    #[test]
    fn a_member_probes_its_retry_budget_then_the_origin_and_keeps_no_buffer() {
        let mut d = Driven::client();
        let (ws, dir, server) = (WebsiteId(0), NodeId(9), NodeId(7));
        let loc = d.topo.locality(d.me);
        let object = d.node.shared.catalog.object_id(ws, 0);
        d.recv(
            dir,
            FlowerMsg::Admission {
                website: ws,
                locality: loc,
                admitted: true,
                dir,
                petal_live: 1,
                view_seed: vec![],
            },
        );
        let contacts: Vec<NodeId> = (20..25).map(NodeId).collect();
        let holds = |peer: NodeId| GossipEntry {
            peer,
            age: peer.0,
            summary: Some(ContentSummary::from_objects(8, &[object])),
        };
        d.recv(
            NodeId(30),
            FlowerMsg::GossipResp(GossipPayload {
                website: ws,
                locality: loc,
                summary: ContentSummary::empty(8),
                subset: contacts.iter().map(|&p| holds(p)).collect(),
                dir_hint: None,
            }),
        );
        assert_eq!(d.node.pending.capacity(), 0, "no query yet");

        let sent = d.recv(
            d.me,
            FlowerMsg::Submit {
                qid: 1,
                website: ws,
                object,
            },
        );
        let mut probed = fetches(&sent);
        assert_eq!(probed, [contacts[0]]);
        let FlowerMsg::PeerFetch { query } = sent[0].1 else {
            unreachable!()
        };
        let mut origin = vec![];
        // Each miss answers the last probe; a search that never ends
        // stops here after one miss per contact.
        for _ in &contacts {
            if !origin.is_empty() {
                break;
            }
            let missed = *probed.last().unwrap();
            let sent = d.recv(missed, FlowerMsg::FetchMiss { query });
            probed.extend(fetches(&sent));
            origin = to_origin(&sent);
        }
        assert_eq!(probed, contacts[..SUMMARY_FETCH_RETRIES + 1]);
        assert_eq!(origin, [query]);

        let late = d.recv(contacts[4], FlowerMsg::FetchMiss { query });
        assert_eq!(fetches(&late), [], "an exhausted search probes nobody");
        assert_eq!(to_origin(&late), [query], "a late miss goes to the origin");
        assert_eq!(d.node.pending.len(), 1);

        d.recv(
            server,
            FlowerMsg::ServeObject {
                query,
                resolved_at: d.now,
                provider: ProviderKind::OriginServer,
                size: 1,
                view_seed: vec![],
            },
        );
        assert!(d.node.pending.is_empty());
        assert_eq!(d.node.pending.capacity(), 0, "an idle node holds no buffer");
        assert_eq!(d.query_stats.resolved(), 1);
    }

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
