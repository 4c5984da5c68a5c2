//! The Squirrel peer (directory variant, Iyer et al. PODC 2002),
//! as the Flower-CDN paper describes its comparator (§6.1, §7):
//!
//! * all participants form **one** DHT (Chord here) with uniformly
//!   hashed node ids — no locality, no interest clustering;
//! * for each object, the peer whose id is closest to `hash(url)` is
//!   the object's **home node**, storing "a small directory of
//!   pointers to recent downloaders of the object";
//! * *every* query (after a local cache miss) "navigates through the
//!   DHT and then receives a pointer to a peer that potentially has
//!   the object"; stale pointers fall back to further candidates and
//!   finally the origin web server.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bloom::ObjectId;
use chord::{ChordMsg, ChordOutcome, ChordState, StandardPolicy, Transport};
use simnet::stats::ServedBy;
use simnet::{Ctx, Event, NodeId, SimTime};
use workload::{Catalog, WebsiteId};

use crate::msg::{SQuery, SquirrelMsg};

/// Max pointers a home node keeps per object ("a small directory of
/// pointers to *recent* downloaders").
const POINTER_CAP: usize = 4;
/// How many stale pointers the origin tries before the server.
const FETCH_RETRIES: usize = 3;

/// Deployment-wide shared knowledge.
#[derive(Debug)]
pub struct SquirrelDeployment {
    /// The website/object universe.
    pub catalog: Catalog,
    /// Origin server node per website.
    pub servers: Vec<NodeId>,
}

impl SquirrelDeployment {
    /// The origin server of `ws`.
    pub fn server_of(&self, ws: WebsiteId) -> NodeId {
        self.servers[ws.idx()]
    }
}

/// A pending query at its origin.
#[derive(Debug, Clone)]
struct Pending {
    query: SQuery,
    candidates: Vec<NodeId>,
    next: usize,
}

/// Per-node Squirrel state machine.
pub struct SquirrelNode {
    shared: Arc<SquirrelDeployment>,
    /// Ring state (participants only; servers stay outside the DHT).
    chord: Option<ChordState>,
    /// The local web cache.
    cache: HashSet<ObjectId>,
    /// Home-node directory: object → recent downloaders (most recent
    /// last).
    home: HashMap<ObjectId, Vec<NodeId>>,
    /// Queries we originated, awaiting resolution.
    pending: HashMap<u64, Pending>,
    /// Which website this node serves as origin server.
    server_for: Option<WebsiteId>,
}

struct CtxTransport<'a, 'b> {
    ctx: &'a mut Ctx<'b, SquirrelMsg>,
}

impl Transport<SQuery> for CtxTransport<'_, '_> {
    fn send_chord(&mut self, to: NodeId, msg: ChordMsg<SQuery>) {
        self.ctx.send(to, SquirrelMsg::Chord(msg));
    }
}

impl SquirrelNode {
    /// A non-participant (not in the ring; servers and idle nodes).
    pub fn bystander(shared: Arc<SquirrelDeployment>) -> Self {
        SquirrelNode {
            shared,
            chord: None,
            cache: HashSet::new(),
            home: HashMap::new(),
            pending: HashMap::new(),
            server_for: None,
        }
    }

    /// An origin-server node.
    pub fn server(shared: Arc<SquirrelDeployment>, ws: WebsiteId) -> Self {
        let mut n = Self::bystander(shared);
        n.server_for = Some(ws);
        n
    }

    /// A ring participant with a pre-installed stable Chord state.
    pub fn participant(shared: Arc<SquirrelDeployment>, chord: ChordState) -> Self {
        let mut n = Self::bystander(shared);
        n.chord = Some(chord);
        n
    }

    /// Is this node in the DHT?
    pub fn is_participant(&self) -> bool {
        self.chord.is_some()
    }

    /// Number of objects this node is home for.
    pub fn home_entries(&self) -> usize {
        self.home.len()
    }

    fn on_submit(
        &mut self,
        ctx: &mut Ctx<'_, SquirrelMsg>,
        qid: u64,
        ws: WebsiteId,
        object: ObjectId,
    ) {
        ctx.query_stats().on_submit();
        let me = ctx.id();
        let query = SQuery {
            id: qid,
            origin: me,
            origin_locality: ctx.locality(me),
            website: ws,
            object,
            submitted_at: ctx.now(),
        };
        // Local cache first (the Squirrel proxy model).
        if self.cache.contains(&object) {
            let now = ctx.now();
            ctx.query_stats()
                .on_resolved(now, me, 0, 0, ServedBy::OwnCache);
            return;
        }
        self.pending.insert(
            qid,
            Pending {
                query,
                candidates: Vec::new(),
                next: 0,
            },
        );
        // Route to the object's home node through the DHT.
        let key = chord::ChordId(object.key());
        let Some(chord_st) = &mut self.chord else {
            // Not a DHT member (shouldn't originate queries, but stay
            // robust): straight to the server.
            ctx.send(
                self.shared.server_of(ws),
                SquirrelMsg::ServerQuery { query },
            );
            return;
        };
        let mut t = CtxTransport { ctx };
        if let Some(outcome) = chord::start_route(chord_st, &mut t, key, query, &StandardPolicy) {
            self.on_chord_outcome(ctx, outcome);
        }
    }

    /// Home-node processing: answer with the pointer list and
    /// optimistically record the requester as a recent downloader.
    fn home_process(&mut self, ctx: &mut Ctx<'_, SquirrelMsg>, query: SQuery) {
        let me = ctx.id();
        // A home that caches the object itself serves it.
        if self.cache.contains(&query.object) {
            self.serve_from_cache(ctx, query);
            return;
        }
        let entry = self.home.entry(query.object).or_default();
        // Most recent downloaders first, excluding the requester.
        let candidates: Vec<NodeId> = entry
            .iter()
            .rev()
            .filter(|n| **n != query.origin && **n != me)
            .copied()
            .collect();
        // Optimistic record (the requester is about to download it).
        entry.retain(|n| *n != query.origin);
        entry.push(query.origin);
        let len = entry.len();
        if len > POINTER_CAP {
            entry.drain(0..len - POINTER_CAP);
        }
        ctx.send(query.origin, SquirrelMsg::Pointers { query, candidates });
    }

    fn serve_from_cache(&mut self, ctx: &mut Ctx<'_, SquirrelMsg>, query: SQuery) {
        let size = self.shared.catalog.object_size(query.object);
        let now = ctx.now();
        ctx.send(
            query.origin,
            SquirrelMsg::ServeObject {
                query,
                resolved_at: now,
                from_server: false,
                size,
            },
        );
    }

    /// Try the next pointer candidate, else the origin server.
    fn try_next_candidate(&mut self, ctx: &mut Ctx<'_, SquirrelMsg>, qid: u64) {
        let Some(p) = self.pending.get_mut(&qid) else {
            return;
        };
        let query = p.query;
        if p.next < p.candidates.len() && p.next < FETCH_RETRIES {
            let target = p.candidates[p.next];
            p.next += 1;
            ctx.send(target, SquirrelMsg::Fetch { query });
            return;
        }
        ctx.send(
            self.shared.server_of(query.website),
            SquirrelMsg::ServerQuery { query },
        );
    }

    fn on_resolved(
        &mut self,
        ctx: &mut Ctx<'_, SquirrelMsg>,
        from: NodeId,
        query: SQuery,
        resolved_at: SimTime,
        from_server: bool,
    ) {
        if self.pending.remove(&query.id).is_none() {
            return;
        }
        let me = ctx.id();
        let lookup_ms = resolved_at.since(query.submitted_at).as_ms();
        let transfer_ms = ctx.latency_ms(me, from);
        // A peer of the same locality is one by chance — Squirrel does
        // not aim for it, but the metric records it for Figure 8.
        let served_by = ServedBy::of(from_server, ctx.locality(from), ctx.locality(me));
        let now = ctx.now();
        ctx.query_stats()
            .on_resolved(now, me, lookup_ms, transfer_ms, served_by);
        self.cache.insert(query.object);
    }

    fn on_chord_outcome(&mut self, ctx: &mut Ctx<'_, SquirrelMsg>, outcome: ChordOutcome<SQuery>) {
        match outcome {
            ChordOutcome::Deliver { payload, .. } => self.home_process(ctx, payload),
            ChordOutcome::JoinComplete | ChordOutcome::JoinLost => {}
        }
    }
}

impl simnet::Node<SquirrelMsg> for SquirrelNode {
    fn on_event(&mut self, ctx: &mut Ctx<'_, SquirrelMsg>, ev: Event<SquirrelMsg>) {
        match ev {
            Event::Recv { from, msg } => match msg {
                SquirrelMsg::Submit {
                    qid,
                    website,
                    object,
                } => self.on_submit(ctx, qid, website, object),
                SquirrelMsg::Chord(cm) => {
                    let Some(chord_st) = &mut self.chord else {
                        return;
                    };
                    let mut t = CtxTransport { ctx };
                    let outcome = chord::handle(chord_st, &mut t, from, cm, &StandardPolicy);
                    if let Some(outcome) = outcome {
                        self.on_chord_outcome(ctx, outcome);
                    }
                }
                SquirrelMsg::Pointers { query, candidates } => {
                    if let Some(p) = self.pending.get_mut(&query.id) {
                        p.candidates = candidates;
                        p.next = 0;
                        self.try_next_candidate(ctx, query.id);
                    }
                }
                SquirrelMsg::Fetch { query } => {
                    if self.cache.contains(&query.object) {
                        self.serve_from_cache(ctx, query);
                    } else {
                        ctx.send(from, SquirrelMsg::FetchMiss { query });
                    }
                }
                SquirrelMsg::FetchMiss { query } => {
                    self.try_next_candidate(ctx, query.id);
                }
                SquirrelMsg::ServerQuery { query } => {
                    debug_assert_eq!(self.server_for, Some(query.website));
                    let size = self.shared.catalog.object_size(query.object);
                    let now = ctx.now();
                    ctx.send(
                        query.origin,
                        SquirrelMsg::ServeObject {
                            query,
                            resolved_at: now,
                            from_server: true,
                            size,
                        },
                    );
                }
                SquirrelMsg::ServeObject {
                    query,
                    resolved_at,
                    from_server,
                    ..
                } => self.on_resolved(ctx, from, query, resolved_at, from_server),
            },
            Event::Undeliverable { to, msg } => match msg {
                SquirrelMsg::Chord(cm) => {
                    let Some(chord_st) = &mut self.chord else {
                        return;
                    };
                    // Purge the dead hop and re-route around it; the
                    // ring starts stable, so no node is ever joining.
                    let mut t = CtxTransport { ctx };
                    let outcome =
                        chord::on_undeliverable(chord_st, &mut t, to, cm, false, &StandardPolicy);
                    if let Some(outcome) = outcome {
                        self.on_chord_outcome(ctx, outcome);
                    }
                }
                SquirrelMsg::Fetch { query } => self.try_next_candidate(ctx, query.id),
                SquirrelMsg::Pointers { query, .. } => {
                    // The requester vanished; drop our optimistic pointer.
                    if let Some(list) = self.home.get_mut(&query.object) {
                        list.retain(|n| *n != to);
                    }
                }
                _ => {}
            },
            Event::NodeUp => {
                self.cache.clear();
                self.home.clear();
                self.pending.clear();
            }
            // No Squirrel timer is ever armed: the ring starts stable.
            _ => {}
        }
    }
}
