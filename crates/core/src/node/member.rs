//! The content peer (§4, Algorithms 4–6): serving fetches, gossip,
//! pushes and keepalives, and the §8 replica transfers.

use bloom::ObjectId;
use gossip::PushPolicy;
use metrics::{Counter, Hist};
use rand::Rng;
use simnet::{Locality, Message as _, NodeId, SimDuration};
use workload::WebsiteId;

use super::{timers, Ctx, FlowerNode};
use crate::cache::CacheManager;
use crate::content::ContentPeerState;
use crate::id::instance_for;
use crate::msg::{FlowerMsg, GossipPayload, ProviderKind, Query};

/// Build `cp`'s half of a gossip exchange (`half` wraps the payload),
/// recording its size and whether the summary snapshot was reused.
fn gossip_half(
    ctx: &mut Ctx<'_>,
    cp: &mut ContentPeerState,
    l_gossip: usize,
    half: fn(GossipPayload) -> FlowerMsg,
) -> FlowerMsg {
    let cached = cp.summary_is_cached();
    let msg = half(cp.build_gossip(ctx.rng(), l_gossip));
    let mut m = ctx.metrics();
    m.record(Hist::GossipPayloadBytes, msg.wire_size() as u64);
    m.incr(if cached {
        Counter::BloomCowClones
    } else {
        Counter::BloomRebuilds
    });
    msg
}

impl FlowerNode {
    /// The content role for `ws`, created in overlay `loc` if absent,
    /// with periods staggered so overlays do not beat in lock-step.
    pub(super) fn content_role_or_new(
        &mut self,
        ctx: &mut Ctx<'_>,
        ws: WebsiteId,
        loc: Locality,
    ) -> &mut ContentPeerState {
        if !self.content.contains_key(&ws) {
            let cfg = &self.shared.cfg;
            let cache = CacheManager::new(cfg.cache_policy, cfg.cache_capacity.max(1));
            let objects = self.shared.catalog.objects_per_website();
            let cp = ContentPeerState::with_cache(ws, loc, cfg.v_gossip, objects, cache);
            self.content.insert(ws, cp);
            let g = ctx.rng().gen_range(0..cfg.t_gossip.as_ms().max(1));
            ctx.set_timer(SimDuration::from_ms(g), timers::GOSSIP, ws.0 as u64);
            let k = ctx.rng().gen_range(0..cfg.keepalive_period.as_ms().max(1));
            ctx.set_timer(SimDuration::from_ms(k), timers::KEEPALIVE, ws.0 as u64);
        }
        self.content.get_mut(&ws).expect("present or just created")
    }

    /// Serve `query` from this node's cache (content peer) or as the
    /// origin server.
    pub(super) fn serve(&mut self, ctx: &mut Ctx<'_>, query: Query, provider: ProviderKind) {
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

    /// A directory's redirect or a member's probe: serve the object, or
    /// tell the asker we lack it (stale entry, summary false positive).
    pub(super) fn serve_or_miss(&mut self, ctx: &mut Ctx<'_>, from: NodeId, query: Query) {
        if self
            .content
            .get(&query.website)
            .is_some_and(|cp| cp.has(query.object))
        {
            self.serve(ctx, query, ProviderKind::ContentPeer);
        } else {
            ctx.send(from, FlowerMsg::FetchMiss { query });
        }
    }

    pub(super) fn on_gossip_timer(&mut self, ctx: &mut Ctx<'_>, ws: WebsiteId) {
        let l_gossip = self.shared.cfg.l_gossip;
        let t_gossip = self.shared.cfg.t_gossip;
        let Some(cp) = self.content.get_mut(&ws) else {
            return;
        };
        if let Some(target) = cp.gossip_tick() {
            ctx.metrics().incr(Counter::GossipExchanges);
            let msg = gossip_half(ctx, cp, l_gossip, FlowerMsg::GossipReq);
            ctx.send(target, msg);
        }
        ctx.set_timer(t_gossip, timers::GOSSIP, ws.0 as u64);
    }

    pub(super) fn on_gossip_req(&mut self, ctx: &mut Ctx<'_>, from: NodeId, p: GossipPayload) {
        let ws = p.website;
        let l_gossip = self.shared.cfg.l_gossip;
        match self.content.get_mut(&ws) {
            // Overlays are scoped by (website, locality): only
            // same-overlay exchanges are answered.
            Some(cp) if cp.locality() == p.locality => {
                let reply = gossip_half(ctx, cp, l_gossip, FlowerMsg::GossipResp);
                ctx.send(from, reply);
                self.absorb_gossip(ctx.id(), from, p);
            }
            // We are not (any more) in this overlay: §5.4 — the
            // contact should forget us.
            _ => ctx.send(from, FlowerMsg::Moved { website: ws }),
        }
    }

    /// Take in a same-overlay gossip payload (Algorithm 4), then
    /// repair the directory pointer its hints may have bent.
    pub(super) fn absorb_gossip(&mut self, me: NodeId, from: NodeId, payload: GossipPayload) {
        let ws = payload.website;
        let t_dead = self.shared.cfg.t_dead;
        let Some(cp) = self.content.get_mut(&ws) else {
            return;
        };
        if cp.locality() != payload.locality {
            return;
        }
        cp.absorb_gossip(me, from, payload, t_dead);
        self.pin_own_directory(me, ws);
        self.pin_petal_directory(me, ws);
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

    /// Invariant repair for members of a split §5.3 petal: gossip
    /// hints point at whatever directory the sender believes in, which
    /// in a multi-instance petal is frequently a *sibling* instance. A
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

    pub(super) fn maybe_push(&mut self, ctx: &mut Ctx<'_>, ws: WebsiteId) {
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

    pub(super) fn on_keepalive_timer(&mut self, ctx: &mut Ctx<'_>, ws: WebsiteId) {
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

    /// §8: our directory asks us to host `object`, held by `holder`.
    pub(super) fn on_replica_instruct(
        &mut self,
        ctx: &mut Ctx<'_>,
        website: WebsiteId,
        object: ObjectId,
        holder: NodeId,
    ) {
        if self.content.get(&website).is_some_and(|cp| !cp.has(object)) {
            ctx.send(holder, FlowerMsg::ReplicaPull { website, object });
        }
    }

    /// §8: a new replica host asks us for `object`.
    pub(super) fn on_replica_pull(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        ws: WebsiteId,
        object: ObjectId,
    ) {
        if self.content.get(&ws).is_some_and(|cp| cp.has(object)) {
            let size = self.shared.catalog.object_size(object);
            ctx.send(
                from,
                FlowerMsg::ReplicaData {
                    website: ws,
                    object,
                    size,
                },
            );
        }
    }

    /// §8: the replica arrived; it is pushed like any fetched object.
    pub(super) fn on_replica_data(&mut self, ctx: &mut Ctx<'_>, ws: WebsiteId, object: ObjectId) {
        if let Some(cp) = self.content.get_mut(&ws) {
            cp.insert_object(object);
        }
        self.maybe_push(ctx, ws);
    }
}
