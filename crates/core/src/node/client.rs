//! The client: query origination (§3.4: submit, D-ring entry, served
//! objects, admission), §5.1 timeouts and re-routes, the content
//! peer's local search, and the §5.4 locality change.

use bloom::ObjectId;
use chord::{ChordMsg, RoutePayload};
use metrics::Counter;
use simnet::stats::ServedBy;
use simnet::{Locality, NodeId, SimDuration, SimTime};
use workload::WebsiteId;

use super::{timers, Ctx, FlowerNode, PendingQuery, SUMMARY_FETCH_RETRIES};
use crate::id::instance_for;
use crate::msg::{FlowerMsg, ProviderKind, Query};

impl FlowerNode {
    /// §5.4: the peer detects it moved to another locality. All
    /// content roles are dropped (contacts learn via `Moved` replies);
    /// held objects are parked so the rejoin pushes them to the new
    /// directory. A directory role is handed off first.
    pub fn change_locality(&mut self, ctx: &mut Ctx<'_>, new: Locality) {
        if self.is_directory() {
            self.voluntary_dir_handoff(ctx);
        }
        self.locality_override = Some(new);
        let mut websites: Vec<WebsiteId> = self.content.keys().copied().collect();
        websites.sort_unstable();
        for ws in websites {
            if let Some(cp) = self.content.remove(&ws) {
                let parked = self
                    .interim()
                    .parked_objects
                    .get_or_insert_with(ws, Vec::new);
                parked.extend(cp.objects());
                // The rejoin re-inserts them in this order, which a
                // bounded cache's clock and the next ∆list record:
                // `ObjectId` order, as `mark_all_dirty` uses, not the
                // content set's.
                parked.sort_unstable();
            }
        }
    }

    pub(super) fn on_submit(
        &mut self,
        ctx: &mut Ctx<'_>,
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

        if let Some(cp) = self.content.get_mut(&ws) {
            // Content-peer path (§3.4: subsequent queries bypass D-ring).
            if cp.has(object) {
                // Served from the local cache: no lookup, no transfer.
                cp.touch_object(object);
                let now = ctx.now();
                ctx.query_stats()
                    .on_resolved(now, me, 0, 0, ServedBy::OwnCache);
                return;
            }
            if let Some(target) = cp.summary_candidates(object, &[]) {
                self.track_pending(ctx, query, Some(target));
                ctx.send(target, FlowerMsg::PeerFetch { query });
                return;
            }
            // §3.4: members use the content overlay *instead of* the
            // D-ring; with no summary match the query leaves the P2P
            // system.
            self.track_pending(ctx, query, None);
            self.to_origin(ctx, query);
            return;
        }

        // New-client path: route through the D-ring (§3.4).
        self.track_pending(ctx, query, None);
        self.route_via_dring(ctx, query);
    }

    /// Register `query` in the pending map, with the summary
    /// candidate `probed` first, if any, and arm its timeout (when
    /// configured).
    fn track_pending(&mut self, ctx: &mut Ctx<'_>, query: Query, probed: Option<NodeId>) {
        let mut p = PendingQuery {
            tried: [NodeId(0); SUMMARY_FETCH_RETRIES + 1],
            tried_len: 0,
            retries: 0,
            query: self.shared.cfg.query_timeout.map(|_| Box::new(query)),
        };
        if let Some(peer) = probed {
            p.add_tried(peer);
        }
        self.pending.insert(query.id, p);
        self.arm_query_timeout(ctx, query.id, 0);
    }

    /// Arm the pending-query timeout for attempt number `retries`
    /// (exponential backoff: the base timeout doubles per attempt).
    /// A no-op when `query_timeout` is `None` — the paper's base
    /// system, which relies purely on synchronous bounces.
    fn arm_query_timeout(&mut self, ctx: &mut Ctx<'_>, qid: u64, retries: u8) {
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
    pub(super) fn on_query_timeout(&mut self, ctx: &mut Ctx<'_>, qid: u64) {
        let Some(p) = self.pending.get_mut(&qid) else {
            // Resolved in the meantime: the timer outlived the query.
            return;
        };
        let Some(query) = p.query.as_deref().copied() else {
            return;
        };
        p.retries += 1;
        let retries = p.retries;
        ctx.metrics().incr(Counter::DirQueryTimeouts);
        // Past the retry budget: graceful degradation. Counted as a
        // miss by the hit-ratio series, but the user is served —
        // availability over locality.
        let retry = retries <= self.shared.cfg.query_retry_budget;
        ctx.metrics().incr(if retry {
            Counter::DirQueryRetries
        } else {
            Counter::DirQueryOriginFallbacks
        });
        self.arm_query_timeout(ctx, qid, retries);
        if retry {
            self.reroute_query(ctx, query, retries);
        } else {
            self.to_origin(ctx, query);
        }
    }

    /// Timeout-driven re-route of attempt `attempt`: with §5.3
    /// instance bits the query walks to the *next* sibling petal
    /// instance (a deterministic rotation from the client's
    /// hash-assigned one); on the flat D-ring it re-enters through a
    /// freshly drawn bootstrap directory.
    fn reroute_query(&mut self, ctx: &mut Ctx<'_>, query: Query, attempt: u8) {
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
    pub(super) fn route_via_dring(&mut self, ctx: &mut Ctx<'_>, query: Query) {
        let instance = instance_for(query.origin, self.shared.scheme.instances() as u32);
        self.route_via_dring_instance(ctx, query, instance);
    }

    /// As [`FlowerNode::route_via_dring`], but toward an explicit
    /// petal instance (timeout re-routes rotate through siblings).
    fn route_via_dring_instance(&mut self, ctx: &mut Ctx<'_>, query: Query, instance: u32) {
        let scheme = self.shared.scheme;
        let key = scheme.key_with_instance(query.website, query.origin_locality, instance);
        // If we are ourselves on the D-ring (and fully joined), route
        // from here; a node mid-join has no usable routing state yet.
        if self.is_directory() {
            let outcome = self.ring(ctx, |st, t, p| chord::start_route(st, t, key, query, p));
            self.on_chord_outcome(ctx, outcome.flatten());
        } else {
            // Otherwise enter through a random well-known directory peer.
            let entry = self.bootstrap_entry(ctx);
            let route = ChordMsg::Route {
                key,
                hops: 0,
                payload: RoutePayload::App(query),
            };
            ctx.send(entry, FlowerMsg::Dht(route));
        }
    }

    pub(super) fn on_serve_object(
        &mut self,
        ctx: &mut Ctx<'_>,
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
        let from_origin = provider == ProviderKind::OriginServer;
        let served_by = ServedBy::of(from_origin, ctx.locality(from), self.my_locality(ctx));
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
                .interim()
                .parked_objects
                .get_or_insert_with(query.website, Vec::new);
            if !parked.contains(&query.object) {
                parked.push(query.object);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_admission(
        &mut self,
        ctx: &mut Ctx<'_>,
        ws: WebsiteId,
        locality: Locality,
        admitted: bool,
        dir: NodeId,
        petal_live: u32,
        view_seed: Vec<NodeId>,
    ) {
        if !admitted {
            self.take_interim(|i| i.parked_objects.remove(&ws));
            return;
        }
        let me = ctx.id();
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
        if !self.content.contains_key(&ws) {
            // One sample per join: accumulated over time this is
            // the participant count of Figure 5.
            let now = ctx.now();
            ctx.query_stats().on_join(now);
        }
        let parked = self.take_interim(|i| i.parked_objects.remove(&ws));
        let cp = self.content_role_or_new(ctx, ws, locality);
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
        for o in parked.into_iter().flatten() {
            cp.insert_object(o);
        }
        self.maybe_push(ctx, ws);
    }

    /// Continue the content-peer local search after a failed probe.
    pub(super) fn continue_local_search(
        &mut self,
        ctx: &mut Ctx<'_>,
        query: Query,
        failed: NodeId,
    ) {
        let Some(p) = self.pending.get_mut(&query.id) else {
            return;
        };
        if !p.tried().contains(&failed) {
            p.add_tried(failed);
        }
        let Some(cp) = self.content.get(&query.website) else {
            return;
        };
        if p.tried().len() <= SUMMARY_FETCH_RETRIES {
            if let Some(next) = cp.summary_candidates(query.object, p.tried()) {
                p.add_tried(next);
                ctx.send(next, FlowerMsg::PeerFetch { query });
                return;
            }
        }
        // Overlay exhausted: §3.4 sends the query to the origin
        // server.
        self.to_origin(ctx, query);
    }
}
