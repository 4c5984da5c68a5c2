//! The directory role: Algorithm 3 and optimistic admission (§3.4),
//! the member traffic it indexes, the §4.2.1 summary broadcast and
//! holder retries, and the §8 replication offers.

use bloom::ObjectId;
use chord::ChordState;
use gossip::PushPolicy;
use metrics::{Counter, Hist};
use simnet::NodeId;
use workload::WebsiteId;

use super::petal::petal_primary;
use super::{
    timers, Ctx, FlowerNode, HOLDER_RETRIES, REPLICATION_TOP_K, SUMMARY_REFRESH_THRESHOLD,
};
use crate::directory::{DirDecision, DirectoryState, NeighborSummary};
use crate::id::{instance_for, KeyScheme};
use crate::msg::{FlowerMsg, Query};

/// Up to `n` members of `dir` other than `exclude` (a view seed), with
/// the call and its length counted.
pub(super) fn counted_view_seed(
    ctx: &mut Ctx<'_>,
    dir: &DirectoryState,
    n: usize,
    exclude: NodeId,
) -> Vec<NodeId> {
    let seed = dir.view_seed(n, exclude);
    let mut m = ctx.metrics();
    m.incr(Counter::DirViewSeeds);
    m.record(Hist::DirViewSeedLen, seed.len() as u64);
    seed
}

/// Send a copy of `msg` to every directory peer of this role's own
/// website that its routing table knows — the neighbourhood §4.2.1
/// summaries and §8 replica offers travel on — in ascending ring-id
/// order.
fn send_to_website_neighbours(
    ctx: &mut Ctx<'_>,
    ring: &ChordState,
    scheme: KeyScheme,
    msg: &FlowerMsg,
) {
    let (me, my_id) = (ctx.id(), ring.id());
    for p in ring.known_peers() {
        if p.node != me && scheme.same_website(p.id, my_id) {
            ctx.send(p.node, msg.clone());
        }
    }
}

impl FlowerNode {
    pub(super) fn dir_process_query(&mut self, ctx: &mut Ctx<'_>, query: Query) {
        let me = ctx.id();
        let Some(role) = self
            .dir_role
            .as_deref_mut()
            .filter(|r| r.dir.website() == query.website)
        else {
            // Not a directory (e.g. we abdicated moments ago), or a
            // cross-website delivery, which can only happen when the
            // whole website block is absent from D-ring: let the
            // origin server handle it (§3.4) rather than dropping it.
            self.to_origin(ctx, query);
            return;
        };
        let local = role.dir.locality() == query.origin_locality;

        // §5.3 PetalUp dispatch. A dormant sibling instance never
        // processes: it relays to the petal primary, the one node that
        // knows the live instance count. The primary re-selects the
        // owning instance as a pure function of (origin id, live set)
        // and hands the query over when it is not instance 0's.
        if !role.petal.active {
            let primary = petal_primary(&self.shared, role);
            ctx.metrics().incr(Counter::DirPetalForwards);
            ctx.send(primary, FlowerMsg::ClientQuery { query });
            return;
        }
        if role.petal.instance == 0 && role.petal.live > 1 && local {
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
        let admits_here = local && !role.dir.contains(query.origin);
        role.dir.note_query();
        // §8 popularity, read only by the replication timer.
        if self.shared.cfg.replication_period.is_some() {
            role.dir.note_request(query.object);
        }
        let max_hops = self.shared.cfg.max_dir_hops;
        let decision = role.dir.process(
            ctx.rng(),
            query.object,
            query.origin,
            max_hops,
            query.dir_hops,
        );
        ctx.metrics().incr(Counter::DirProcess);
        if local {
            let admitted = role.dir.admit_or_refresh(query.origin, query.object);
            if admits_here {
                let view_seed = counted_view_seed(ctx, &role.dir, 8, query.origin);
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
                self.to_origin(ctx, query);
            }
        }
        self.maybe_split_on_load(ctx);
        self.maybe_broadcast_summary(ctx);
    }

    /// A redirected holder was dead or lacked the object: re-run
    /// Algorithm 3 with the retry budget, else fall back to the server
    /// (§5.1: "tries another redirection destination until an
    /// available copy is found").
    pub(super) fn retry_after_holder_failure(&mut self, ctx: &mut Ctx<'_>, query: Query) {
        let mut q = query;
        q.holder_retries += 1;
        if q.holder_retries > HOLDER_RETRIES {
            self.to_origin(ctx, q);
        } else {
            self.dir_process_query(ctx, q);
        }
    }

    pub(super) fn on_fetch_miss(&mut self, ctx: &mut Ctx<'_>, from: NodeId, query: Query) {
        if query.origin == ctx.id() {
            // Our local-search probe missed (summary false positive):
            // continue.
            self.continue_local_search(ctx, query, from);
        } else {
            // We are the directory that redirected to a holder that no
            // longer has the object.
            if let Some(role) = &mut self.dir_role {
                role.dir.apply_push(from, &[], &[query.object]);
            }
            self.retry_after_holder_failure(ctx, query);
        }
    }

    /// §4.2.1: if enough of the index changed, send a refreshed
    /// directory summary to the same-website directory peers we know
    /// through the routing table.
    fn maybe_broadcast_summary(&mut self, ctx: &mut Ctx<'_>) {
        let scheme = self.shared.scheme;
        let Some(role) = &mut self.dir_role else {
            return;
        };
        let Some(summary) = role
            .dir
            .take_summary_refresh(PushPolicy::new(SUMMARY_REFRESH_THRESHOLD))
        else {
            return;
        };
        let msg = FlowerMsg::DirSummary {
            website: role.dir.website(),
            locality: role.dir.locality(),
            dir_id: role.ring.id(),
            summary,
        };
        send_to_website_neighbours(ctx, &role.ring, scheme, &msg);
    }

    /// A member's push (Algorithm 5). A node that is no longer its
    /// directory tells the peer, which re-learns it via gossip.
    pub(super) fn on_push(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        website: WebsiteId,
        added: &[ObjectId],
        removed: &[ObjectId],
    ) {
        match self.dir_for(website) {
            Some(role) => {
                role.dir.apply_push(from, added, removed);
                self.maybe_broadcast_summary(ctx);
            }
            None => ctx.send(from, FlowerMsg::Moved { website }),
        }
    }

    /// A member's keepalive (§5.1), answered like a push.
    pub(super) fn on_keepalive(&mut self, ctx: &mut Ctx<'_>, from: NodeId, website: WebsiteId) {
        match self.dir_for(website) {
            Some(role) => role.dir.keepalive(from),
            None => ctx.send(from, FlowerMsg::Moved { website }),
        }
    }

    /// A neighbour directory's refreshed summary (§4.2.1).
    pub(super) fn on_dir_summary(&mut self, website: WebsiteId, summary: NeighborSummary) {
        if let Some(role) = self.dir_for(website) {
            role.dir.update_neighbor_summary(summary);
        }
    }

    pub(super) fn on_dir_tick(&mut self, ctx: &mut Ctx<'_>) {
        let period = self.shared.cfg.keepalive_period;
        if let Some(role) = &mut self.dir_role {
            role.dir.tick();
            ctx.set_timer(period, timers::DIR_TICK, 0);
        }
        // One tick = one §5.3 split/merge policy window.
        self.petal_policy_tick(ctx);
    }

    /// §8 active replication: offer our hottest objects to the
    /// same-website neighbour directories.
    pub(super) fn on_replicate_timer(&mut self, ctx: &mut Ctx<'_>) {
        let Some(period) = self.shared.cfg.replication_period else {
            return;
        };
        let scheme = self.shared.scheme;
        let Some(role) = &mut self.dir_role else {
            return;
        };
        if !role.joining {
            let hot = role.dir.take_hot_objects(ctx.rng(), REPLICATION_TOP_K);
            if !hot.is_empty() {
                let msg = FlowerMsg::ReplicaOffer {
                    website: role.dir.website(),
                    objects: hot,
                };
                send_to_website_neighbours(ctx, &role.ring, scheme, &msg);
            }
        }
        ctx.set_timer(period, timers::REPLICATE, 0);
    }

    /// §8: pick a member to host each offered object we lack.
    pub(super) fn on_replica_offer(
        &mut self,
        ctx: &mut Ctx<'_>,
        website: WebsiteId,
        objects: Vec<(ObjectId, NodeId)>,
    ) {
        let Some(role) = self.dir_for(website) else {
            return;
        };
        for (object, holder) in objects {
            // Skip objects some live member already holds.
            let already = matches!(
                role.dir.process(ctx.rng(), object, NodeId(u32::MAX), 0, 0),
                DirDecision::ToHolder(_)
            );
            ctx.metrics().incr(Counter::DirProcess);
            if already {
                continue;
            }
            if let Some(&member) = counted_view_seed(ctx, &role.dir, 1, holder).first() {
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
}
