//! The directory role: Algorithm 3 and optimistic admission (§3.4),
//! the member traffic it indexes, the §4.2.1 summary broadcast and
//! holder retries.

use bloom::ObjectId;
use gossip::PushPolicy;
use metrics::{Counter, Hist};
use simnet::NodeId;
use workload::WebsiteId;

use super::petal::petal_primary;
use super::{timers, Ctx, FlowerNode, HOLDER_RETRIES, SUMMARY_REFRESH_THRESHOLD};
use crate::directory::{DirDecision, DirectoryState, NeighborSummary};
use crate::id::instance_for;
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
    /// through the routing table, in ascending ring-id order.
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
        let (me, my_id) = (ctx.id(), role.ring.id());
        let msg = FlowerMsg::DirSummary {
            website: role.dir.website(),
            locality: role.dir.locality(),
            dir_id: my_id,
            summary,
        };
        for p in role.ring.known_peers() {
            if p.node != me && scheme.same_website(p.id, my_id) {
                ctx.send(p.node, msg.clone());
            }
        }
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
}
