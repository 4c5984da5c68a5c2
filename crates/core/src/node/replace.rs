//! §5.2 directory replacement: the voluntary hand-off and its heir,
//! the unreachable directory, the jittered replacement join with its
//! watchdog, position conflicts, and the D-ring plumbing every
//! directory role runs on.

use chord::{ChordConfig, ChordMsg, ChordOutcome, ChordState, PeerRef};
use metrics::Counter;
use rand::Rng;
use simnet::{Locality, NodeId, SimDuration};
use workload::WebsiteId;

use super::dir_role::counted_view_seed;
use super::petal::petal_primary;
use super::{timers, Ctx, CtxTransport, FlowerNode};
use crate::msg::{FlowerMsg, IndexSnapshotEntry, Query};
use crate::policy::DringPolicy;

impl FlowerNode {
    /// §5.2 voluntary leave: pick the youngest (most recently alive)
    /// index entry and transfer the directory to it.
    pub fn voluntary_dir_handoff(&mut self, ctx: &mut Ctx<'_>) -> Option<NodeId> {
        let instance = self.dir_role.as_ref()?.petal.instance;
        let me = ctx.id();
        if instance != 0 {
            // A §5.3 sibling instance has no hand-off protocol: it
            // returns its members to the petal primary (Admission
            // under live = 1; the primary re-admits and the next
            // split redistributes them) and tells the primary to
            // shrink the petal so forwards stop flowing here — the
            // node stays alive, so nothing would ever bounce.
            self.repartition_members(ctx, me, 1);
            let role = self.dir_role.take().expect("checked above");
            ctx.send(
                petal_primary(&self.shared, &role),
                FlowerMsg::PetalRetire {
                    website: role.dir.website(),
                    locality: role.dir.locality(),
                    instance,
                },
            );
            return None;
        }
        let role = self.dir_role.take().expect("checked above");
        // With nobody to hand off to, the directory simply disappears
        // and §5.2 crash recovery will eventually elect a peer.
        let target = *counted_view_seed(ctx, &role.dir, 1, me).first()?;
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
                neighbors: role.ring.handoff_neighbors(),
                live: role.petal.live,
            },
        );
        // A leaver that is itself a member (a §5.2 winner or an
        // earlier heir) follows the directory to its heir.
        if let Some(cp) = self.content.get_mut(&role.dir.website()) {
            if cp.directory() == Some(me) {
                cp.set_directory(target);
            }
        }
        Some(target)
    }

    /// §5.2 voluntary hand-off, the heir's side: assume the departing
    /// directory's identity and state.
    pub(super) fn on_dir_handoff(
        &mut self,
        ctx: &mut Ctx<'_>,
        website: WebsiteId,
        locality: Locality,
        index: Vec<IndexSnapshotEntry>,
        neighbors: &[PeerRef],
        live: u32,
    ) {
        let me = ctx.id();
        let scheme = self.shared.scheme;
        let key = scheme.key(website, locality);
        let me_ref = PeerRef { id: key, node: me };
        let ring = ChordState::from_handoff(me_ref, neighbors, ChordConfig::default());
        let members: Vec<NodeId> = index.iter().map(|e| e.peer).filter(|p| *p != me).collect();
        let role = self.install_dir_role(website, locality, 0, ring, false);
        role.dir.install_snapshot(
            index
                .into_iter()
                .map(|e| (e.peer, e.age, e.objects))
                .collect(),
        );
        // §5.2 + §5.3: the departing primary's petal keeps running —
        // the heir inherits the live-instance count instead of
        // restarting at 1, which would orphan the active siblings
        // (they keep serving and reporting load, but nothing would
        // ever route to them or shrink them again).
        role.petal.live = live.clamp(1, scheme.instances() as u32);
        let inherited_live = role.petal.live;
        // The heir is an overlay member (it came from the directory
        // index), but its own Admission may still be in flight: ensure
        // the content role exists so the replacement hint spreads
        // through gossip.
        let cp = self.content_role_or_new(ctx, website, locality);
        cp.set_directory(me);
        // §5.3: the content role adopts the carried live count too —
        // the heir's own pushes and instance pinning must keep
        // honouring the split petal, not fall back to single-instance
        // routing until the next admission re-announces it.
        cp.set_petal_live(inherited_live);
        cp.seed_view(&members, me);
        self.schedule_dir_timers(ctx);
        // Tell the ring we exist.
        self.ring(ctx, |st, t, _| chord::start_stabilize(st, t));
    }

    /// A message to our directory bounced: forget it and schedule a
    /// jittered replacement attempt.
    pub(super) fn on_dir_unreachable(&mut self, ctx: &mut Ctx<'_>, ws: WebsiteId, dead: NodeId) {
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
            if self.interim().replacing.insert(ws, ()).is_none() {
                let j = ctx.rng().gen_range(0..jitter_ms);
                ctx.set_timer(SimDuration::from_ms(j), timers::REPLACE_DIR, ws.0 as u64);
            }
        }
    }

    pub(super) fn on_replace_dir_timer(&mut self, ctx: &mut Ctx<'_>, ws: WebsiteId) {
        self.take_interim(|i| i.replacing.remove(&ws));
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
        let ring = ChordState::new(PeerRef { id: key, node: me }, ChordConfig::default());
        // A §5.2 replacement assumes the petal-primary position; any
        // sibling instances re-attach through the bounce/merge path.
        self.install_dir_role(ws, loc, 0, ring, true);
        // The first attempt is the watchdog's: no winner is known yet
        // (our content role names no directory).
        self.on_join_retry_timer(ctx, ws);
    }

    /// The §5.2 join watchdog fired: stand down if a winner became
    /// known through gossip, otherwise (re)try the join and re-arm.
    pub(super) fn on_join_retry_timer(&mut self, ctx: &mut Ctx<'_>, ws: WebsiteId) {
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
            self.stand_down(ctx, ws, winner);
            return;
        }
        self.join_dring(ctx);
        // Lookups can be lost while the ring is healing around the
        // dead directory; retry until we win or learn of a winner.
        let watchdog = self.shared.cfg.keepalive_period.mul(2);
        ctx.set_timer(watchdog, timers::JOIN_RETRY, ws.0 as u64);
    }

    /// Join the D-ring through a random bootstrap entry.
    fn join_dring(&mut self, ctx: &mut Ctx<'_>) {
        let entry = self.bootstrap_entry(ctx);
        self.ring(ctx, |st, t, _| chord::start_join(st, t, entry));
    }

    /// §5.2: another node holds our D-ring position. Give up the
    /// directory role and adopt `winner` as the overlay's directory.
    fn stand_down(&mut self, ctx: &mut Ctx<'_>, ws: WebsiteId, winner: NodeId) {
        ctx.metrics().incr(Counter::DirReplacementsLost);
        self.dir_role = None;
        if let Some(cp) = self.content.get_mut(&ws) {
            cp.set_directory(winner);
        }
    }

    /// The §5.2 join completed: either we own the position now, or
    /// someone else took it first and we abdicate.
    fn on_join_complete(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        let Some(role) = &mut self.dir_role else {
            return;
        };
        if !role.joining {
            return;
        }
        let ws = role.dir.website();
        if let Some(winner) = role.ring.position_taken_by() {
            // Position already appropriated (§5.2): adopt the winner
            // as our directory and stand down.
            self.stand_down(ctx, ws, winner);
            return;
        }
        role.joining = false;
        ctx.metrics().incr(Counter::DirReplacementsWon);
        // Seed the new directory from our gossip view: members and
        // their summaries ("answers first queries from its content
        // summaries").
        if let Some(cp) = self.content.get_mut(&ws) {
            let view = cp.view().iter().map(|e| (e.peer, e.data.as_ref()));
            role.dir.seed_from_view(view);
            // Index ourselves with our own content.
            for o in cp.objects() {
                role.dir.admit_or_refresh(me, o);
            }
            cp.set_directory(me);
        }
        self.schedule_dir_timers(ctx);
    }

    /// Arm the periodic directory-side timers.
    fn schedule_dir_timers(&mut self, ctx: &mut Ctx<'_>) {
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

    /// A D-ring maintenance period elapsed (`STABILIZE`: neighbours,
    /// `FIX_FINGER`: one routing entry): run it and re-arm.
    pub(super) fn on_ring_timer(&mut self, ctx: &mut Ctx<'_>, kind: u16) {
        let cfg = &self.shared.cfg;
        let (period, op): (
            SimDuration,
            fn(&mut ChordState, &mut CtxTransport<'_, '_>, &DringPolicy),
        ) = match kind {
            timers::STABILIZE => (cfg.stabilize_period, |st, t, _| {
                chord::start_stabilize(st, t)
            }),
            _ => (cfg.fix_finger_period, |st, t, p| {
                chord::start_fix_finger(st, t, p)
            }),
        };
        if self.ring(ctx, op).is_some() {
            ctx.set_timer(period, kind, 0);
        }
    }

    /// Conflict resolution for duplicate D-ring positions (two §5.2
    /// replacements racing): the lower node id stays, the other
    /// abdicates. Returns true if we abdicated.
    fn resolve_position_conflict(&mut self, ctx: &mut Ctx<'_>, other: PeerRef) -> bool {
        let me = ctx.id();
        let Some(role) = &self.dir_role else {
            return false;
        };
        if other.id != role.ring.id() || other.node == me {
            return false;
        }
        if me.0 < other.node.0 {
            return false; // we win; the other side will abdicate.
        }
        let ws = role.dir.website();
        self.stand_down(ctx, ws, other.node);
        true
    }

    pub(super) fn on_dht_msg(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: ChordMsg<Query>) {
        // Duplicate-position detection on maintenance traffic.
        let conflicts = self
            .dir_role
            .as_ref()
            .map(|r| chord::conflict_peers(&r.ring, &msg))
            .unwrap_or_default();
        for p in conflicts {
            if self.resolve_position_conflict(ctx, p) {
                return;
            }
        }
        if self.dir_role.is_none() {
            // DHT traffic for a node that is not (or no longer) on the
            // D-ring. If it carries a query, rescue it via the origin
            // server; everything else is dropped.
            if let Some(&query) = msg.app_payload() {
                self.to_origin(ctx, query);
            }
            return;
        }
        let outcome = self.ring(ctx, |st, t, p| chord::handle(st, t, from, msg, p));
        self.on_chord_outcome(ctx, outcome.flatten());
    }

    /// Act on what a ring operation surfaced, if anything.
    pub(super) fn on_chord_outcome(
        &mut self,
        ctx: &mut Ctx<'_>,
        outcome: Option<ChordOutcome<Query>>,
    ) {
        match outcome {
            Some(ChordOutcome::Deliver { payload, .. }) => self.dir_process_query(ctx, payload),
            Some(ChordOutcome::JoinComplete) => self.on_join_complete(ctx),
            // Our §5.2 join lookup was lost while the ring was healing:
            // retry through another entry point.
            Some(ChordOutcome::JoinLost) => self.join_dring(ctx),
            None => {}
        }
    }
}
