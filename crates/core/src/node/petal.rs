//! §5.3 PetalUp: load-adaptive directory instances per petal — the
//! split/merge policy at the primary, resizes and re-partitions, a
//! dead sibling, and the four `Petal*` messages.

use metrics::Counter;
use simnet::{Locality, NodeId};
use workload::WebsiteId;

use super::{Ctx, Deployment, DirRole, FlowerNode};
use crate::id::instance_for;
use crate::msg::FlowerMsg;

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
    pub(super) fn new(instance: u32, instances: u32) -> Self {
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

/// Where `role` addresses its petal's primary ([`PetalState::primary_node`]
/// over the deployed instance-0 node).
pub(super) fn petal_primary(shared: &Deployment, role: &DirRole) -> NodeId {
    let deployed = shared.instance_node(role.dir.website(), role.dir.locality(), 0);
    role.petal.primary_node(deployed)
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

impl FlowerNode {
    /// The directory role of petal `(ws, loc)`, if this node holds it.
    fn petal_role(&mut self, ws: WebsiteId, loc: Locality) -> Option<&mut DirRole> {
        self.dir_for(ws).filter(|r| r.dir.locality() == loc)
    }

    /// Event-driven half of the §5.3 split policy: the moment a petal
    /// primary's windowed load crosses the split threshold it resizes,
    /// rather than waiting out the rest of the tick window — a hot
    /// website's first load wave otherwise lands entirely on one
    /// instance. (The tick-driven policy still handles sibling-peak
    /// splits and all merges.)
    pub(super) fn maybe_split_on_load(&mut self, ctx: &mut Ctx<'_>) {
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

    /// One directory-tick of the §5.3 split/merge policy. Siblings
    /// report their window to the primary; the primary folds its own
    /// window in and grows the petal when any live instance ran hot,
    /// or shrinks it when the whole petal went quiet. Every decision
    /// is a pure function of per-node protocol state, so it is
    /// identical under any engine shard layout.
    pub(super) fn petal_policy_tick(&mut self, ctx: &mut Ctx<'_>) {
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
        if role.petal.instance != 0 {
            if role.petal.active {
                // Report to the *current* primary (last resize
                // sender), not the statically deployed node — after a
                // §5.2 replacement the deployed node is a corpse and
                // load-driven split/merge would go blind.
                ctx.send(
                    petal_primary(&self.shared, role),
                    FlowerMsg::PetalLoad {
                        website: role.dir.website(),
                        locality: role.dir.locality(),
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
    fn resize_petal(&mut self, ctx: &mut Ctx<'_>, me: NodeId, new_live: u32) {
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
                self.shared.instance_node(ws, loc, inst),
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
                    self.shared.instance_node(ws, loc, inst),
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
    pub(super) fn repartition_members(&mut self, ctx: &mut Ctx<'_>, me: NodeId, live: u32) {
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
                    dir: self.shared.instance_node(ws, loc, owner),
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
    pub(super) fn petal_sibling_down(
        &mut self,
        ctx: &mut Ctx<'_>,
        dead: NodeId,
        ws: WebsiteId,
    ) -> bool {
        let me = ctx.id();
        let Some(role) = self
            .dir_role
            .as_deref_mut()
            .filter(|r| r.petal.instance == 0 && r.petal.live > 1 && r.dir.website() == ws)
        else {
            return false;
        };
        let loc = role.dir.locality();
        let live = role.petal.live;
        let Some(dead_inst) = (1..live).find(|i| self.shared.instance_node(ws, loc, *i) == dead)
        else {
            return false;
        };
        // A crashed sibling never gets its role back (NodeUp wipes
        // volatile state): cap the petal below it for good instead of
        // re-splitting over the corpse and thrashing on every bounce.
        role.petal.retired[dead_inst as usize] = true;
        self.resize_petal(ctx, me, shrunk_below(live, dead_inst));
        true
    }

    /// Our load report bounced off a dead primary: drop the hint and
    /// fall back to the deployed instance-0 node until the next resize
    /// (from whoever replaces it per §5.2) re-points us.
    pub(super) fn on_petal_primary_down(&mut self, ws: WebsiteId, dead: NodeId) {
        if let Some(role) = self.dir_for(ws).filter(|r| r.petal.primary == Some(dead)) {
            role.petal.primary = None;
        }
    }

    /// A sibling learns the new live count from its primary: by
    /// `PetalActivate` (`activate`) or, if a merge drops it, `PetalDeactivate`.
    pub(super) fn on_petal_resize(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        ws: WebsiteId,
        loc: Locality,
        live: u32,
        activate: bool,
    ) {
        let me = ctx.id();
        let Some(role) = self.petal_role(ws, loc).filter(|r| r.petal.instance != 0) else {
            return;
        };
        role.petal.live = live;
        role.petal.active = role.petal.instance < live;
        // Only the petal primary resizes: its address is
        // authoritative (it may be a §5.2 replacement, not the
        // deployed node).
        role.petal.primary = Some(from);
        if role.petal.active != activate {
            return;
        }
        // Activated: an already-active sibling may now own fewer
        // members (the petal grew), so hand the moved ones to their
        // new instances. Deactivated: re-point every member to its
        // owner under the shrunk petal, then abandon the index — the
        // members rebuild their entries by pushing (§5.2-style),
        // nothing is teleported.
        self.repartition_members(ctx, me, live);
        if !activate {
            if let Some(role) = &mut self.dir_role {
                role.dir.install_snapshot(Vec::new());
            }
        }
    }

    /// A sibling retired voluntarily (§5.2 leave at instance > 0).
    pub(super) fn on_petal_retire(
        &mut self,
        ctx: &mut Ctx<'_>,
        ws: WebsiteId,
        loc: Locality,
        instance: u32,
    ) {
        let me = ctx.id();
        let Some(role) = self.petal_role(ws, loc).filter(|r| {
            r.petal.instance == 0 && instance != 0 && (instance as usize) < r.petal.retired.len()
        }) else {
            return;
        };
        // Gone for good — even a currently dormant retiree must never
        // be re-activated by a later split (it has no role to answer
        // with and, being alive, never bounces).
        role.petal.retired[instance as usize] = true;
        let live = role.petal.live;
        if instance < live {
            self.resize_petal(ctx, me, shrunk_below(live, instance));
        }
    }

    /// A sibling's windowed load report, at the primary.
    pub(super) fn on_petal_load(
        &mut self,
        ws: WebsiteId,
        loc: Locality,
        instance: u32,
        queries: u64,
    ) {
        if let Some(slot) = self
            .petal_role(ws, loc)
            .filter(|r| r.petal.instance == 0)
            .and_then(|r| r.petal.sibling_loads.get_mut(instance as usize))
        {
            *slot = queries;
        }
    }
}
