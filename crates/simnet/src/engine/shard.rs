//! The shard loop: one locality shard's nodes, queue, clock, RNG
//! streams and statistics, and the one path an event takes to its
//! node — [`Shard::step`] pops, looks ahead ([`Shard::prefetch_ahead`],
//! module docs of [`engine`](super), "Lookahead prefetch") and
//! dispatches; [`Shard::deliver`] runs the handler, and
//! [`Shard::flush_actions`] turns what it buffered into queued events.
//! [`Shard::run_epoch`] is that step in a loop, the only thing a
//! barrier round (or a single-shard run) calls to execute events;
//! there is no batched or test-only delivery mode beside it. What
//! becomes of a wire message is `wire`'s; what the source feeds in is
//! `source`'s. `layout_parity` holds the loop to the same run on 1, 2
//! and 3 shards under generated churn, and pins its seed-42 statistics
//! at 50k nodes.

use std::sync::Arc;

use metrics::{Counter, MetricSet};
use rand::rngs::StdRng;

use super::source::ShardSource;
use super::{emitter, next_key, Action, Ctx, Event, Message, Node};
use crate::event::{EventKey, EventQueue, Item};
use crate::fault::FaultPlane;
use crate::stats::{QueryStats, ShardTraffic};
use crate::time::SimTime;
use crate::topology::{NodeId, Topology};

/// How many events behind the queue's head each stage of the
/// lookahead pipeline works (module docs of [`engine`](super),
/// "Lookahead prefetch"): a message's slab slot is hinted first, its
/// destination's per-node rows once the payload has had time to
/// arrive, and what hangs off the node once the node has. Constants,
/// not options: measured insensitive (9 / 6 / 3 and 12 / 6 / 3 read
/// the same within noise), and no value can change a result.
const PREFETCH_SLOT_AHEAD: usize = 8;
const PREFETCH_NODE_AHEAD: usize = 5;
const PREFETCH_ROLE_AHEAD: usize = 2;

/// Global node id → `(owning shard, dense local index)`, packed into
/// one `u64` per node (shard in the high half, local index in the
/// low). The engine's hot path resolves both halves for nearly every
/// event — `route` needs the shard, `deliver`/`emit_key` the local
/// index — so packing them touches one cache line per node instead of
/// two parallel tables.
pub(super) struct Placement {
    packed: Vec<u64>,
}

impl Placement {
    pub(super) fn new(n: usize) -> Self {
        Placement { packed: vec![0; n] }
    }

    pub(super) fn set(&mut self, node: NodeId, shard: usize, local: u32) {
        self.packed[node.idx()] = ((shard as u64) << 32) | local as u64;
    }

    #[inline]
    pub(super) fn shard(&self, node: NodeId) -> usize {
        (self.packed[node.idx()] >> 32) as usize
    }

    #[inline]
    pub(super) fn local(&self, node: NodeId) -> usize {
        (self.packed[node.idx()] & 0xFFFF_FFFF) as usize
    }
}

/// Full-population liveness map, one bit per node. Replicated on every
/// shard (kept in sync by the broadcast churn events), so at 100k+
/// nodes the packed form keeps each replica at ~12 KB of cache
/// footprint instead of 100 KB for a `Vec<bool>`.
pub(super) struct Liveness {
    words: Vec<u64>,
}

impl Liveness {
    pub(super) fn all_up(n: usize) -> Self {
        Liveness {
            words: vec![u64::MAX; n.div_ceil(64)],
        }
    }

    #[inline]
    pub(super) fn get(&self, node: NodeId) -> bool {
        let i = node.idx();
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    fn set(&mut self, node: NodeId, up: bool) {
        let i = node.idx();
        if up {
            self.words[i / 64] |= 1u64 << (i % 64);
        } else {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }
}

/// Struct-of-arrays slab of a shard's hot per-node state, indexed by
/// the dense local index ([`Placement::local`]). Keeping each field in
/// its own contiguous array means an event touches only the arrays it
/// needs — an emission counter bump does not pull the node's RNG
/// state into cache alongside it.
pub(super) struct NodeSlab {
    /// Per-node deterministic RNG streams
    /// (`StdRng::seed_from_u64(node_stream_seed(seed, node))`).
    pub(super) rngs: Vec<StdRng>,
    /// Per-node emission counters — sequence numbers of the node's
    /// [`EventKey`] stream.
    emit_seq: Vec<u64>,
}

impl NodeSlab {
    pub(super) fn with_capacity(c: usize) -> Self {
        NodeSlab {
            rngs: Vec::with_capacity(c),
            emit_seq: Vec::with_capacity(c),
        }
    }

    pub(super) fn push(&mut self, rng: StdRng) {
        self.rngs.push(rng);
        self.emit_seq.push(0);
    }
}

/// A keyed event staged for another shard (one entry of an
/// outbox/inbox batch exchanged at the epoch barrier).
pub(super) type Staged<M> = (EventKey, Pending<M>);

/// Internal queue payload. A timer a node arms is not one: it is
/// queued as an [`Item::Timer`], addressed by its key's stream.
pub(super) enum Pending<M> {
    App {
        dst: NodeId,
        ev: Event<M>,
    },
    /// Traffic-accounted message in flight (recorded at send time;
    /// this wrapper only exists to detect dead destinations at
    /// delivery time).
    Wire {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    ChurnDown(NodeId),
    ChurnUp(NodeId),
}

/// One locality shard: a slice of the node population with its own
/// queue, clock, RNG streams and statistics.
pub(super) struct Shard<M: Message, N: Node<M>> {
    /// Index of this shard.
    pub(super) id: usize,
    /// Protocol nodes owned by this shard, densely packed; the
    /// engine's [`Placement`] maps global node ids into this vector.
    pub(super) nodes: Vec<N>,
    /// Hot per-node engine state (RNG streams, emission counters),
    /// parallel to `nodes` as struct-of-arrays.
    pub(super) slab: NodeSlab,
    /// Full-population liveness bitmap, replicated on every shard and
    /// kept in sync by the broadcast churn events.
    pub(super) up: Liveness,
    pub(super) queue: EventQueue<Pending<M>>,
    /// The attached injection stream, merged into `queue` as the clock
    /// reaches it ([`Shard::pull_source`]).
    pub(super) source: ShardSource<M>,
    pub(super) now: SimTime,
    /// This shard's traffic ledger; folded into a global
    /// [`Traffic`](crate::stats::Traffic) view at read time.
    pub(super) traffic: ShardTraffic,
    pub(super) query_stats: QueryStats,
    /// Reusable action buffer lent to [`Ctx`] for each handler call;
    /// drained (capacity kept) after every event.
    pub(super) scratch: Vec<Action<M>>,
    /// Test-only: the key of every event popped, in pop order — what
    /// `source_parity` compares between the streamed and the
    /// pre-scheduled form of one injection stream.
    #[cfg(test)]
    pub(super) popped: Vec<EventKey>,
    /// This shard's private cells of the static metric registry:
    /// engine counters (events dispatched, per-class receives,
    /// timers, bounces, epoch rounds, barrier idle) plus whatever the
    /// protocol records through [`Ctx::metrics`]; the engine accessors
    /// read them back out of the merge.
    pub(super) metrics: MetricSet,
    /// The installed fault script, replicated on every shard (like the
    /// liveness map) so cut/loss decisions never read another shard's
    /// state. `None` (the default) short-circuits every check.
    pub(super) fault: Option<Arc<FaultPlane>>,
}

impl<M: Message, N: Node<M>> Shard<M, N> {
    /// The lookahead pipeline (module docs of [`engine`](super),
    /// "Lookahead prefetch"): called right after every pop, with the
    /// popped event still to be dispatched, so each stage's memory
    /// latency overlaps the handlers that run before its event comes
    /// up.
    #[inline]
    fn prefetch_ahead(&self, place: &Placement) {
        self.queue.prefetch_upcoming(PREFETCH_SLOT_AHEAD);
        if let Some(li) = self.upcoming_local(PREFETCH_NODE_AHEAD, place) {
            crate::prefetch(&self.nodes[li]);
            crate::prefetch(&self.slab.rngs[li]);
            crate::prefetch(&self.slab.emit_seq[li]);
        }
        if let Some(li) = self.upcoming_local(PREFETCH_ROLE_AHEAD, place) {
            self.nodes[li].prefetch();
        }
    }

    /// Local index of the node the event `ahead` places behind the
    /// queue's head will be delivered to; `None` past the end of the
    /// instant being drained and for churn entries, which are broadcast and
    /// address a node this shard may not own. A timer's node is its
    /// emitter, named by its key: no payload is read for it.
    #[inline]
    fn upcoming_local(&self, ahead: usize, place: &Placement) -> Option<usize> {
        let dst = match self.queue.upcoming(ahead)? {
            (key, Item::Timer { .. }) => emitter(key),
            (_, Item::Payload(Pending::App { dst, .. })) => *dst,
            (_, Item::Payload(Pending::Wire { to, .. })) => *to,
            (_, Item::Payload(Pending::ChurnDown(_) | Pending::ChurnUp(_))) => return None,
        };
        debug_assert_eq!(place.shard(dst), self.id, "queued for a foreign node");
        Some(place.local(dst))
    }

    /// The next key on this node's emission stream, at time `at`.
    pub(super) fn emit_key(&mut self, at: SimTime, emitter: NodeId, place: &Placement) -> EventKey {
        let seq = &mut self.slab.emit_seq[place.local(emitter)];
        next_key(at, Some(emitter), seq)
    }

    /// Enqueue locally or stage for the barrier exchange.
    pub(super) fn route(
        &mut self,
        target: usize,
        key: EventKey,
        p: Pending<M>,
        outbox: &mut [Vec<Staged<M>>],
    ) {
        if target == self.id {
            self.queue.push(key, p);
        } else {
            outbox[target].push((key, p));
        }
    }

    /// Pop this shard's next event if it is due before `limit`, look
    /// ahead, and dispatch it — the whole path of an event, and the
    /// only one. `false` once nothing is due.
    #[inline]
    fn step(
        &mut self,
        limit: SimTime,
        topo: &Topology,
        place: &Placement,
        outbox: &mut [Vec<Staged<M>>],
    ) -> bool {
        self.pull_source(limit, place);
        let Some((key, item)) = self.queue.pop_if_before(limit) else {
            return false;
        };
        debug_assert!(key.at >= self.now, "time went backwards");
        self.now = key.at;
        self.prefetch_ahead(place);
        #[cfg(test)]
        self.popped.push(key);
        match item {
            Item::Payload(p) => self.dispatch(p, topo, place, outbox),
            Item::Timer { kind, tag } => {
                let dst = emitter(key);
                // A timer dies with its node, as an `App` event does.
                if self.up.get(dst) {
                    self.deliver(dst, Event::Timer { kind, tag }, topo, place, outbox);
                }
            }
        }
        true
    }

    /// Process every pending event with `key.at < limit`, in key order.
    pub(super) fn run_epoch(
        &mut self,
        limit: SimTime,
        topo: &Topology,
        place: &Placement,
        outbox: &mut [Vec<Staged<M>>],
    ) {
        while self.step(limit, topo, place, outbox) {}
    }

    fn dispatch(
        &mut self,
        p: Pending<M>,
        topo: &Topology,
        place: &Placement,
        outbox: &mut [Vec<Staged<M>>],
    ) {
        match p {
            Pending::ChurnDown(n) => self.up.set(n, false),
            Pending::ChurnUp(n) => {
                self.up.set(n, true);
                // Churn events are broadcast to keep every shard's
                // liveness map current; only the owner delivers.
                if place.shard(n) == self.id {
                    self.deliver(n, Event::NodeUp, topo, place, outbox);
                }
            }
            Pending::App { dst, ev } if self.up.get(dst) => {
                self.deliver(dst, ev, topo, place, outbox)
            }
            // Events to down nodes are dropped: timers die with the
            // node; externally injected events are lost, like a user
            // whose machine is off.
            Pending::App { .. } => {}
            Pending::Wire { from, to, msg } => {
                self.deliver_wire(from, to, msg, topo, place, outbox)
            }
        }
    }

    /// Deliver one event to `dst` (known up): run the handler against
    /// the shard's scratch action buffer, then flush the actions.
    pub(super) fn deliver(
        &mut self,
        dst: NodeId,
        ev: Event<M>,
        topo: &Topology,
        place: &Placement,
        outbox: &mut [Vec<Staged<M>>],
    ) {
        self.metrics.incr(Counter::EngineEvents);
        if matches!(ev, Event::Timer { .. }) {
            self.metrics.incr(Counter::EngineTimers);
        }
        let li = place.local(dst);
        let mut scratch = std::mem::take(&mut self.scratch);
        debug_assert!(scratch.is_empty());
        let mut ctx = Ctx::new(
            self.now,
            dst,
            topo,
            &mut self.slab.rngs[li],
            &mut self.query_stats,
            &mut self.metrics,
            &mut scratch,
        );
        self.nodes[li].on_event(&mut ctx, ev);
        self.flush_actions(dst, li, &mut scratch, topo, place, outbox);
        self.scratch = scratch;
    }

    /// Turn the actions a handler buffered into queued/staged events
    /// and traffic records. `dst`/`li` identify the emitting node.
    #[inline]
    fn flush_actions(
        &mut self,
        dst: NodeId,
        li: usize,
        scratch: &mut Vec<Action<M>>,
        topo: &Topology,
        place: &Placement,
        outbox: &mut [Vec<Staged<M>>],
    ) {
        for a in scratch.drain(..) {
            match a {
                Action::Send { to, msg } => {
                    if self.launch(dst, li, to, &msg, topo) {
                        let key = self.emit_key(self.now + topo.latency(dst, to), dst, place);
                        let wire = Pending::Wire { from: dst, to, msg };
                        self.route(place.shard(to), key, wire, outbox);
                    }
                }
                Action::Timer { delay, kind, tag } => {
                    let key = self.emit_key(self.now + delay, dst, place);
                    self.queue.push(key, Item::Timer { kind, tag });
                }
            }
        }
    }
}
