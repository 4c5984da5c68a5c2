//! The protocol engine: message delivery with link latency, timers,
//! failure signalling, traffic accounting, churn — and locality-based
//! sharding for deterministic parallel execution.
//!
//! Protocols are written as message-driven state machines: a node type
//! implements [`Node`] for a protocol-specific message enum `M`
//! implementing [`Message`]. All interaction with the outside world
//! goes through [`Ctx`] — sending messages, arming timers, reading the
//! clock/topology, drawing from the node's private RNG stream, and
//! recording metrics — which keeps the protocol logic purely
//! deterministic and unit-testable.
//!
//! ## Sharded execution model
//!
//! The engine partitions nodes by network locality into `K` shards
//! ([`Topology::shard_map`]). Each shard owns its nodes, an event
//! queue, a clock, per-node RNG streams and a private copy of every
//! statistics accumulator, and runs on its own thread. Shards
//! synchronize with a *conservative epoch barrier*: every epoch bound
//! is derived from the per-shard-pair lookahead matrix
//! ([`Topology::shard_lookahead_ms`] — guaranteed lower bounds on the
//! latency of any link between two shards, each at least the global
//! floor [`Topology::cross_locality_lookahead`]), so a message sent
//! during one epoch can only be due in a *later* epoch and can safely
//! be handed to its destination shard at the barrier in between.
//!
//! Determinism does not come from the barrier alone but from the event
//! ordering: every event carries an [`EventKey`] `(time, source
//! stream, per-stream seq)` that is independent of the shard layout
//! (see [`crate::event`]). Each shard processes its events in key
//! order; since shards share no mutable state within an epoch and all
//! cross-shard effects are exchanged at barriers under the lookahead
//! guarantee, a run is equivalent to the sequential execution in
//! global key order — **bit-identical for any shard count, including
//! `K = 1`** (which skips threads and barriers entirely).
//!
//! Liveness (`up`) flags are replicated per shard and updated by
//! broadcasting the externally scheduled churn events to every shard,
//! so the bounce decision for a wire message never reads another
//! shard's state.
//!
//! ## Injection sources
//!
//! A workload is usually most of what an engine is ever told from
//! outside — hundreds of thousands of query submissions — and nothing
//! needs it before its instant. [`Engine::attach_source`] takes it as
//! an iterator in time order instead of one [`Engine::schedule_at`]
//! per item: every shard walks its own clone, keeps only the next
//! injection addressed to one of its nodes, and moves it into its
//! queue when nothing queued precedes it. The keys are the ones
//! eager scheduling would have issued, so results do not change; a
//! shard's published "earliest pending" covers its source head, so a
//! shard with nothing but future injections is never mistaken for an
//! idle one.
//!
//! ## Lookahead prefetch
//!
//! At 100k nodes and more, what an event costs is mostly waiting for
//! memory: its payload, its node, the node's RNG stream, the role
//! state behind the node — each the *first touch* of a line that was
//! last used tens of thousands of events ago. Every one of those
//! addresses is knowable ahead of time, because the instant the queue
//! is draining is already sorted in pop order
//! ([`EventQueue::upcoming`]). So right after every pop the shard loop
//! (`Shard::step`: pop, look ahead, dispatch — the one path an event
//! takes to its node) calls `prefetch_ahead`, which walks the
//! dependency chain *entry → payload slot → destination → node → role
//! state*, one stage per link, each at a fixed distance behind the new
//! head:
//!
//! * **8 events ahead** it reads the sorted entry (contiguous, hot)
//!   and hints the payload's slab slot.
//! * **5 ahead** it reads that payload's destination (`App.dst` /
//!   `Wire.to`; churn entries are skipped) and its placement, and
//!   hints what dispatch touches first: `nodes[li]`, `slab.rngs[li]`,
//!   `slab.emit_seq[li]`.
//! * **2 ahead** it calls [`Node::prefetch`], which reads the node and
//!   hints what hangs off it — for `FlowerNode` the content-role array
//!   and the boxed directory role.
//!
//! A hint is asynchronous and a read is not: a stage that *reads* must
//! trail the stage that hinted what it reads by long enough for the
//! line to arrive, or it turns the hidden miss back into a stall, one
//! event early. Three events of handler work (a few hundred
//! nanoseconds each) cover a memory access; the distances are those
//! gaps, and lengthening them by up to half measured the same within
//! noise, hence constants.
//!
//! None of this can change a result. A hint alters no architectural
//! state — no value, no flag, no fault, whatever the address — and the
//! pipeline only ever passes it references to live data; `upcoming`
//! borrows the queue immutably and changes nothing about filing,
//! sorting or pop order. What it sees is a forecast: a same-instant
//! send files an entry into the instant being drained in front of
//! entries already hinted, and everything behind it moves one place
//! back. Then a stage may run twice for one event, or hint a node whose
//! event is dropped because the node went down — a wasted hint, never
//! a wrong one. At the end of an instant the lookahead is simply empty
//! (`None`) until the next one is sorted; looking across that boundary
//! was tried and measured no better. There is accordingly no switch.
//!
//! What the pipeline is worth behind the timing wheel, measured on 2
//! vCPUs with the `prefetch_ahead` call deleted (seed 42, `flower-bench
//! run --seconds 3 --trace 0`, ten alternating pairs, `run_ref_s`):
//! `steady_100k` 1.368 s with it, 1.679 s without (+22.8 %, slower in
//! 10/10); `query_storm_10k` 1.616 → 1.746 (+8.0 %, 10/10); `paper_5k`
//! 1.047 → 1.002 (−4.3 %, faster in 8/10). The two deep-queue cells
//! gain far more than the cache-resident one pays, so it stays.
//!
//! ## Randomness
//!
//! There is no engine-global RNG: node `n` draws from its own
//! `StdRng` seeded with `hash(seed, n)` ([`node_stream_seed`]), so the
//! stream a node observes does not depend on what other nodes —
//! possibly on other shards — consumed.
//!
//! ## Failure model
//!
//! Messages to a node that is *down* are dropped, and the sender
//! receives an [`Event::Undeliverable`] notification one round trip
//! later (modelling a connection-refused error). This is what drives
//! the paper's redirection-failure handling (§5.1) and
//! directory-failure detection (§5.2) without a global liveness
//! oracle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use metrics::{Counter, Gauge, MetricSet, MetricSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::{EventKey, EventQueue};
use crate::stats::{QueryStats, ShardTraffic, Traffic, TrafficClass};
use crate::sync::{MailboxGrid, SenseBarrier};
use crate::time::{SimDuration, SimTime};
use crate::topology::{Locality, NodeId, Topology};

/// A simulated wire message: every protocol message reports its size
/// in bytes (for the paper's bandwidth metric) and its traffic class.
/// Messages cross shard threads, hence the `Send` bound.
pub trait Message: std::fmt::Debug + Send {
    /// Modelled serialized size in bytes.
    fn wire_size(&self) -> u32;
    /// Classification for traffic accounting.
    fn class(&self) -> TrafficClass;
}

/// What a node can observe.
#[derive(Debug)]
pub enum Event<M> {
    /// A message arrived from `from`.
    Recv {
        /// Sender of the message.
        from: NodeId,
        /// The message payload.
        msg: M,
    },
    /// A timer armed with [`Ctx::set_timer`] fired.
    Timer {
        /// Application-defined timer kind.
        kind: u16,
        /// Application-defined payload for the timer.
        tag: u64,
    },
    /// A message previously sent to `to` could not be delivered
    /// because `to` is down. Arrives one round-trip after the send.
    Undeliverable {
        /// The unreachable destination.
        to: NodeId,
        /// The original message.
        msg: M,
    },
    /// This node was revived after a churn-induced failure. State was
    /// NOT cleared automatically; the protocol decides what survives a
    /// restart (the paper: a revived peer rejoins as a new client).
    NodeUp,
}

/// A protocol state machine bound to one simulated node. Nodes are
/// owned by exactly one shard but shards run on worker threads, hence
/// the `Send` bound.
pub trait Node<M: Message>: Send {
    /// Handle one event. Use `ctx` to send messages, arm timers and
    /// record metrics.
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, ev: Event<M>);

    /// Called a couple of events before this node's next
    /// [`Node::on_event`], when the node itself is already on its way
    /// into cache (module docs, "Lookahead prefetch"): the place to
    /// name the heap state a handler touches first. An implementation
    /// may read `&self` and pass references to [`crate::prefetch`],
    /// and nothing else — no interior mutability that a handler could
    /// observe, no allocation, no work whose result matters. The call
    /// is a forecast: it may come more than once before an event, for
    /// an event that ends up dropped (the node went down), or not at
    /// all (short days, the first events of a run), so nothing may
    /// depend on it having happened. The default does nothing.
    #[inline]
    fn prefetch(&self) {}
}

/// Output actions buffered during an event handler.
#[derive(Debug)]
pub enum Action<M> {
    /// Send `msg` to `to` (arrives after one link latency).
    Send {
        /// Destination node.
        to: NodeId,
        /// Message payload.
        msg: M,
    },
    /// Deliver `Event::Timer { kind, tag }` to self after `delay`.
    Timer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Application-defined timer kind.
        kind: u16,
        /// Application-defined payload.
        tag: u64,
    },
}

/// The per-event execution context handed to [`Node::on_event`].
///
/// The action buffer is a persistent per-shard scratch vector lent to
/// the context for the duration of the handler — after warm-up no
/// event allocates on the delivery path, however many actions it
/// emits.
pub struct Ctx<'a, M> {
    now: SimTime,
    id: NodeId,
    topo: &'a Topology,
    rng: &'a mut StdRng,
    query_stats: &'a mut QueryStats,
    metrics: &'a mut MetricSet,
    out: &'a mut Vec<Action<M>>,
}

impl<'a, M> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this event is executing on.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of nodes in the underlay.
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// Network locality of `n` (landmark measurement; §6.1).
    pub fn locality(&self, n: NodeId) -> Locality {
        self.topo.locality(n)
    }

    /// Number of localities `k`.
    pub fn num_localities(&self) -> usize {
        self.topo.num_localities()
    }

    /// Measured one-way latency between two nodes in milliseconds.
    /// Protocols use this for the transfer-distance metric and for
    /// latency-aware choices, mirroring the landmark-style probing the
    /// paper assumes peers can perform.
    pub fn latency_ms(&self, a: NodeId, b: NodeId) -> u64 {
        self.topo.latency_ms(a, b)
    }

    /// This node's private deterministic RNG stream, seeded from
    /// `(seed, node_id)` — independent of every other node's draws and
    /// of the shard layout.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Send a message (delivered after one link latency).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.out.push(Action::Send { to, msg });
    }

    /// Arm a timer on this node.
    pub fn set_timer(&mut self, delay: SimDuration, kind: u16, tag: u64) {
        self.out.push(Action::Timer { delay, kind, tag });
    }

    /// The paper's query metrics sink. Record-only by construction
    /// ([`QuerySink`]): the engine keeps one accumulator per shard and
    /// merges them at read time, so letting a protocol read partial
    /// metrics back would make behaviour depend on the shard layout —
    /// the facade makes that a compile error rather than a doc rule.
    pub fn query_stats(&mut self) -> QuerySink<'_> {
        QuerySink {
            stats: self.query_stats,
        }
    }

    /// The static metric registry's recording facade. Like
    /// [`Ctx::query_stats`], record-only by construction
    /// ([`MetricSink`]): each shard owns private metric cells merged
    /// at read time, so reading partial values back from a handler
    /// would make behaviour depend on the shard layout.
    pub fn metrics(&mut self) -> MetricSink<'_> {
        MetricSink::new(self.metrics)
    }
}

/// Record-only facade over a shard's [`QueryStats`], handed out by
/// [`Ctx::query_stats`]. Exposes exactly the recording entry points —
/// no read access, so protocol behaviour cannot depend on a shard's
/// partial view of the merged metrics.
pub struct QuerySink<'a> {
    stats: &'a mut QueryStats,
}

impl QuerySink<'_> {
    /// Note a query submission.
    pub fn on_submit(&mut self) {
        self.stats.on_submit();
    }

    /// Record a resolved query (see [`QueryStats::on_resolved`]).
    pub fn on_resolved(
        &mut self,
        at: SimTime,
        node: NodeId,
        lookup_ms: u64,
        transfer_ms: u64,
        served_by: crate::stats::ServedBy,
    ) {
        self.stats
            .on_resolved(at, node, lookup_ms, transfer_ms, served_by);
    }

    /// Note a redirection failure (stale directory entry; Sec. 5.1).
    pub fn on_redirection_failure(&mut self) {
        self.stats.on_redirection_failure();
    }

    /// Note that a peer joined a content overlay at `at`.
    pub fn on_join(&mut self, at: SimTime) {
        self.stats.on_join(at);
    }
}

/// The per-node RNG stream id: a SplitMix64-style mix of the master
/// seed and the node id. Every node draws from an independent
/// deterministic stream, so its randomness does not depend on the
/// event interleaving with other nodes (or on the shard layout).
pub fn node_stream_seed(seed: u64, node: NodeId) -> u64 {
    let mut z = seed ^ (node.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// External injections use source stream 0 of the [`EventKey`] space;
/// node `n` emits on stream `n + 1`.
const EXTERNAL_STREAM: u64 = 0;

/// How many events behind the queue's head each stage of the
/// lookahead pipeline works (module docs, "Lookahead prefetch"): the
/// payload slot is hinted first, its destination's per-node rows once
/// the payload has had time to arrive, and what hangs off the node
/// once the node has. Constants, not options: measured insensitive
/// (9 / 6 / 3 and 12 / 6 / 3 read the same within noise), and no value
/// can change a result.
const PREFETCH_SLOT_AHEAD: usize = 8;
const PREFETCH_NODE_AHEAD: usize = 5;
const PREFETCH_ROLE_AHEAD: usize = 2;

/// One external injection of an [`Engine::attach_source`] stream:
/// deliver the event to the node at the instant.
pub type Injection<M> = (SimTime, NodeId, Event<M>);

/// Sequence numbers of the external stream set aside for an attached
/// source: injection `i` is keyed `base + i`, and whatever is
/// scheduled after the attachment starts above the whole block — as if
/// the stream had been scheduled up front, without knowing its length.
const SOURCE_BLOCK: u64 = 1 << 48;

/// A shard's replica of the attached injection stream. Every replica
/// walks the whole stream — the key of an injection is its position in
/// it — and keeps the injections addressed to its own shard's nodes,
/// one at a time: only `head` is resident.
struct ShardSource<M> {
    /// The rest of the stream; `None` when nothing is attached.
    rest: Option<Box<dyn Iterator<Item = Injection<M>> + Send>>,
    /// Sequence number of the next item of `rest`.
    next_seq: u64,
    /// This shard's earliest injection not yet in its queue.
    head: Option<(EventKey, NodeId, Event<M>)>,
    /// Injections this shard has moved into its queue.
    injected: u64,
}

impl<M> ShardSource<M> {
    fn detached() -> Self {
        ShardSource {
            rest: None,
            next_seq: 0,
            head: None,
            injected: 0,
        }
    }

    /// Load the next injection owned by shard `me` into `head`.
    fn advance(&mut self, me: usize, place: &Placement) {
        let floor = self.head.as_ref().map(|(key, ..)| key.at);
        self.head = None;
        let Some(rest) = &mut self.rest else { return };
        for (at, node, ev) in rest {
            let seq = self.next_seq;
            self.next_seq += 1;
            if place.shard(node) == me {
                debug_assert!(floor <= Some(at), "injection source went back in time");
                let key = EventKey {
                    at,
                    src: EXTERNAL_STREAM,
                    seq,
                };
                self.head = Some((key, node, ev));
                return;
            }
        }
        self.rest = None;
    }
}

/// The per-round epoch-bound coefficients, from the raw
/// pair-lookahead matrix `l` (row-major `k × k`, `u64::MAX` diagonal).
///
/// `reach[m][i]` lower-bounds how long after shard `m`'s earliest
/// pending event *anything* could become due at shard `i` that is not
/// already in `i`'s queue: an event of `m` at time `t` can trigger an
/// emission chain `m → … → j → i` whose hops each cost at least the
/// pair lookahead (handlers emit at the instant of receipt, so relay
/// delay lower-bounds at zero). Formally
/// `reach[m][i] = min over j ≠ i of (dist(m, j) + l[j][i])` with
/// `dist` the min-plus shortest path over `l` (`dist(m, m) = 0`).
///
/// The `j ≠ i` exclusion makes the diagonal the *round-trip* term
/// `reach[i][i] = min_j (dist(i, j) + l[j][i])`: shard `i`'s own
/// events can reflect off a peer and come back, so `i` may never
/// outrun its own emissions by more than a round trip — the
/// self-reflection a naive `min over peers of (next_j + l[j][i])`
/// bound misses (an idle peer would then constrain nobody, yet a
/// message sent to it this round can wake it and draw a reply).
fn reachability_bounds(l: &[u64], k: usize) -> Vec<u64> {
    // Progress guarantee: every off-diagonal pair lookahead is ≥ 1 ms
    // (shard pairs are cross-locality by construction, and the
    // topology's cross floor clamps to at least 1 ms), so every reach
    // entry is ≥ 1 ms and an epoch bound always lies strictly
    // beyond the global minimum — no barrier round can spin without
    // processing anything.
    debug_assert!(
        (0..k).all(|a| (0..k).all(|b| a == b || l[a * k + b] >= 1)),
        "pair lookaheads must be positive for the barrier to progress"
    );
    // Min-plus all-pairs shortest path over the pair lookaheads.
    let mut dist = vec![u64::MAX; k * k];
    for m in 0..k {
        dist[m * k + m] = 0;
        for j in 0..k {
            if m != j {
                dist[m * k + j] = l[m * k + j];
            }
        }
    }
    for via in 0..k {
        for a in 0..k {
            for b in 0..k {
                let d = dist[a * k + via].saturating_add(dist[via * k + b]);
                if d < dist[a * k + b] {
                    dist[a * k + b] = d;
                }
            }
        }
    }
    let mut reach = vec![u64::MAX; k * k];
    for m in 0..k {
        for i in 0..k {
            for j in 0..k {
                if j == i {
                    continue;
                }
                let r = dist[m * k + j].saturating_add(l[j * k + i]);
                if r < reach[m * k + i] {
                    reach[m * k + i] = r;
                }
            }
        }
    }
    reach
}

/// Global node id → `(owning shard, dense local index)`, packed into
/// one `u64` per node (shard in the high half, local index in the
/// low). The engine's hot path resolves both halves for nearly every
/// event — `route` needs the shard, `deliver`/`emit_key` the local
/// index — so packing them touches one cache line per node instead of
/// two parallel tables.
struct Placement {
    packed: Vec<u64>,
}

impl Placement {
    fn new(n: usize) -> Self {
        Placement { packed: vec![0; n] }
    }

    fn set(&mut self, node: NodeId, shard: usize, local: u32) {
        self.packed[node.idx()] = ((shard as u64) << 32) | local as u64;
    }

    #[inline]
    fn shard(&self, node: NodeId) -> usize {
        (self.packed[node.idx()] >> 32) as usize
    }

    #[inline]
    fn local(&self, node: NodeId) -> usize {
        (self.packed[node.idx()] & 0xFFFF_FFFF) as usize
    }
}

/// Full-population liveness map, one bit per node. Replicated on every
/// shard (kept in sync by the broadcast churn events), so at 100k+
/// nodes the packed form keeps each replica at ~12 KB of cache
/// footprint instead of 100 KB for a `Vec<bool>`.
#[derive(Clone)]
struct Liveness {
    words: Vec<u64>,
}

impl Liveness {
    fn all_up(n: usize) -> Self {
        Liveness {
            words: vec![u64::MAX; n.div_ceil(64)],
        }
    }

    #[inline]
    fn get(&self, node: NodeId) -> bool {
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
struct NodeSlab {
    /// Per-node deterministic RNG streams
    /// (`StdRng::seed_from_u64(node_stream_seed(seed, node))`).
    rngs: Vec<StdRng>,
    /// Per-node emission counters — sequence numbers of the node's
    /// [`EventKey`] stream.
    emit_seq: Vec<u64>,
}

impl NodeSlab {
    fn with_capacity(c: usize) -> Self {
        NodeSlab {
            rngs: Vec::with_capacity(c),
            emit_seq: Vec::with_capacity(c),
        }
    }

    fn push(&mut self, rng: StdRng) {
        self.rngs.push(rng);
        self.emit_seq.push(0);
    }

    /// The next sequence number on local node `li`'s emission stream.
    #[inline]
    fn next_seq(&mut self, li: usize) -> u64 {
        let seq = self.emit_seq[li];
        self.emit_seq[li] += 1;
        seq
    }
}

/// A keyed event staged for another shard (one entry of an
/// outbox/inbox batch exchanged at the epoch barrier).
type Staged<M> = (EventKey, Pending<M>);

/// Internal queue payload.
#[derive(Debug)]
enum Pending<M> {
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
struct Shard<M: Message, N: Node<M>> {
    /// Index of this shard.
    id: usize,
    /// Protocol nodes owned by this shard, densely packed; the
    /// engine's [`Placement`] maps global node ids into this vector.
    nodes: Vec<N>,
    /// Hot per-node engine state (RNG streams, emission counters),
    /// parallel to `nodes` as struct-of-arrays.
    slab: NodeSlab,
    /// Full-population liveness bitmap, replicated on every shard and
    /// kept in sync by the broadcast churn events.
    up: Liveness,
    queue: EventQueue<Pending<M>>,
    /// The attached injection stream, merged into `queue` as the clock
    /// reaches it ([`Shard::pull_source`]).
    source: ShardSource<M>,
    now: SimTime,
    /// This shard's traffic ledger; folded into a global [`Traffic`]
    /// view at read time ([`Traffic::absorb_shard`]).
    traffic: ShardTraffic,
    query_stats: QueryStats,
    /// Reusable action buffer lent to [`Ctx`] for each handler call;
    /// drained (capacity kept) after every event.
    scratch: Vec<Action<M>>,
    /// Test-only: the key of every event popped, in pop order — what
    /// `source_parity` compares between the streamed and the
    /// pre-scheduled form of one injection stream.
    #[cfg(test)]
    popped: Vec<EventKey>,
    /// This shard's private cells of the static metric registry:
    /// engine counters (events dispatched, per-class receives,
    /// timers, bounces, epoch rounds, barrier idle) plus whatever the
    /// protocol records through [`Ctx::metrics`]; the engine accessors
    /// read them back out of the merge.
    metrics: MetricSet,
    /// The installed fault script, replicated on every shard (like the
    /// liveness map) so cut/loss decisions never read another shard's
    /// state. `None` (the default) short-circuits every check.
    fault: Option<std::sync::Arc<crate::fault::FaultPlane>>,
}

/// Per-traffic-class receive counters, indexed by
/// [`TrafficClass::index`] — declaration order of both sides is
/// pinned by a test below.
pub const RECV_COUNTER: [Counter; 7] = [
    Counter::RecvGossip,
    Counter::RecvPush,
    Counter::RecvKeepAlive,
    Counter::RecvDhtRouting,
    Counter::RecvDhtMaintenance,
    Counter::RecvQueryControl,
    Counter::RecvTransfer,
];

/// Per-traffic-class send counters, mirror of [`RECV_COUNTER`].
pub const SENT_COUNTER: [Counter; 7] = [
    Counter::SentGossip,
    Counter::SentPush,
    Counter::SentKeepAlive,
    Counter::SentDhtRouting,
    Counter::SentDhtMaintenance,
    Counter::SentQueryControl,
    Counter::SentTransfer,
];

/// Per-traffic-class undelivered-drop counters (fault cuts, link
/// loss, dead senders), mirror of [`RECV_COUNTER`]. Together with
/// [`BOUNCE_COUNTER`] these close the per-class message ledger the CI
/// gate checks: `recv + bounce + drop ≤ sent` (strict equality is
/// impossible — messages still in flight at the horizon are neither).
pub const DROP_COUNTER: [Counter; 7] = [
    Counter::DropGossip,
    Counter::DropPush,
    Counter::DropKeepAlive,
    Counter::DropDhtRouting,
    Counter::DropDhtMaintenance,
    Counter::DropQueryControl,
    Counter::DropTransfer,
];

/// Per-traffic-class bounce counters, mirror of [`RECV_COUNTER`].
/// Sums to [`Counter::EngineBounces`] exactly.
pub const BOUNCE_COUNTER: [Counter; 7] = [
    Counter::BounceGossip,
    Counter::BouncePush,
    Counter::BounceKeepAlive,
    Counter::BounceDhtRouting,
    Counter::BounceDhtMaintenance,
    Counter::BounceQueryControl,
    Counter::BounceTransfer,
];

impl<M: Message, N: Node<M>> Shard<M, N> {
    /// Does the installed fault plane cut a wire message from `from`
    /// to `to` delivered at `at`? A pure function of `(at, sender
    /// locality, destination locality, static script)` — evaluated
    /// identically on every shard layout.
    #[inline]
    fn fault_cut(&self, at: SimTime, from: NodeId, to: NodeId, topo: &Topology) -> bool {
        match &self.fault {
            Some(f) => f.cuts(at, topo.locality(from), topo.locality(to)),
            None => false,
        }
    }

    /// The lookahead pipeline (module docs, "Lookahead prefetch"):
    /// called right after every pop, with the popped event still to be
    /// dispatched, so each stage's memory latency overlaps the
    /// handlers that run before its event comes up.
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
    /// address a node this shard may not own.
    #[inline]
    fn upcoming_local(&self, ahead: usize, place: &Placement) -> Option<usize> {
        let dst = match self.queue.upcoming(ahead)? {
            Pending::App { dst, .. } => *dst,
            Pending::Wire { to, .. } => *to,
            Pending::ChurnDown(_) | Pending::ChurnUp(_) => return None,
        };
        debug_assert_eq!(place.shard(dst), self.id, "queued for a foreign node");
        Some(place.local(dst))
    }

    /// The next key on this node's emission stream, at time `at`.
    fn emit_key(&mut self, at: SimTime, emitter: NodeId, place: &Placement) -> EventKey {
        let seq = self.slab.next_seq(place.local(emitter));
        EventKey {
            at,
            src: emitter.0 as u64 + 1,
            seq,
        }
    }

    /// Enqueue locally or stage for the barrier exchange.
    fn route(
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

    /// Move into the queue every source injection that is due before
    /// `limit` and precedes the queue's head, so that the queue's head
    /// is this shard's next event. Called before every look at the
    /// head; moves at most the injections about to be popped, so the
    /// future of the stream never becomes resident.
    #[inline]
    fn pull_source(&mut self, limit: SimTime, place: &Placement) {
        while let Some((key, ..)) = &self.source.head {
            if key.at >= limit || self.queue.peek_key().is_some_and(|head| head < *key) {
                return;
            }
            let (key, dst, ev) = self.source.head.take().expect("matched above");
            self.queue.push(key, Pending::App { dst, ev });
            self.source.injected += 1;
            self.source.advance(self.id, place);
        }
    }

    /// The earliest instant anything is pending on this shard, in the
    /// queue or in the source — what the shard publishes at the epoch
    /// barrier. Leaving the source head out would make a shard with
    /// nothing but injections ahead of it look idle, and its peers
    /// would run past the messages those injections are about to send.
    fn next_pending(&self) -> Option<SimTime> {
        let sourced = self.source.head.as_ref().map(|(key, ..)| key.at);
        self.queue.peek_time().into_iter().chain(sourced).min()
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
        let Some((key, payload)) = self.queue.pop_if_before(limit) else {
            return false;
        };
        debug_assert!(key.at >= self.now, "time went backwards");
        self.now = key.at;
        self.prefetch_ahead(place);
        #[cfg(test)]
        self.popped.push(key);
        self.dispatch(payload, topo, place, outbox);
        true
    }

    /// Process every pending event with `key.at < limit`, in key order.
    fn run_epoch(
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
            Pending::ChurnDown(n) => {
                self.up.set(n, false);
            }
            Pending::ChurnUp(n) => {
                self.up.set(n, true);
                // Churn events are broadcast to keep every shard's
                // liveness map current; only the owner delivers.
                if place.shard(n) == self.id {
                    self.deliver(n, Event::NodeUp, topo, place, outbox);
                }
            }
            Pending::App { dst, ev } => {
                if self.up.get(dst) {
                    self.deliver(dst, ev, topo, place, outbox);
                }
                // Events to down nodes are dropped: timers die with the
                // node; externally injected events are lost, like a user
                // whose machine is off.
            }
            Pending::Wire { from, to, msg } => {
                if self.fault_cut(self.now, from, to, topo) {
                    // Partition cut: dropped *silently* — a severed
                    // network gives the sender no connection-refused
                    // signal, unlike a dead destination. This is what
                    // forces the protocol's query timeouts.
                    self.metrics.incr(Counter::EngineFaultDrops);
                    self.metrics.incr(DROP_COUNTER[msg.class().index()]);
                } else if self.up.get(to) {
                    let class = msg.class();
                    self.traffic
                        .record_recv(place.local(to), class, msg.wire_size());
                    self.metrics.incr(RECV_COUNTER[class.index()]);
                    self.deliver(to, Event::Recv { from, msg }, topo, place, outbox);
                } else if self.up.get(from) {
                    // Bounce: the sender learns after one more one-way
                    // latency (connection refused round trip). The
                    // bounce is emitted on the dead destination's
                    // stream — its shard processes the wire event, so
                    // the counter stays deterministic.
                    self.metrics.incr(Counter::EngineBounces);
                    self.metrics.incr(BOUNCE_COUNTER[msg.class().index()]);
                    let back = topo.latency(to, from);
                    let key = self.emit_key(self.now + back, to, place);
                    self.route(
                        place.shard(from),
                        key,
                        Pending::App {
                            dst: from,
                            ev: Event::Undeliverable { to, msg },
                        },
                        outbox,
                    );
                } else {
                    // Dead sender, dead destination: nobody to notify.
                    self.metrics.incr(DROP_COUNTER[msg.class().index()]);
                }
            }
        }
    }

    /// Deliver one event to `dst` (known up): run the handler against
    /// the shard's scratch action buffer, then flush the actions.
    fn deliver(
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
        let mut ctx = Ctx {
            now: self.now,
            id: dst,
            topo,
            rng: &mut self.slab.rngs[li],
            query_stats: &mut self.query_stats,
            metrics: &mut self.metrics,
            out: &mut scratch,
        };
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
                    let class = msg.class();
                    self.traffic
                        .record_sent(self.now, li, class, msg.wire_size());
                    self.metrics.incr(SENT_COUNTER[class.index()]);
                    // Link loss: the coin is flipped at send time from
                    // the *emitter's* RNG stream — the same stream on
                    // every shard layout — and only when a loss window
                    // actually applies, so an inactive plane consumes
                    // no randomness and perturbs nothing.
                    if let Some(f) = &self.fault {
                        let crosses = topo.locality(dst) != topo.locality(to);
                        if let Some(p) = f.loss_probability(self.now, crosses) {
                            let u: f64 = self.slab.rngs[li].gen_range(0.0..1.0);
                            if u < p {
                                self.metrics.incr(Counter::EngineFaultDrops);
                                self.metrics.incr(DROP_COUNTER[class.index()]);
                                continue;
                            }
                        }
                    }
                    let lat = topo.latency(dst, to);
                    let key = self.emit_key(self.now + lat, dst, place);
                    self.route(
                        place.shard(to),
                        key,
                        Pending::Wire { from: dst, to, msg },
                        outbox,
                    );
                }
                Action::Timer { delay, kind, tag } => {
                    let key = self.emit_key(self.now + delay, dst, place);
                    self.queue.push(
                        key,
                        Pending::App {
                            dst,
                            ev: Event::Timer { kind, tag },
                        },
                    );
                }
            }
        }
    }
}

/// Statistics accumulators merged across shards, cached between runs.
struct Merged {
    traffic: Traffic,
    query_stats: QueryStats,
    metrics: MetricSet,
}

/// The simulation driver.
///
/// Owns the topology, all protocol nodes (partitioned into locality
/// shards), the event queues, the clocks, the per-node RNG streams and
/// all statistics. See the crate docs for an end-to-end example and
/// the module docs for the sharded execution model.
pub struct Engine<M: Message, N: Node<M>> {
    topo: std::sync::Arc<Topology>,
    shards: Vec<Shard<M, N>>,
    /// Global node id → (owning shard, local index), packed.
    place: Placement,
    /// Epoch-bound coefficients, row-major `K × K`, derived from the
    /// per-shard-pair lookahead matrix
    /// ([`Topology::shard_lookahead_ms`]) by [`reachability_bounds`]:
    /// `[m · K + i]` is how long after shard `m`'s earliest event
    /// anything new could become due at shard `i`, through any
    /// emission chain.
    reach_ms: Vec<u64>,
    now: SimTime,
    /// Counter of the external injection stream (stream 0).
    ext_seq: u64,
    /// Lazily merged statistics, invalidated by every run/schedule.
    merged: std::cell::OnceCell<Merged>,
}

impl<M: Message, N: Node<M>> Engine<M, N> {
    /// Build a single-shard engine over `topo` with one protocol node
    /// per underlay node and a 30-minute metric window (the paper's
    /// plots).
    pub fn new(topo: Topology, nodes: Vec<N>, seed: u64) -> Self {
        Self::with_shards(topo, nodes, seed, SimDuration::from_mins(30), 1)
    }

    /// Build an engine partitioned into (up to) `shards` locality
    /// shards. Results are bit-identical for every value of `shards`;
    /// values above the number of localities are clamped.
    pub fn with_shards(
        topo: Topology,
        nodes: Vec<N>,
        seed: u64,
        window: SimDuration,
        shards: usize,
    ) -> Self {
        assert_eq!(
            topo.num_nodes(),
            nodes.len(),
            "one protocol node per underlay node"
        );
        assert!(shards >= 1, "need at least one shard");
        let n = nodes.len();
        let k = shards.min(topo.num_localities());
        let loc_shard = topo.shard_map(k);
        let reach_ms = reachability_bounds(&topo.shard_lookahead_ms(&loc_shard, k), k);

        let mut place = Placement::new(n);
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for node in topo.node_ids() {
            let s = loc_shard[topo.locality(node).idx()];
            place.set(node, s, members[s].len() as u32);
            members[s].push(node);
        }
        let member_count: Vec<usize> = members.iter().map(Vec::len).collect();

        // Distribute node state and RNG streams, in global id order so
        // the local indices assigned above line up.
        let mut slots: Vec<Vec<N>> = member_count
            .iter()
            .map(|c| Vec::with_capacity(*c))
            .collect();
        let mut slabs: Vec<NodeSlab> = member_count
            .iter()
            .map(|c| NodeSlab::with_capacity(*c))
            .collect();
        for (i, state) in nodes.into_iter().enumerate() {
            let node = NodeId(i as u32);
            let s = place.shard(node);
            slots[s].push(state);
            slabs[s].push(StdRng::seed_from_u64(node_stream_seed(seed, node)));
        }

        let shards_vec = slots
            .into_iter()
            .zip(slabs)
            .zip(members)
            .enumerate()
            .map(|(id, ((nodes, slab), members))| Shard {
                id,
                nodes,
                slab,
                up: Liveness::all_up(n),
                queue: EventQueue::new(),
                source: ShardSource::detached(),
                now: SimTime::ZERO,
                traffic: ShardTraffic::new(members, window),
                query_stats: QueryStats::new(window),
                scratch: Vec::new(),
                #[cfg(test)]
                popped: Vec::new(),
                metrics: MetricSet::new(),
                fault: None,
            })
            .collect();

        Engine {
            topo: std::sync::Arc::new(topo),
            shards: shards_vec,
            place,
            reach_ms,
            now: SimTime::ZERO,
            ext_seq: 0,
            merged: std::cell::OnceCell::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The underlay topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of shards the engine actually runs (the requested count
    /// clamped to the number of localities).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The global cross-locality floor: the worst-case epoch length
    /// of the conservative barrier. The per-pair matrix entries
    /// ([`Topology::shard_lookahead_ms`]) are at least this large.
    pub fn lookahead(&self) -> SimDuration {
        self.topo.cross_locality_lookahead()
    }

    /// Barrier rounds (epochs) executed so far, identical on every
    /// shard. 0 on single-shard runs, which have no barrier. A pure
    /// function of seed, topology and shard layout. The adaptive
    /// lookahead matrix exists to shrink this number — fewer, longer
    /// epochs mean less synchronization per simulated second.
    pub fn epochs(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.metrics.counter(Counter::EngineEpochs))
            .max()
            .unwrap_or(0)
    }

    /// Immutable access to a protocol node (inspection in tests and
    /// harnesses).
    pub fn node(&self, n: NodeId) -> &N {
        &self.shards[self.place.shard(n)].nodes[self.place.local(n)]
    }

    /// Mutable access to a protocol node (setup in harnesses).
    pub fn node_mut(&mut self, n: NodeId) -> &mut N {
        &mut self.shards[self.place.shard(n)].nodes[self.place.local(n)]
    }

    /// Whether `n` is currently up.
    pub fn is_up(&self, n: NodeId) -> bool {
        self.shards[self.place.shard(n)].up.get(n)
    }

    /// Traffic accounting (merged across shards).
    pub fn traffic(&self) -> &Traffic {
        &self.merged().traffic
    }

    /// Query metrics (merged across shards).
    pub fn query_stats(&self) -> &QueryStats {
        &self.merged().query_stats
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.metrics.counter(Counter::EngineEvents))
            .sum()
    }

    /// The static metric registry, merged across shards in shard
    /// order, with the engine-level execution gauges (peak queue
    /// depth, worst-shard barrier idle) written in. `Scope::Sim`
    /// cells are bit-identical for every shard layout; `Scope::Exec`
    /// cells describe this run's execution.
    pub fn metrics(&self) -> &MetricSet {
        &self.merged().metrics
    }

    /// High-water mark of any shard's event queue length (the "peak
    /// queue depth" benchmark metric).
    pub fn peak_queue_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.queue.peak_len())
            .max()
            .unwrap_or(0)
    }

    fn merged(&self) -> &Merged {
        self.merged.get_or_init(|| {
            let first = &self.shards[0];
            let mut merged = Merged {
                traffic: Traffic::new(self.topo.num_nodes(), first.traffic.window()),
                query_stats: first.query_stats.clone(),
                metrics: first.metrics.clone(),
            };
            for s in &self.shards {
                merged.traffic.absorb_shard(&s.traffic);
            }
            for s in &self.shards[1..] {
                merged.query_stats.merge_from(&s.query_stats);
                merged.metrics.merge_from(&s.metrics);
            }
            // Engine-level execution gauges, written at merge time:
            // high-water marks the shard loops track elsewhere.
            merged
                .metrics
                .gauge_max(Gauge::PeakQueueDepth, self.peak_queue_depth() as u64);
            let idle_max = self
                .shards
                .iter()
                .map(|s| s.metrics.counter(Counter::EngineBarrierIdleNs))
                .max()
                .unwrap_or(0);
            merged.metrics.gauge_max(Gauge::BarrierIdleMaxNs, idle_max);
            merged
        })
    }

    /// The next key on the external injection stream.
    fn ext_key(&mut self, at: SimTime) -> EventKey {
        let seq = self.ext_seq;
        self.ext_seq += 1;
        EventKey {
            at,
            src: EXTERNAL_STREAM,
            seq,
        }
    }

    /// Schedule an event for `node` at absolute time `at` (external
    /// injection: workload queries, test fixtures).
    pub fn schedule_at(&mut self, at: SimTime, node: NodeId, ev: Event<M>) {
        assert!(at >= self.now, "cannot schedule in the past");
        let key = self.ext_key(at);
        let s = self.place.shard(node);
        self.shards[s]
            .queue
            .push(key, Pending::App { dst: node, ev });
    }

    /// Schedule an event `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, node: NodeId, ev: Event<M>) {
        self.schedule_at(self.now + delay, node, ev);
    }

    /// Attach a lazily generated stream of external injections — the
    /// workload — instead of scheduling it event by event: an iterator
    /// in non-decreasing time order, none earlier than the clock,
    /// consumed as the simulation reaches it. Results are exactly
    /// those of calling [`Engine::schedule_at`] on every item now, in
    /// order (same [`EventKey`]s: the stream takes the next 2^48
    /// sequence numbers of the external stream), but only the next
    /// injection of each shard is ever resident. Every shard gets its
    /// own clone of the iterator and filters it down to its nodes, so
    /// a clone must yield the same items. One stream per engine.
    pub fn attach_source<S>(&mut self, source: S)
    where
        S: Iterator<Item = Injection<M>> + Clone + Send + 'static,
    {
        assert!(
            self.ext_seq < SOURCE_BLOCK,
            "an injection source is already attached"
        );
        let base = self.ext_seq;
        self.ext_seq += SOURCE_BLOCK;
        for s in &mut self.shards {
            s.source.rest = Some(Box::new(source.clone()));
            s.source.next_seq = base;
            s.source.advance(s.id, &self.place);
            assert!(
                s.source
                    .head
                    .as_ref()
                    .is_none_or(|(key, ..)| key.at >= self.now),
                "cannot inject in the past"
            );
        }
    }

    /// Injections of the attached source delivered to the queues so
    /// far: those due up to the instant the engine has run to.
    pub fn source_injections(&self) -> u64 {
        self.shards.iter().map(|s| s.source.injected).sum()
    }

    /// Take `node` down at time `at` (messages to it bounce, its
    /// timers are swallowed). Broadcast to every shard so all liveness
    /// maps agree.
    pub fn schedule_down(&mut self, at: SimTime, node: NodeId) {
        assert!(at >= self.now, "cannot schedule in the past");
        let key = self.ext_key(at);
        for s in &mut self.shards {
            s.queue.push(key, Pending::ChurnDown(node));
        }
    }

    /// Bring `node` back up at time `at`; it receives
    /// [`Event::NodeUp`].
    pub fn schedule_up(&mut self, at: SimTime, node: NodeId) {
        assert!(at >= self.now, "cannot schedule in the past");
        let key = self.ext_key(at);
        for s in &mut self.shards {
            s.queue.push(key, Pending::ChurnUp(node));
        }
    }

    /// Install a [`FaultPlane`](crate::fault::FaultPlane): compile its
    /// regional failures into broadcast churn events (one `ext_key`
    /// per node transition, exactly like
    /// [`ChurnScript::install`](crate::churn::ChurnScript::install))
    /// and replicate the script onto every shard so the delivery path
    /// can consult it. Partitions and loss windows entirely in the
    /// past are harmless; a regional failure or recovery behind the
    /// clock panics, as [`Engine::schedule_down`] and
    /// [`Engine::schedule_up`] do.
    pub fn set_fault_plane(&mut self, plane: crate::fault::FaultPlane) {
        for r in plane.regional_failures() {
            let nodes = self.topo.nodes_in(r.locality);
            for (i, n) in nodes.into_iter().enumerate() {
                self.schedule_down(r.at, n);
                let back = r.recover_start + SimDuration::from_ms(r.stagger.as_ms() * i as u64);
                self.schedule_up(back, n);
            }
        }
        let plane = std::sync::Arc::new(plane);
        for s in &mut self.shards {
            s.fault = Some(std::sync::Arc::clone(&plane));
        }
        self.merged.take();
    }

    /// Run until the queues are exhausted or `deadline` is reached
    /// (events scheduled exactly at `deadline` are processed).
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start: u64 = self.events_processed();
        self.merged.take();
        // Exclusive bound: `at <= deadline` ⇔ `at < deadline + 1 ms`.
        let limit = deadline + SimDuration::from_ms(1);
        if self.shards.len() == 1 {
            let topo = &*self.topo;
            let place = &self.place;
            let shard = &mut self.shards[0];
            // Single shard: no epochs, no threads; every emission is
            // local, so the outbox stays empty.
            let mut outbox: Vec<Vec<Staged<M>>> = vec![Vec::new()];
            shard.run_epoch(limit, topo, place, &mut outbox);
            debug_assert!(outbox[0].is_empty());
            shard.now = shard.now.max(deadline);
        } else {
            self.run_sharded(deadline, limit);
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.events_processed() - start
    }

    /// The parallel path: one worker thread per shard, cross-shard
    /// messages exchanged through a lock-free double-buffered
    /// [`MailboxGrid`] at a single sense-reversing barrier per round.
    /// Idle stretches are skipped by starting each epoch at the
    /// globally earliest pending event.
    ///
    /// Each round, every shard *publishes* — its earliest pending
    /// event time, plus the staged batches from the previous epoch
    /// and their earliest arrival time per receiver — then crosses
    /// the one barrier, drains its incoming mail, and derives the
    /// *effective next* of every shard:
    ///
    /// ```text
    /// eff[m] = min(published next of m,
    ///              min over senders i of i's min arrival into m)
    /// ```
    ///
    /// which is exactly shard `m`'s earliest pending event *after*
    /// absorbing the exchange — the same quantity the classic
    /// two-barrier loop (publish → barrier → run → exchange → barrier
    /// → absorb) reads at its first barrier. Bounds, epoch counts and
    /// results are therefore bit-identical to that loop; only the
    /// synchronization cost halves.
    ///
    /// Shard `i` runs to `min over shards m of (eff[m] + reach[m][i])`,
    /// with `reach` the emission-chain closure of the exact pair
    /// lookaheads ([`reachability_bounds`]): the earliest instant
    /// anything not yet in `i`'s queue could become due at `i`,
    /// including replies that `i`'s *own* emissions may draw out of a
    /// currently idle peer (the `m = i` round-trip term). A fully idle
    /// peer constrains nobody on its own — the temporal meaning of
    /// "actually communicating" — and distant shard pairs synchronize
    /// less often. Every bound is conservative, so per-shard event
    /// orderings (and therefore results) are bit-identical to the
    /// schedule that runs every shard in lock-step epochs of the
    /// global floor — which is this same rule with every `reach` entry
    /// flattened to the floor, and is how the tests below build that
    /// reference; only the barrier-round count shrinks. That bound is
    /// the one rule for how far a shard may run, a shard that alone
    /// has work included: the `m = i` term lets it run a full round
    /// trip past its own earliest event, and the round counts that
    /// decided against a second rule are in README, "Sharded
    /// parallel execution".
    fn run_sharded(&mut self, deadline: SimTime, limit: SimTime) {
        let k = self.shards.len();
        let limit_ms = limit.as_ms();
        let reach = &self.reach_ms[..];
        let barrier = SenseBarrier::new(k);
        let grid: MailboxGrid<Staged<M>> = MailboxGrid::new(k);
        // Published state, double-buffered by round parity like the
        // mailbox slots (entry `p·k + m` / `p·k² + i·k + m`): with a
        // single barrier per round, the writes for round `r + 1`
        // overlap the reads for round `r`, and the parity split keeps
        // same-cell conflicts two barriers apart.
        let next_times: Vec<AtomicU64> = (0..2 * k).map(|_| AtomicU64::new(u64::MAX)).collect();
        let arrivals: Vec<AtomicU64> = (0..2 * k * k).map(|_| AtomicU64::new(u64::MAX)).collect();
        let topo = &*self.topo;
        let place = &self.place;
        let barrier = &barrier;
        let grid = &grid;
        let next_times = &next_times[..];
        let arrivals = &arrivals[..];
        std::thread::scope(|scope| {
            for shard in self.shards.iter_mut() {
                scope.spawn(move || {
                    let me = shard.id;
                    let mut waiter = barrier.waiter();
                    let mut outbox: Vec<Vec<Staged<M>>> = (0..k).map(|_| Vec::new()).collect();
                    let mut eff: Vec<u64> = vec![0; k];
                    let mut round: u64 = 0;
                    loop {
                        let p = (round & 1) as usize;
                        round += 1;
                        // (1) Publish: my earliest pending event
                        // (queued or still in the source), and the
                        // previous epoch's staged batches with
                        // their earliest arrival per receiver.
                        let next = shard.next_pending().map_or(u64::MAX, |t| t.as_ms());
                        next_times[p * k + me].store(next, Ordering::Relaxed);
                        for (j, batch) in outbox.iter().enumerate() {
                            if j != me {
                                let min_at = batch
                                    .iter()
                                    .map(|(key, _)| key.at.as_ms())
                                    .min()
                                    .unwrap_or(u64::MAX);
                                arrivals[p * k * k + me * k + j].store(min_at, Ordering::Relaxed);
                            }
                        }
                        // SAFETY: this thread is the unique sender
                        // `me`, publishing before this round's
                        // barrier; receivers drain after it with the
                        // same parity.
                        unsafe { grid.publish(p, me, &mut outbox) };
                        let at_barrier = Instant::now();
                        barrier.wait(&mut waiter);
                        shard.metrics.add(
                            Counter::EngineBarrierIdleNs,
                            at_barrier.elapsed().as_nanos() as u64,
                        );
                        // (2) Absorb this round's incoming mail; the
                        // queue re-establishes key order. Relaxed
                        // loads below are sound for the same reason
                        // the grid is: the barrier orders and
                        // publishes every pre-barrier store.
                        // SAFETY: unique receiver `me`, after the
                        // barrier the senders published before.
                        unsafe {
                            grid.drain(p, me, |(key, pend)| shard.queue.push(key, pend));
                        }
                        // (3) Everyone's effective next = earliest
                        // pending event after the exchange.
                        for (m, e) in eff.iter_mut().enumerate() {
                            let mut v = next_times[p * k + m].load(Ordering::Relaxed);
                            for i in 0..k {
                                if i != m {
                                    let a = arrivals[p * k * k + i * k + m].load(Ordering::Relaxed);
                                    v = v.min(a);
                                }
                            }
                            *e = v;
                        }
                        let min_eff = *eff.iter().min().expect("at least one shard");
                        if min_eff >= limit_ms {
                            // Every thread computes the same minimum,
                            // so all exit on the same round.
                            shard.now = shard.now.max(deadline);
                            break;
                        }
                        shard.metrics.incr(Counter::EngineEpochs);
                        // (4) One epoch up to this shard's
                        // conservative bound.
                        let bound = (0..k)
                            .map(|m| eff[m].saturating_add(reach[m * k + me]))
                            .min()
                            .expect("at least one shard");
                        let epoch_end = SimTime::from_ms(bound.min(limit_ms));
                        shard.run_epoch(epoch_end, topo, place, &mut outbox);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod layout_parity;

#[cfg(test)]
mod source_parity;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;

    /// Echo protocol: replies to every Ping with a Pong; counts pongs.
    /// A Rumor is answered with a Digest — the same exchange in the
    /// two background classes, at sizes of their own.
    #[derive(Clone, Debug)]
    enum PingMsg {
        Ping,
        Pong,
        Rumor,
        Digest,
    }
    impl Message for PingMsg {
        fn wire_size(&self) -> u32 {
            match self {
                PingMsg::Ping | PingMsg::Pong => 8,
                PingMsg::Rumor => 100,
                PingMsg::Digest => 40,
            }
        }
        fn class(&self) -> TrafficClass {
            match self {
                PingMsg::Ping | PingMsg::Pong => TrafficClass::QueryControl,
                PingMsg::Rumor => TrafficClass::Gossip,
                PingMsg::Digest => TrafficClass::Push,
            }
        }
    }

    #[derive(Default)]
    struct Echo {
        pongs: u32,
        undeliverable: u32,
        revived: u32,
        timer_fired: bool,
    }
    impl Node<PingMsg> for Echo {
        fn on_event(&mut self, ctx: &mut Ctx<'_, PingMsg>, ev: Event<PingMsg>) {
            match ev {
                Event::Recv {
                    from,
                    msg: PingMsg::Ping,
                } => ctx.send(from, PingMsg::Pong),
                Event::Recv {
                    msg: PingMsg::Pong, ..
                } => self.pongs += 1,
                Event::Recv {
                    from,
                    msg: PingMsg::Rumor,
                } => ctx.send(from, PingMsg::Digest),
                Event::Recv {
                    msg: PingMsg::Digest,
                    ..
                } => {}
                Event::Undeliverable { .. } => self.undeliverable += 1,
                // Timer kind 2 originates a Ping to node `tag` (lets
                // tests start a cross-shard exchange from a pure-local
                // event, leaving the target's shard queue empty).
                Event::Timer { kind: 2, tag } => ctx.send(NodeId(tag as u32), PingMsg::Ping),
                // Timer kind 3: likewise, a Rumor.
                Event::Timer { kind: 3, tag } => ctx.send(NodeId(tag as u32), PingMsg::Rumor),
                Event::Timer { .. } => self.timer_fired = true,
                Event::NodeUp => self.revived += 1,
            }
        }
    }

    fn engine() -> Engine<PingMsg, Echo> {
        engine_sharded(1)
    }

    fn engine_sharded(shards: usize) -> Engine<PingMsg, Echo> {
        let topo = crate::topology::Topology::generate(&TopologyConfig::small_test(), 5);
        let nodes = (0..topo.num_nodes()).map(|_| Echo::default()).collect();
        Engine::with_shards(topo, nodes, 99, SimDuration::from_mins(30), shards)
    }

    #[test]
    fn ping_pong_round_trip_latency() {
        let mut e = engine();
        let a = NodeId(0);
        let b = NodeId(1);
        let one_way = e.topology().latency_ms(a, b);
        e.schedule_at(
            SimTime::ZERO,
            b,
            Event::Recv {
                from: a,
                msg: PingMsg::Ping,
            },
        );
        e.run_until(SimTime::from_secs(10));
        assert_eq!(e.node(a).pongs, 1, "a should receive the pong");
        // The pong took one one-way latency from b to a.
        assert!(one_way > 0);
    }

    #[test]
    fn traffic_recorded_on_send() {
        let mut e = engine();
        e.schedule_at(
            SimTime::ZERO,
            NodeId(1),
            Event::Recv {
                from: NodeId(0),
                msg: PingMsg::Ping,
            },
        );
        // Node 2 sends node 3 a rumor (100 B of gossip), node 3
        // answers with a digest (40 B of push), twice over.
        for at in [0, 1] {
            e.schedule_at(
                SimTime::from_secs(at),
                NodeId(2),
                Event::Timer { kind: 3, tag: 3 },
            );
        }
        e.run_until(SimTime::from_secs(5));
        let t = e.traffic();
        assert_eq!(t.total_sent(TrafficClass::QueryControl), 8);
        assert_eq!(t.total_recv(TrafficClass::QueryControl), 8);
        assert_eq!(t.total_sent(TrafficClass::Gossip), 200);
        assert_eq!(t.total_recv(TrafficClass::Push), 80);
        assert_eq!(t.messages(), 5);
        // Background bytes are what a node sent plus what it received
        // in gossip and push; the pong's endpoints experienced none.
        let background: Vec<u64> = (0..5).map(|n| t.background_bytes(NodeId(n))).collect();
        assert_eq!(background, [0, 0, 280, 280, 0]);
        assert_eq!(t.background_series().points()[0].sum, 2.0 * 280.0);
    }

    /// A message is received at most once: per class the bytes
    /// received never exceed the bytes sent, fall short of them where
    /// a dead destination bounced some, and meet them once a
    /// fault-free run has drained.
    #[test]
    fn received_bytes_never_exceed_sent_bytes() {
        let drive = |dead: Option<NodeId>| {
            let mut e = engine_sharded(3);
            if let Some(n) = dead {
                e.schedule_down(SimTime::ZERO, n);
            }
            for i in 0..40u32 {
                e.schedule_at(
                    SimTime::from_ms(1 + i as u64 * 13),
                    NodeId(i % 20),
                    Event::Timer {
                        kind: 2 + (i % 2) as u16,
                        tag: ((i + 7) % 20) as u64,
                    },
                );
            }
            e.run_until(SimTime::from_secs(20));
            TrafficClass::ALL.map(|c| (e.traffic().total_sent(c), e.traffic().total_recv(c)))
        };
        let drained = drive(None);
        assert!(drained.iter().filter(|(sent, _)| *sent > 0).count() == 3);
        for (sent, recv) in drained {
            assert_eq!(recv, sent, "a drained fault-free run delivers everything");
        }
        let bounced = drive(Some(NodeId(7)));
        assert!(bounced.iter().all(|(sent, recv)| recv <= sent));
        assert!(bounced.iter().any(|(sent, recv)| recv < sent));
    }

    #[test]
    fn down_node_bounces_to_sender() {
        let mut e = engine();
        e.schedule_down(SimTime::ZERO, NodeId(1));
        // Node 0 receives a Ping "from" node 1 and pongs back to the
        // (dead) node 1; the engine must bounce the pong.
        e.schedule_at(
            SimTime::from_ms(1),
            NodeId(0),
            Event::Recv {
                from: NodeId(1),
                msg: PingMsg::Ping,
            },
        );
        e.run_until(SimTime::from_secs(10));
        assert_eq!(
            e.node(NodeId(0)).undeliverable,
            1,
            "sender must learn of the bounce"
        );
    }

    #[test]
    fn partition_cut_drops_silently_without_bounce() {
        use crate::fault::{FaultPlane, Partition};
        let mut e = engine();
        let a = NodeId(0);
        let la = e.topology().locality(a);
        let b = e
            .topology()
            .node_ids()
            .find(|n| e.topology().locality(*n) != la)
            .expect("small_test has several localities");
        let lb = e.topology().locality(b);
        e.set_fault_plane(FaultPlane::new().partition(Partition {
            start: SimTime::ZERO,
            heal: SimTime::from_secs(5),
            side_a: vec![la],
            side_b: vec![lb],
        }));
        // `a` pongs the (partitioned) `b`: the pong is a real wire
        // send, so the cut swallows it — silently, with no bounce.
        e.schedule_at(
            SimTime::from_ms(1),
            a,
            Event::Recv {
                from: b,
                msg: PingMsg::Ping,
            },
        );
        e.run_until(SimTime::from_secs(4));
        assert_eq!(e.node(b).pongs, 0, "pong must be cut");
        assert_eq!(
            e.node(a).undeliverable,
            0,
            "a partition gives the sender no synchronous signal"
        );
        assert_eq!(e.metrics().counter(metrics::Counter::EngineFaultDrops), 1);
        assert_eq!(e.metrics().counter(metrics::Counter::DropQueryControl), 1);
        assert_eq!(e.metrics().counter(metrics::Counter::EngineBounces), 0);
        // After the heal the same exchange goes through.
        e.schedule_at(
            SimTime::from_secs(6),
            a,
            Event::Recv {
                from: b,
                msg: PingMsg::Ping,
            },
        );
        e.run_until(SimTime::from_secs(10));
        assert_eq!(e.node(b).pongs, 1, "healed link must deliver");
    }

    #[test]
    fn certain_link_loss_drops_every_send() {
        use crate::fault::{FaultPlane, LinkLoss};
        let mut e = engine();
        e.set_fault_plane(FaultPlane::new().link_loss(LinkLoss {
            start: SimTime::ZERO,
            end: SimTime::from_secs(60),
            probability: 1.0,
            cross_locality_only: false,
        }));
        e.schedule_at(
            SimTime::from_ms(1),
            NodeId(0),
            Event::Recv {
                from: NodeId(1),
                msg: PingMsg::Ping,
            },
        );
        e.run_until(SimTime::from_secs(10));
        assert_eq!(e.node(NodeId(1)).pongs, 0);
        assert_eq!(e.metrics().counter(metrics::Counter::EngineFaultDrops), 1);
        assert_eq!(
            e.metrics().counter(metrics::Counter::SentQueryControl),
            e.metrics().counter(metrics::Counter::DropQueryControl),
            "with p = 1 every send is a drop"
        );
    }

    #[test]
    fn regional_failure_kills_locality_and_staggers_recovery() {
        use crate::fault::{FaultPlane, RegionalFailure};
        let mut e = engine();
        let loc = e.topology().locality(NodeId(0));
        let victims = e.topology().nodes_in(loc);
        e.set_fault_plane(FaultPlane::new().regional_failure(RegionalFailure {
            at: SimTime::from_secs(1),
            locality: loc,
            recover_start: SimTime::from_secs(2),
            stagger: SimDuration::from_ms(100),
        }));
        e.run_until(SimTime::from_ms(1500));
        for n in &victims {
            assert!(!e.is_up(*n), "{n:?} must be down mid-failure");
        }
        e.run_until(SimTime::from_secs(10));
        for n in &victims {
            assert!(e.is_up(*n), "{n:?} must have recovered");
            assert_eq!(e.node(*n).revived, 1);
        }
    }

    #[test]
    fn revive_delivers_node_up() {
        let mut e = engine();
        e.schedule_down(SimTime::ZERO, NodeId(3));
        e.schedule_up(SimTime::from_secs(1), NodeId(3));
        e.run_until(SimTime::from_secs(2));
        assert_eq!(e.node(NodeId(3)).revived, 1);
        assert!(e.is_up(NodeId(3)));
    }

    #[test]
    fn timers_fire() {
        let mut e = engine();
        e.schedule_at(SimTime::ZERO, NodeId(0), Event::Timer { kind: 1, tag: 0 });
        e.run_until(SimTime::from_secs(1));
        assert!(e.node(NodeId(0)).timer_fired);
    }

    #[test]
    fn timers_die_with_node() {
        let mut e = engine();
        e.schedule_down(SimTime::ZERO, NodeId(0));
        e.schedule_at(
            SimTime::from_ms(1),
            NodeId(0),
            Event::Timer { kind: 1, tag: 0 },
        );
        e.run_until(SimTime::from_secs(1));
        assert!(
            !e.node(NodeId(0)).timer_fired,
            "timer on a down node must be swallowed"
        );
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut e = engine();
        e.run_until(SimTime::from_secs(30));
        assert_eq!(e.now(), SimTime::from_secs(30));
        assert_eq!(e.events_processed(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn scheduling_in_the_past_panics() {
        let mut e = engine();
        e.run_until(SimTime::from_secs(10));
        e.schedule_at(SimTime::from_secs(5), NodeId(0), Event::NodeUp);
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn churn_script_installed_after_a_run_panics() {
        let mut e = engine();
        e.run_until(SimTime::from_secs(10));
        crate::churn::ChurnScript::kill_at(&[(SimTime::from_secs(5), NodeId(0))]).install(&mut e);
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn fault_plane_with_a_past_regional_failure_panics() {
        use crate::fault::{FaultPlane, RegionalFailure};
        let mut e = engine();
        e.run_until(SimTime::from_secs(10));
        let locality = e.topology().locality(NodeId(0));
        e.set_fault_plane(FaultPlane::new().regional_failure(RegionalFailure {
            at: SimTime::from_secs(5),
            locality,
            recover_start: SimTime::from_secs(20),
            stagger: SimDuration::from_ms(100),
        }));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut e = engine();
            for i in 0..10u32 {
                e.schedule_at(
                    SimTime::from_ms(i as u64 * 7),
                    NodeId(i % 4),
                    Event::Recv {
                        from: NodeId((i + 1) % 4),
                        msg: PingMsg::Ping,
                    },
                );
            }
            e.run_until(SimTime::from_secs(20));
            (e.events_processed(), e.traffic().messages())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_run_matches_single_shard() {
        let drive = |shards: usize| {
            let mut e = engine_sharded(shards);
            for i in 0..40u32 {
                e.schedule_at(
                    SimTime::from_ms(i as u64 * 13),
                    NodeId(i % 20),
                    Event::Recv {
                        from: NodeId((i + 7) % 20),
                        msg: PingMsg::Ping,
                    },
                );
            }
            e.schedule_down(SimTime::from_ms(50), NodeId(2));
            e.schedule_up(SimTime::from_secs(2), NodeId(2));
            e.run_until(SimTime::from_secs(20));
            let pongs: Vec<u32> = e.topology().node_ids().map(|n| e.node(n).pongs).collect();
            (
                e.events_processed(),
                e.traffic().messages(),
                e.traffic().total_sent(TrafficClass::QueryControl),
                pongs,
            )
        };
        let reference = drive(1);
        for shards in [2, 3] {
            assert_eq!(drive(shards), reference, "shards={shards} diverged");
        }
    }

    #[test]
    fn fault_plane_results_are_shard_invariant() {
        use crate::fault::{FaultPlane, LinkLoss, Partition, RegionalFailure};
        let drive = |shards: usize| {
            let mut e = engine_sharded(shards);
            let la = e.topology().locality(NodeId(0));
            let lb = e
                .topology()
                .node_ids()
                .map(|n| e.topology().locality(n))
                .find(|l| *l != la)
                .expect("several localities");
            e.set_fault_plane(
                FaultPlane::new()
                    .partition(Partition {
                        start: SimTime::from_ms(100),
                        heal: SimTime::from_secs(3),
                        side_a: vec![la],
                        side_b: vec![lb],
                    })
                    .link_loss(LinkLoss {
                        start: SimTime::from_secs(4),
                        end: SimTime::from_secs(8),
                        probability: 0.4,
                        cross_locality_only: false,
                    })
                    .regional_failure(RegionalFailure {
                        at: SimTime::from_secs(9),
                        locality: lb,
                        recover_start: SimTime::from_secs(10),
                        stagger: SimDuration::from_ms(50),
                    }),
            );
            for i in 0..120u32 {
                e.schedule_at(
                    SimTime::from_ms(i as u64 * 97),
                    NodeId(i % 20),
                    Event::Recv {
                        from: NodeId((i + 7) % 20),
                        msg: PingMsg::Ping,
                    },
                );
            }
            e.run_until(SimTime::from_secs(20));
            let pongs: Vec<u32> = e.topology().node_ids().map(|n| e.node(n).pongs).collect();
            (
                e.events_processed(),
                e.traffic().messages(),
                e.metrics().counter(metrics::Counter::EngineFaultDrops),
                e.metrics().counter(metrics::Counter::DropQueryControl),
                e.metrics().counter(metrics::Counter::EngineBounces),
                pongs,
            )
        };
        let reference = drive(1);
        assert!(reference.2 > 0, "the plane must actually drop something");
        for shards in [2, 3] {
            assert_eq!(drive(shards), reference, "shards={shards} diverged");
        }
    }

    #[test]
    fn recv_counter_table_matches_traffic_class_order() {
        assert_eq!(RECV_COUNTER.len(), TrafficClass::ALL.len());
        let expected = [
            (TrafficClass::Gossip, "engine_recv_gossip"),
            (TrafficClass::Push, "engine_recv_push"),
            (TrafficClass::KeepAlive, "engine_recv_keepalive"),
            (TrafficClass::DhtRouting, "engine_recv_dht_routing"),
            (TrafficClass::DhtMaintenance, "engine_recv_dht_maintenance"),
            (TrafficClass::QueryControl, "engine_recv_query_control"),
            (TrafficClass::Transfer, "engine_recv_transfer"),
        ];
        for (i, (class, name)) in expected.iter().enumerate() {
            assert_eq!(TrafficClass::ALL[i], *class, "class order drifted");
            assert_eq!(class.index(), i, "class index drifted");
            assert_eq!(
                RECV_COUNTER[i].def().name,
                *name,
                "RECV_COUNTER[{i}] does not match {class:?}"
            );
        }
    }

    #[test]
    fn sent_drop_bounce_counter_tables_match_traffic_class_order() {
        assert_eq!(SENT_COUNTER.len(), TrafficClass::ALL.len());
        assert_eq!(DROP_COUNTER.len(), TrafficClass::ALL.len());
        assert_eq!(BOUNCE_COUNTER.len(), TrafficClass::ALL.len());
        let suffixes = [
            "gossip",
            "push",
            "keepalive",
            "dht_routing",
            "dht_maintenance",
            "query_control",
            "transfer",
        ];
        for (i, suffix) in suffixes.iter().enumerate() {
            assert_eq!(
                SENT_COUNTER[i].def().name,
                format!("engine_sent_{suffix}"),
                "SENT_COUNTER[{i}] drifted"
            );
            assert_eq!(
                DROP_COUNTER[i].def().name,
                format!("engine_drop_{suffix}"),
                "DROP_COUNTER[{i}] drifted"
            );
            assert_eq!(
                BOUNCE_COUNTER[i].def().name,
                format!("engine_bounce_{suffix}"),
                "BOUNCE_COUNTER[{i}] drifted"
            );
        }
    }

    #[test]
    fn registry_counts_events_classes_and_bounces() {
        let mut e = engine();
        e.schedule_down(SimTime::ZERO, NodeId(1));
        e.schedule_at(
            SimTime::from_ms(5),
            NodeId(0),
            // Timer kind 2: node 0 pings the (dead) node 1.
            Event::Timer { kind: 2, tag: 1 },
        );
        e.schedule_at(
            SimTime::from_ms(7),
            NodeId(2),
            Event::Recv {
                from: NodeId(3),
                msg: PingMsg::Ping,
            },
        );
        e.run_until(SimTime::from_secs(10));
        let m = e.metrics();
        assert_eq!(
            m.counter(metrics::Counter::EngineEvents),
            e.events_processed(),
            "registry replaces the events side-channel"
        );
        assert_eq!(m.counter(metrics::Counter::EngineTimers), 1);
        assert_eq!(m.counter(metrics::Counter::EngineBounces), 1);
        // node 2's ping reply reached node 3: one QueryControl receive
        // (the ping to the dead node 1 was never received).
        assert!(m.counter(metrics::Counter::RecvQueryControl) >= 1);
        assert_eq!(m.counter(metrics::Counter::RecvGossip), 0);
        assert!(!m.is_empty());
    }

    #[test]
    fn registry_sim_cells_are_shard_invariant() {
        let drive = |shards: usize| {
            let mut e = engine_sharded(shards);
            for i in 0..40u32 {
                e.schedule_at(
                    SimTime::from_ms(i as u64 * 13),
                    NodeId(i % 20),
                    Event::Recv {
                        from: NodeId((i + 7) % 20),
                        msg: PingMsg::Ping,
                    },
                );
            }
            e.schedule_down(SimTime::from_ms(50), NodeId(2));
            e.schedule_up(SimTime::from_secs(2), NodeId(2));
            e.run_until(SimTime::from_secs(20));
            e.metrics().sim_fingerprint()
        };
        let reference = drive(1);
        assert!(!reference.iter().all(|&v| v == 0));
        for shards in [2, 3] {
            assert_eq!(drive(shards), reference, "shards={shards} diverged");
        }
    }

    #[test]
    fn shard_count_is_clamped_to_localities() {
        let e = engine_sharded(64);
        assert_eq!(e.num_shards(), 3, "small_test has 3 localities");
        assert!(e.lookahead() >= SimDuration::from_ms(1));
    }

    /// The global-floor reference schedule, as data: with every
    /// `reach` entry flattened to the cross-locality floor `L`, the
    /// epoch bound `min_m(eff[m] + L)` is `min_eff + L` for every
    /// shard — all shards in lock-step epochs of the floor, the
    /// pre-matrix schedule.
    fn engine_on_the_global_floor(shards: usize) -> Engine<PingMsg, Echo> {
        let mut e = engine_sharded(shards);
        let floor = e.lookahead().as_ms().max(1);
        e.reach_ms.fill(floor);
        e
    }

    /// The tentpole guarantee of the lookahead matrix: the adaptive
    /// schedule is an execution detail — bit-identical observable
    /// behaviour, never more barrier rounds.
    #[test]
    fn lookahead_matrix_matches_global_floor_with_fewer_epochs() {
        let drive = |shards: usize, global_floor: bool| {
            let mut e = if global_floor {
                engine_on_the_global_floor(shards)
            } else {
                engine_sharded(shards)
            };
            for i in 0..60u32 {
                e.schedule_at(
                    SimTime::from_ms(i as u64 * 211),
                    NodeId(i % 20),
                    Event::Recv {
                        from: NodeId((i + 7) % 20),
                        msg: PingMsg::Ping,
                    },
                );
            }
            e.schedule_down(SimTime::from_ms(50), NodeId(2));
            e.schedule_up(SimTime::from_secs(2), NodeId(2));
            e.run_until(SimTime::from_secs(30));
            let pongs: Vec<u32> = e.topology().node_ids().map(|n| e.node(n).pongs).collect();
            let fingerprint = (e.events_processed(), e.traffic().messages(), pongs);
            (fingerprint, e.epochs())
        };
        for shards in [2usize, 3] {
            let (global_fp, global_epochs) = drive(shards, true);
            let (matrix_fp, matrix_epochs) = drive(shards, false);
            assert_eq!(matrix_fp, global_fp, "shards={shards}: results diverged");
            assert!(global_epochs > 0, "sharded runs must count epochs");
            assert!(
                matrix_epochs <= global_epochs,
                "shards={shards}: matrix must not synchronize more often \
                 ({matrix_epochs} vs {global_epochs})"
            );
        }
        // Single-shard runs have no barrier and count no epochs.
        let (_, epochs) = drive(1, false);
        assert_eq!(epochs, 0);
    }

    /// The causality trap a naive peers-only bound falls into: an
    /// idle shard looks unconstraining, but a message sent to it this
    /// round can wake it and draw a reply (here: a bounce off a dead
    /// node, emitted by the idle shard) due one round trip later. The
    /// overrunning shard must not process its own far-future events
    /// before that reply — the `reach` diagonal (round-trip
    /// reflection) enforces exactly this.
    #[test]
    fn matrix_mode_waits_for_replies_drawn_from_idle_shards() {
        let drive = |global_floor: bool| {
            let mut e = if global_floor {
                engine_on_the_global_floor(2)
            } else {
                engine_sharded(2)
            };
            // A node in shard 0 and a node in shard 1.
            let shard_of = |e: &Engine<PingMsg, Echo>, s: usize| {
                e.topology()
                    .node_ids()
                    .find(|n| e.place.shard(*n) == s)
                    .expect("both shards populated")
            };
            let a = shard_of(&e, 0);
            let c = shard_of(&e, 1);
            // Shard 1 starts with an *empty* queue. At t=1 a pure
            // shard-0 event (timer kind 2) makes `a` ping `c`; the
            // pong comes back one round trip later — while `a` also
            // holds a far-future timer that must not run first.
            e.schedule_at(
                SimTime::from_ms(1),
                a,
                Event::Timer {
                    kind: 2,
                    tag: c.0 as u64,
                },
            );
            e.schedule_at(SimTime::from_secs(50), a, Event::Timer { kind: 1, tag: 0 });
            e.run_until(SimTime::from_secs(60));
            (e.node(a).pongs, e.node(a).timer_fired, e.events_processed())
        };
        let global = drive(true);
        let matrix = drive(false);
        assert_eq!(matrix, global, "reply chain processed out of order");
        assert_eq!(matrix.0, 1, "the pong must reach the pinger");
    }

    /// A lone working shard: with pending events on one shard only,
    /// the idle peers constrain nothing and the skip-to-earliest-pending
    /// rule opens every round at the worker's next event, so each round
    /// processes at least one — and the results are those of the
    /// single-shard run.
    #[test]
    fn a_lone_working_shard_matches_the_single_shard_run() {
        // Pick a shard-0 node once, then drive the identical schedule
        // through both engines (pure-local timers: no cross mail).
        let probe = engine_sharded(3);
        let local = probe
            .topology()
            .node_ids()
            .find(|n| probe.place.shard(*n) == 0)
            .expect("shard 0 populated");
        let drive = |shards: usize| {
            let mut e = engine_sharded(shards);
            for i in 0..60u64 {
                e.schedule_at(
                    SimTime::from_ms(i * 499),
                    local,
                    Event::Timer { kind: 1, tag: 0 },
                );
            }
            e.run_until(SimTime::from_secs(40));
            (
                (e.events_processed(), e.traffic().messages(), e.now()),
                e.epochs(),
            )
        };
        let (reference, _) = drive(1);
        let (sharded, epochs) = drive(3);
        assert_eq!(sharded, reference, "diverged from the single-shard run");
        assert!(
            epochs <= sharded.0 + 1,
            "a round must open at a pending event: {epochs} rounds for {} events",
            sharded.0
        );
    }

    /// The dual pin: when *every* shard has due work each lookahead
    /// window — the shape of the dense `scale` sweep cells like
    /// 10k nodes / 8 shards — the epoch count stays exactly at the
    /// conservative-synchronization cadence, run after run.
    #[test]
    fn dense_rounds_keep_the_epoch_cadence() {
        let drive = || {
            let mut e = engine_sharded(3);
            let reps: Vec<NodeId> = (0..3)
                .map(|s| {
                    e.topology()
                        .node_ids()
                        .find(|n| e.place.shard(*n) == s)
                        .expect("all shards populated")
                })
                .collect();
            for step in 0..1500u64 {
                for &n in &reps {
                    e.schedule_at(
                        SimTime::from_ms(step * 20),
                        n,
                        Event::Timer { kind: 1, tag: 0 },
                    );
                }
            }
            e.run_until(SimTime::from_secs(30));
            (e.events_processed(), e.epochs())
        };
        let (events, epochs) = drive();
        assert_eq!(events, 3 * 1500);
        assert!(epochs > 0, "sharded runs count rounds");
        // And the cadence is reproducible from run to run.
        assert_eq!(drive(), (events, epochs));
    }

    /// Logs every event it is handed and counts the engine's
    /// [`Node::prefetch`] calls.
    #[derive(Default)]
    struct Hinted {
        seen: Vec<(u64, u64)>,
        hints: AtomicU64,
    }

    impl Node<PingMsg> for Hinted {
        fn prefetch(&self) {
            self.hints.fetch_add(1, Ordering::Relaxed);
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_, PingMsg>, ev: Event<PingMsg>) {
            let what = match ev {
                Event::Timer { tag, .. } => {
                    match tag % 4 {
                        // A same-instant self-send: filed into the day
                        // being drained, in front of entries the
                        // pipeline has already looked at.
                        0 => ctx.set_timer(SimDuration::ZERO, 1, tag + 1),
                        // Ping an even node (odd ones stay silent).
                        1 => {
                            let to = (tag * 7 % ctx.num_nodes() as u64) as u32 & !1;
                            ctx.send(NodeId(to), PingMsg::Ping);
                        }
                        _ => {}
                    }
                    tag
                }
                Event::Recv {
                    from,
                    msg: PingMsg::Ping,
                } => {
                    ctx.send(from, PingMsg::Pong);
                    u64::MAX
                }
                Event::Recv { .. } => u64::MAX - 1,
                Event::Undeliverable { .. } => u64::MAX - 2,
                Event::NodeUp => u64::MAX - 3,
            };
            self.seen.push((ctx.now().as_ms(), what));
        }
    }

    /// The lookahead pipeline reaches its last stage, only ever names
    /// a node the event is really for, and changes nothing: a hundred
    /// events per millisecond keep the sorted instant deep, same-instant
    /// self-sends land in front of entries already hinted, broadcast
    /// churn entries for nodes of *other* shards sit among them — and
    /// every node's log is the same whichever shard layout, and so
    /// whichever sorted instants, the pipeline looked ahead in.
    #[test]
    fn prefetch_hook_runs_for_owned_destinations_and_changes_nothing() {
        let drive = |shards: usize| {
            let topo = crate::topology::Topology::generate(&TopologyConfig::small_test(), 5);
            let nodes = (0..topo.num_nodes()).map(|_| Hinted::default()).collect();
            let mut e: Engine<PingMsg, Hinted> =
                Engine::with_shards(topo, nodes, 99, SimDuration::from_mins(30), shards);
            for i in 0..600u64 {
                let node = NodeId(2 * (i % 30) as u32);
                e.schedule_at(
                    SimTime::from_ms(i / 100),
                    node,
                    Event::Timer { kind: 1, tag: i },
                );
            }
            for silent in [1, 21, 41] {
                e.schedule_down(SimTime::from_ms(2), NodeId(silent));
                e.schedule_up(SimTime::from_ms(4), NodeId(silent));
            }
            e.run_until(SimTime::from_secs(5));
            let (seen, hints): (Vec<_>, Vec<_>) = e
                .topology()
                .node_ids()
                .map(|n| {
                    (
                        e.node(n).seen.clone(),
                        e.node(n).hints.load(Ordering::Relaxed),
                    )
                })
                .unzip();
            (seen, hints)
        };
        let (ref_seen, ref_hints) = drive(1);
        let (seen, hints) = drive(3);
        assert_eq!(seen, ref_seen, "a node saw something else on 3 shards");
        for (shards, hints) in [(1, ref_hints), (3, hints)] {
            assert!(
                hints.iter().sum::<u64>() > 300,
                "shards={shards}: the near stage went dead ({hints:?})"
            );
            for (n, h) in hints.iter().enumerate() {
                // Odd nodes are never addressed; the three that go
                // down and up are only named by churn entries.
                assert!(n % 2 == 0 || *h == 0, "shards={shards}: node {n} hinted");
            }
        }
    }

    #[test]
    fn reachability_bounds_close_over_emission_chains() {
        // Two shards, asymmetric lookaheads 10/30.
        let l = vec![u64::MAX, 10, 30, u64::MAX];
        let r = reachability_bounds(&l, 2);
        // Diagonal = own round trip; off-diagonal = direct hop.
        assert_eq!(r, vec![10 + 30, 10, 30, 30 + 10]);
        // Three shards where relaying through 1 beats the direct
        // 0 → 2 lookahead: dist(0,2) = 5 + 5 < 100.
        let l3 = vec![
            u64::MAX,
            5,
            100, // from 0
            5,
            u64::MAX,
            5, // from 1
            100,
            5,
            u64::MAX, // from 2
        ];
        let r3 = reachability_bounds(&l3, 3);
        // Earliest an event of shard 0 can become due at shard 2:
        // relay 0 → 1 (5) then hop 1 → 2 (5).
        assert_eq!(r3[2], 10); // row 0, column 2
                               // Shard 0's own reflection: out and back via shard 1.
        assert_eq!(r3[0], 10);
    }

    #[test]
    fn pair_lookahead_is_at_least_the_global_floor() {
        let e = engine_sharded(3);
        let floor = e.lookahead().as_ms();
        let k = e.num_shards();
        let pair = e
            .topology()
            .shard_lookahead_ms(&e.topology().shard_map(k), k);
        for i in 0..k {
            for j in 0..k {
                if i == j {
                    assert_eq!(pair[i * k + j], u64::MAX);
                } else {
                    assert!(pair[i * k + j] >= floor);
                }
            }
        }
    }

    #[test]
    fn per_node_rng_streams_differ() {
        use rand::RngCore;
        let mut a = StdRng::seed_from_u64(node_stream_seed(7, NodeId(0)));
        let mut b = StdRng::seed_from_u64(node_stream_seed(7, NodeId(1)));
        let mut a2 = StdRng::seed_from_u64(node_stream_seed(7, NodeId(0)));
        assert_ne!(a.next_u64(), b.next_u64(), "streams must be independent");
        let _ = a2.next_u64();
    }
}
