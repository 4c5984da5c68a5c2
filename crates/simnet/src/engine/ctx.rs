//! What a node sees of the simulator: the [`Node`] and [`Message`]
//! traits, the [`Event`]s a handler is given, the [`Action`]s it
//! buffers, and [`Ctx`], the sans-IO boundary between the two.
//!
//! Nothing here needs an [`Engine`](super::Engine). [`Ctx::new`] lends
//! a handler a clock reading, a topology, an RNG stream, two record-only
//! sinks and an action buffer, all owned by the caller — the shard loop
//! builds one per event, and a test can build one around a single
//! handler call and read back what the handler did.

use metrics::{MetricSet, MetricSink};
use rand::rngs::StdRng;

use crate::stats::{QueryStats, ServedBy, TrafficClass};
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
    /// into cache ([`engine`](super) module docs, "Lookahead
    /// prefetch"): the place to name the heap state a handler touches
    /// first. An implementation may read `&self` and pass references
    /// to [`crate::prefetch`], and nothing else — no interior
    /// mutability that a handler could observe, no allocation, no work
    /// whose result matters. The call is a forecast: it may come more
    /// than once before an event, for an event that ends up dropped
    /// (the node went down), or not at all (short days, the first
    /// events of a run), so nothing may depend on it having happened.
    /// The default does nothing.
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
    /// The context of one handler call on node `id` at `now`, the one
    /// way a `Ctx` is made. Everything is the caller's: `rng` is the
    /// node's stream (the engine seeds node `n`'s with
    /// [`node_stream_seed`]), the handler records into `query_stats`
    /// and `metrics`, and appends what it does to `out`, which the
    /// caller drains afterwards.
    #[inline]
    pub fn new(
        now: SimTime,
        id: NodeId,
        topo: &'a Topology,
        rng: &'a mut StdRng,
        query_stats: &'a mut QueryStats,
        metrics: &'a mut MetricSet,
        out: &'a mut Vec<Action<M>>,
    ) -> Self {
        Ctx {
            now,
            id,
            topo,
            rng,
            query_stats,
            metrics,
            out,
        }
    }

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
        served_by: ServedBy,
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
