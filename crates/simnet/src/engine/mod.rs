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
//! deterministic and unit-testable: [`Ctx::new`] builds one around a
//! single handler call with no engine behind it.
//!
//! One module per seam: `ctx` (the node-facing types), `shard` (the
//! shard loop: step, dispatch, deliver, flush, the prefetch pipeline),
//! `wire` (the fate of a wire message and its per-class counters),
//! `source` (the injection source), `exchange` (the cross-shard
//! barrier rounds) and this one, [`Engine`]'s public API.
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
//! injection addressed to one of its nodes, and moves into its queue
//! every injection due no later than the queue head's instant — all
//! of the instant being drained, never one of a later instant, so at
//! most one instant's injections are resident (about ten on
//! `query_storm_10k`). The keys are the ones eager scheduling would
//! have issued and the queue pops in key order, so moving an injection
//! early changes where it waits, not when it runs. A shard's published
//! "earliest pending" covers its source head, so a shard with nothing
//! but future injections is never mistaken for an idle one.
//!
//! ## Lookahead prefetch
//!
//! At 100k nodes and more, what an event costs is mostly waiting for
//! memory: its payload, its node, the node's RNG stream, the role
//! state behind the node — each the *first touch* of a line that was
//! last used tens of thousands of events ago. Every one of those
//! addresses is knowable ahead of time, because the instant the queue
//! is draining is already sorted in pop order
//! ([`EventQueue::upcoming`](crate::event::EventQueue::upcoming)) —
//! source injections included, since the source releases the whole
//! instant (previous section), so a query submission is seen coming
//! like any wire event. So right after every pop the shard loop
//! (`Shard::step` in `shard`: pop, look ahead, dispatch — the one path
//! an event takes to its node) calls `prefetch_ahead`, which walks the
//! dependency chain *entry → payload slot → destination → node → role
//! state*, one stage per link, each at a fixed distance behind the new
//! head:
//!
//! * **8 events ahead** it reads the sorted entry (contiguous, hot)
//!   and hints a message's slab slot; a timer's entry is all of it.
//! * **5 ahead** it reads that payload's destination (`App.dst` /
//!   `Wire.to`; a timer's is its emitter, named by the entry's stream;
//!   churn entries are skipped) and its placement, and
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

mod ctx;
mod exchange;
mod shard;
mod source;
mod wire;

use std::cell::OnceCell;
use std::sync::Arc;

use metrics::{Counter, Gauge, MetricSet};
use rand::{rngs::StdRng, SeedableRng};

pub use ctx::{node_stream_seed, Action, Ctx, Event, Message, Node, QuerySink};
pub use source::Injection;
pub use wire::{BOUNCE_COUNTER, DROP_COUNTER, RECV_COUNTER, SENT_COUNTER};

use crate::event::{EventKey, EventQueue};
use crate::stats::{QueryStats, ShardTraffic, Traffic};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};
use exchange::reachability_bounds;
use shard::{Liveness, NodeSlab, Pending, Placement, Shard, Staged};
use source::{ShardSource, SOURCE_BLOCK};

/// Issue the next [`EventKey`] on a stream whose sequence counter is
/// `seq` — the one rule every key of the engine follows: node `n`
/// emits on stream `n + 1` (its sends and timers, and the bounces of
/// messages to it), and external injections, `emitter` `None`, on
/// stream 0.
#[inline]
fn next_key(at: SimTime, emitter: Option<NodeId>, seq: &mut u64) -> EventKey {
    let src = emitter.map_or(0, |n| n.0 as u64 + 1);
    let key = EventKey { at, src, seq: *seq };
    *seq += 1;
    key
}

/// The node whose emission stream a node-emitted `key` is on: the
/// inverse of [`next_key`].
#[inline]
fn emitter(key: EventKey) -> NodeId {
    debug_assert!(key.src > 0, "an injection has no emitter");
    NodeId(u32::try_from(key.src - 1).expect("a node's stream is its id + 1"))
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
    topo: Arc<Topology>,
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
    merged: OnceCell<Merged>,
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
        let n = nodes.len();
        assert_eq!(topo.num_nodes(), n, "one protocol node per underlay node");
        assert!(shards >= 1, "need at least one shard");
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
        let mut shards: Vec<Shard<M, N>> = (members.into_iter().enumerate())
            .map(|(id, members)| Shard {
                id,
                nodes: Vec::with_capacity(members.len()),
                slab: NodeSlab::with_capacity(members.len()),
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
        // Distribute node state and RNG streams in global id order, so
        // the local indices assigned above line up.
        for (i, state) in nodes.into_iter().enumerate() {
            let node = NodeId(i as u32);
            let shard = &mut shards[place.shard(node)];
            shard.nodes.push(state);
            shard
                .slab
                .push(StdRng::seed_from_u64(node_stream_seed(seed, node)));
        }

        Engine {
            topo: Arc::new(topo),
            shards,
            place,
            reach_ms,
            now: SimTime::ZERO,
            ext_seq: 0,
            merged: OnceCell::new(),
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
        self.max_over_shards(Counter::EngineEpochs)
    }

    /// The largest value counter `c` reached on any one shard.
    fn max_over_shards(&self, c: Counter) -> u64 {
        let per_shard = self.shards.iter().map(|s| s.metrics.counter(c));
        per_shard.max().unwrap_or(0)
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

    /// The run as one comparable value — the single definition of
    /// "the same run": events dispatched, the merged query statistics
    /// and traffic ledger (cloned whole: every counter, histogram
    /// bucket and windowed series the figures print) and the
    /// registry's [`MetricSet::sim_fingerprint`]. Equal for every
    /// shard layout of one seed and schedule.
    pub fn sim_state(&self) -> (u64, QueryStats, Traffic, Vec<u64>) {
        let merged = self.merged();
        (
            self.events_processed(),
            merged.query_stats.clone(),
            merged.traffic.clone(),
            merged.metrics.sim_fingerprint(),
        )
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
            let idle_max = self.max_over_shards(Counter::EngineBarrierIdleNs);
            merged.metrics.gauge_max(Gauge::BarrierIdleMaxNs, idle_max);
            merged
        })
    }

    /// The next key on the external injection stream, for an event at
    /// `at`: every external scheduling path comes through here, and
    /// none may reach behind the clock.
    fn ext_key(&mut self, at: SimTime) -> EventKey {
        assert!(at >= self.now, "cannot schedule in the past");
        next_key(at, None, &mut self.ext_seq)
    }

    /// Schedule an event for `node` at absolute time `at` (external
    /// injection: workload queries, test fixtures).
    pub fn schedule_at(&mut self, at: SimTime, node: NodeId, ev: Event<M>) {
        let key = self.ext_key(at);
        let shard = &mut self.shards[self.place.shard(node)];
        shard.queue.push(key, Pending::App { dst: node, ev });
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
            let first = s.source.head.as_ref().map(|(key, ..)| key.at);
            assert!(
                first.is_none_or(|at| at >= self.now),
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
    /// timers are swallowed), on every shard.
    pub fn schedule_down(&mut self, at: SimTime, node: NodeId) {
        self.broadcast(at, node, Pending::ChurnDown);
    }

    /// Bring `node` back up at time `at`; it receives
    /// [`Event::NodeUp`].
    pub fn schedule_up(&mut self, at: SimTime, node: NodeId) {
        self.broadcast(at, node, Pending::ChurnUp);
    }

    /// Queue the churn transition `churn` of `node` at `at` on every
    /// shard, under one key, so all liveness maps agree.
    fn broadcast(&mut self, at: SimTime, node: NodeId, churn: fn(NodeId) -> Pending<M>) {
        let key = self.ext_key(at);
        for s in &mut self.shards {
            s.queue.push(key, churn(node));
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
        let plane = Arc::new(plane);
        for s in &mut self.shards {
            s.fault = Some(Arc::clone(&plane));
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
            // Single shard: no epochs, no threads; every emission is
            // local, so the outbox stays empty.
            let mut outbox: Vec<Vec<Staged<M>>> = vec![Vec::new()];
            self.shards[0].run_epoch(limit, &self.topo, &self.place, &mut outbox);
            debug_assert!(outbox[0].is_empty());
        } else {
            self.run_sharded(limit);
        }
        // Every clock stands at the deadline, however early the queues
        // ran dry.
        self.now = self.now.max(deadline);
        for s in &mut self.shards {
            s.now = s.now.max(deadline);
        }
        self.events_processed() - start
    }
}

#[cfg(test)]
mod layout_parity;

#[cfg(test)]
mod source_parity;

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;
    use crate::stats::TrafficClass;
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
        /// Every timer of a kind without a handler below, as
        /// `(fired at ms, kind, tag)`.
        fired: Vec<(u64, u16, u64)>,
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
                // Timer kind 4 arms a timer of its own, `tag` ms out,
                // at the extremes of kind and with the tag inverted.
                Event::Timer { kind: 4, tag } => {
                    ctx.set_timer(SimDuration::from_ms(tag), u16::MAX, !tag)
                }
                Event::Timer { kind, tag } => self.fired.push((ctx.now().as_ms(), kind, tag)),
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
        assert!(!e.node(NodeId(0)).fired.is_empty());
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
            e.node(NodeId(0)).fired.is_empty(),
            "timer on a down node must be swallowed"
        );
    }

    /// A timer a handler arms fires on its node with the kind and tag
    /// it was armed with, and is counted as a timer event.
    #[test]
    fn node_armed_timers_fire_with_their_kind_and_tag() {
        for shards in [1, 2] {
            let mut e = engine_sharded(shards);
            e.schedule_at(
                SimTime::from_ms(3),
                NodeId(5),
                Event::Timer { kind: 4, tag: 250 },
            );
            e.schedule_at(SimTime::ZERO, NodeId(6), Event::Timer { kind: 4, tag: 0 });
            e.run_until(SimTime::from_secs(1));
            assert_eq!(e.node(NodeId(5)).fired, [(253, u16::MAX, !250)]);
            assert_eq!(e.node(NodeId(6)).fired, [(0, u16::MAX, u64::MAX)]);
            assert_eq!(e.metrics().counter(metrics::Counter::EngineTimers), 4);
            assert_eq!(e.events_processed(), 4, "shards={shards}");
        }
    }

    /// A timer a handler armed, falling due while its node is down, is
    /// swallowed: not delivered, not counted.
    #[test]
    fn node_armed_timers_die_with_their_node() {
        let mut e = engine();
        e.schedule_at(SimTime::ZERO, NodeId(0), Event::Timer { kind: 4, tag: 500 });
        e.schedule_down(SimTime::from_ms(100), NodeId(0));
        e.run_until(SimTime::from_secs(1));
        assert!(
            e.node(NodeId(0)).fired.is_empty(),
            "delivered to a down node"
        );
        assert_eq!(e.metrics().counter(metrics::Counter::EngineTimers), 1);
        assert_eq!(e.events_processed(), 1);
    }

    /// A timer armed before a down/up cycle and due after `NodeUp` is
    /// delivered: the restart does not clear it.
    #[test]
    fn node_armed_timers_survive_a_down_up_cycle() {
        let mut e = engine();
        e.schedule_at(SimTime::ZERO, NodeId(0), Event::Timer { kind: 4, tag: 500 });
        e.schedule_down(SimTime::from_ms(100), NodeId(0));
        e.schedule_up(SimTime::from_ms(200), NodeId(0));
        e.run_until(SimTime::from_secs(1));
        assert_eq!(e.node(NodeId(0)).revived, 1);
        assert_eq!(e.node(NodeId(0)).fired, [(500, u16::MAX, !500)]);
        assert_eq!(e.metrics().counter(metrics::Counter::EngineTimers), 2);
        assert_eq!(e.events_processed(), 3, "timer, NodeUp, timer");
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
    #[should_panic(expected = "cannot inject in the past")]
    fn attaching_a_source_that_starts_in_the_past_panics() {
        let mut e = engine();
        e.run_until(SimTime::from_secs(10));
        let late = [5, 20].map(SimTime::from_secs);
        e.attach_source(late.into_iter().map(|at| (at, NodeId(0), Event::NodeUp)));
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
            e.sim_state()
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
            (e.sim_state(), pongs)
        };
        let reference = drive(1);
        let ((_, _, _, registry), _) = &reference;
        assert!(registry.iter().any(|&v| v > 0), "the registry is populated");
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
            let drops = e.metrics().counter(metrics::Counter::EngineFaultDrops);
            (e.sim_state(), pongs, drops)
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
            ((e.sim_state(), pongs), e.epochs())
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
            (
                e.node(a).pongs,
                !e.node(a).fired.is_empty(),
                e.events_processed(),
            )
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
            ((e.sim_state(), e.now()), e.epochs())
        };
        let (reference, _) = drive(1);
        let (sharded, epochs) = drive(3);
        assert_eq!(sharded, reference, "diverged from the single-shard run");
        let ((events, ..), _) = sharded;
        assert!(
            epochs <= events + 1,
            "a round must open at a pending event: {epochs} rounds for {events} events"
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
                // Timer kind 2 is periodic: it re-arms itself 10 ms out.
                Event::Timer { kind: 2, tag } => {
                    ctx.set_timer(SimDuration::from_ms(10), 2, tag);
                    tag
                }
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

    /// The lookahead finds a node-armed timer's node in its key: fifty
    /// nodes on one 10-ms period keep every instant fifty timers deep,
    /// all but the first instant's armed by the nodes themselves, and
    /// the near stage hints all but the first few of each instant.
    #[test]
    fn node_armed_timers_are_looked_ahead_to() {
        let topo = crate::topology::Topology::generate(&TopologyConfig::small_test(), 5);
        let nodes = (0..topo.num_nodes()).map(|_| Hinted::default()).collect();
        let mut e: Engine<PingMsg, Hinted> = Engine::new(topo, nodes, 99);
        for n in 0..50 {
            e.schedule_at(SimTime::ZERO, NodeId(n), Event::Timer { kind: 2, tag: 0 });
        }
        e.run_until(SimTime::from_ms(999));
        assert_eq!(
            e.metrics().counter(metrics::Counter::EngineTimers),
            100 * 50
        );
        let hints: u64 = e
            .topology()
            .node_ids()
            .map(|n| e.node(n).hints.load(Ordering::Relaxed))
            .sum();
        assert!(hints >= 100 * 45, "{hints} hints for 100 instants of 50");
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
