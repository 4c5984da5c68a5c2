//! # simnet — discrete-event network simulator
//!
//! The substrate underneath the Flower-CDN reproduction. The paper
//! (El Dick, Pacitti, Kemme; EDBT 2009) evaluates Flower-CDN with the
//! PeerSim event-driven simulator over a BRITE-generated Internet
//! topology; this crate is the from-scratch equivalent:
//!
//! * a millisecond-resolution simulated clock ([`SimTime`]) and a
//!   deterministic event queue ([`event::EventQueue`]);
//! * an Internet-like underlay topology with per-link latencies in a
//!   configurable range (default 10–500 ms, matching the paper) and
//!   landmark-based network localities ([`topology`]);
//! * a generic protocol engine ([`engine::Engine`]) that delivers
//!   messages with link latency, runs timers, accounts traffic by
//!   class, injects churn — and shards the simulation by locality for
//!   parallel execution;
//! * measurement utilities ([`stats`]): per-class traffic accounting,
//!   fixed-width histograms (the paper's latency/distance
//!   distributions), windowed time series (the paper's
//!   metric-vs-time figures), and the paper's four query metrics
//!   (hit ratio, lookup latency, transfer distance, background
//!   traffic).
//!
//! ## Time, ordering and determinism
//!
//! Simulated time is a `u64` millisecond clock. Every scheduled event
//! carries an [`event::EventKey`] `(time, source stream, per-stream
//! sequence number)`: external injections number themselves from one
//! engine-wide counter (stream 0), and everything node `n` emits —
//! sends, timers, engine-generated bounces — is numbered by `n`'s own
//! emission counter (stream `n + 1`). Events execute in ascending key
//! order. Because the key never references *global* insertion order,
//! the order is a pure function of the configuration and seed — it
//! does not depend on how the simulation is partitioned or scheduled
//! onto threads.
//!
//! The *storage* behind that order is a hierarchical **timing wheel**
//! at the clock's 1 ms resolution (Varghese & Lauck, SOSP 1987), with
//! nothing tuned or resized. Same-instant ties break by the full
//! `EventKey`, so the storage can only change wall-clock speed, never
//! results (pinned against a test-only binary-heap reference by the
//! proptests in [`event`], and by the seed-42 stat pins in
//! `tests/shard_parity.rs`).
//!
//! Randomness follows the same discipline: there is no engine-global
//! RNG. Node `n` draws from a private `StdRng` stream seeded with
//! `hash(seed, n)` ([`engine::node_stream_seed`]), so one node's
//! draws never perturb another's.
//!
//! ## Sharded parallel execution
//!
//! [`Engine::with_shards`] partitions the nodes by network locality
//! into `K` shards ([`Topology::shard_map`]), each with its own event
//! queue, clock, RNG streams and statistics, running on its own
//! thread. Shards synchronize through a *conservative epoch barrier*:
//! epoch bounds come from the topology's per-shard-pair **lookahead
//! matrix** ([`Topology::shard_lookahead_ms`]) — guaranteed lower
//! bounds on the latency of any link between two shards, never below
//! the global floor [`Topology::cross_locality_lookahead`] — so a
//! cross-shard message emitted during an epoch is always due in a
//! later epoch and can be handed over at the barrier in between.
//! Within an epoch shards share no mutable state (liveness flags are
//! replicated and driven by broadcast churn events), so the parallel
//! run is equivalent to the sequential execution in global key order.
//! Together with the layout-independent keys and per-node RNG streams
//! this makes runs **bit-identical for every shard count, including
//! `K = 1`** — the single-shard path simply skips threads and
//! barriers.
//!
//! Statistics are accumulated per shard and merged deterministically
//! at read time (integer counters, plus integer-valued `f64` window
//! sums for which IEEE addition is exact); see [`stats`].
//!
//! ## Example
//!
//! ```
//! use simnet::prelude::*;
//!
//! // A trivial protocol: every node forwards a token once.
//! #[derive(Clone, Debug)]
//! struct Token(u32);
//! impl Message for Token {
//!     fn wire_size(&self) -> u32 { 4 }
//!     fn class(&self) -> TrafficClass { TrafficClass::QueryControl }
//! }
//! struct Hop;
//! impl Node<Token> for Hop {
//!     fn on_event(&mut self, ctx: &mut Ctx<'_, Token>, ev: Event<Token>) {
//!         if let Event::Recv { msg: Token(n), .. } = ev {
//!             if n > 0 {
//!                 let next = NodeId((ctx.id().0 + 1) % ctx.num_nodes() as u32);
//!                 ctx.send(next, Token(n - 1));
//!             }
//!         }
//!     }
//! }
//!
//! let topo = Topology::generate(&TopologyConfig::small_test(), 42);
//! let nodes = (0..topo.num_nodes()).map(|_| Hop).collect();
//! let mut engine = Engine::new(topo, nodes, 7);
//! engine.schedule_in(SimDuration::ZERO, NodeId(0), Event::Recv {
//!     from: NodeId(0),
//!     msg: Token(5),
//! });
//! engine.run_until(SimTime::from_secs(10));
//! assert!(engine.now() <= SimTime::from_secs(10));
//! ```

pub mod churn;
pub mod engine;
pub mod event;
pub mod fault;
pub mod stats;
pub mod sync;
pub mod time;
pub mod topology;

pub use churn::{ChurnConfig, ChurnEvent, ChurnKind, ChurnScript};
pub use engine::{
    node_stream_seed, Action, Ctx, Engine, Event, Injection, Message, Node, QuerySink,
};
pub use event::EventKey;
pub use fault::{FaultPlane, LinkLoss, Partition, RegionalFailure};
pub use stats::{
    Histogram, QueryStats, SeriesPoint, ShardTraffic, TimeSeries, Traffic, TrafficClass,
};
pub use sync::{MailboxGrid, SenseBarrier, SenseWaiter};
pub use time::{SimDuration, SimTime};
pub use topology::{Locality, NodeId, Topology, TopologyConfig};

/// Most bytes one [`prefetch`] call asks for: five lines. The largest
/// thing the shard loop names that a handler then reads whole is one
/// 176-byte content-role entry (a website id and its
/// `ContentPeerState`), which an unaligned start spreads over up to
/// four lines; a bound of four has not been measured. Anything longer
/// (a directory role, a many-role array) costs its first lines only.
const PREFETCH_MAX_BYTES: usize = 320;

/// Tell the cache that `r` is about to be read: a hint for each
/// 64-byte line the value occupies, up to `PREFETCH_MAX_BYTES` (320).
/// It changes no architectural state — no value, no flag, no fault —
/// so a program computes exactly what it computes without the call;
/// only how long the first real access waits can differ. The one
/// entry point of the engine's lookahead pipeline ([`engine`],
/// "Lookahead prefetch"); a no-op on targets other than x86-64.
#[inline(always)]
pub fn prefetch<T: ?Sized>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = std::ptr::from_ref(r).cast::<i8>();
        let bytes = std::mem::size_of_val(r).min(PREFETCH_MAX_BYTES);
        if bytes == 0 {
            // An empty slice points nowhere worth a page walk.
            return;
        }
        // From the line holding the first byte to the one holding the
        // last: an unaligned value straddles one line more than its
        // size suggests.
        let lead = start.addr() % 64;
        let mut at = 0;
        while at < lead + bytes {
            // SAFETY: PREFETCHT0 is a hint: it never faults and
            // neither reads nor writes anything the program can
            // observe, whatever address it is given. The address here
            // lies in the lines spanned by `*r`, a live reference.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(start.wrapping_sub(lead).wrapping_add(at)) };
            at += 64;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// Convenient glob-import of the types almost every consumer needs.
pub mod prelude {
    pub use crate::churn::{ChurnConfig, ChurnScript};
    pub use crate::engine::{Ctx, Engine, Event, Message, Node};
    pub use crate::fault::{FaultPlane, LinkLoss, Partition, RegionalFailure};
    pub use crate::stats::{Histogram, QueryStats, TimeSeries, Traffic, TrafficClass};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{Locality, NodeId, Topology, TopologyConfig};
}
