//! `simnet::engine`: dispatch with a free handler.

use simnet::{
    Ctx, Engine, Event, Message, Node, NodeId, SimDuration, SimTime, Topology, TrafficClass,
};

use super::{OperatingPoint, Probe};

/// A message that costs nothing to build or handle.
#[derive(Clone, Debug)]
pub struct Ping;

impl Message for Ping {
    fn wire_size(&self) -> u32 {
        64
    }
    fn class(&self) -> TrafficClass {
        TrafficClass::QueryControl
    }
}

/// Forwards every ping to a fixed partner: all that is left per event
/// is the engine's own work — queue, dispatch, latency, ledger.
pub struct PingNode {
    partner: NodeId,
}

impl Node<Ping> for PingNode {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Ping>, ev: Event<Ping>) {
        if let Event::Recv { .. } = ev {
            ctx.send(self.partner, Ping);
        }
    }
}

/// An engine of ping nodes on the workload's topology and shard count,
/// with one ping in flight per node.
pub fn ping_engine(at: &OperatingPoint) -> Engine<Ping, PingNode> {
    let topo = Topology::generate(&at.cfg.topology, at.cfg.seed);
    let n = topo.num_nodes() as u64;
    let nodes = (0..n)
        .map(|i| PingNode {
            // A fixed pseudo-random partner, mostly in another locality.
            partner: NodeId(((i.wrapping_mul(2_654_435_761) + 1) % n) as u32),
        })
        .collect();
    let mut engine = Engine::with_shards(topo, nodes, at.cfg.seed, at.cfg.window, at.cfg.shards);
    for i in 0..n as u32 {
        engine.schedule_at(
            SimTime::from_ms(i as u64 % 500),
            NodeId(i),
            Event::Recv {
                from: NodeId(i),
                msg: Ping,
            },
        );
    }
    engine
}

/// Simulated seconds the ping engine runs; at 10–500 ms links every
/// node forwards a handful of pings per second.
const PING_SIM_SECS: u64 = 2;

pub fn probe(at: &OperatingPoint) -> Vec<Probe> {
    let mut engine = ping_engine(at);
    // Warm the queue and the node state up, then time a second stretch.
    engine.run_until(SimTime::from_secs(PING_SIM_SECS));
    let before = engine.events_processed();
    let t = std::time::Instant::now();
    engine.run_until(SimTime::from_secs(PING_SIM_SECS) + SimDuration::from_secs(PING_SIM_SECS));
    // Every shard thread is busy (or waiting at the barrier) for the
    // whole stretch: the cost of an event is thread time, the unit of
    // the single-thread probes the model subtracts from this one.
    let thread_ns = t.elapsed().as_secs_f64() * 1e9 * at.cfg.shards as f64;
    let events = (engine.events_processed() - before).max(1);
    vec![(
        "simnet.engine.empty_dispatch_ns",
        thread_ns / events as f64,
        "ns",
    )]
}
