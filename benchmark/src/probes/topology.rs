//! `simnet::topology`: generation and the per-send latency lookup.

use std::hint::black_box;

use simnet::{NodeId, Topology};

use super::{ns_per_call, secs_per_call, Mix, OperatingPoint, Probe};

pub fn probe(at: &OperatingPoint) -> Vec<Probe> {
    let cfg = &at.cfg.topology;
    let generate_s = secs_per_call(|| Topology::generate(cfg, at.cfg.seed));
    let topo = Topology::generate(cfg, at.cfg.seed);
    let mut mix = Mix(7);
    let pairs: Vec<(NodeId, NodeId)> = (0..4096)
        .map(|_| {
            (
                NodeId(mix.below(cfg.nodes) as u32),
                NodeId(mix.below(cfg.nodes) as u32),
            )
        })
        .collect();
    let latency_ns = ns_per_call(|i| {
        let (a, b) = pairs[i % pairs.len()];
        black_box(topo.latency_ms(a, b));
    });
    vec![
        ("simnet.topology.latency_ns", latency_ns, "ns"),
        ("simnet.topology.generate_s", generate_s, "s"),
    ]
}
