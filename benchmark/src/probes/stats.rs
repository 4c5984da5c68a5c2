//! `simnet::stats`: the per-query fold and the per-message ledger.

use simnet::stats::ServedBy;
use simnet::{NodeId, QueryStats, ShardTraffic, SimTime, TrafficClass};

use super::{ns_per_call, Mix, OperatingPoint, Probe};

pub fn probe(at: &OperatingPoint) -> Vec<Probe> {
    let served = [
        ServedBy::OwnCache,
        ServedBy::LocalOverlay,
        ServedBy::RemoteOverlay,
        ServedBy::OriginServer,
    ];
    let mut stats = QueryStats::new(at.cfg.window);
    let query_fold_ns = ns_per_call(|i| {
        let i = i as u64;
        stats.on_resolved(
            SimTime::from_ms(i / 4),
            NodeId(i as u32),
            40 + i % 900,
            10 + i % 400,
            served[i as usize % served.len()],
        );
    });
    std::hint::black_box(stats.resolved());

    // One send plus one receive, at endpoints spread over the whole
    // population like the run's.
    let nodes = at.cfg.topology.nodes;
    let mut ledger = ShardTraffic::new((0..nodes as u32).map(NodeId).collect(), at.cfg.window);
    let mut mix = Mix(11);
    let ends: Vec<(usize, usize)> = (0..4096)
        .map(|_| (mix.below(nodes), mix.below(nodes)))
        .collect();
    let classes = [
        TrafficClass::Gossip,
        TrafficClass::KeepAlive,
        TrafficClass::QueryControl,
        TrafficClass::DhtRouting,
    ];
    let traffic_record_ns = ns_per_call(|i| {
        let (from, to) = ends[i % ends.len()];
        let class = classes[i % classes.len()];
        ledger.record_sent(SimTime::from_ms(i as u64 / 4), from, class, 120);
        ledger.record_recv(to, class, 120);
    });
    std::hint::black_box(ledger.messages());
    vec![
        ("simnet.stats.query_fold_ns", query_fold_ns, "ns"),
        ("simnet.stats.traffic_record_ns", traffic_record_ns, "ns"),
    ]
}
