//! `simnet::fault` and `simnet::churn`: the per-message partition test
//! and the cost of installing a churn script.

use std::hint::black_box;

use simnet::{
    ChurnConfig, ChurnScript, FaultPlane, Locality, NodeId, Partition, SimDuration, SimTime,
};

use super::engine::ping_engine;
use super::{ns_per_call, secs_per_call, OperatingPoint, Probe};

pub fn probe(at: &OperatingPoint) -> Vec<Probe> {
    // Every pair of localities but the first two severed, as in the
    // faulted workload's script; tested in the middle of the window.
    let k = at.cfg.topology.localities as u16;
    let (start, heal) = (SimTime::from_secs(10), SimTime::from_secs(20));
    let mut plane = FaultPlane::new();
    for a in 2..k {
        for b in a + 1..k {
            plane = plane.partition(Partition {
                start,
                heal,
                side_a: vec![Locality(a)],
                side_b: vec![Locality(b)],
            });
        }
    }
    let now = SimTime::from_secs(15);
    let cuts_ns = ns_per_call(|i| {
        let (a, b) = ((i as u16) % k, (i as u16 / k) % k);
        black_box(plane.cuts(now, Locality(a), Locality(b)));
    });

    // Session churn over an eighth of the population for 90 s.
    let affected: Vec<NodeId> = (0..at.cfg.topology.nodes as u32 / 8).map(NodeId).collect();
    let churn = ChurnConfig {
        start: SimTime::from_secs(8),
        end: SimTime::from_secs(98),
        mean_session: SimDuration::from_secs(48),
        mean_downtime: SimDuration::from_secs(8),
        permanent: false,
    };
    let mut engine = ping_engine(at);
    let install_s = secs_per_call(|| {
        ChurnScript::generate(&churn, &affected, at.cfg.seed).install(&mut engine);
    });
    vec![
        ("simnet.fault.cuts_ns", cuts_ns, "ns"),
        ("simnet.churn.install_s", install_s, "s"),
    ]
}
