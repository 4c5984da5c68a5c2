//! `chord`: the routing decision on a converged D-ring of the
//! workload's directory count, and the cost of converging it.

use std::collections::HashMap;
use std::hint::black_box;

use chord::{hash64, stable_ring, ChordConfig, ChordId, PeerRef};
use simnet::NodeId;

use super::{ns_per_call, secs_per_call, Mix, OperatingPoint, Probe};

pub fn probe(at: &OperatingPoint) -> Vec<Probe> {
    let dirs = at.cfg.catalog.num_websites * at.cfg.topology.localities;
    let members: Vec<PeerRef> = (0..dirs as u32)
        .map(|i| PeerRef {
            id: ChordId(hash64(i as u64)),
            node: NodeId(i),
        })
        .collect();
    let cfg = ChordConfig::default();
    let stable_ring_s = secs_per_call(|| stable_ring(&members, &cfg));
    let ring = stable_ring(&members, &cfg);
    let at_node: HashMap<NodeId, usize> = members
        .iter()
        .enumerate()
        .map(|(i, m)| (m.node, i))
        .collect();

    // Whole routes, hop by hop, from a random member to a random key:
    // the mix of long jumps and cheap final hops real routing has. One
    // call is one hop.
    let mut mix = Mix(13);
    let (mut here, mut key) = (0usize, ChordId(mix.next()));
    let next_hop_ns = ns_per_call(|_| {
        let next = black_box(ring[here].local_lookup(key));
        if next.node == ring[here].me().node {
            here = mix.below(ring.len());
            key = ChordId(mix.next());
        } else {
            here = at_node[&next.node];
        }
    });
    vec![
        ("chord.next_hop_ns", next_hop_ns, "ns"),
        ("chord.stable_ring_s", stable_ring_s, "s"),
    ]
}
