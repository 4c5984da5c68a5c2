//! `gossip`: Algorithm 4's subset selection and merge on a full view.

use std::hint::black_box;

use gossip::{View, ViewEntry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{ns_per_call, OperatingPoint, Probe};

pub fn probe(at: &OperatingPoint) -> Vec<Probe> {
    let (v, l) = (at.cfg.flower.v_gossip, at.cfg.flower.l_gossip);
    let mut view: View<u32, u64> = View::new(v);
    for peer in 0..v as u32 {
        view.insert_fresh(peer, peer as u64);
    }
    let mut rng = StdRng::seed_from_u64(at.cfg.seed);
    let select_ns = ns_per_call(|_| {
        black_box(view.select_subset(&mut rng, l));
    });
    // Half of every received subset is already known, half is new.
    let merge_ns = ns_per_call(|i| {
        let base = (i * l) as u32;
        let subset = (0..l as u32)
            .map(|j| ViewEntry {
                peer: if j % 2 == 0 { j } else { v as u32 + base + j },
                age: j,
                data: 0,
            })
            .collect();
        view.merge(u32::MAX, ViewEntry::fresh(v as u32 + base, 0), subset);
        view.increment_ages();
    });
    vec![
        ("gossip.select_ns", select_ns, "ns"),
        ("gossip.merge_ns", merge_ns, "ns"),
    ]
}
