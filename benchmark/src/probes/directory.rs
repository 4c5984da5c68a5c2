//! `core::directory`: Algorithm 3 and the index maintenance around it,
//! on a directory of the workload's mean petal size.

use std::hint::black_box;
use std::time::Instant;

use flower_core::DirectoryState;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Locality, NodeId};
use workload::WebsiteId;

use super::bloom::objects;
use super::{ns_per_call, Mix, OperatingPoint, Probe};

pub fn probe(at: &OperatingPoint) -> Vec<Probe> {
    let f = &at.cfg.flower;
    let capacity = at.cfg.catalog.objects_per_website;
    let universe = objects(capacity);
    let members = at.petal_size.clamp(1, f.max_overlay) as u32;
    let per_member = at.objects_per_peer.min(capacity);

    let mut mix = Mix(17);
    let mut dir = DirectoryState::new(
        WebsiteId(0),
        Locality(0),
        0,
        f.max_overlay,
        f.t_dead,
        capacity,
    );
    for m in 0..members {
        let held: Vec<_> = (0..per_member)
            .map(|_| universe[mix.below(capacity)])
            .collect();
        dir.apply_push(NodeId(m), &held, &[]);
    }

    let mut rng = StdRng::seed_from_u64(at.cfg.seed);
    let process_ns = ns_per_call(|i| {
        let asker = NodeId(i as u32 % members);
        black_box(dir.process(&mut rng, universe[i % capacity], asker, f.max_dir_hops, 0));
    });
    let view_seed_ns = ns_per_call(|i| {
        black_box(dir.view_seed(f.v_gossip, NodeId(i as u32 % members)));
    });
    // A push that adds one object and a later one that takes it back.
    let extra = [bloom::ObjectId(u64::MAX / 5)];
    let mut step = 0u32;
    let apply_push_ns = ns_per_call(|_| {
        let peer = NodeId((step / 2) % members);
        if step.is_multiple_of(2) {
            dir.apply_push(peer, &extra, &[]);
        } else {
            dir.apply_push(peer, &[], &extra);
        }
        step = step.wrapping_add(1);
    });
    // Every member is refreshed (untimed) before its age can reach
    // `Tdead`, so ticks sweep a full index and evict nobody.
    let ticks_per_round = f.t_dead.saturating_sub(2).clamp(1, 8);
    let (mut tick_s, mut ticks) = (0.0, 0u32);
    for _ in 0..50 {
        for m in 0..members {
            dir.keepalive(NodeId(m));
        }
        let t = Instant::now();
        for _ in 0..ticks_per_round {
            black_box(dir.tick());
        }
        tick_s += t.elapsed().as_secs_f64();
        ticks += ticks_per_round;
    }
    vec![
        ("core.directory.process_ns", process_ns, "ns"),
        ("core.directory.view_seed_ns", view_seed_ns, "ns"),
        ("core.directory.apply_push_ns", apply_push_ns, "ns"),
        ("core.directory.tick_ns", tick_s * 1e9 / ticks as f64, "ns"),
    ]
}
