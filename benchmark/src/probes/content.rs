//! `core::content`: a content peer building and absorbing gossip, and
//! scanning its view's summaries for a queried object.

use std::hint::black_box;

use bloom::ContentSummary;
use flower_core::{ContentPeerState, GossipEntry, GossipPayload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Locality, NodeId};
use workload::WebsiteId;

use super::bloom::objects;
use super::{ns_per_call, ns_per_prepared_call, OperatingPoint, Probe};

pub fn probe(at: &OperatingPoint) -> Vec<Probe> {
    let (v, l) = (at.cfg.flower.v_gossip, at.cfg.flower.l_gossip);
    let capacity = at.cfg.catalog.objects_per_website;
    let universe = objects(capacity);
    let held = &universe[..at.objects_per_peer.min(capacity)];
    let me = NodeId(0);

    // A peer with a full view whose contacts all carry summaries.
    let mut peer = ContentPeerState::new(WebsiteId(0), Locality(0), v, capacity);
    for o in held {
        peer.insert_object(*o);
    }
    let payload_from = |from: u32, round: u32| GossipPayload {
        website: WebsiteId(0),
        locality: Locality(0),
        summary: ContentSummary::from_objects(capacity, held),
        subset: (0..l as u32)
            .map(|j| GossipEntry {
                peer: NodeId(1 + (from + round + j) % (2 * v as u32)),
                age: j,
                summary: Some(ContentSummary::from_objects(capacity, held)),
            })
            .collect(),
        dir_hint: Some((NodeId(u32::MAX), 1)),
    };
    for from in 1..=v as u32 {
        peer.absorb_gossip(me, NodeId(from), payload_from(from, 0), 10);
    }

    let mut rng = StdRng::seed_from_u64(at.cfg.seed);
    let build_gossip_ns = ns_per_call(|_| {
        black_box(peer.build_gossip(&mut rng, l));
    });
    let summary_candidates_ns = ns_per_call(|i| {
        black_box(peer.summary_candidates(universe[i % capacity], &[]));
    });
    let absorb_gossip_ns = ns_per_prepared_call(
        |calls| -> Vec<GossipPayload> {
            (0..calls as u32)
                .map(|r| payload_from(r % v as u32, r))
                .collect()
        },
        |payloads, i| {
            let from = NodeId(1 + (i % v) as u32);
            let payload = payloads.pop().expect("one payload per call");
            peer.absorb_gossip(me, from, payload, 10);
        },
    );
    vec![
        ("core.content.build_gossip_ns", build_gossip_ns, "ns"),
        ("core.content.absorb_gossip_ns", absorb_gossip_ns, "ns"),
        (
            "core.content.summary_candidates_ns",
            summary_candidates_ns,
            "ns",
        ),
    ]
}
