//! Driving the public API directly: custom topology, §5.3 scale-up
//! key scheme, and inspection of the running overlay.
//!
//! Shows what the `FlowerSystem` harness does under the hood, for
//! users who want to embed the protocol in their own simulations.
//!
//! ```sh
//! cargo run --release --example custom_deployment
//! ```

use flower_cdn::chord;
use flower_cdn::core::id::KeyScheme;
use flower_cdn::core::system::{FlowerSystem, SystemConfig};
use flower_cdn::simnet::{Locality, Topology, TopologyConfig};
use flower_cdn::workload::WebsiteId;

fn main() {
    // 1. A custom underlay: 800 nodes, 4 localities, tighter latency
    //    range than the paper's.
    let topo_cfg = TopologyConfig {
        nodes: 800,
        localities: 4,
        min_latency_ms: 5,
        max_latency_ms: 300,
        ..Default::default()
    };
    let topo = Topology::generate(&topo_cfg, 123);
    println!(
        "underlay: {} nodes in {} localities",
        topo.num_nodes(),
        topo.num_localities()
    );
    for l in 0..topo.num_localities() as u16 {
        println!("  locality {l}: {} nodes", topo.population(Locality(l)));
    }

    // 2. The §5.3 scale-up key scheme: b = 2 instance bits allow four
    //    directory peers (hence four content overlays) per
    //    (website, locality).
    let scheme = KeyScheme::new(8, 2);
    let ws = WebsiteId(3);
    println!("\n§5.3 extended D-ring keys for {ws}:");
    for loc in 0..2u16 {
        for inst in 0..scheme.instances() as u32 {
            let key = scheme.key_with_instance(ws, Locality(loc), inst);
            println!(
                "  d(ws={ws}, loc={loc}, instance={inst}) = {key} (locality_of={}, instance_of={})",
                scheme.locality_of(key),
                scheme.instance_of(key)
            );
        }
    }
    // All four instances of a (ws, loc) pair sit next to each other on
    // the ring, so Algorithm 2 still confines routing to the website.
    let a = scheme.key_with_instance(ws, Locality(0), 0);
    let b = scheme.key_with_instance(ws, Locality(0), 3);
    assert!(scheme.same_website(a, b));
    assert_eq!(chord::ChordId(b.0 - a.0), chord::ChordId(3));

    // 3. A full system on the custom underlay.
    let cfg = SystemConfig {
        topology: topo_cfg,
        workload: flower_cdn::workload::WorkloadConfig {
            query_rate_per_sec: 8.0,
            duration_ms: 5 * 60 * 1000,
            ..Default::default()
        },
        catalog: flower_cdn::workload::CatalogConfig {
            num_websites: 10,
            active_websites: 3,
            objects_per_website: 50,
            ..Default::default()
        },
        flower: flower_cdn::core::FlowerConfig::fast_test(),
        seed: 123,
        window: flower_cdn::simnet::SimDuration::from_secs(30),
        shards: 2,
    };
    let (sys, report) = FlowerSystem::run(&cfg);
    println!("\ncustom deployment after 5 simulated minutes:");
    println!(
        "  hit ratio {:.3}, lookup {:.0} ms, transfer {:.0} ms",
        report.hit_ratio, report.mean_lookup_ms, report.mean_transfer_ms
    );

    // 4. Inspect a directory peer's state through the public API.
    let d = sys
        .initial_directory(WebsiteId(0), Locality(0))
        .expect("directory exists");
    let node = sys.engine().node(d);
    let role = node.dir_role().expect("still a directory");
    println!(
        "  d(ws0, loc0) on node {d}: {} content peers indexed, {} ring neighbours",
        role.dir.overlay_size(),
        role.ring.known_peers().len()
    );
    assert!(report.resolved > 0);
    println!("ok");
}
