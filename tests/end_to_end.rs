//! Cross-crate integration tests: full Flower-CDN simulations through
//! the public facade, exercising D-ring routing, content overlays,
//! gossip, pushes, and metrics plumbing together.

use flower_cdn::core::system::{FlowerSystem, SystemConfig};
use flower_cdn::core::FlowerConfig;
use flower_cdn::metrics::Counter;
use flower_cdn::simnet::{Locality, SimDuration, TrafficClass};
use flower_cdn::workload::WebsiteId;

fn small(seed: u64) -> SystemConfig {
    SystemConfig {
        seed,
        ..SystemConfig::small_test()
    }
}

#[test]
fn full_pipeline_resolves_queries() {
    let (sys, r) = FlowerSystem::run(&small(1));
    assert!(r.submitted > 1_000);
    assert!(
        r.resolved as f64 >= r.submitted as f64 * 0.99,
        "{}/{}",
        r.resolved,
        r.submitted
    );
    assert!(r.hit_ratio > 0.4, "hit ratio {}", r.hit_ratio);
    // Every traffic class the protocol uses shows up.
    let t = sys.engine().traffic();
    for class in [
        TrafficClass::Gossip,
        TrafficClass::Push,
        TrafficClass::KeepAlive,
        TrafficClass::DhtRouting,
        TrafficClass::QueryControl,
        TrafficClass::Transfer,
    ] {
        assert!(t.total_sent(class) > 0, "no {class:?} traffic");
    }
}

#[test]
fn run_is_a_pure_function_of_the_seed() {
    let (_, a) = FlowerSystem::run(&small(77));
    let (_, b) = FlowerSystem::run(&small(77));
    assert_eq!(a.submitted, b.submitted);
    assert_eq!(a.resolved, b.resolved);
    assert_eq!(a.redirection_failures, b.redirection_failures);
    assert!((a.hit_ratio - b.hit_ratio).abs() < 1e-12);
    assert!((a.mean_lookup_ms - b.mean_lookup_ms).abs() < 1e-9);
    assert!((a.mean_transfer_ms - b.mean_transfer_ms).abs() < 1e-9);
    assert!((a.background_bps - b.background_bps).abs() < 1e-9);
}

#[test]
fn overlays_fill_and_respect_capacity() {
    let cfg = small(3);
    let (sys, _) = FlowerSystem::run(&cfg);
    let mut total_members = 0usize;
    for ws in 0..cfg.catalog.active_websites as u16 {
        for l in 0..cfg.topology.localities as u16 {
            let d = sys.initial_directory(WebsiteId(ws), Locality(l)).unwrap();
            let node = sys.engine().node(d);
            let role = node
                .dir_role()
                .expect("directory role intact without churn");
            assert!(
                role.dir.overlay_size() <= cfg.flower.max_overlay,
                "overlay exceeded Sco: {}",
                role.dir.overlay_size()
            );
            total_members += role.dir.overlay_size();
        }
    }
    assert!(total_members > 20, "overlays stayed empty: {total_members}");
}

#[test]
fn content_peers_cache_what_they_requested() {
    let cfg = small(4);
    let (sys, _) = FlowerSystem::run(&cfg);
    let ws = WebsiteId(0);
    let mut peers_with_content = 0;
    for l in 0..cfg.topology.localities as u16 {
        for n in sys.community(ws, Locality(l)) {
            if let Some(cp) = sys.engine().node(*n).content_role(ws) {
                assert!(cp.directory().is_some(), "member without directory");
                if cp.content_len() > 0 {
                    peers_with_content += 1;
                }
            }
        }
    }
    assert!(
        peers_with_content > 10,
        "only {peers_with_content} peers hold content"
    );
}

#[test]
fn gossip_views_converge_within_overlays() {
    let cfg = small(5);
    let (sys, _) = FlowerSystem::run(&cfg);
    let ws = WebsiteId(0);
    // After the run, members of an overlay should know several
    // overlay-mates (views seeded + gossip merge).
    let mut view_sizes = Vec::new();
    for l in 0..cfg.topology.localities as u16 {
        for n in sys.community(ws, Locality(l)) {
            if let Some(cp) = sys.engine().node(*n).content_role(ws) {
                view_sizes.push(cp.view_len());
                // Views only contain same-overlay members (never the
                // node itself).
                assert!(!cp.knows(*n));
            }
        }
    }
    let avg = view_sizes.iter().sum::<usize>() as f64 / view_sizes.len().max(1) as f64;
    assert!(
        avg >= 2.0,
        "average view size {avg} too small for a gossiping overlay"
    );
}

#[test]
fn dring_first_access_then_overlay() {
    // §3.4: D-ring serves only first accesses. Query-carrying DHT
    // routing should therefore be rare relative to the query volume
    // (the bulk of DhtRouting messages are finger-maintenance
    // lookups, which scale with time, not queries).
    let (sys, r) = FlowerSystem::run(&small(6));
    let dht_msgs = sys.engine().metrics().counter(Counter::SentDhtRouting);
    assert!(dht_msgs > 0, "new clients must route through D-ring");
    // Query routes are bounded by (first queries × hops) plus finger
    // lookups; allow both but require they stay well below several
    // messages per query.
    assert!(
        (dht_msgs as f64) < (r.resolved as f64) * 5.0,
        "D-ring used too often: {dht_msgs} routed msgs for {} queries",
        r.resolved
    );
}

#[test]
fn locality_awareness_keeps_hits_local() {
    let (_, r) = FlowerSystem::run(&small(7));
    assert!(
        r.local_hit_fraction > 0.5,
        "locality-aware redirection should keep most hits local: {}",
        r.local_hit_fraction
    );
}

#[test]
fn tighter_gossip_raises_hit_ratio() {
    // Table 2(b)'s shape at test scale: faster gossip ⇒ better hit
    // ratio (fresher summaries), more background traffic.
    let mut slow = small(8);
    slow.flower = FlowerConfig {
        t_gossip: SimDuration::from_mins(8),
        ..FlowerConfig::fast_test()
    };
    let mut fast = small(8);
    fast.flower = FlowerConfig {
        t_gossip: SimDuration::from_secs(5),
        ..FlowerConfig::fast_test()
    };
    let (_, rs) = FlowerSystem::run(&slow);
    let (_, rf) = FlowerSystem::run(&fast);
    assert!(
        rf.hit_ratio >= rs.hit_ratio,
        "fast gossip {:.3} should beat slow gossip {:.3}",
        rf.hit_ratio,
        rs.hit_ratio
    );
    assert!(
        rf.background_bps > rs.background_bps * 2.0,
        "fast gossip must cost more bandwidth ({:.1} vs {:.1})",
        rf.background_bps,
        rs.background_bps
    );
}

#[test]
fn queries_to_inactive_websites_would_be_served_too() {
    // The D-ring covers all 6 websites even though only 2 are active;
    // directories of inactive sites exist and are reachable.
    let cfg = small(9);
    let sys = FlowerSystem::build(&cfg);
    for ws in 0..cfg.catalog.num_websites as u16 {
        for l in 0..cfg.topology.localities as u16 {
            let d = sys.initial_directory(WebsiteId(ws), Locality(l)).unwrap();
            assert!(sys.engine().node(d).is_directory());
        }
    }
}
