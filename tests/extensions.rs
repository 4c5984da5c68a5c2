//! Integration tests for the implemented extensions: §8 active
//! replication, §8 cache replacement and §5.3 scale-up keys.

use flower_cdn::core::system::{FlowerSystem, SystemConfig};
use flower_cdn::core::{CachePolicy, KeyScheme};
use flower_cdn::simnet::{Locality, SimDuration};
use flower_cdn::workload::WebsiteId;

fn base(seed: u64) -> SystemConfig {
    SystemConfig {
        seed,
        ..SystemConfig::small_test()
    }
}

#[test]
fn active_replication_spreads_hot_objects() {
    let mut off = base(51);
    let mut on = base(51);
    on.flower.replication_period = Some(SimDuration::from_secs(20));
    off.flower.replication_period = None;

    let (_, r_off) = FlowerSystem::run(&off);
    let (sys_on, r_on) = FlowerSystem::run(&on);

    // Replication must actually move objects: replica traffic exists.
    let t = sys_on.engine().traffic();
    assert!(
        t.total_sent(flower_cdn::simnet::TrafficClass::Push) > 0,
        "replication control plane silent"
    );
    // And must not hurt the system.
    assert!(
        r_on.hit_ratio >= r_off.hit_ratio - 0.05,
        "replication degraded hit ratio: {:.3} vs {:.3}",
        r_on.hit_ratio,
        r_off.hit_ratio
    );
    assert!(r_on.resolved as f64 >= r_on.submitted as f64 * 0.99);
}

#[test]
fn bounded_caches_evict_and_stay_consistent() {
    let mut cfg = base(52);
    cfg.flower.cache_policy = CachePolicy::Lru;
    cfg.flower.cache_capacity = 5; // tiny: heavy eviction churn
    let (sys, r) = FlowerSystem::run(&cfg);
    // Caches respect the bound.
    let ws = WebsiteId(0);
    for l in 0..cfg.topology.localities as u16 {
        for n in sys.community(ws, Locality(l)) {
            if let Some(cp) = sys.engine().node(*n).content_role(ws) {
                assert!(
                    cp.content_len() <= 5,
                    "peer {n:?} holds {} objects with capacity 5",
                    cp.content_len()
                );
            }
        }
    }
    // The system still works (hit ratio reduced but positive).
    assert!(r.hit_ratio > 0.05, "hit ratio collapsed: {}", r.hit_ratio);
    assert!(r.resolved as f64 >= r.submitted as f64 * 0.99);

    // Eviction pressure lowers the hit ratio vs unbounded.
    let (_, unbounded) = FlowerSystem::run(&base(52));
    assert!(
        r.hit_ratio <= unbounded.hit_ratio + 0.01,
        "tiny caches should not beat unbounded: {:.3} vs {:.3}",
        r.hit_ratio,
        unbounded.hit_ratio
    );
}

#[test]
fn lfu_policy_also_works_end_to_end() {
    let mut cfg = base(53);
    cfg.flower.cache_policy = CachePolicy::Lfu;
    cfg.flower.cache_capacity = 10;
    let (_, r) = FlowerSystem::run(&cfg);
    assert!(r.hit_ratio > 0.05);
    assert!(r.resolved as f64 >= r.submitted as f64 * 0.99);
}

#[test]
fn scale_up_keys_route_consistently() {
    // §5.3: with b instance bits, several directory peers per
    // (website, locality) coexist as ring neighbours; standard routing
    // still finds each exactly.
    use flower_cdn::chord::{stable_ring, ChordConfig, PeerRef};
    use flower_cdn::simnet::NodeId;

    let scheme = KeyScheme::new(8, 2);
    let mut members = Vec::new();
    let mut idx = 0u32;
    for ws in 0..4u16 {
        for l in 0..3u16 {
            for inst in 0..4u32 {
                members.push(PeerRef {
                    id: scheme.key_with_instance(WebsiteId(ws), Locality(l), inst),
                    node: NodeId(idx),
                });
                idx += 1;
            }
        }
    }
    let states = stable_ring(&members, &ChordConfig::default());
    // Every member is responsible exactly for its own key.
    for (m, st) in members.iter().zip(&states) {
        assert!(st.is_responsible(m.id));
        for other in &members {
            if other.node != m.node {
                assert!(!st.is_responsible(other.id), "overlapping responsibility");
            }
        }
    }
}
