//! Flower-CDN vs Squirrel at test scale: the qualitative claims of
//! §6.3–6.4 must hold in any run long enough to warm up.

use std::sync::Arc;

use flower_cdn::core::system::{FlowerSystem, SystemConfig};
use flower_cdn::core::FlowerMsg;
use flower_cdn::simnet::{Event, NodeId};
use flower_cdn::squirrel::{SquirrelConfig, SquirrelMsg, SquirrelSystem};
use flower_cdn::workload::{Catalog, CatalogConfig, Communities, QueryGen, Surge, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pair(
    seed: u64,
) -> (
    flower_cdn::core::SystemReport,
    flower_cdn::squirrel::SquirrelReport,
) {
    let fcfg = SystemConfig {
        seed,
        ..SystemConfig::small_test()
    };
    let scfg = SquirrelConfig {
        seed,
        ..SquirrelConfig::small_test()
    };
    let (_, f) = FlowerSystem::run(&fcfg);
    let (_, s) = SquirrelSystem::run(&scfg);
    (f, s)
}

/// §6.4 / Figure 7: locality-aware lookup beats DHT-per-query lookup.
#[test]
fn flower_lookup_latency_beats_squirrel() {
    let (f, s) = pair(31);
    assert!(
        f.mean_lookup_ms * 2.0 < s.mean_lookup_ms,
        "expected ≥2× lookup win, got flower {:.0} ms vs squirrel {:.0} ms",
        f.mean_lookup_ms,
        s.mean_lookup_ms
    );
}

/// §6.4 / Figure 8: transfers of P2P-served queries stay closer in
/// Flower-CDN (the paper uses the metric "with queries satisfied from
/// the P2P system"; self-hits and server fallbacks dilute the
/// all-queries mean at small scale).
#[test]
fn flower_transfer_distance_beats_squirrel() {
    let (f, s) = pair(32);
    assert!(
        f.mean_transfer_hit_ms < s.mean_transfer_hit_ms,
        "expected shorter P2P transfers, got flower {:.0} ms vs squirrel {:.0} ms",
        f.mean_transfer_hit_ms,
        s.mean_transfer_hit_ms
    );
}

/// §6.3 / Figure 6: Squirrel's single search space converges at least
/// as high as Flower-CDN's partitioned one; both must be substantial.
#[test]
fn hit_ratios_converge_with_squirrel_at_least_as_high() {
    let (f, s) = pair(33);
    assert!(s.hit_ratio > 0.5, "squirrel hit ratio {:.3}", s.hit_ratio);
    assert!(f.hit_ratio > 0.4, "flower hit ratio {:.3}", f.hit_ratio);
    assert!(
        s.hit_ratio > f.hit_ratio - 0.05,
        "partitioned search space should not beat the global one: {:.3} vs {:.3}",
        f.hit_ratio,
        s.hit_ratio
    );
}

/// Both systems resolve essentially every query they were given.
#[test]
fn both_systems_resolve_their_traces() {
    let (f, s) = pair(34);
    assert!(f.resolved as f64 >= f.submitted as f64 * 0.99);
    assert!(s.resolved as f64 >= s.submitted as f64 * 0.99);
    // Trace-identical workloads: same query counts.
    assert_eq!(
        f.submitted, s.submitted,
        "the two systems must see the same trace"
    );
}

/// "Trace-identical" by construction: both harnesses inject from the
/// one `workload::OriginatedTrace`, so over the same communities and
/// draw stream they see the same `(qid, at, website, object, origin)`
/// sequence — surges, equal-instant ties and skipped queries included.
#[test]
fn both_harnesses_inject_the_same_originated_trace() {
    let catalog = Catalog::new(CatalogConfig::small_test());
    let workload = WorkloadConfig {
        query_rate_per_sec: 200.0,
        duration_ms: 20_000,
        surges: vec![
            Surge::FlashCrowd {
                start_ms: 5_000,
                end_ms: 9_000,
                website_rank: 1,
                extra_rate_per_sec: 500.0,
            },
            Surge::Diurnal {
                period_ms: 10_000,
                peak_extra_rate_per_sec: 300.0,
            },
        ],
        ..Default::default()
    };
    // Website 1 has clients in one of three localities only, so some
    // of its queries find no originator and are skipped.
    let mut communities = Communities::new(3);
    for l in 0..3 {
        communities.insert(
            flower_cdn::workload::WebsiteId(0),
            l,
            vec![NodeId(l as u32)],
        );
    }
    communities.insert(
        flower_cdn::workload::WebsiteId(1),
        2,
        (10..20).map(NodeId).collect(),
    );
    let trace = QueryGen::new(&workload, &catalog, 77)
        .originated(Arc::new(communities), StdRng::seed_from_u64(5));

    let flower: Vec<_> = flower_cdn::core::system::submissions(trace.clone())
        .map(|(at, node, ev)| match ev {
            Event::Recv {
                from,
                msg:
                    FlowerMsg::Submit {
                        qid,
                        website,
                        object,
                    },
            } if from == node => (qid, at, website, object, node),
            other => panic!("not a self-addressed Submit: {other:?}"),
        })
        .collect();
    let squirrel: Vec<_> = flower_cdn::squirrel::system::submissions(trace.clone())
        .map(|(at, node, ev)| match ev {
            Event::Recv {
                from,
                msg:
                    SquirrelMsg::Submit {
                        qid,
                        website,
                        object,
                    },
            } if from == node => (qid, at, website, object, node),
            other => panic!("not a self-addressed Submit: {other:?}"),
        })
        .collect();
    assert_eq!(flower, squirrel);
    assert!(flower.len() > 4_000, "only {} queries", flower.len());
    let skipped = flower.last().expect("non-empty").0 + 1 - flower.len() as u64;
    assert!(skipped > 0, "the sparse website must lose some queries");
    assert!(flower
        .windows(2)
        .all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
}
