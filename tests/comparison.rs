//! Flower-CDN vs Squirrel at test scale: the qualitative claims of
//! §6.3–6.4 must hold in any run long enough to warm up.

use std::sync::Arc;

use flower_cdn::core::system::{submissions, FlowerSystem, SystemConfig};
use flower_cdn::core::FlowerMsg;
use flower_cdn::simnet::{Event, NodeId};
use flower_cdn::squirrel::{SquirrelMsg, SquirrelSystem};
use flower_cdn::workload::{Catalog, CatalogConfig, Communities, QueryGen, Surge, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pair(
    seed: u64,
) -> (
    flower_cdn::core::SystemReport,
    flower_cdn::squirrel::SquirrelReport,
) {
    let cfg = SystemConfig {
        seed,
        ..SystemConfig::small_test()
    };
    (FlowerSystem::run(&cfg).1, SquirrelSystem::run(&cfg).1)
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

/// Everything a finished Squirrel run reports: every `SquirrelReport`
/// field (floats by their bits), the events processed, an FNV-1a hash
/// of the registry's sim-scope cells, and the hit, lookup and transfer
/// series as `(window start ms, sum bits, count)` points.
#[derive(Debug, PartialEq)]
struct SquirrelPin {
    report: [u64; 7],
    events: u64,
    registry_fnv: u64,
    series: [Vec<(u64, u64, u64)>; 3],
}

fn squirrel_pin(sys: &SquirrelSystem, r: &flower_cdn::squirrel::SquirrelReport) -> SquirrelPin {
    let engine = sys.engine();
    let mut registry_fnv = 0xcbf2_9ce4_8422_2325u64;
    for word in engine.metrics().sim_fingerprint() {
        for byte in word.to_le_bytes() {
            registry_fnv = (registry_fnv ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let q = engine.query_stats();
    let points = |s: &flower_cdn::simnet::TimeSeries| {
        s.points()
            .iter()
            .map(|p| (p.at.as_ms(), p.sum.to_bits(), p.count))
            .collect()
    };
    SquirrelPin {
        report: [
            r.submitted,
            r.resolved,
            r.hit_ratio.to_bits(),
            r.mean_lookup_ms.to_bits(),
            r.mean_transfer_ms.to_bits(),
            r.mean_transfer_hit_ms.to_bits(),
            r.participants as u64,
        ],
        events: engine.events_processed(),
        registry_fnv,
        series: [
            points(q.hit_series()),
            points(q.lookup_series()),
            points(q.transfer_series()),
        ],
    }
}

/// Regression pin for the Squirrel baseline at seed 42 on the small
/// deployment: the comparator's numbers move only on purpose.
#[test]
fn squirrel_cell_pins_every_report_field() {
    let cfg = SystemConfig::small_test();
    let (sys, r) = SquirrelSystem::run(&cfg);
    assert_eq!(
        squirrel_pin(&sys, &r),
        SquirrelPin {
            report: [
                6033,
                6033,
                4607089853516776244,
                4645008263601204214,
                4640458336571541428,
                4640457850925406106,
                102,
            ],
            events: 21068,
            registry_fnv: 4855943536664123939,
            series: [
                vec![
                    (0, 4648057863074217984, 613),
                    (60000, 4648708773957861376, 625),
                    (120000, 4648620813027639296, 615),
                    (180000, 4648603220841594880, 613),
                    (240000, 4648242581027684352, 572),
                    (300000, 4648453687260217344, 596),
                    (360000, 4648612016934617088, 614),
                    (420000, 4648541648190439424, 606),
                    (480000, 4648339338050928640, 583),
                    (540000, 4648444891167195136, 595),
                    (600000, 4607182418800017408, 1),
                ],
                vec![
                    (0, 4692439340691750912, 613),
                    (60000, 4690219272096448512, 625),
                    (120000, 4688455397747458048, 615),
                    (180000, 4687021668944576512, 613),
                    (240000, 4685357180138815488, 572),
                    (300000, 4684318966284288000, 596),
                    (360000, 4683498077774938112, 614),
                    (420000, 4683663622994395136, 606),
                    (480000, 4681748411177762816, 583),
                    (540000, 4680978203282505728, 595),
                    (600000, 4649957819167014912, 1),
                ],
                vec![
                    (0, 4681283455198167040, 528),
                    (60000, 4679845431427989504, 404),
                    (120000, 4677695199000920064, 306),
                    (180000, 4676878399300435968, 264),
                    (240000, 4675166047379128320, 209),
                    (300000, 4674418379472240640, 185),
                    (360000, 4672864219786379264, 160),
                    (420000, 4673050312129380352, 156),
                    (480000, 4671747390850465792, 124),
                    (540000, 4671550303391186944, 114),
                    (600000, 4643070478330626048, 1),
                ],
            ],
        }
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

    let flower: Vec<_> = submissions(trace.clone(), |qid, website, object| FlowerMsg::Submit {
        qid,
        website,
        object,
    })
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
    let squirrel: Vec<_> = submissions(trace, |qid, website, object| SquirrelMsg::Submit {
        qid,
        website,
        object,
    })
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
