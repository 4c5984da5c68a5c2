//! Flash crowd: the scenario motivating the paper — an
//! under-provisioned website suddenly referenced by a popular site.
//!
//! One active website takes a query storm; we watch the origin
//! server's load per window collapse as the community absorbs the
//! crowd, exactly the "server load relief" the hit ratio stands for
//! in §6 ("the fraction of queries reflected by the hit ratio are not
//! redirected to the server").
//!
//! ```sh
//! cargo run --release --example flash_crowd
//! ```

use flower_cdn::core::system::{FlowerSystem, SystemConfig};
use flower_cdn::simnet::SimDuration;

fn main() {
    let mut cfg = SystemConfig::small_test();
    cfg.seed = 99;
    // One website, hammered: a 50 q/s flash crowd for 10 minutes.
    cfg.catalog.active_websites = 1;
    cfg.workload.query_rate_per_sec = 50.0;
    cfg.workload.duration_ms = 10 * 60 * 1000;
    cfg.window = SimDuration::from_secs(30);

    println!(
        "flash crowd: {} q/s against one website of {} objects…",
        cfg.workload.query_rate_per_sec, cfg.catalog.objects_per_website
    );
    let (sys, report) = FlowerSystem::run(&cfg);

    // Every query the origin server had to serve is a miss of its
    // window (the hit series holds one 0/1 sample per resolution);
    // hits never reach it.
    let hits = sys.engine().query_stats().hit_series().points();
    let loads: Vec<u64> = hits.iter().map(|p| p.count - p.sum as u64).collect();

    println!("\nwindow   queries-at-server   hit ratio");
    for (h, &at_server) in hits.iter().zip(&loads) {
        if h.count == 0 {
            continue;
        }
        let bar = "#".repeat((at_server as usize).min(60));
        println!(
            "{:>5}s   {:>6} {:<60}   {:.2}",
            h.at.as_secs(),
            at_server,
            bar,
            h.mean()
        );
    }

    let first = loads.iter().copied().find(|n| *n > 0).unwrap_or(0);
    let last = loads.iter().rev().copied().find(|n| *n > 0).unwrap_or(0);
    println!(
        "\nserver load: {first} queries in the first window → {last} in the last ({}% relief)",
        (last * 100).checked_div(first).map_or(0, |v| 100 - v)
    );
    println!(
        "final hit ratio: {:.3} over {} queries",
        report.hit_ratio, report.resolved
    );
    assert!(
        last * 2 < first || report.hit_ratio > 0.8,
        "the community should absorb the flash crowd"
    );
    println!("ok — the community absorbed the crowd");
}
