//! Churn resilience: kill directory peers mid-run and churn a third
//! of the content peers, then watch §5's machinery — keepalive-based
//! failure detection, jittered directory replacement (§5.2), and
//! redirection-failure retries (§5.1) — keep the CDN serving.
//!
//! ```sh
//! cargo run --release --example churn_resilience
//! ```

use flower_cdn::core::system::{FlowerSystem, SystemConfig};
use flower_cdn::metrics::Counter;
use flower_cdn::simnet::{ChurnConfig, ChurnScript, Locality, NodeId, SimDuration, SimTime};
use flower_cdn::workload::WebsiteId;

fn main() {
    let mut cfg = SystemConfig::small_test();
    cfg.seed = 5;
    cfg.workload.duration_ms = 20 * 60 * 1000; // 20 simulated minutes
    let horizon = SimTime::from_ms(cfg.workload.duration_ms);

    let mut sys = FlowerSystem::build(&cfg);

    // Kill every active website's directory peer in locality 0 at t=5min.
    let mut kills = Vec::new();
    for ws in 0..cfg.catalog.active_websites as u16 {
        if let Some(d) = sys.initial_directory(WebsiteId(ws), Locality(0)) {
            kills.push((SimTime::from_mins(5), d));
        }
    }
    println!("killing {} directory peers at t=5min", kills.len());
    sys.apply_churn(&ChurnScript::kill_at(&kills));

    // Session churn over a third of each community.
    let mut affected: Vec<NodeId> = Vec::new();
    for ws in 0..cfg.catalog.active_websites as u16 {
        for l in 0..cfg.topology.localities as u16 {
            let comm = sys.community(WebsiteId(ws), Locality(l));
            affected.extend(comm.iter().take(comm.len() / 3));
        }
    }
    affected.sort_unstable_by_key(|n| n.0);
    affected.dedup();
    let churn = ChurnConfig {
        start: SimTime::from_mins(2),
        end: horizon,
        mean_session: SimDuration::from_mins(5),
        mean_downtime: SimDuration::from_mins(1),
        permanent: false,
    };
    let script = ChurnScript::generate(&churn, &affected, cfg.seed);
    println!(
        "churning {} content peers ({} events)",
        affected.len(),
        script.len()
    );
    sys.apply_churn(&script);

    sys.run_until(horizon + SimDuration::from_secs(30));
    let r = sys.report();

    let registry = sys.engine().metrics();
    let won = registry.counter(Counter::DirReplacementsWon);
    let lost = registry.counter(Counter::DirReplacementsLost);

    println!("\n== churn resilience report ==");
    println!("resolved:               {}/{}", r.resolved, r.submitted);
    println!("hit ratio:              {:.3}", r.hit_ratio);
    println!(
        "redirection failures:   {} (stale entries retried, §5.1)",
        r.redirection_failures
    );
    println!("directory replacements: {won} won, {lost} stood down (§5.2)");

    assert!(
        r.resolved as f64 > r.submitted as f64 * 0.9,
        "queries must keep resolving"
    );
    assert!(
        won >= 1,
        "killed directories should be replaced by content peers"
    );
    println!("\nok — the overlay survived the churn");
}
