//! Flower-CDN vs Squirrel on the same trace: the paper's headline
//! comparison (Figures 6–8) at example scale.
//!
//! Both systems build from one `SystemConfig`: the same topology,
//! catalog, query trace and seed; only the overlay differs —
//! locality-aware D-ring + content overlays vs one locality-blind DHT.
//!
//! ```sh
//! cargo run --release --example locality_comparison
//! ```

use flower_cdn::core::system::{FlowerSystem, SystemConfig};
use flower_cdn::squirrel::SquirrelSystem;

fn main() {
    let cfg = SystemConfig::small_test();

    println!("running Flower-CDN…");
    let (fsys, f) = FlowerSystem::run(&cfg);
    println!("running Squirrel on the same trace…");
    let (ssys, s) = SquirrelSystem::run(&cfg);

    println!("\n== side by side ==");
    println!("{:<28} {:>12} {:>12}", "metric", "flower-cdn", "squirrel");
    println!(
        "{:<28} {:>12} {:>12}",
        "queries resolved", f.resolved, s.resolved
    );
    println!(
        "{:<28} {:>12.3} {:>12.3}",
        "hit ratio", f.hit_ratio, s.hit_ratio
    );
    println!(
        "{:<28} {:>12.1} {:>12.1}",
        "mean lookup latency (ms)", f.mean_lookup_ms, s.mean_lookup_ms
    );
    println!(
        "{:<28} {:>12.1} {:>12.1}",
        "mean transfer dist (ms)", f.mean_transfer_ms, s.mean_transfer_ms
    );

    let fq = fsys.engine().query_stats();
    let sq = ssys.engine().query_stats();
    println!("\nlookup latency distribution (150 ms buckets, Figure 7(b)):");
    let fd = fq.lookup_hist().distribution();
    let sd = sq.lookup_hist().distribution();
    for (i, (start, ff)) in fd.iter().enumerate() {
        let label = if i + 1 == fd.len() {
            format!(">{start}ms")
        } else {
            format!("{start}-{}ms", start + 150)
        };
        println!(
            "  {:<12} flower {:>5.1}%   squirrel {:>5.1}%",
            label,
            ff * 100.0,
            sd[i].1 * 100.0
        );
    }

    println!("\ntransfer distance distribution (100 ms buckets, Figure 8(b)):");
    let fd = fq.transfer_hist().distribution();
    let sd = sq.transfer_hist().distribution();
    for (i, (start, ff)) in fd.iter().enumerate() {
        let label = if i + 1 == fd.len() {
            format!(">{start}ms")
        } else {
            format!("{start}-{}ms", start + 100)
        };
        println!(
            "  {:<12} flower {:>5.1}%   squirrel {:>5.1}%",
            label,
            ff * 100.0,
            sd[i].1 * 100.0
        );
    }

    let speedup = s.mean_lookup_ms / f.mean_lookup_ms.max(1e-9);
    let distance = s.mean_transfer_ms / f.mean_transfer_ms.max(1e-9);
    println!("\nlookup speedup ×{speedup:.1} (paper: ×9 at full scale)");
    println!("transfer-distance reduction ×{distance:.1} (paper: ×2 at full scale)");
    assert!(
        speedup > 1.5,
        "locality-awareness must win on lookup latency"
    );
    println!("ok");
}
