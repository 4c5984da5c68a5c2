//! The tentpole guarantee of the pluggable-substrate refactor: the
//! Flower-CDN protocol behaves the same whichever DHT the D-ring runs
//! on (§3.1: "any existing structured overlay based on a standard
//! DHT, e.g., Chord, Pastry").
//!
//! One workload, one seed, two substrates — selected purely through
//! `SystemConfig`. The protocol above the substrate is identical, so
//! the headline metrics must essentially coincide; only the
//! substrate's internal routing and maintenance may differ.

use flower_cdn::core::substrate::SubstrateKind;
use flower_cdn::core::system::{FlowerSystem, SystemConfig, SystemReport};
use flower_cdn::simnet::Locality;
use flower_cdn::workload::WebsiteId;

fn run_on(kind: SubstrateKind, seed: u64) -> (FlowerSystem, SystemReport) {
    let mut cfg = SystemConfig::small_test();
    cfg.seed = seed;
    cfg.flower.substrate = kind;
    FlowerSystem::run(&cfg)
}

#[test]
fn same_workload_same_outcome_on_both_substrates() {
    let (chord_sys, chord) = run_on(SubstrateKind::Chord, 42);
    let (pastry_sys, pastry) = run_on(SubstrateKind::Pastry, 42);

    // The trace is a pure function of the seed, so both substrates see
    // the identical query stream.
    assert_eq!(
        chord.submitted, pastry.submitted,
        "same seed must produce the same trace"
    );
    assert_eq!(chord_sys.queries_injected(), chord.submitted);
    assert_eq!(pastry_sys.queries_injected(), pastry.submitted);

    // Both resolve essentially everything.
    for (name, r) in [("chord", &chord), ("pastry", &pastry)] {
        assert!(
            r.resolved as f64 >= r.submitted as f64 * 0.99,
            "{name}: resolved only {}/{}",
            r.resolved,
            r.submitted
        );
        assert!(
            r.hit_ratio > 0.5,
            "{name}: hit ratio {} too low",
            r.hit_ratio
        );
        assert!(
            r.participants > 20,
            "{name}: only {} participants",
            r.participants
        );
    }

    // The protocol above the substrate is unchanged: hit ratios land
    // within a sane tolerance of each other.
    let delta = (chord.hit_ratio - pastry.hit_ratio).abs();
    assert!(
        delta <= 0.05,
        "hit ratios diverged: chord {:.3} vs pastry {:.3} (Δ {delta:.3})",
        chord.hit_ratio,
        pastry.hit_ratio
    );
    // So do locality properties and lookup latencies (well under the
    // order-of-magnitude differences that would signal broken routing).
    let lookup_ratio = (chord.mean_lookup_ms.max(1.0)) / (pastry.mean_lookup_ms.max(1.0));
    assert!(
        (0.25..4.0).contains(&lookup_ratio),
        "lookup latencies diverged: chord {:.1} ms vs pastry {:.1} ms",
        chord.mean_lookup_ms,
        pastry.mean_lookup_ms
    );
}

#[test]
fn directory_deployment_is_substrate_independent() {
    // Role assignment happens above the substrate: the same nodes are
    // directories, servers, and community members under either DHT.
    let (chord_sys, _) = run_on(SubstrateKind::Chord, 9);
    let (pastry_sys, _) = run_on(SubstrateKind::Pastry, 9);
    for ws in 0..2u16 {
        for l in 0..3u16 {
            assert_eq!(
                chord_sys.initial_directory(WebsiteId(ws), Locality(l)),
                pastry_sys.initial_directory(WebsiteId(ws), Locality(l)),
                "directory assignment differs for ws{ws}/loc{l}"
            );
            assert_eq!(
                chord_sys.community(WebsiteId(ws), Locality(l)),
                pastry_sys.community(WebsiteId(ws), Locality(l)),
                "community differs for ws{ws}/loc{l}"
            );
        }
    }
    assert_eq!(chord_sys.servers(), pastry_sys.servers());
    // And the directory peers hold working substrate roles.
    let d = chord_sys
        .initial_directory(WebsiteId(0), Locality(0))
        .unwrap();
    for sys in [&chord_sys, &pastry_sys] {
        let role = sys.engine().node(d).dir_role().expect("directory role");
        assert!(
            !role.substrate.known_peers().is_empty(),
            "directory knows no substrate peers"
        );
        assert!(role.dir.overlay_size() > 0, "directory indexed nobody");
    }
}

#[test]
fn determinism_holds_per_substrate() {
    for kind in [SubstrateKind::Chord, SubstrateKind::Pastry] {
        let (_, a) = run_on(kind, 5);
        let (_, b) = run_on(kind, 5);
        assert_eq!(a.submitted, b.submitted, "{kind}: trace not deterministic");
        assert_eq!(
            a.resolved, b.resolved,
            "{kind}: resolution not deterministic"
        );
        assert!(
            (a.hit_ratio - b.hit_ratio).abs() < 1e-12,
            "{kind}: hit ratio not deterministic"
        );
        assert!(
            (a.background_bps - b.background_bps).abs() < 1e-9,
            "{kind}: traffic not deterministic"
        );
    }
}
