//! The tentpole guarantee of the sharded engine, measured on the
//! full Flower-CDN system: the same seed produces *identical* query
//! statistics and traffic totals whether the engine runs on one shard
//! or several — sharding is an execution detail, never a modelling
//! change.
//!
//! Also pins the per-node RNG streams: a fixed seed must keep
//! producing the same hit-ratio statistics from PR to PR. If a change
//! *intentionally* alters simulation behaviour (protocol fix, RNG
//! discipline change), update the pinned constants alongside it — the
//! pin exists to make such changes loud, not to forbid them.

use flower_cdn::core::system::{FlowerSystem, SystemConfig, SystemReport};
use flower_cdn::metrics::Counter;

fn run_with_shards(shards: usize, seed: u64) -> (FlowerSystem, SystemReport) {
    let mut cfg = SystemConfig::small_test();
    cfg.seed = seed;
    cfg.shards = shards;
    FlowerSystem::run(&cfg)
}

/// Everything comparable about a finished run: the engine's
/// [`Engine::sim_state`](flower_cdn::simnet::Engine::sim_state) and the
/// whole report, down to exact floats (all derived from integer
/// counters, so bit-equality is fair).
fn fingerprint(sys: &FlowerSystem, r: &SystemReport) -> impl PartialEq + std::fmt::Debug {
    (sys.engine().sim_state(), r.clone())
}

/// The fingerprint holds the registry's sim-scoped cells (counters,
/// gauges and histogram buckets tagged `Scope::Sim`), so they obey the
/// same law; exec-scoped cells (epochs, barrier idle) measure the
/// execution and are left out.
#[test]
fn sharded_run_produces_identical_statistics() {
    // small_test has 3 localities, so 3 is the maximum effective shard
    // count; 4 exercises the clamp.
    let (ref_sys, ref_report) = run_with_shards(1, 42);
    assert_eq!(ref_sys.engine().num_shards(), 1);
    assert!(
        ref_sys
            .engine()
            .metrics()
            .sim_fingerprint()
            .iter()
            .any(|&v| v > 0),
        "the single-shard run must populate sim-scoped metric cells"
    );
    let reference = fingerprint(&ref_sys, &ref_report);
    for shards in [2usize, 3, 4] {
        let (sys, report) = run_with_shards(shards, 42);
        assert_eq!(sys.engine().num_shards(), shards.min(3));
        assert_eq!(
            fingerprint(&sys, &report),
            reference,
            "shards={shards} diverged from the single-shard run"
        );
    }
}

/// The same guarantee at the target shard width: on an 8-locality
/// deployment, 2/4/8 shards (and 9, exercising the clamp) all
/// reproduce the single-shard fingerprint bit for bit.
#[test]
fn eight_shard_run_produces_identical_statistics() {
    fn wide_cfg(shards: usize) -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.topology.localities = 8;
        cfg.topology.nodes = 480;
        cfg.seed = 42;
        cfg.shards = shards;
        cfg
    }
    let (ref_sys, ref_report) = FlowerSystem::run(&wide_cfg(1));
    assert_eq!(ref_sys.engine().num_shards(), 1);
    let reference = fingerprint(&ref_sys, &ref_report);
    for shards in [2usize, 4, 8, 9] {
        let (sys, report) = FlowerSystem::run(&wide_cfg(shards));
        assert_eq!(sys.engine().num_shards(), shards.min(8));
        assert_eq!(
            fingerprint(&sys, &report),
            reference,
            "shards={shards} diverged from the single-shard run at 8 localities"
        );
    }
}

#[test]
fn sharded_runs_track_seed_changes_together() {
    // Different seed ⇒ different trace, under every shard count alike.
    let (s1, r1) = run_with_shards(3, 7);
    let (s2, r2) = run_with_shards(3, 8);
    assert_ne!(fingerprint(&s1, &r1), fingerprint(&s2, &r2));
}

/// The PetalUp cell: `instance_bits` bits of §5.3 instances per petal,
/// a Zipf-skewed website workload and split/merge thresholds low
/// enough for petals to actually resize mid-run.
fn petal_cfg(shards: usize, bits: u32) -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.seed = 42;
    cfg.shards = shards;
    cfg.flower.instance_bits = bits;
    cfg.flower.petal_split_threshold = 4;
    cfg.flower.petal_merge_floor = 2;
    cfg.workload.website_zipf_alpha = 1.5;
    cfg
}

/// §5.3 PetalUp parity: with `instance_bits = 2` every shard count
/// still produces the identical fingerprint — the instance choice and
/// the split/merge decisions are pure functions of per-node protocol
/// state, never of the engine's shard layout.
#[test]
fn petalup_runs_are_shard_deterministic_and_flatten_load() {
    let (ref_sys, ref_report) = FlowerSystem::run(&petal_cfg(1, 2));
    let reference = fingerprint(&ref_sys, &ref_report);
    for shards in [2usize, 3] {
        let (sys, report) = FlowerSystem::run(&petal_cfg(shards, 2));
        assert_eq!(
            fingerprint(&sys, &report),
            reference,
            "shards={shards} diverged under instance_bits=2"
        );
    }
    // The petals actually resized: hot ones split while the D-ring
    // carried the join wave, and merged back once the communities
    // saturated and directory traffic dried up.
    let registry = ref_sys.engine().metrics();
    let splits = registry.counter(Counter::DirPetalSplits);
    let merges = registry.counter(Counter::DirPetalMerges);
    assert!(splits >= 1, "no petal ever split");
    assert!(merges >= 1, "no petal ever merged back");
    assert!(merges <= splits, "{merges} merges undo {splits} splits");
    // And the per-instance load is flatter than the flat D-ring's on
    // the same workload.
    let (_, flat) = FlowerSystem::run(&petal_cfg(1, 0));
    assert!(
        ref_report.dir_load_max_mean > 0.0 && flat.dir_load_max_mean > 0.0,
        "both runs must see directory load"
    );
    assert!(
        ref_report.dir_load_max_mean < flat.dir_load_max_mean,
        "PetalUp must flatten directory load: b2 {:.3} vs flat {:.3}",
        ref_report.dir_load_max_mean,
        flat.dir_load_max_mean
    );
}

/// Everything a finished run reports, for the pins of the node paths
/// no benchmark workload reaches: every `SystemReport` field (floats
/// by their bits), an FNV-1a hash of the registry's sim-scope cells,
/// and the §5.3 split, merge and forward counters.
#[derive(Debug, PartialEq)]
struct Pin {
    report: [u64; 12],
    registry_fnv: u64,
    splits_merges_forwards: [u64; 3],
}

fn pin(sys: &FlowerSystem, r: &SystemReport) -> Pin {
    let registry = sys.engine().metrics();
    let mut registry_fnv = 0xcbf2_9ce4_8422_2325u64;
    for word in registry.sim_fingerprint() {
        for byte in word.to_le_bytes() {
            registry_fnv = (registry_fnv ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Pin {
        report: [
            r.submitted,
            r.resolved,
            r.hit_ratio.to_bits(),
            r.mean_lookup_ms.to_bits(),
            r.mean_transfer_ms.to_bits(),
            r.mean_transfer_hit_ms.to_bits(),
            r.background_bps.to_bits(),
            r.participants as u64,
            r.redirection_failures,
            r.local_hit_fraction.to_bits(),
            r.dir_load_max_mean.to_bits(),
            r.dir_instances_live as u64,
        ],
        registry_fnv,
        splits_merges_forwards: [
            registry.counter(Counter::DirPetalSplits),
            registry.counter(Counter::DirPetalMerges),
            registry.counter(Counter::DirPetalForwards),
        ],
    }
}

/// Regression pin for §5.3 PetalUp (split, merge, dormant relays,
/// sibling re-partitions) at seed 42: the 1-shard `instance_bits = 2`
/// cell of the parity test above, which only compares layouts within
/// one build.
#[test]
fn petalup_cell_pins_every_report_field() {
    let (sys, r) = FlowerSystem::run(&petal_cfg(1, 2));
    assert_eq!(
        pin(&sys, &r),
        Pin {
            report: [
                6033,
                6033,
                4606409050788421878,
                4630743129394106164,
                4634807736925336619,
                4631803656122757260,
                4645980785364262255,
                171,
                0,
                4607153020869539559,
                4605592913049180762,
                18,
            ],
            registry_fnv: 12620953022316535963,
            splits_merges_forwards: [8, 8, 92],
        }
    );
}

/// Regression pin for the per-node RNG streams
/// (`StdRng::seed_from_u64(hash(seed, node_id))`): seed 42 on the
/// small test deployment must keep yielding exactly these statistics.
///
/// Re-verified against the §5.2 summary-clear-on-push change: the
/// pinned scenario runs without churn, so no directory is ever
/// seeded from gossip summaries and the clear never fires — the
/// constants hold bit-for-bit (the recovery tests exercise the
/// cleared path).
#[test]
fn fixed_seed_yields_pinned_hit_ratio_stats() {
    let (_, r) = run_with_shards(1, 42);
    assert_eq!(r.submitted, 6033, "query trace changed");
    assert_eq!(r.resolved, 6033, "resolution count changed");
    assert!(
        (r.hit_ratio - 0.912978617603).abs() < 1e-9,
        "hit ratio drifted: {:.12}",
        r.hit_ratio
    );
    assert!(
        (r.mean_lookup_ms - 40.129289).abs() < 1e-3,
        "mean lookup drifted: {:.6}",
        r.mean_lookup_ms
    );
    assert_eq!(r.participants, 122, "participant count changed");
    // Exact: an integer byte sum over the participants, scaled once.
    assert_eq!(
        r.background_bps.to_bits(),
        0x4081_3d34_2f96_e8a5,
        "background traffic drifted: {:.13} bps, pinned 551.6504813947437",
        r.background_bps
    );
    // And the pin holds under sharded execution too, by construction.
    let (sharded_sys, sharded) = run_with_shards(3, 42);
    assert_eq!(sharded.submitted, r.submitted);
    assert!((sharded.hit_ratio - r.hit_ratio).abs() < 1e-15);
    // The barrier-round count is an execution fact, but a pure function
    // of seed, topology and layout — pinned so that a schedule change
    // which adds rounds is loud. This deployment has no inter-locality
    // latency floor, like the paper's: the per-shard-pair lookahead
    // matrix takes 9437 rounds here, and the same run with every
    // bound flattened to the global floor takes 39 521.
    assert_eq!(
        sharded_sys.engine().epochs(),
        9437,
        "barrier rounds of the 3-shard run changed"
    );
}

/// Property check on the fault-injection plane: *any* scripted
/// combination of a partition (with heal), probabilistic link loss
/// and a correlated regional failure with staggered recovery must
/// leave the run bit-identical across shard counts 1/2/4. Partition cuts are decided at delivery time
/// from the static script, loss draws come from the emitter's own RNG
/// stream, and regional recovery is a pure stagger off the node index
/// — none of it may observe the shard layout.
mod fault_plane_proptests {
    use super::*;
    use flower_cdn::simnet::{
        FaultPlane, LinkLoss, Locality, Partition, RegionalFailure, SimDuration, SimTime,
    };
    use proptest::prelude::*;

    fn faulted_cfg(shards: usize) -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.seed = 42;
        cfg.shards = shards;
        // Arm the timeout path so swallowed lookups retry and degrade
        // instead of hanging — the hardening under test.
        cfg.flower.query_timeout = Some(SimDuration::from_secs(2));
        cfg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        #[test]
        fn scripted_faults_stay_shard_invariant(
            part_start in 60u64..240,
            part_len in 30u64..120,
            loss_pct in 5u64..45,
            victim in 0u16..3,
            stagger_ms in 1u64..200,
        ) {
            let plane = FaultPlane::new()
                .partition(Partition {
                    start: SimTime::from_secs(part_start),
                    heal: SimTime::from_secs(part_start + part_len),
                    side_a: vec![Locality(victim)],
                    side_b: vec![Locality((victim + 1) % 3)],
                })
                .link_loss(LinkLoss {
                    start: SimTime::from_secs(part_start / 2),
                    end: SimTime::from_secs(part_start / 2 + part_len),
                    probability: loss_pct as f64 / 100.0,
                })
                .regional_failure(RegionalFailure {
                    at: SimTime::from_secs(part_start + part_len + 30),
                    locality: Locality((victim + 2) % 3),
                    recover_start: SimTime::from_secs(part_start + part_len + 90),
                    stagger: SimDuration::from_ms(stagger_ms),
                });
            let run = |shards: usize| {
                let cfg = faulted_cfg(shards);
                let mut sys = FlowerSystem::build(&cfg);
                sys.apply_faults(&plane);
                let horizon = sys.drain_horizon();
                sys.run_until(horizon);
                let report = sys.report();
                fingerprint(&sys, &report)
            };
            let reference = run(1);
            for shards in [2usize, 4] {
                prop_assert!(
                    run(shards) == reference,
                    "shards={} diverged under scripted faults",
                    shards
                );
            }
        }
    }
}

/// Regression pin for the chaos flash-crowd cell at small scale: the
/// surged query trace and the availability analysis over it must keep
/// producing exactly these statistics from PR to PR (same contract as
/// [`fixed_seed_yields_pinned_hit_ratio_stats`]: update the constants
/// alongside an *intentional* behaviour change, loudly).
#[test]
fn flash_crowd_cell_pins_dip_and_recovery() {
    use flower_cdn::experiments::exps::{availability, chaos_flash_config, RECOVERY_FRACTION};
    use flower_cdn::simnet::{SimDuration, SimTime};
    let cfg = chaos_flash_config(600, 1, 42);
    let (sys, r) = FlowerSystem::run(&cfg);
    let a = availability(
        &sys.engine().query_stats().hit_series().points(),
        SimDuration::from_secs(15),
        SimTime::from_secs(60),
        SimTime::from_secs(150),
        SimTime::from_secs(240),
    );
    assert_eq!(r.submitted, 6566, "query trace changed: {}", r.submitted);
    assert_eq!(r.resolved, 6566, "resolution count changed: {}", r.resolved);
    assert!(
        (a.pre_hit - 0.369175627240).abs() < 1e-9,
        "pre-surge hit ratio drifted: {:.12}",
        a.pre_hit
    );
    assert!(
        (a.dip_depth - 0.026709873815).abs() < 1e-9,
        "surge dip depth drifted: {:.12}",
        a.dip_depth
    );
    assert_eq!(
        a.recovery_s.map(|s| s as u64),
        Some(15),
        "recovery time changed: {:?}",
        a.recovery_s
    );
    assert!(
        a.recovered_hit >= RECOVERY_FRACTION * a.pre_hit,
        "the cell must recover to within 5% of pre-surge"
    );
    // The pin holds bit-for-bit under sharded execution too.
    let mut sharded_cfg = chaos_flash_config(600, 2, 42);
    sharded_cfg.shards = 2;
    let (sharded_sys, sharded_r) = FlowerSystem::run(&sharded_cfg);
    assert_eq!(
        fingerprint(&sharded_sys, &sharded_r),
        fingerprint(&sys, &r),
        "2-shard flash cell diverged from the 1-shard run"
    );
}
