//! The five workloads: what is simulated, and why each exists.
//!
//! Configs are built from the public config structs, naming only the
//! fields a workload sets and taking the rest from `Default`, so a
//! later change that deletes an execution mode does not break the
//! benchmark. Sizes are fixed; only the seed varies between runs.

use flower_core::{FlowerConfig, FlowerSystem, SystemConfig};
use simnet::{
    ChurnConfig, ChurnScript, FaultPlane, Locality, NodeId, Partition, SimDuration, SimTime,
    TopologyConfig,
};
use workload::{CatalogConfig, WebsiteId, WorkloadConfig};

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100 000 nodes, one shard, background-dominated.
    Steady100k,
    /// The same simulation on two shards.
    Sharded100k,
    /// The paper's Table-1 deployment, DHT-dominated.
    Paper5k,
    /// 10 000 nodes at 1 query/s/node, query-dominated.
    QueryStorm10k,
    /// 50 000 nodes under partitions and session churn.
    Chaos50k,
}

/// Scripted adversity installed between `build` and `run_until`.
pub struct Script {
    /// Session churn over part of every community.
    pub churn: ChurnScript,
    /// Partition script.
    pub faults: FaultPlane,
}

/// The share of dispatched events a workload must keep in the traffic
/// classes it was chosen for, so a config drift cannot silently turn
/// it into a different workload.
pub struct DominantShare {
    /// What the share counts, for the failure message.
    pub what: &'static str,
    /// Registry counters summed into the numerator.
    pub counters: &'static [&'static str],
    /// Whether injected queries (`submitted`) count too.
    pub plus_submitted: bool,
    /// Expected share of `engine_events_total`.
    pub expect: f64,
}

/// Localities of the `scale`-shaped deployments.
const LOCALITIES: usize = 8;

impl Workload {
    /// Every workload, in the order the suite interleaves them.
    pub const ALL: [Workload; 5] = [
        Workload::Steady100k,
        Workload::Sharded100k,
        Workload::Paper5k,
        Workload::QueryStorm10k,
        Workload::Chaos50k,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady100k => "steady_100k",
            Workload::Sharded100k => "sharded_100k",
            Workload::Paper5k => "paper_5k",
            Workload::QueryStorm10k => "query_storm_10k",
            Workload::Chaos50k => "chaos_50k",
        }
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Engine shards the measured run uses.
    pub fn shards(self) -> usize {
        match self {
            Workload::Sharded100k => 2,
            _ => 1,
        }
    }

    /// The workload whose simulated statistics this one must reproduce
    /// bit for bit on a different shard layout.
    pub fn parity_reference(self) -> Option<Workload> {
        match self {
            Workload::Sharded100k => Some(Workload::Steady100k),
            _ => None,
        }
    }

    /// Whether queries may legitimately stay unresolved.
    pub fn faulted(self) -> bool {
        self == Workload::Chaos50k
    }

    /// The simulation config for `seed`.
    pub fn config(self, seed: u64) -> SystemConfig {
        let mut cfg = self.deployment(seed);
        cfg.shards = self.shards();
        cfg
    }

    fn deployment(self, seed: u64) -> SystemConfig {
        match self {
            Workload::Steady100k | Workload::Sharded100k => {
                scale_shape(100_000, 4, 0.02, STEADY_SIM_SECS, seed)
            }
            Workload::Paper5k => paper(seed),
            Workload::QueryStorm10k => {
                let mut cfg = scale_shape(10_000, 4, 1.0, STORM_SIM_SECS, seed);
                cfg.flower.t_gossip = SimDuration::from_secs(60);
                cfg.flower.keepalive_period = SimDuration::from_secs(60);
                cfg.flower.stabilize_period = SimDuration::from_secs(30);
                cfg.flower.fix_finger_period = SimDuration::from_secs(30);
                cfg
            }
            Workload::Chaos50k => {
                let mut cfg = scale_shape(50_000, 2, 0.02, CHAOS_SIM_SECS, seed);
                cfg.flower.query_timeout = Some(SimDuration::from_secs(2));
                cfg.flower.query_retry_budget = 2;
                cfg.window = SimDuration::from_secs(15);
                cfg
            }
        }
    }

    /// The adversity script of a built system (`None` on the four
    /// fault-free workloads).
    pub fn script(self, sys: &FlowerSystem, cfg: &SystemConfig) -> Option<Script> {
        (self == Workload::Chaos50k).then(|| Script {
            churn: chaos_churn(sys, cfg),
            faults: chaos_partitions(),
        })
    }

    /// The traffic classes this workload was chosen to stress.
    pub fn dominant_share(self) -> Option<DominantShare> {
        match self {
            Workload::Paper5k => Some(DominantShare {
                what: "DhtRouting + DhtMaintenance deliveries",
                counters: &["engine_recv_dht_routing", "engine_recv_dht_maintenance"],
                plus_submitted: false,
                expect: 0.65,
            }),
            Workload::QueryStorm10k => Some(DominantShare {
                what: "query injections + QueryControl + Transfer deliveries",
                counters: &["engine_recv_query_control", "engine_recv_transfer"],
                plus_submitted: true,
                expect: 0.74,
            }),
            _ => None,
        }
    }
}

/// Simulated seconds of query trace per workload, sized so that one
/// repetition runs for about 3 host seconds. The fixed 30 s drain
/// margin of `FlowerSystem::drain_horizon` comes on top, so the runs
/// end in a tail without query injection: half of `steady_100k`'s
/// events, a quarter of `chaos_50k`'s, 2 % of `query_storm_10k`'s (the
/// traced run prints the shares). Doubling `steady_100k`'s trace was
/// tried and costs 2.4 times the host time, since the communities keep
/// growing.
const STEADY_SIM_SECS: u64 = 30;
const STORM_SIM_SECS: u64 = 60;
const CHAOS_SIM_SECS: u64 = 96;

/// The `scale` experiment's deployment shape: 8 WAN localities with a
/// 60 ms inter-locality floor, second-scale protocol periods,
/// communities sized with the population, Zipf-skewed website choice.
fn scale_shape(
    nodes: usize,
    active_websites: usize,
    queries_per_node_sec: f64,
    sim_secs: u64,
    seed: u64,
) -> SystemConfig {
    SystemConfig {
        topology: TopologyConfig {
            nodes,
            localities: LOCALITIES,
            min_latency_ms: 10,
            max_latency_ms: 500,
            cluster_spread: 0.03,
            background_fraction: 0.0,
            population_skew: 0.25,
            inter_locality_floor_ms: 60,
            ..Default::default()
        },
        catalog: CatalogConfig {
            num_websites: 8,
            active_websites,
            objects_per_website: 200,
            ..Default::default()
        },
        workload: WorkloadConfig {
            query_rate_per_sec: nodes as f64 * queries_per_node_sec,
            duration_ms: sim_secs * 1000,
            website_zipf_alpha: 1.2,
            ..Default::default()
        },
        flower: FlowerConfig {
            max_overlay: nodes / 16,
            ..FlowerConfig::fast_test()
        },
        seed,
        window: SimDuration::from_secs(30),
        ..Default::default()
    }
}

/// Time scale of `paper_5k`: the paper's 24 h and its protocol periods
/// shrunk by this factor, the way `experiments::runner::scale_flower`
/// does it.
const PAPER_TIME_SCALE: f64 = 0.03;
/// Hours of the paper's 24 h experiment `paper_5k` simulates.
const PAPER_HOURS: u64 = 8;

fn paper(seed: u64) -> SystemConfig {
    let scaled = |d: SimDuration| {
        SimDuration::from_ms(((d.as_ms() as f64 * PAPER_TIME_SCALE).round() as u64).max(1))
    };
    let mut cfg = SystemConfig::paper();
    cfg.seed = seed;
    cfg.workload.duration_ms = scaled(SimDuration::from_hours(PAPER_HOURS)).as_ms();
    cfg.window = scaled(SimDuration::from_mins(30));
    let f = &mut cfg.flower;
    f.t_gossip = scaled(f.t_gossip);
    f.keepalive_period = scaled(f.keepalive_period);
    f.stabilize_period = scaled(f.stabilize_period);
    f.fix_finger_period = scaled(f.fix_finger_period);
    f.dir_replacement_jitter = scaled(f.dir_replacement_jitter);
    cfg
}

/// Pairwise islands among six victim localities for a quarter of the
/// trace. Localities 1 and 2 host the two active websites' origin
/// servers (round-robin placement starts at locality 1) and stay
/// connected to everyone, so origin degradation always has a route.
fn chaos_partitions() -> FaultPlane {
    let start = SimTime::from_secs(CHAOS_SIM_SECS * 5 / 12);
    let heal = SimTime::from_secs(CHAOS_SIM_SECS * 8 / 12);
    let victims = [0u16, 3, 4, 5, 6, 7];
    let mut plane = FaultPlane::new();
    for (i, &a) in victims.iter().enumerate() {
        for &b in &victims[i + 1..] {
            plane = plane.partition(Partition {
                start,
                heal,
                side_a: vec![Locality(a)],
                side_b: vec![Locality(b)],
            });
        }
    }
    plane
}

/// Session churn over the first third of every community, from a
/// twelfth of the run on. Rejoining nodes come back stateless, which
/// keeps D-ring lookups — the traffic a partition breaks — flowing.
fn chaos_churn(sys: &FlowerSystem, cfg: &SystemConfig) -> ChurnScript {
    let mut affected: Vec<NodeId> = Vec::new();
    for ws in 0..cfg.catalog.active_websites as u16 {
        for l in 0..cfg.topology.localities as u16 {
            let comm = sys.community(WebsiteId(ws), Locality(l));
            affected.extend(comm.iter().take(comm.len() / 3));
        }
    }
    affected.sort_unstable_by_key(|n| n.0);
    affected.dedup();
    ChurnScript::generate(
        &ChurnConfig {
            start: SimTime::from_secs(CHAOS_SIM_SECS / 12),
            end: SimTime::from_ms(cfg.workload.duration_ms),
            mean_session: SimDuration::from_secs(CHAOS_SIM_SECS / 2),
            mean_downtime: SimDuration::from_secs(CHAOS_SIM_SECS / 12),
            permanent: false,
        },
        &affected,
        cfg.seed,
    )
}
