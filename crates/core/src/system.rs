//! The simulation harness: builds a complete Flower-CDN deployment
//! (§6.1's setup) and runs the paper's workload against it.
//!
//! Responsibilities:
//!
//! 1. generate the underlay topology and localities (5000 nodes, k=6);
//! 2. assign roles: one origin server per website, one directory peer
//!    per `(website, locality)` — the paper "starts with a stable
//!    D-ring … with an empty directory" — and, for each *active*
//!    website, a community of up to `Sco` potential clients per
//!    locality;
//! 3. bootstrap the D-ring as a converged Chord ring over the
//!    directory peers;
//! 4. attach the query trace as the engine's injection source: each
//!    query picks a uniform random locality and a uniform community
//!    member as originator ("a new client or a content peer of ws is
//!    chosen from a random locality");
//! 5. run and report the paper's four metrics.
//!
//! ## One deployment for both compared systems
//!
//! §6.1 runs Flower-CDN and its comparator Squirrel on the same
//! topology, catalog and query trace. `squirrel::SquirrelSystem` builds
//! from the same [`SystemConfig`] and takes the steps both builds share
//! through this module's free functions: [`locality_pools`],
//! [`place_servers`], [`draw_communities`], [`originated_trace`],
//! [`submissions`] and [`drain_horizon`]. Each draws on its caller's
//! RNG, so each system keeps its own stream; Flower-CDN pops its
//! directory peers out of the pools before the servers are placed.
//!
//! ## The trace is streamed, not scheduled
//!
//! The §6.1 experiment is 6 queries/s for 24 h — half a million
//! queries, and a benchmark storm is 10 000 a second. None of them is
//! put into the event queue at build time: [`submissions`] is an
//! iterator ([`workload::QueryGen`] → originator draw → `Submit`
//! injection) that [`Engine::attach_source`] consumes as the clock
//! reaches each query, one resident injection per shard. The engine
//! keys injection `i` of the stream as external event `base + i`,
//! exactly the key `schedule_at` would have issued had the whole trace
//! been scheduled here, so event order and every statistic are those
//! of the eager build (which survives as this module's test-only
//! `reference`), and churn or faults installed after `build` still sort
//! after a query due at the same instant.

use std::collections::BTreeMap;
use std::sync::Arc;

use bloom::ObjectId;
use chord::{ChordConfig, ChordState, PeerRef};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use simnet::{
    ChurnScript, Engine, Event, Injection, Locality, NodeId, SimDuration, SimTime, Topology,
    TopologyConfig,
};
use workload::{
    Catalog, CatalogConfig, Communities, OriginatedTrace, QueryGen, WebsiteId, WorkloadConfig,
};

use crate::config::FlowerConfig;
use crate::id::KeyScheme;
use crate::idmap::{IdMap, IdSet};
use crate::msg::FlowerMsg;
use crate::node::{timers, Deployment, FlowerNode};

/// Everything needed to build and run one simulation, of Flower-CDN or
/// of its comparator Squirrel (see the module docs).
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Underlay shape.
    pub topology: TopologyConfig,
    /// Website/object universe.
    pub catalog: CatalogConfig,
    /// Query trace shape.
    pub workload: WorkloadConfig,
    /// Protocol parameters. Squirrel reads `max_overlay` alone, as the
    /// `Sco` both systems draw their communities with.
    pub flower: FlowerConfig,
    /// Master seed; every run is a pure function of the config.
    pub seed: u64,
    /// Metric series window.
    pub window: SimDuration,
    /// Locality shards the engine runs on (worker threads). Results
    /// are bit-identical for every value; values above the number of
    /// localities are clamped.
    pub shards: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            topology: TopologyConfig::default(),
            catalog: CatalogConfig::default(),
            workload: WorkloadConfig::default(),
            flower: FlowerConfig::default(),
            seed: 42,
            window: SimDuration::from_mins(30),
            shards: 1,
        }
    }
}

impl SystemConfig {
    /// The paper's Table 1 setup.
    pub fn paper() -> Self {
        SystemConfig::default()
    }

    /// A miniature deployment for fast tests: 3 localities, small
    /// websites, minute-scale horizon, second-scale protocol periods.
    pub fn small_test() -> Self {
        SystemConfig {
            topology: TopologyConfig {
                nodes: 300,
                localities: 3,
                ..Default::default()
            },
            catalog: CatalogConfig {
                num_websites: 6,
                active_websites: 2,
                objects_per_website: 30,
                ..Default::default()
            },
            workload: WorkloadConfig {
                query_rate_per_sec: 10.0,
                duration_ms: 10 * 60 * 1000,
                ..Default::default()
            },
            flower: FlowerConfig::fast_test(),
            seed: 42,
            window: SimDuration::from_mins(1),
            shards: 1,
        }
    }
}

/// End-of-run summary of the paper's metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemReport {
    /// Queries submitted.
    pub submitted: u64,
    /// Queries resolved (always ≤ submitted; in-flight queries at the
    /// horizon are not counted).
    pub resolved: u64,
    /// The paper's hit ratio.
    pub hit_ratio: f64,
    /// Mean lookup latency (ms).
    pub mean_lookup_ms: f64,
    /// Mean transfer distance (ms).
    pub mean_transfer_ms: f64,
    /// Mean transfer distance of P2P hits only (ms) — the paper uses
    /// the metric "with queries satisfied from the P2P system".
    pub mean_transfer_hit_ms: f64,
    /// The paper's background-traffic metric (gossip + push bits per
    /// second per participant).
    pub background_bps: f64,
    /// Participants at the horizon (directory + content peers).
    pub participants: usize,
    /// §5.1 redirection failures observed.
    pub redirection_failures: u64,
    /// Fraction of P2P hits served within the requester's locality.
    pub local_hit_fraction: f64,
    /// §5.3 PetalUp: hottest directory instance's query load over the
    /// mean *petal* load (total queries / loaded petals). 0 when no
    /// directory processed a query. At `instance_bits = 0` this is the
    /// classic max/mean directory imbalance; splits shrink it toward 1
    /// without moving the denominator.
    pub dir_load_max_mean: f64,
    /// §5.3 PetalUp: live directory instances summed over all petal
    /// primaries (= number of petals when nothing ever split).
    pub dir_instances_live: usize,
}

/// A built (and possibly run) Flower-CDN simulation.
pub struct FlowerSystem {
    engine: Engine<FlowerMsg, FlowerNode>,
    dirs: BTreeMap<(WebsiteId, Locality), NodeId>,
    communities: Arc<Communities<NodeId>>,
    servers: Vec<NodeId>,
    duration: SimTime,
}

/// Shuffled per-locality node pools: the population every role of a
/// deployment is drawn from.
pub fn locality_pools(topo: &Topology, rng: &mut StdRng) -> Vec<Vec<NodeId>> {
    (0..topo.num_localities())
        .map(|l| {
            let mut pool = topo.nodes_in(Locality(l as u16));
            pool.shuffle(rng);
            pool
        })
        .collect()
}

/// One origin server per website out of what `pools` has left,
/// round-robin across localities for geographic spread.
pub fn place_servers(catalog: &Catalog, pools: &mut [Vec<NodeId>]) -> Vec<NodeId> {
    let k = pools.len();
    let mut l = 0;
    catalog
        .websites()
        .map(|_| {
            (0..k)
                .find_map(|_| {
                    l = (l + 1) % k;
                    pools[l].pop()
                })
                .expect("topology too small for origin servers")
        })
        .collect()
}

/// The communities: for each active website and locality, up to `sco`
/// potential clients out of the locality's pool. Websites may share
/// nodes ("no correlation between website communities" — a node can be
/// interested in several sites).
pub fn draw_communities(
    catalog: &Catalog,
    pools: &[Vec<NodeId>],
    sco: usize,
    rng: &mut StdRng,
) -> Communities<NodeId> {
    let mut communities = Communities::new(pools.len());
    for ws in catalog.active_websites() {
        for (l, pool) in pools.iter().enumerate() {
            let mut comm: Vec<NodeId> = pool
                .choose_multiple(rng, sco.min(pool.len()))
                .copied()
                .collect();
            comm.sort_unstable_by_key(|n| n.0);
            communities.insert(ws, l, comm);
        }
    }
    communities
}

/// The §6.1 query trace over `communities`, its originators drawn on
/// from where `rng` stands.
pub fn originated_trace(
    cfg: &SystemConfig,
    catalog: &Catalog,
    communities: Arc<Communities<NodeId>>,
    rng: StdRng,
) -> OriginatedTrace<NodeId> {
    QueryGen::new(&cfg.workload, catalog, cfg.seed ^ 0x0077_ACE5).originated(communities, rng)
}

/// The query trace as engine injections: every originated query
/// becomes the message `submit` makes of it, which the originator
/// receives from itself at the query's instant.
pub fn submissions<M: 'static>(
    trace: OriginatedTrace<NodeId>,
    submit: fn(u64, WebsiteId, ObjectId) -> M,
) -> impl Iterator<Item = Injection<M>> + Clone + Send + 'static {
    trace.map(move |q| {
        (
            SimTime::from_ms(q.at_ms),
            q.origin,
            Event::Recv {
                from: q.origin,
                msg: submit(q.qid, q.website, q.object),
            },
        )
    })
}

/// The standard run horizon: the workload `duration` plus a drain
/// margin so in-flight queries resolve.
pub fn drain_horizon(duration: SimTime) -> SimTime {
    duration + SimDuration::from_secs(30)
}

/// Flower-CDN's `Submit`, for [`submissions`].
fn flower_submit(qid: u64, website: WebsiteId, object: ObjectId) -> FlowerMsg {
    FlowerMsg::Submit {
        qid,
        website,
        object,
    }
}

impl FlowerSystem {
    /// Build the deployment and attach the query trace as the engine's
    /// injection source (see the module docs).
    pub fn build(cfg: &SystemConfig) -> FlowerSystem {
        Self::assemble(cfg, |engine, trace| {
            engine.attach_source(submissions(trace, flower_submit))
        })
    }

    /// Everything of [`FlowerSystem::build`] but the decision of how
    /// the query trace reaches the engine, which is `inject`'s.
    fn assemble(
        cfg: &SystemConfig,
        inject: impl FnOnce(&mut Engine<FlowerMsg, FlowerNode>, OriginatedTrace<NodeId>),
    ) -> FlowerSystem {
        let topo = Topology::generate(&cfg.topology, cfg.seed);
        let catalog = Catalog::new(cfg.catalog.clone());
        // Validation precedes key-scheme construction: an invalid
        // `m1 + b` geometry surfaces as the config error here, never
        // as the KeyScheme panic.
        cfg.flower
            .validate(topo.num_localities())
            .expect("invalid Flower-CDN configuration");
        let scheme = KeyScheme::new(cfg.flower.locality_bits, cfg.flower.instance_bits);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5E7_u64);
        let mut pools = locality_pools(&topo, &mut rng);

        // Directory peers: `2^b` instances per (website, locality)
        // petal (1 in the base design), drawn from the locality's
        // pool. `all_dirs` keeps deployment order for deterministic
        // timer staggering below.
        let instances = scheme.instances() as u32;
        let mut dirs: BTreeMap<(WebsiteId, Locality), NodeId> = BTreeMap::new();
        let mut dir_instances: IdMap<(WebsiteId, Locality), Vec<NodeId>> = IdMap::default();
        let mut all_dirs: Vec<((WebsiteId, Locality, u32), NodeId)> = Vec::new();
        for ws in catalog.websites() {
            for (l, pool) in pools.iter_mut().enumerate() {
                let loc = Locality(l as u16);
                let mut petal = Vec::with_capacity(instances as usize);
                for inst in 0..instances {
                    let node = pool
                        .pop()
                        .unwrap_or_else(|| panic!("locality {l} too small for the D-ring"));
                    if inst == 0 {
                        dirs.insert((ws, loc), node);
                    }
                    petal.push(node);
                    all_dirs.push(((ws, loc, inst), node));
                }
                dir_instances.insert((ws, loc), petal);
            }
        }

        // Origin servers and communities out of what is left: directory
        // peers and servers never query.
        let servers = place_servers(&catalog, &mut pools);
        let communities = Arc::new(draw_communities(
            &catalog,
            &pools,
            cfg.flower.max_overlay,
            &mut rng,
        ));

        // D-ring bootstrap: a converged ring over all directory
        // instances (the paper's stable start).
        let members: Vec<PeerRef> = all_dirs
            .iter()
            .map(|((ws, loc, inst), node)| PeerRef {
                id: scheme.key_with_instance(*ws, *loc, *inst),
                node: *node,
            })
            .collect();
        let states = chord::stable_ring(&members, &ChordConfig::default());
        let mut state_by_node: IdMap<NodeId, ChordState> =
            members.iter().map(|m| m.node).zip(states).collect();

        let deployment = Arc::new(Deployment {
            cfg: cfg.flower.clone(),
            catalog: Catalog::new(cfg.catalog.clone()),
            scheme,
            servers: servers.clone(),
            bootstrap_dirs: members.iter().map(|m| m.node).collect(),
            dir_instances,
        });

        // Instantiate protocol nodes.
        let dir_of_node: IdMap<NodeId, (WebsiteId, Locality, u32)> =
            all_dirs.iter().map(|(kli, n)| (*n, *kli)).collect();
        let server_of_node: IdMap<NodeId, WebsiteId> = servers
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, WebsiteId(i as u16)))
            .collect();
        let nodes: Vec<FlowerNode> = topo
            .node_ids()
            .map(|n| {
                if let Some((ws, loc, inst)) = dir_of_node.get(&n) {
                    let st = state_by_node.remove(&n).expect("dir has a ring state");
                    FlowerNode::directory(Arc::clone(&deployment), *ws, *loc, *inst, st)
                } else if let Some(ws) = server_of_node.get(&n) {
                    FlowerNode::server(Arc::clone(&deployment), *ws)
                } else {
                    FlowerNode::client(Arc::clone(&deployment))
                }
            })
            .collect();

        let mut engine = Engine::with_shards(
            topo,
            nodes,
            cfg.seed ^ 0xE6_91E,
            cfg.window,
            cfg.shards.max(1),
        );

        // Arm directory timers (staggered), one set per deployed
        // instance, in deployment order (identical to the pre-§5.3
        // draw sequence when `instances == 1`).
        for (_, node) in all_dirs.iter() {
            let s = rng.gen_range(0..cfg.flower.keepalive_period.as_ms().max(2));
            engine.schedule_at(
                SimTime::from_ms(s),
                *node,
                Event::Timer {
                    kind: timers::DIR_TICK,
                    tag: 0,
                },
            );
            let s = rng.gen_range(0..cfg.flower.stabilize_period.as_ms().max(2));
            engine.schedule_at(
                SimTime::from_ms(s),
                *node,
                Event::Timer {
                    kind: timers::STABILIZE,
                    tag: 0,
                },
            );
            let s = rng.gen_range(0..cfg.flower.fix_finger_period.as_ms().max(2));
            engine.schedule_at(
                SimTime::from_ms(s),
                *node,
                Event::Timer {
                    kind: timers::FIX_FINGER,
                    tag: 0,
                },
            );
        }

        // The query trace with the §6.1 originator selection, drawing
        // on from where the deployment's stream stands.
        inject(
            &mut engine,
            originated_trace(cfg, &catalog, Arc::clone(&communities), rng),
        );

        FlowerSystem {
            engine,
            dirs,
            communities,
            servers,
            duration: SimTime::from_ms(cfg.workload.duration_ms),
        }
    }

    /// Build and run to [`FlowerSystem::drain_horizon`].
    pub fn run(cfg: &SystemConfig) -> (FlowerSystem, SystemReport) {
        let mut sys = FlowerSystem::build(cfg);
        sys.engine.run_until(sys.drain_horizon());
        let report = sys.report();
        (sys, report)
    }

    /// The standard run horizon ([`drain_horizon`] of the workload
    /// duration). [`FlowerSystem::run`] and the experiment harnesses
    /// all run to this instant.
    pub fn drain_horizon(&self) -> SimTime {
        drain_horizon(self.duration)
    }

    /// Advance the simulation to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.engine.run_until(t);
    }

    /// The engine (metrics, topology, node inspection).
    pub fn engine(&self) -> &Engine<FlowerMsg, FlowerNode> {
        &self.engine
    }

    /// Mutable engine access (churn installation, extra events).
    pub fn engine_mut(&mut self) -> &mut Engine<FlowerMsg, FlowerNode> {
        &mut self.engine
    }

    /// The workload horizon.
    pub fn duration(&self) -> SimTime {
        self.duration
    }

    /// Queries injected so far: those of the trace due up to the
    /// instant the simulation has run to (0 right after `build` — the
    /// trace is streamed, its length is not known ahead).
    pub fn queries_injected(&self) -> u64 {
        self.engine.source_injections()
    }

    /// Directory peer of `(ws, loc)` as initially deployed.
    pub fn initial_directory(&self, ws: WebsiteId, loc: Locality) -> Option<NodeId> {
        self.dirs.get(&(ws, loc)).copied()
    }

    /// The community (potential clients) of `(ws, loc)`.
    pub fn community(&self, ws: WebsiteId, loc: Locality) -> &[NodeId] {
        self.communities.get(ws, loc.idx())
    }

    /// Origin servers by website index.
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// Current participants: nodes holding a directory or content
    /// role.
    pub fn participants(&self) -> Vec<NodeId> {
        self.engine
            .topology()
            .node_ids()
            .filter(|n| self.engine.node(*n).is_participant())
            .collect()
    }

    /// Install a churn script over the engine.
    pub fn apply_churn(&mut self, script: &ChurnScript) {
        script.install(&mut self.engine);
    }

    /// Install a fault-injection script (partitions, link loss,
    /// regional failures) over the engine.
    pub fn apply_faults(&mut self, plane: &simnet::FaultPlane) {
        self.engine.set_fault_plane(plane.clone());
    }

    /// Per-instance directory query loads: one `((website, locality,
    /// instance), queries processed)` entry for every directory role
    /// that processed at least one query, in deployment order.
    pub fn dir_query_loads(&self) -> Vec<((WebsiteId, Locality, u32), u64)> {
        let mut out = Vec::new();
        for n in self.engine.topology().node_ids() {
            if let Some(role) = self.engine.node(n).dir_role() {
                let q = role.dir.load().queries;
                if q > 0 {
                    out.push((
                        (role.dir.website(), role.dir.locality(), role.dir.instance()),
                        q,
                    ));
                }
            }
        }
        out.sort_unstable_by_key(|((ws, loc, inst), _)| (*ws, *loc, *inst));
        out
    }

    /// Compute the end-of-run report.
    pub fn report(&self) -> SystemReport {
        let q = self.engine.query_stats();
        let participants = self.participants();
        let elapsed = self.engine.now() - SimTime::ZERO;
        let loads = self.dir_query_loads();
        let total: u64 = loads.iter().map(|(_, q)| q).sum();
        let max = loads.iter().map(|(_, q)| *q).max().unwrap_or(0);
        let petals: IdSet<(WebsiteId, Locality)> =
            loads.iter().map(|((ws, loc, _), _)| (*ws, *loc)).collect();
        let dir_load_max_mean = if petals.is_empty() || total == 0 {
            0.0
        } else {
            max as f64 / (total as f64 / petals.len() as f64)
        };
        let dir_instances_live = self
            .engine
            .topology()
            .node_ids()
            .filter_map(|n| self.engine.node(n).dir_role())
            .filter(|r| !r.joining && r.petal.instance == 0)
            .map(|r| r.petal.live as usize)
            .sum();
        SystemReport {
            submitted: q.submitted(),
            resolved: q.resolved(),
            hit_ratio: q.hit_ratio(),
            mean_lookup_ms: q.mean_lookup_ms(),
            mean_transfer_ms: q.mean_transfer_ms(),
            mean_transfer_hit_ms: q.mean_transfer_hit_ms(),
            background_bps: self.engine.traffic().background_bps(&participants, elapsed),
            participants: participants.len(),
            redirection_failures: q.redirection_failures(),
            local_hit_fraction: q.local_hit_fraction(),
            dir_load_max_mean,
            dir_instances_live,
        }
    }
}

/// The eager build the streamed one replaced, kept as the oracle the
/// tests below hold it to: the whole trace handed to `schedule_at`
/// before the first event runs. Never reachable from a config, a flag
/// or the public API.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn build_eager(cfg: &SystemConfig) -> FlowerSystem {
        FlowerSystem::assemble(cfg, |engine, trace| {
            for (at, node, ev) in submissions(trace, flower_submit) {
                engine.schedule_at(at, node, ev);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{QueryStats, Traffic};
    use workload::Surge;

    fn run_small(seed: u64) -> (FlowerSystem, SystemReport) {
        let cfg = SystemConfig {
            seed,
            ..SystemConfig::small_test()
        };
        FlowerSystem::run(&cfg)
    }

    #[test]
    fn small_system_processes_queries() {
        let (sys, r) = run_small(1);
        assert!(
            r.submitted > 1000,
            "expected thousands of queries, got {}",
            r.submitted
        );
        // Allow a tiny number of stragglers lost to protocol corner
        // cases, but essentially everything must resolve.
        assert!(
            r.resolved as f64 >= r.submitted as f64 * 0.99,
            "resolved {} of {}",
            r.resolved,
            r.submitted
        );
        assert!(r.hit_ratio > 0.5, "hit ratio {} too low", r.hit_ratio);
        assert!(r.participants > 20, "participants {}", r.participants);
        assert_eq!(sys.queries_injected(), r.submitted);
    }

    /// `small_test` for 90 s with two overlapping flash crowds, on
    /// different websites, on top of the base trace.
    fn surged(shards: usize) -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.workload.duration_ms = 90_000;
        cfg.workload.surges = vec![
            Surge::FlashCrowd {
                start_ms: 20_000,
                end_ms: 40_000,
                website_rank: 1,
                extra_rate_per_sec: 60.0,
            },
            Surge::FlashCrowd {
                start_ms: 30_000,
                end_ms: 70_000,
                website_rank: 0,
                extra_rate_per_sec: 40.0,
            },
        ];
        cfg.shards = shards;
        cfg
    }

    /// What one node holds: objects per content role (by website) and
    /// the overlay size of its directory role.
    type NodeState = (Vec<(WebsiteId, usize)>, Option<usize>);

    /// The engine's [`Engine::sim_state`].
    type SimState = (u64, QueryStats, Traffic, Vec<u64>);

    /// Everything a run leaves behind that the protocol decided.
    fn observed(sys: &FlowerSystem) -> (SystemReport, SimState, Vec<NodeState>) {
        let engine = sys.engine();
        let states = engine
            .topology()
            .node_ids()
            .map(|n| {
                let node = engine.node(n);
                let mut held: Vec<(WebsiteId, usize)> = node
                    .content
                    .keys()
                    .filter_map(|ws| Some((*ws, node.content_role(*ws)?.content_len())))
                    .collect();
                held.sort_unstable();
                (held, node.dir_role().map(|r| r.dir.overlay_size()))
            })
            .collect();
        (sys.report(), engine.sim_state(), states)
    }

    /// The streamed trace against the eager reference: equal reports,
    /// engine states ([`Engine::sim_state`]) and per-node protocol
    /// state, run in legs so the source is resumed mid-trace, on one
    /// shard and on three. (That the two forms pop the very same
    /// `EventKey` sequence is held at the engine, where pops can be
    /// observed: `simnet::engine::source_parity`.)
    #[test]
    fn streamed_trace_matches_the_eager_reference() {
        for shards in [1usize, 3] {
            let cfg = surged(shards);
            let mut eager = reference::build_eager(&cfg);
            let mut streamed = FlowerSystem::build(&cfg);
            assert_eq!(streamed.queries_injected(), 0, "nothing injected at build");
            assert!(
                streamed.engine().peak_queue_depth() * 10 < eager.engine().peak_queue_depth(),
                "the eager build queues the trace, the streamed one must not"
            );
            for leg in [SimTime::from_secs(25), eager.drain_horizon()] {
                eager.run_until(leg);
                streamed.run_until(leg);
                let injected = streamed.queries_injected();
                assert_eq!(injected, streamed.report().submitted, "shards={shards}");
                assert_eq!(observed(&streamed), observed(&eager), "shards={shards}");
            }
            assert!(streamed.report().submitted > 3_000, "surges must add load");
        }
        let one = observed(&FlowerSystem::run(&surged(1)).0);
        let three = observed(&FlowerSystem::run(&surged(3)).0);
        assert_eq!(one, three, "shard layouts diverged");
    }

    /// Churn and faults installed after `build` are keyed after every
    /// trace injection, as when the trace was scheduled by `build`.
    #[test]
    fn scripts_installed_after_build_match_the_eager_reference() {
        let cfg = surged(1);
        let script = |sys: &FlowerSystem| {
            let affected: Vec<NodeId> = sys
                .community(WebsiteId(0), Locality(0))
                .iter()
                .chain(sys.community(WebsiteId(1), Locality(2)))
                .copied()
                .collect();
            ChurnScript::generate(
                &simnet::ChurnConfig {
                    start: SimTime::from_secs(5),
                    end: SimTime::from_secs(80),
                    mean_session: SimDuration::from_secs(20),
                    mean_downtime: SimDuration::from_secs(5),
                    permanent: false,
                },
                &affected,
                cfg.seed,
            )
        };
        let mut eager = reference::build_eager(&cfg);
        let mut streamed = FlowerSystem::build(&cfg);
        eager.apply_churn(&script(&eager));
        streamed.apply_churn(&script(&streamed));
        eager.run_until(eager.drain_horizon());
        streamed.run_until(streamed.drain_horizon());
        assert!(streamed.report().resolved < streamed.report().submitted);
        assert_eq!(observed(&streamed), observed(&eager));
    }

    /// The per-node byte budget (README "Memory model"): a node that
    /// is not a directory must not carry one, nor one that is not
    /// joining or replacing its directory that state.
    #[test]
    fn node_state_fits_its_budget() {
        assert!(
            std::mem::size_of::<FlowerNode>() <= 80,
            "FlowerNode grew to {} B",
            std::mem::size_of::<FlowerNode>()
        );
    }

    /// Storm-shaped: many queries per second against a small
    /// deployment with slow background periods. The queue must hold
    /// the near future only — a fraction of the trace, not the trace.
    #[test]
    fn a_query_storm_never_becomes_resident() {
        let mut cfg = SystemConfig::small_test();
        cfg.workload.query_rate_per_sec = 300.0;
        cfg.workload.duration_ms = 60_000;
        cfg.flower.t_gossip = SimDuration::from_secs(60);
        cfg.flower.keepalive_period = SimDuration::from_secs(60);
        let (sys, r) = FlowerSystem::run(&cfg);
        assert!(r.submitted > 15_000);
        let depth = sys.engine().peak_queue_depth() as u64;
        assert!(
            depth < r.submitted / 10,
            "peak queue depth {depth} against {} queries",
            r.submitted
        );
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let (_, a) = run_small(7);
        let (_, b) = run_small(7);
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.resolved, b.resolved);
        assert!((a.hit_ratio - b.hit_ratio).abs() < 1e-12);
        assert!((a.background_bps - b.background_bps).abs() < 1e-9);
    }

    /// Hash iteration order must never reach the protocol. The random
    /// SipHash key used to fuzz this on every run; with the fixed
    /// [`crate::idmap::IdHasher`] the layouts have to be varied on
    /// purpose.
    #[test]
    fn report_is_independent_of_hash_table_layout() {
        use crate::idmap::test_salt;
        let (_, plain) = run_small(7);
        for salt in [0x5EED_0F7A_B1E5, 0xFEED_FACE_CAFE_F00D] {
            let salted = test_salt::with(salt, || run_small(7).1);
            assert_eq!(plain, salted, "salt {salt:#x}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (_, a) = run_small(1);
        let (_, b) = run_small(2);
        assert!(a.submitted != b.submitted || (a.hit_ratio - b.hit_ratio).abs() > 1e-12);
    }

    #[test]
    fn deployment_shape() {
        let cfg = SystemConfig::small_test();
        let sys = FlowerSystem::build(&cfg);
        // 6 websites × 3 localities directory peers.
        let topo = sys.engine().topology();
        assert_eq!(topo.num_localities(), 3);
        for ws in 0..6u16 {
            for l in 0..3u16 {
                let d = sys.initial_directory(WebsiteId(ws), Locality(l));
                assert!(d.is_some(), "missing directory for ws{ws} loc{l}");
                let node = sys.engine().node(d.unwrap());
                assert!(node.is_directory());
                let role = node.dir_role().expect("directory role");
                assert!(!role.ring.known_peers().is_empty(), "off the ring");
            }
        }
        assert_eq!(sys.servers().len(), 6);
        // Active websites have communities.
        for ws in 0..2u16 {
            for l in 0..3u16 {
                assert!(!sys.community(WebsiteId(ws), Locality(l)).is_empty());
            }
        }
    }

    #[test]
    fn hit_ratio_improves_over_time() {
        let (sys, _) = run_small(3);
        let pts = sys.engine().query_stats().hit_series().points();
        let early: Vec<_> = pts.iter().take(3).filter(|p| p.count > 0).collect();
        let late: Vec<_> = pts.iter().rev().take(3).filter(|p| p.count > 0).collect();
        let avg = |v: &[&simnet::SeriesPoint]| {
            v.iter().map(|p| p.mean()).sum::<f64>() / v.len().max(1) as f64
        };
        assert!(
            avg(&late) > avg(&early),
            "hit ratio should rise: early {:.3} late {:.3}",
            avg(&early),
            avg(&late)
        );
    }

    #[test]
    fn background_traffic_is_gossip_and_push_only() {
        let (sys, r) = run_small(4);
        assert!(r.background_bps > 0.0, "gossip must produce traffic");
        let t = sys.engine().traffic();
        let gossip = t.total_sent(simnet::TrafficClass::Gossip);
        let push = t.total_sent(simnet::TrafficClass::Push);
        assert!(gossip > 0, "no gossip traffic recorded");
        assert!(push > 0, "no push traffic recorded");
    }
}
