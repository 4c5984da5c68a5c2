//! Harness building the Squirrel comparison runs (§6.1): the same
//! topology, catalog and query trace as the Flower-CDN system, but
//! with every participant in a single locality-blind DHT.

use std::collections::HashMap;
use std::sync::Arc;

use chord::PeerRef;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simnet::{
    Engine, Event, Injection, Locality, NodeId, SimDuration, SimTime, Topology, TopologyConfig,
};
use workload::{Catalog, CatalogConfig, Communities, OriginatedTrace, QueryGen, WorkloadConfig};

use crate::msg::SquirrelMsg;
use crate::node::{SquirrelDeployment, SquirrelNode};

/// Configuration of a Squirrel run. Mirrors
/// `flower_core::SystemConfig` so comparisons share topology, catalog,
/// workload and seed.
#[derive(Clone, Debug)]
pub struct SquirrelConfig {
    /// Underlay shape.
    pub topology: TopologyConfig,
    /// Website/object universe.
    pub catalog: CatalogConfig,
    /// Query trace shape.
    pub workload: WorkloadConfig,
    /// Participants per (active website, locality) — kept equal to the
    /// Flower run's `Sco` so both systems see the same client base.
    pub clients_per_locality: usize,
    /// Master seed.
    pub seed: u64,
    /// Metric series window.
    pub window: SimDuration,
    /// Locality shards the engine runs on (worker threads); results
    /// are bit-identical for every value.
    pub shards: usize,
}

impl Default for SquirrelConfig {
    fn default() -> Self {
        SquirrelConfig {
            topology: TopologyConfig::default(),
            catalog: CatalogConfig::default(),
            workload: WorkloadConfig::default(),
            clients_per_locality: 100,
            seed: 42,
            window: SimDuration::from_mins(30),
            shards: 1,
        }
    }
}

impl SquirrelConfig {
    /// The paper's Table 1 setup.
    pub fn paper() -> Self {
        SquirrelConfig::default()
    }

    /// Small fast-test deployment (mirrors
    /// `flower_core::SystemConfig::small_test`).
    pub fn small_test() -> Self {
        SquirrelConfig {
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
            clients_per_locality: 20,
            seed: 42,
            window: SimDuration::from_mins(1),
            ..Default::default()
        }
    }
}

/// End-of-run summary (same fields as the Flower report for easy
/// side-by-side printing).
#[derive(Clone, Debug)]
pub struct SquirrelReport {
    /// Queries submitted.
    pub submitted: u64,
    /// Queries resolved.
    pub resolved: u64,
    /// Hit ratio.
    pub hit_ratio: f64,
    /// Mean lookup latency (ms).
    pub mean_lookup_ms: f64,
    /// Mean transfer distance (ms).
    pub mean_transfer_ms: f64,
    /// Mean transfer distance of P2P hits only (ms).
    pub mean_transfer_hit_ms: f64,
    /// Participants in the ring.
    pub participants: usize,
}

/// A built Squirrel simulation.
pub struct SquirrelSystem {
    engine: Engine<SquirrelMsg, SquirrelNode>,
    participants: Vec<NodeId>,
    duration: SimTime,
}

/// The query trace as engine injections, exactly as the Flower-CDN
/// harness turns it into its own (`flower_core::system::submissions`):
/// the originator receives a `Submit` from itself at the query's
/// instant.
pub fn submissions(
    trace: OriginatedTrace<NodeId>,
) -> impl Iterator<Item = Injection<SquirrelMsg>> + Clone + Send + 'static {
    trace.map(|q| {
        let submit = SquirrelMsg::Submit {
            qid: q.qid,
            website: q.website,
            object: q.object,
        };
        (
            SimTime::from_ms(q.at_ms),
            q.origin,
            Event::Recv {
                from: q.origin,
                msg: submit,
            },
        )
    })
}

impl SquirrelSystem {
    /// Build the deployment and attach the query trace as the engine's
    /// injection source.
    pub fn build(cfg: &SquirrelConfig) -> SquirrelSystem {
        let topo = Topology::generate(&cfg.topology, cfg.seed);
        let catalog = Catalog::new(cfg.catalog.clone());
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5_901_u64);
        let k = topo.num_localities();

        let mut pools: Vec<Vec<NodeId>> = (0..k)
            .map(|l| {
                let mut v = topo.nodes_in(Locality(l as u16));
                v.shuffle(&mut rng);
                v
            })
            .collect();
        debug_assert_eq!(pools.len(), k);

        // Origin servers (outside the DHT, as in the Flower runs).
        let mut servers = Vec::new();
        {
            let mut l = 0usize;
            for _ws in catalog.websites() {
                let mut placed = None;
                for _ in 0..k {
                    l = (l + 1) % k;
                    if let Some(n) = pools[l].pop() {
                        placed = Some(n);
                        break;
                    }
                }
                servers.push(placed.expect("topology too small for servers"));
            }
        }

        // Client communities: same shape as the Flower run; the union
        // of all communities forms the single Squirrel ring.
        let mut communities: Communities<NodeId> = Communities::new(k);
        let mut ring_members: Vec<NodeId> = Vec::new();
        for ws in catalog.active_websites() {
            for (l, pool) in pools.iter().enumerate() {
                let take = cfg.clients_per_locality.min(pool.len());
                let mut comm: Vec<NodeId> = pool.choose_multiple(&mut rng, take).copied().collect();
                comm.sort_unstable_by_key(|n| n.0);
                for n in &comm {
                    if !ring_members.contains(n) {
                        ring_members.push(*n);
                    }
                }
                communities.insert(ws, l, comm);
            }
        }
        ring_members.sort_unstable_by_key(|n| n.0);

        // One stable Chord ring over all participants, ids uniformly
        // hashed (locality-blind).
        let members: Vec<PeerRef> = ring_members
            .iter()
            .map(|n| PeerRef {
                id: chord::ChordId(chord::hash64(0x5014_u64 ^ n.0 as u64)),
                node: *n,
            })
            .collect();
        let states = chord::stable_ring(&members, &chord::ChordConfig::default());
        let state_by_node: HashMap<NodeId, chord::ChordState> = members
            .iter()
            .zip(states)
            .map(|(m, s)| (m.node, s))
            .collect();

        let deployment = Arc::new(SquirrelDeployment {
            catalog: Catalog::new(cfg.catalog.clone()),
            servers: servers.clone(),
        });

        let server_of_node: HashMap<NodeId, u16> = servers
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, i as u16))
            .collect();
        let nodes: Vec<SquirrelNode> = topo
            .node_ids()
            .map(|n| {
                if let Some(st) = state_by_node.get(&n) {
                    SquirrelNode::participant(Arc::clone(&deployment), st.clone())
                } else if let Some(ws) = server_of_node.get(&n) {
                    SquirrelNode::server(Arc::clone(&deployment), workload::WebsiteId(*ws))
                } else {
                    SquirrelNode::bystander(Arc::clone(&deployment))
                }
            })
            .collect();

        let mut engine = Engine::with_shards(
            topo,
            nodes,
            cfg.seed ^ 0x50_13_17,
            cfg.window,
            cfg.shards.max(1),
        );

        // The same trace and the same originator policy as the Flower
        // harness — one implementation, `workload::OriginatedTrace` —
        // over this deployment's communities and draw stream.
        let trace = QueryGen::new(&cfg.workload, &catalog, cfg.seed ^ 0x0077_ACE5)
            .originated(Arc::new(communities), rng);
        engine.attach_source(submissions(trace));

        SquirrelSystem {
            engine,
            participants: ring_members,
            duration: SimTime::from_ms(cfg.workload.duration_ms),
        }
    }

    /// Build and run to the horizon (plus drain margin).
    pub fn run(cfg: &SquirrelConfig) -> (SquirrelSystem, SquirrelReport) {
        let mut sys = SquirrelSystem::build(cfg);
        let horizon = sys.duration + SimDuration::from_secs(30);
        sys.engine.run_until(horizon);
        let report = sys.report();
        (sys, report)
    }

    /// The engine (metric access).
    pub fn engine(&self) -> &Engine<SquirrelMsg, SquirrelNode> {
        &self.engine
    }

    /// Ring participants.
    pub fn participants(&self) -> &[NodeId] {
        &self.participants
    }

    /// End-of-run report.
    pub fn report(&self) -> SquirrelReport {
        let q = self.engine.query_stats();
        SquirrelReport {
            submitted: q.submitted(),
            resolved: q.resolved(),
            hit_ratio: q.hit_ratio(),
            mean_lookup_ms: q.mean_lookup_ms(),
            mean_transfer_ms: q.mean_transfer_ms(),
            mean_transfer_hit_ms: q.mean_transfer_hit_ms(),
            participants: self.participants.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_small(seed: u64) -> (SquirrelSystem, SquirrelReport) {
        let cfg = SquirrelConfig {
            seed,
            ..SquirrelConfig::small_test()
        };
        SquirrelSystem::run(&cfg)
    }

    #[test]
    fn processes_queries_and_converges() {
        let (_, r) = run_small(1);
        assert!(r.submitted > 1000);
        assert!(
            r.resolved as f64 >= r.submitted as f64 * 0.99,
            "resolved {} of {}",
            r.resolved,
            r.submitted
        );
        assert!(r.hit_ratio > 0.5, "hit ratio {}", r.hit_ratio);
    }

    #[test]
    fn deterministic() {
        let (_, a) = run_small(3);
        let (_, b) = run_small(3);
        assert_eq!(a.submitted, b.submitted);
        assert!((a.hit_ratio - b.hit_ratio).abs() < 1e-12);
        assert!((a.mean_lookup_ms - b.mean_lookup_ms).abs() < 1e-9);
    }

    #[test]
    fn dht_lookups_cost_latency() {
        let (_, r) = run_small(5);
        // Squirrel routes through the DHT: non-self-hit lookups pay
        // several wide-area hops, so the mean must be well above zero
        // even with self-hits mixed in.
        assert!(r.mean_lookup_ms > 50.0, "mean lookup {}", r.mean_lookup_ms);
    }

    #[test]
    fn home_nodes_accumulate_pointers() {
        let (sys, _) = run_small(7);
        let total_home: usize = sys
            .participants()
            .iter()
            .map(|n| sys.engine().node(*n).home_entries())
            .sum();
        assert!(total_home > 0, "home directories never used");
    }
}
