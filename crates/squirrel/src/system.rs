//! Harness building the Squirrel comparison runs (§6.1): the same
//! topology, catalog and query trace as the Flower-CDN system — built
//! from the same [`SystemConfig`] by the same deployment steps of
//! [`flower_core::system`] — but with every participant in a single
//! locality-blind DHT.

use std::collections::HashMap;
use std::sync::Arc;

use chord::PeerRef;
use flower_core::system::{
    drain_horizon, draw_communities, locality_pools, originated_trace, place_servers, submissions,
    SystemConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Engine, NodeId, SimTime, Topology};
use workload::Catalog;

use crate::msg::SquirrelMsg;
use crate::node::{SquirrelDeployment, SquirrelNode};

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
    horizon: SimTime,
}

impl SquirrelSystem {
    /// Build the deployment `cfg` describes and attach the query trace
    /// as the engine's injection source. Reads the topology, catalog,
    /// workload, seed, window and shard count, and `flower.max_overlay`
    /// as the `Sco` both systems draw communities with.
    pub fn build(cfg: &SystemConfig) -> SquirrelSystem {
        let topo = Topology::generate(&cfg.topology, cfg.seed);
        let catalog = Catalog::new(cfg.catalog.clone());
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5_901_u64);
        let mut pools = locality_pools(&topo, &mut rng);
        // Origin servers (outside the DHT, as in the Flower runs).
        let servers = place_servers(&catalog, &mut pools);
        let communities = draw_communities(&catalog, &pools, cfg.flower.max_overlay, &mut rng);

        // The union of all communities forms the single Squirrel ring.
        let mut ring_members: Vec<NodeId> = Vec::new();
        for ws in catalog.active_websites() {
            for l in 0..pools.len() {
                ring_members.extend_from_slice(communities.get(ws, l));
            }
        }
        ring_members.sort_unstable_by_key(|n| n.0);
        ring_members.dedup();

        // The same trace and originator policy as the Flower harness,
        // over this deployment's communities and draw stream.
        let trace = originated_trace(cfg, &catalog, Arc::new(communities), rng);

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
        let mut state_by_node: HashMap<NodeId, chord::ChordState> = members
            .iter()
            .zip(states)
            .map(|(m, s)| (m.node, s))
            .collect();

        let server_of_node: HashMap<NodeId, u16> = servers
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, i as u16))
            .collect();
        let deployment = Arc::new(SquirrelDeployment { catalog, servers });
        let nodes: Vec<SquirrelNode> = topo
            .node_ids()
            .map(|n| {
                if let Some(st) = state_by_node.remove(&n) {
                    SquirrelNode::participant(Arc::clone(&deployment), st)
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
        engine.attach_source(submissions(trace, |qid, website, object| {
            SquirrelMsg::Submit {
                qid,
                website,
                object,
            }
        }));

        SquirrelSystem {
            engine,
            participants: ring_members,
            horizon: drain_horizon(SimTime::from_ms(cfg.workload.duration_ms)),
        }
    }

    /// Build and run to [`SquirrelSystem::drain_horizon`].
    pub fn run(cfg: &SystemConfig) -> (SquirrelSystem, SquirrelReport) {
        let mut sys = SquirrelSystem::build(cfg);
        sys.engine.run_until(sys.horizon);
        let report = sys.report();
        (sys, report)
    }

    /// The standard run horizon, the same instant as Flower-CDN's
    /// (`flower_core::system::drain_horizon`).
    pub fn drain_horizon(&self) -> SimTime {
        self.horizon
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
        let cfg = SystemConfig {
            seed,
            ..SystemConfig::small_test()
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
