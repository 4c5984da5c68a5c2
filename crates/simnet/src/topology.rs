//! Underlay topology: node placement, link latencies, and network
//! localities.
//!
//! The paper generates a 5000-node underlay with BRITE and assigns
//! link latencies between 10 and 500 ms, then splits the Internet into
//! `k` *network localities* using a landmark-based technique
//! (Ratnasamy et al., INFOCOM 2002): every peer measures its latency
//! to a small set of well-known landmarks and derives its locality
//! from those measurements.
//!
//! We reproduce that pipeline with a metric-space embedding:
//!
//! 1. `k` cluster centres are placed on a circle in the unit square
//!    (geographically dispersed regions);
//! 2. each node is assigned to a region with non-uniform probability
//!    (the paper: localities are "non-uniformly populated") and placed
//!    around its centre with Gaussian spread, plus a small fraction of
//!    uniformly scattered "background" nodes;
//! 3. the latency of a link is an affine function of the Euclidean
//!    distance between its endpoints, clamped to the configured
//!    `[min,max]` range — close nodes talk in ~10–60 ms, cross-region
//!    links cost hundreds of ms;
//! 4. one landmark sits at each region centre and a node's locality is
//!    the landmark it measures the lowest latency to, exactly the
//!    measurement the paper assumes every peer can perform.
//!
//! Latencies are symmetric and deterministic, so the "transfer
//! distance" metric is well defined.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// Identifier of a physical node in the underlay (index into the
/// topology's node table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a usize index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A network locality (the paper's `loc`), an integer in `[0, k)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Locality(pub u16);

impl Locality {
    /// The locality as a usize index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Locality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "loc{}", self.0)
    }
}

/// A grid cell index used by the locality-distance computation.
type Cell = (usize, usize);

/// A point in the unit square used for latency embedding.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// Horizontal coordinate in `[0, 1]`.
    pub x: f64,
    /// Vertical coordinate in `[0, 1]`.
    pub y: f64,
}

impl Point {
    /// Euclidean distance to `other`.
    pub fn dist(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Configuration for topology generation. Defaults reproduce Table 1
/// of the paper: 5000 nodes, 6 localities, 10–500 ms latencies.
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// Number of underlay nodes.
    pub nodes: usize,
    /// Number of network localities `k`.
    pub localities: usize,
    /// Minimum link latency in milliseconds.
    pub min_latency_ms: u64,
    /// Maximum link latency in milliseconds.
    pub max_latency_ms: u64,
    /// Standard deviation of a node's offset from its region centre
    /// (unit-square units). Smaller values give tighter localities.
    pub cluster_spread: f64,
    /// Fraction of nodes scattered uniformly instead of clustered
    /// (models poorly-connected stragglers).
    pub background_fraction: f64,
    /// Skew of the region population distribution. 0.0 = uniform; at
    /// 1.0 region `i` has weight proportional to `i + 1` (the paper's
    /// localities are non-uniformly populated).
    pub population_skew: f64,
    /// Minimum latency of any *cross-locality* link, in milliseconds
    /// (0 = no extra floor beyond `min_latency_ms`). Real inter-domain
    /// links have a higher base latency than intra-domain ones; the
    /// floor also determines the sharded engine's epoch length
    /// (lookahead): larger floors permit longer epochs and therefore
    /// less synchronization between shards. See
    /// [`Topology::cross_locality_lookahead`].
    pub inter_locality_floor_ms: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            nodes: 5000,
            localities: 6,
            min_latency_ms: 10,
            max_latency_ms: 500,
            cluster_spread: 0.045,
            background_fraction: 0.05,
            population_skew: 1.0,
            inter_locality_floor_ms: 0,
        }
    }
}

impl TopologyConfig {
    /// A tiny topology suitable for unit tests (fast to generate).
    pub fn small_test() -> Self {
        TopologyConfig {
            nodes: 60,
            localities: 3,
            ..Default::default()
        }
    }

    /// Paper-scale topology (Table 1): 5000 nodes, 6 localities.
    pub fn paper() -> Self {
        TopologyConfig::default()
    }
}

/// The generated underlay: node coordinates, landmark positions, and
/// locality assignment.
#[derive(Clone, Debug)]
pub struct Topology {
    points: Vec<Point>,
    locality_of: Vec<Locality>,
    landmarks: Vec<Point>,
    min_latency_ms: u64,
    max_latency_ms: u64,
    inter_floor_ms: u64,
    /// Scale factor mapping unit-square distance to milliseconds.
    ms_per_unit: f64,
    populations: Vec<u32>,
    /// Exact minimum latency (ms) between the point sets of every
    /// locality pair, row-major `k × k`; `u64::MAX` on the diagonal
    /// and for pairs involving an unpopulated locality (no link
    /// exists, so any bound is vacuously sound). Each entry is a hard
    /// lower bound on the latency of *any* link between the two
    /// localities — the sharded engine's per-pair lookahead.
    loc_min_lat_ms: Vec<u64>,
}

impl Topology {
    /// Generate a topology from `cfg`, deterministically from `seed`.
    pub fn generate(cfg: &TopologyConfig, seed: u64) -> Topology {
        assert!(cfg.nodes > 0, "topology needs at least one node");
        assert!(cfg.localities > 0, "topology needs at least one locality");
        assert!(
            cfg.min_latency_ms <= cfg.max_latency_ms,
            "min latency must not exceed max latency"
        );
        assert!(
            cfg.inter_locality_floor_ms <= cfg.max_latency_ms,
            "inter-locality floor must not exceed max latency"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70_70_70);

        // Region centres on a circle of radius 0.38 around the square
        // centre: maximally separated for small k.
        let k = cfg.localities;
        let landmarks: Vec<Point> = (0..k)
            .map(|i| {
                let angle = (i as f64) * std::f64::consts::TAU / (k as f64);
                Point {
                    x: 0.5 + 0.38 * angle.cos(),
                    y: 0.5 + 0.38 * angle.sin(),
                }
            })
            .collect();

        // Non-uniform region weights: weight(i) = 1 + skew * i.
        let weights: Vec<f64> = (0..k)
            .map(|i| 1.0 + cfg.population_skew * i as f64)
            .collect();
        let total_weight: f64 = weights.iter().sum();

        let mut points = Vec::with_capacity(cfg.nodes);
        for _ in 0..cfg.nodes {
            if rng.gen::<f64>() < cfg.background_fraction {
                points.push(Point {
                    x: rng.gen(),
                    y: rng.gen(),
                });
                continue;
            }
            // Weighted region choice.
            let mut pick = rng.gen::<f64>() * total_weight;
            let mut region = k - 1;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    region = i;
                    break;
                }
                pick -= *w;
            }
            let centre = landmarks[region];
            // Box-Muller Gaussian offset, clamped into the unit square.
            let (g1, g2) = gaussian_pair(&mut rng);
            points.push(Point {
                x: (centre.x + g1 * cfg.cluster_spread).clamp(0.0, 1.0),
                y: (centre.y + g2 * cfg.cluster_spread).clamp(0.0, 1.0),
            });
        }

        // Latency scale: the unit-square diagonal maps onto the full
        // latency range.
        let diag = std::f64::consts::SQRT_2;
        let ms_per_unit = (cfg.max_latency_ms - cfg.min_latency_ms) as f64 / diag;

        let mut topo = Topology {
            points,
            locality_of: Vec::new(),
            landmarks,
            min_latency_ms: cfg.min_latency_ms,
            max_latency_ms: cfg.max_latency_ms,
            inter_floor_ms: cfg.inter_locality_floor_ms,
            ms_per_unit,
            populations: vec![0; k],
            loc_min_lat_ms: Vec::new(),
        };

        // Landmark binning: locality = argmin latency-to-landmark.
        let localities: Vec<Locality> = (0..topo.points.len())
            .map(|i| {
                let p = topo.points[i];
                let best = topo
                    .landmarks
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        p.dist(**a)
                            .partial_cmp(&p.dist(**b))
                            .expect("distances are finite")
                    })
                    .map(|(j, _)| j)
                    .expect("at least one landmark");
                Locality(best as u16)
            })
            .collect();
        for l in &localities {
            topo.populations[l.idx()] += 1;
        }
        topo.locality_of = localities;
        topo.loc_min_lat_ms = topo.compute_locality_min_latencies();
        topo
    }

    /// Exact minimum distance between every pair of locality point
    /// sets (bichromatic closest pair), accelerated by a uniform grid:
    /// cell-level bounds first narrow the candidate cell pairs, then
    /// only near-boundary cells are compared point by point. Runs once
    /// per topology; a few milliseconds even at 100k nodes.
    fn compute_locality_min_latencies(&self) -> Vec<u64> {
        const GRID: usize = 64;
        let k = self.num_localities();
        let cell_of = |p: Point| -> Cell {
            let cx = ((p.x * GRID as f64) as usize).min(GRID - 1);
            let cy = ((p.y * GRID as f64) as usize).min(GRID - 1);
            (cx, cy)
        };
        let centre_of = |(cx, cy): Cell| Point {
            x: (cx as f64 + 0.5) / GRID as f64,
            y: (cy as f64 + 0.5) / GRID as f64,
        };
        // Two points of the same cell are at most one cell diagonal
        // apart from its centre combined, so cell-centre distance ±
        // one diagonal brackets every cross-cell point distance.
        let diag = std::f64::consts::SQRT_2 / GRID as f64;
        // Per-locality buckets: cell → point indices.
        let mut buckets: Vec<HashMap<Cell, Vec<usize>>> = vec![HashMap::new(); k];
        for (i, p) in self.points.iter().enumerate() {
            buckets[self.locality_of[i].idx()]
                .entry(cell_of(*p))
                .or_default()
                .push(i);
        }
        let mut out = vec![u64::MAX; k * k];
        for a in 0..k {
            for b in (a + 1)..k {
                let (ca, cb) = (&buckets[a], &buckets[b]);
                if ca.is_empty() || cb.is_empty() {
                    continue;
                }
                // Pass 1: cell-level upper bound on the pair minimum —
                // every non-empty cell pair contains a point pair no
                // farther than centre distance + diagonal. Bound-only,
                // no allocation: localities spanning many cells would
                // otherwise materialize a |Ca|·|Cb| cross product.
                let mut upper = f64::INFINITY;
                for cell_a in ca.keys() {
                    let pa = centre_of(*cell_a);
                    for cell_b in cb.keys() {
                        upper = upper.min(pa.dist(centre_of(*cell_b)) + diag);
                    }
                }
                // Pass 2: collect only the near-boundary cell pairs
                // whose lower bound can still beat that, then compare
                // their points exactly, nearest pairs first.
                let mut candidates: Vec<(f64, Cell, Cell)> = Vec::new();
                for cell_a in ca.keys() {
                    let pa = centre_of(*cell_a);
                    for cell_b in cb.keys() {
                        let lb = (pa.dist(centre_of(*cell_b)) - diag).max(0.0);
                        if lb <= upper {
                            candidates.push((lb, *cell_a, *cell_b));
                        }
                    }
                }
                candidates.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
                let mut best = f64::INFINITY;
                for (lb, cell_a, cell_b) in candidates {
                    if lb >= best {
                        break;
                    }
                    for &i in &ca[&cell_a] {
                        for &j in &cb[&cell_b] {
                            best = best.min(self.points[i].dist(self.points[j]));
                        }
                    }
                }
                // Same mapping as `latency_ms` (round, clamp, cross
                // floor) — monotone in distance, so applying it to the
                // exact minimum distance yields the exact minimum
                // latency of any link between the two localities.
                let lat = self.dist_to_latency_ms(best, true);
                out[a * k + b] = lat;
                out[b * k + a] = lat;
            }
        }
        out
    }

    /// Number of underlay nodes.
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Number of network localities `k`.
    pub fn num_localities(&self) -> usize {
        self.landmarks.len()
    }

    /// The locality a node belongs to (the paper: detected via latency
    /// measurements to landmarks).
    pub fn locality(&self, n: NodeId) -> Locality {
        self.locality_of[n.idx()]
    }

    /// Number of nodes assigned to `loc`.
    pub fn population(&self, loc: Locality) -> u32 {
        self.populations[loc.idx()]
    }

    /// All node ids in a locality (computed on demand).
    pub fn nodes_in(&self, loc: Locality) -> Vec<NodeId> {
        (0..self.num_nodes() as u32)
            .map(NodeId)
            .filter(|n| self.locality(*n) == loc)
            .collect()
    }

    /// One-way link latency between two nodes, in milliseconds.
    /// Symmetric, deterministic, and clamped to the configured range.
    /// The latency of a node to itself is zero (local delivery).
    /// Cross-locality links are additionally floored at
    /// [`Topology::cross_locality_lookahead`], which is what makes the
    /// sharded engine's conservative epoch barrier sound.
    pub fn latency_ms(&self, a: NodeId, b: NodeId) -> u64 {
        if a == b {
            return 0;
        }
        let d = self.points[a.idx()].dist(self.points[b.idx()]);
        self.dist_to_latency_ms(d, self.locality_of[a.idx()] != self.locality_of[b.idx()])
    }

    /// The distance → latency mapping shared by [`Topology::latency_ms`]
    /// and the lookahead-matrix computation: affine in the embedding
    /// distance, rounded, clamped to the configured range, and floored
    /// for cross-locality links. Monotone non-decreasing in `d`.
    fn dist_to_latency_ms(&self, d: f64, cross_locality: bool) -> u64 {
        let ms = self.min_latency_ms as f64 + d * self.ms_per_unit;
        let ms = (ms.round() as u64).clamp(self.min_latency_ms, self.max_latency_ms);
        if cross_locality {
            ms.max(self.cross_floor_ms())
        } else {
            ms
        }
    }

    /// The effective cross-locality latency floor: the configured
    /// floor, at least 1 ms (so lookahead is always positive), and at
    /// most the configured maximum latency.
    fn cross_floor_ms(&self) -> u64 {
        self.inter_floor_ms.clamp(1, self.max_latency_ms.max(1))
    }

    /// A guaranteed lower bound on the latency of *any* cross-locality
    /// link: `max(min_latency, inter_locality_floor, 1)` milliseconds.
    ///
    /// This is the sharded engine's *lookahead*: a message sent at
    /// simulated time `t` between nodes of different localities (and
    /// therefore possibly different shards) can never arrive before
    /// `t + lookahead`, so shards that synchronize every `lookahead`
    /// milliseconds always exchange cross-shard messages a full epoch
    /// before they are due.
    pub fn cross_locality_lookahead(&self) -> SimDuration {
        SimDuration::from_ms(self.min_latency_ms.max(self.cross_floor_ms()))
    }

    /// The exact minimum latency of any link between localities `a`
    /// and `b` (ms): the latency of the closest cross pair of their
    /// point sets. `u64::MAX` when `a == b` or either locality is
    /// unpopulated (no such link exists). Always at least
    /// [`Topology::cross_locality_lookahead`].
    pub fn min_inter_locality_latency_ms(&self, a: Locality, b: Locality) -> u64 {
        self.loc_min_lat_ms[a.idx() * self.num_localities() + b.idx()]
    }

    /// The sharded engine's per-shard-pair lookahead matrix under a
    /// [`Topology::shard_map`] assignment: entry `[from · shards + to]`
    /// is the minimum of [`Topology::min_inter_locality_latency_ms`]
    /// over the locality pairs the two shards hold — a hard lower
    /// bound (ms) on how long any message needs to travel from a node
    /// of shard `from` to a node of shard `to`. Diagonal entries are
    /// `u64::MAX` (a shard never constrains itself: its own events sit
    /// in its own queue in key order). Symmetric, like the latencies.
    pub fn shard_lookahead_ms(&self, shard_map: &[usize], shards: usize) -> Vec<u64> {
        let k = self.num_localities();
        assert_eq!(shard_map.len(), k, "one shard assignment per locality");
        let mut m = vec![u64::MAX; shards * shards];
        for la in 0..k {
            for lb in 0..k {
                let (sa, sb) = (shard_map[la], shard_map[lb]);
                if sa == sb {
                    continue;
                }
                let cell = &mut m[sa * shards + sb];
                *cell = (*cell).min(self.loc_min_lat_ms[la * k + lb]);
            }
        }
        m
    }

    /// Partition the localities over `shards` shards, balancing shard
    /// populations greedily (largest locality first onto the lightest
    /// shard). Returns `map[locality] = shard`; the number of shards
    /// actually used is `min(shards, k)`. Deterministic: ties resolve
    /// by locality and shard index.
    pub fn shard_map(&self, shards: usize) -> Vec<usize> {
        let k = self.num_localities();
        let s = shards.clamp(1, k);
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&l| (std::cmp::Reverse(self.populations[l]), l));
        let mut load = vec![0u64; s];
        let mut map = vec![0usize; k];
        for l in order {
            let target = (0..s)
                .min_by_key(|&j| (load[j], j))
                .expect("at least one shard");
            map[l] = target;
            load[target] += u64::from(self.populations[l]);
        }
        map
    }

    /// One-way link latency as a [`SimDuration`].
    pub fn latency(&self, a: NodeId, b: NodeId) -> SimDuration {
        SimDuration::from_ms(self.latency_ms(a, b))
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }
}

/// One pair of independent standard Gaussian samples (Box-Muller).
fn gaussian_pair(rng: &mut StdRng) -> (f64, f64) {
    // Avoid ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = std::f64::consts::TAU * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::generate(&TopologyConfig::small_test(), 1)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Topology::generate(&TopologyConfig::small_test(), 9);
        let b = Topology::generate(&TopologyConfig::small_test(), 9);
        for n in a.node_ids() {
            assert_eq!(a.locality(n), b.locality(n));
            assert_eq!(a.latency_ms(NodeId(0), n), b.latency_ms(NodeId(0), n));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Topology::generate(&TopologyConfig::small_test(), 1);
        let b = Topology::generate(&TopologyConfig::small_test(), 2);
        let same = a
            .node_ids()
            .all(|n| a.latency_ms(NodeId(0), n) == b.latency_ms(NodeId(0), n));
        assert!(!same, "seeds should change the embedding");
    }

    #[test]
    fn latency_bounds_and_symmetry() {
        let t = topo();
        for a in t.node_ids() {
            for b in t.node_ids() {
                let l = t.latency_ms(a, b);
                assert_eq!(l, t.latency_ms(b, a), "latency must be symmetric");
                if a == b {
                    assert_eq!(l, 0);
                } else {
                    assert!((10..=500).contains(&l), "latency {l} out of range");
                }
            }
        }
    }

    #[test]
    fn every_locality_populated_at_paper_scale() {
        let t = Topology::generate(&TopologyConfig::default(), 3);
        assert_eq!(t.num_localities(), 6);
        for l in 0..6 {
            assert!(t.population(Locality(l)) > 0, "locality {l} empty");
        }
    }

    #[test]
    fn populations_are_non_uniform() {
        let t = Topology::generate(&TopologyConfig::default(), 3);
        let pops: Vec<u32> = (0..6).map(|l| t.population(Locality(l))).collect();
        let min = *pops.iter().min().unwrap();
        let max = *pops.iter().max().unwrap();
        assert!(max > min, "populations should be skewed: {pops:?}");
    }

    #[test]
    fn intra_locality_latency_is_lower_than_inter() {
        let t = Topology::generate(&TopologyConfig::default(), 7);
        let mut intra = (0u64, 0u64);
        let mut inter = (0u64, 0u64);
        // Sample pairs deterministically.
        for i in (0..t.num_nodes() as u32).step_by(97) {
            for j in (0..t.num_nodes() as u32).step_by(89) {
                if i == j {
                    continue;
                }
                let (a, b) = (NodeId(i), NodeId(j));
                let l = t.latency_ms(a, b);
                if t.locality(a) == t.locality(b) {
                    intra = (intra.0 + l, intra.1 + 1);
                } else {
                    inter = (inter.0 + l, inter.1 + 1);
                }
            }
        }
        let intra_avg = intra.0 as f64 / intra.1 as f64;
        let inter_avg = inter.0 as f64 / inter.1 as f64;
        assert!(
            intra_avg * 2.0 < inter_avg,
            "locality structure too weak: intra {intra_avg:.1}ms inter {inter_avg:.1}ms"
        );
    }

    #[test]
    fn nodes_in_matches_population() {
        let t = topo();
        for l in 0..t.num_localities() as u16 {
            assert_eq!(
                t.nodes_in(Locality(l)).len() as u32,
                t.population(Locality(l))
            );
        }
    }

    #[test]
    fn shard_map_partitions_and_balances() {
        let t = Topology::generate(&TopologyConfig::default(), 3);
        for shards in [1usize, 2, 3, 6, 10] {
            let map = t.shard_map(shards);
            assert_eq!(map.len(), t.num_localities());
            let used = shards.min(t.num_localities());
            assert!(map.iter().all(|&s| s < used), "shard index out of range");
            // Every shard gets at least one locality when shards <= k.
            for s in 0..used {
                assert!(map.contains(&s), "shard {s} empty with {shards} shards");
            }
        }
        // One shard maps everything to shard 0.
        assert!(t.shard_map(1).iter().all(|&s| s == 0));
        // Deterministic.
        assert_eq!(t.shard_map(4), t.shard_map(4));
    }

    #[test]
    fn cross_locality_floor_applies_only_across_localities() {
        let cfg = TopologyConfig {
            nodes: 200,
            localities: 4,
            inter_locality_floor_ms: 120,
            ..Default::default()
        };
        let t = Topology::generate(&cfg, 5);
        assert_eq!(t.cross_locality_lookahead(), SimDuration::from_ms(120));
        let mut saw_intra_below_floor = false;
        for a in t.node_ids() {
            for b in t.node_ids() {
                if a == b {
                    continue;
                }
                let l = t.latency_ms(a, b);
                if t.locality(a) != t.locality(b) {
                    assert!(l >= 120, "cross-locality link {a}->{b} below floor: {l}");
                } else {
                    saw_intra_below_floor |= l < 120;
                }
            }
        }
        assert!(
            saw_intra_below_floor,
            "floor should not inflate intra-locality links"
        );
    }

    #[test]
    fn default_floor_leaves_latencies_unchanged() {
        // With the default (0) floor the lookahead degrades to the
        // global minimum latency, and no link is inflated.
        let t = Topology::generate(&TopologyConfig::small_test(), 1);
        assert_eq!(t.cross_locality_lookahead(), SimDuration::from_ms(10));
    }

    /// Brute-force reference for the grid-accelerated computation.
    fn brute_min_inter_latency(t: &Topology, a: u16, b: u16) -> u64 {
        let mut best = u64::MAX;
        for u in t.node_ids() {
            for v in t.node_ids() {
                if t.locality(u) == Locality(a) && t.locality(v) == Locality(b) && a != b {
                    best = best.min(t.latency_ms(u, v));
                }
            }
        }
        best
    }

    #[test]
    fn locality_min_latency_is_exact() {
        for (seed, floor) in [(1u64, 0u64), (9, 120)] {
            let cfg = TopologyConfig {
                nodes: 120,
                localities: 4,
                inter_locality_floor_ms: floor,
                ..Default::default()
            };
            let t = Topology::generate(&cfg, seed);
            for a in 0..4u16 {
                for b in 0..4u16 {
                    let got = t.min_inter_locality_latency_ms(Locality(a), Locality(b));
                    if a == b {
                        assert_eq!(got, u64::MAX, "diagonal must be unconstrained");
                    } else {
                        assert_eq!(
                            got,
                            brute_min_inter_latency(&t, a, b),
                            "seed {seed} floor {floor}: pair ({a},{b}) not exact"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shard_lookahead_matrix_lower_bounds_every_cross_link() {
        let t = Topology::generate(&TopologyConfig::default(), 3);
        let shards = 3;
        let map = t.shard_map(shards);
        let m = t.shard_lookahead_ms(&map, shards);
        let global = t.cross_locality_lookahead().as_ms();
        for i in 0..shards {
            assert_eq!(m[i * shards + i], u64::MAX, "diagonal unconstrained");
            for j in 0..shards {
                if i != j {
                    assert_eq!(m[i * shards + j], m[j * shards + i], "symmetric");
                    assert!(
                        m[i * shards + j] >= global,
                        "pair lookahead below the global floor"
                    );
                }
            }
        }
        // Spot-check the bound against actual links (sampled).
        for a in (0..t.num_nodes() as u32).step_by(131).map(NodeId) {
            for b in (0..t.num_nodes() as u32).step_by(97).map(NodeId) {
                let (sa, sb) = (map[t.locality(a).idx()], map[t.locality(b).idx()]);
                if sa != sb {
                    assert!(t.latency_ms(a, b) >= m[sa * shards + sb]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "floor must not exceed max latency")]
    fn floor_above_max_rejected() {
        let _ = Topology::generate(
            &TopologyConfig {
                inter_locality_floor_ms: 1000,
                ..Default::default()
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_topology_rejected() {
        let _ = Topology::generate(
            &TopologyConfig {
                nodes: 0,
                ..Default::default()
            },
            0,
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Latency is symmetric, zero on the diagonal, and within the
        /// configured bounds for any generated topology.
        #[test]
        fn latency_laws(seed in 0u64..500, nodes in 2usize..40, k in 1usize..5) {
            let cfg = TopologyConfig { nodes, localities: k, ..Default::default() };
            let t = Topology::generate(&cfg, seed);
            for a in t.node_ids() {
                prop_assert_eq!(t.latency_ms(a, a), 0);
                for b in t.node_ids() {
                    prop_assert_eq!(t.latency_ms(a, b), t.latency_ms(b, a));
                    if a != b {
                        let l = t.latency_ms(a, b);
                        prop_assert!((10..=500).contains(&l));
                    }
                }
            }
        }

        /// The epoch barrier's correctness assumption: cross-locality
        /// latencies are symmetric and never below the computed
        /// lookahead, for any generated topology and floor.
        #[test]
        fn cross_locality_latency_at_least_lookahead(
            seed in 0u64..500,
            nodes in 2usize..40,
            k in 2usize..6,
            floor in 0u64..400,
        ) {
            let cfg = TopologyConfig {
                nodes,
                localities: k,
                inter_locality_floor_ms: floor,
                ..Default::default()
            };
            let t = Topology::generate(&cfg, seed);
            let lookahead = t.cross_locality_lookahead().as_ms();
            prop_assert!(lookahead >= 1, "lookahead must be positive");
            for a in t.node_ids() {
                for b in t.node_ids() {
                    prop_assert_eq!(t.latency_ms(a, b), t.latency_ms(b, a));
                    if a != b && t.locality(a) != t.locality(b) {
                        prop_assert!(
                            t.latency_ms(a, b) >= lookahead,
                            "cross-locality link below lookahead: {} < {}",
                            t.latency_ms(a, b), lookahead
                        );
                    }
                }
            }
        }

        /// The grid-accelerated per-locality-pair minimum latency is
        /// exact: it equals the brute-force minimum over all cross
        /// pairs, for any generated topology and floor.
        #[test]
        fn locality_min_latency_matches_brute_force(
            seed in 0u64..200,
            nodes in 2usize..50,
            k in 2usize..5,
            floor in 0u64..300,
        ) {
            let cfg = TopologyConfig {
                nodes,
                localities: k,
                inter_locality_floor_ms: floor,
                ..Default::default()
            };
            let t = Topology::generate(&cfg, seed);
            for a in 0..k as u16 {
                for b in 0..k as u16 {
                    let got = t.min_inter_locality_latency_ms(Locality(a), Locality(b));
                    if a == b {
                        prop_assert_eq!(got, u64::MAX);
                    } else {
                        let mut brute = u64::MAX;
                        for u in t.node_ids() {
                            for v in t.node_ids() {
                                if t.locality(u) == Locality(a) && t.locality(v) == Locality(b) {
                                    brute = brute.min(t.latency_ms(u, v));
                                }
                            }
                        }
                        prop_assert_eq!(got, brute, "pair ({}, {})", a, b);
                    }
                }
            }
        }

        /// Every node gets a locality below k, and populations sum to
        /// the node count.
        #[test]
        fn localities_partition_nodes(seed in 0u64..500, nodes in 1usize..60, k in 1usize..6) {
            let cfg = TopologyConfig { nodes, localities: k, ..Default::default() };
            let t = Topology::generate(&cfg, seed);
            let mut total = 0u32;
            for l in 0..k as u16 {
                total += t.population(Locality(l));
            }
            prop_assert_eq!(total as usize, nodes);
            for n in t.node_ids() {
                prop_assert!(t.locality(n).idx() < k);
            }
        }
    }
}
