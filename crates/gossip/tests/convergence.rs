//! Epidemic convergence of the gossip substrate, tested in isolation:
//! a population of views running Algorithm 4's active/passive cycle
//! must discover the whole overlay and keep entry ages fresh — the
//! property Flower-CDN's content overlays rely on ("robust
//! self-monitoring of clusters").

use gossip::{View, ViewEntry};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Peer = u32;

/// A selected subset as sent: the receiver merges its own copies.
fn cloned(subset: Vec<&ViewEntry<Peer, ()>>) -> Vec<ViewEntry<Peer, ()>> {
    subset.into_iter().cloned().collect()
}

struct Sim {
    views: Vec<View<Peer, ()>>,
    rng: StdRng,
}

impl Sim {
    /// `n` peers; each starts knowing only its ring neighbour.
    fn new(n: usize, v_cap: usize, seed: u64) -> Sim {
        let mut views = Vec::with_capacity(n);
        for i in 0..n {
            let mut v = View::new(v_cap);
            v.insert_fresh(((i + 1) % n) as Peer, ());
            views.push(v);
        }
        Sim {
            views,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One full gossip round: every peer runs the active behaviour of
    /// Algorithm 4 once (increment ages, pick oldest, exchange
    /// subsets, merge both sides).
    fn round(&mut self, l: usize) {
        let n = self.views.len();
        for i in 0..n {
            self.views[i].increment_ages();
            let Some(partner) = self.views[i].select_oldest().map(|e| e.peer) else {
                continue;
            };
            let p = partner as usize;
            let my_subset = cloned(self.views[i].select_subset(&mut self.rng, l));
            let their_subset = cloned(self.views[p].select_subset(&mut self.rng, l));
            self.views[p].merge(partner, ViewEntry::fresh(i as Peer, ()), my_subset);
            self.views[i].merge(i as Peer, ViewEntry::fresh(partner, ()), their_subset);
        }
    }

    fn known_fraction(&self) -> f64 {
        let n = self.views.len();
        let total: usize = self.views.iter().map(|v| v.len()).sum();
        total as f64 / (n * n.min(self.views[0].capacity())) as f64
    }
}

#[test]
fn ring_seed_converges_to_full_views() {
    // 40 peers, views of 20, Lgossip 5: within a few dozen rounds all
    // views should be full of distinct members.
    let mut sim = Sim::new(40, 20, 1);
    for _ in 0..40 {
        sim.round(5);
    }
    for (i, v) in sim.views.iter().enumerate() {
        assert_eq!(v.len(), 20, "peer {i} view not full: {}", v.len());
        assert!(!v.contains(i as Peer), "peer {i} contains itself");
    }
    assert!(sim.known_fraction() > 0.99);
}

#[test]
fn ages_stay_bounded_in_live_overlay() {
    // With everyone gossiping, no entry should grow arbitrarily old:
    // the oldest-first partner choice recycles stale entries.
    let mut sim = Sim::new(30, 15, 2);
    for _ in 0..60 {
        sim.round(4);
    }
    let max_age = sim
        .views
        .iter()
        .flat_map(|v| v.iter().map(|e| e.age))
        .max()
        .unwrap();
    assert!(
        max_age < 40,
        "entries should be refreshed by the oldest-first policy, max age {max_age}"
    );
}

#[test]
fn dissemination_is_epidemic_not_linear() {
    // A single well-known peer (0) starts known by one other; after
    // log-ish rounds a large share of the population knows it.
    let n = 64;
    let mut sim = Sim::new(n, 32, 3);
    for _ in 0..16 {
        sim.round(8);
    }
    let know_zero = sim
        .views
        .iter()
        .enumerate()
        .filter(|(i, v)| *i != 0 && v.contains(0))
        .count();
    assert!(
        know_zero > n / 3,
        "epidemic spread too slow: {know_zero}/{n} know peer 0 after 16 rounds"
    );
}

#[test]
fn dead_peers_age_out_everywhere() {
    let n = 30;
    let mut sim = Sim::new(n, 15, 4);
    for _ in 0..30 {
        sim.round(4);
    }
    // Peer 7 "dies": it stops gossiping; everyone else keeps going and
    // evicts entries older than Tdead.
    let t_dead = 12;
    for _ in 0..40 {
        {
            // manual round skipping peer 7, with eviction
            let nviews = sim.views.len();
            for i in 0..nviews {
                if i == 7 {
                    continue;
                }
                sim.views[i].increment_ages();
                sim.views[i].evict_older_than(t_dead);
                let Some(partner) = sim.views[i].select_oldest().map(|e| e.peer) else {
                    continue;
                };
                if partner == 7 {
                    // The dead peer does not answer; the caller keeps
                    // the entry until it ages out.
                    continue;
                }
                let p = partner as usize;
                let my_subset = cloned(sim.views[i].select_subset(&mut sim.rng, 4));
                let their_subset = cloned(sim.views[p].select_subset(&mut sim.rng, 4));
                sim.views[p].merge(partner, ViewEntry::fresh(i as Peer, ()), my_subset);
                sim.views[i].merge(i as Peer, ViewEntry::fresh(partner, ()), their_subset);
            }
        };
    }
    let still_known = sim
        .views
        .iter()
        .enumerate()
        .filter(|(i, v)| *i != 7 && v.contains(7))
        .count();
    // Gossip copies can resurrect entries briefly, but the overall
    // knowledge of the dead peer must collapse.
    assert!(
        still_known <= n / 4,
        "dead peer still known by {still_known}/{n} views after ageing"
    );
}
