//! Deterministic query-stream generation (§6.1 of the paper).
//!
//! Queries form a Poisson process at `query_rate_per_sec` (Table 1:
//! 6 q/s), each query choosing:
//!
//! 1. a website uniformly among the active ones ("distributed between
//!    the 6 active websites");
//! 2. an object of that website by Zipf rank ("the queried object is
//!    selected, using zipf law, among ws objects").
//!
//! The trace is produced on demand by [`QueryGen`], an iterator in
//! time order: a day of paper-rate queries is half a million events,
//! and the simulator injects them as the clock reaches them instead of
//! holding them all. [`QueryStream`] is the same trace collected.
//!
//! The paper's third choice — the originator ("a new client or a
//! content peer of ws chosen from a random locality") — needs the
//! harness's communities, so the trace itself only fixes the time,
//! website and object of each query, which keeps Flower-CDN and
//! Squirrel runs *trace-identical*. [`OriginatedTrace`] adds the draw
//! over whatever communities and draw stream a harness hands it.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bloom::ObjectId;

use crate::catalog::{Catalog, WebsiteId};
use crate::zipf::Zipf;

/// Workload shape (Table 1 defaults).
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Mean query arrival rate (queries per second).
    pub query_rate_per_sec: f64,
    /// Length of the generated trace in milliseconds.
    pub duration_ms: u64,
    /// Zipf skew for object popularity.
    pub zipf_alpha: f64,
    /// Zipf skew for *website* popularity across the active websites
    /// (0 = the paper's uniform choice, bit-for-bit the historical
    /// trace). Positive values rank active websites by id — the
    /// workload the §5.3 PetalUp scale-up is designed for, where a
    /// few hot websites would overload their directory petals.
    pub website_zipf_alpha: f64,
    /// Scripted flash crowds overlaid on the base Poisson trace.
    /// Strictly *additive*: each surge's extra queries come from its
    /// own derived RNG stream, so the base trace — and every seed pin
    /// built on it — stays bit-identical whether the list is empty or
    /// not.
    pub surges: Vec<Surge>,
}

/// One scripted surge of extra load (see [`WorkloadConfig::surges`]).
#[derive(Clone, Debug)]
pub enum Surge {
    /// A flash crowd: `extra_rate_per_sec` additional queries, all
    /// aimed at one website, for the window `[start_ms, end_ms)` —
    /// the fCDN motivating case where a single site's demand spikes
    /// orders of magnitude above baseline.
    FlashCrowd {
        /// Window start, milliseconds from trace start.
        start_ms: u64,
        /// Window end (exclusive).
        end_ms: u64,
        /// Popularity rank of the targeted website among the active
        /// ones (0 = first active website); clamped to the active set.
        website_rank: usize,
        /// Additional mean arrival rate during the window.
        extra_rate_per_sec: f64,
    },
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            query_rate_per_sec: 6.0,
            duration_ms: 24 * 3600 * 1000,
            zipf_alpha: Zipf::DEFAULT_ALPHA,
            website_zipf_alpha: 0.0,
            surges: Vec::new(),
        }
    }
}

impl WorkloadConfig {
    /// A short trace for tests.
    pub fn short_test() -> Self {
        WorkloadConfig {
            duration_ms: 60_000,
            ..Default::default()
        }
    }
}

/// One query of the trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryEvent {
    /// Submission time, milliseconds from simulation start.
    pub at_ms: u64,
    /// The targeted website.
    pub website: WebsiteId,
    /// The requested object.
    pub object: ObjectId,
    /// Popularity rank of the object within its website (0 = most
    /// popular) — kept for analysis.
    pub rank: u32,
}

/// A complete, precomputed query trace — [`QueryGen`] collected. The
/// simulation harnesses stream the generator instead; this form is for
/// analysis and tests that want random access.
#[derive(Clone, Debug)]
pub struct QueryStream {
    events: Vec<QueryEvent>,
}

impl QueryStream {
    /// Generate the trace deterministically from `seed`.
    pub fn generate(cfg: &WorkloadConfig, catalog: &Catalog, seed: u64) -> Self {
        let mean_gap_ms = 1000.0 / cfg.query_rate_per_sec;
        let mut events = Vec::with_capacity((cfg.duration_ms as f64 / mean_gap_ms * 1.1) as usize);
        events.extend(QueryGen::new(cfg, catalog, seed));
        QueryStream { events }
    }

    /// The trace, in non-decreasing time order.
    pub fn events(&self) -> &[QueryEvent] {
        &self.events
    }

    /// Queries per second in `[from_ms, to_ms)` — for sanity checks
    /// on surge shapes.
    pub fn rate_in(&self, from_ms: u64, to_ms: u64) -> f64 {
        assert!(from_ms < to_ms);
        let n = self
            .events
            .iter()
            .filter(|e| e.at_ms >= from_ms && e.at_ms < to_ms)
            .count();
        n as f64 * 1000.0 / (to_ms - from_ms) as f64
    }

    /// Number of queries in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// What every arrival process of one trace draws from.
#[derive(Debug)]
struct TraceShape {
    catalog: Catalog,
    /// Object popularity within a website.
    zipf: Zipf,
    /// Skewed website choice of the base process; `None` is the
    /// paper's uniform draw (and consumes the RNG exactly like it).
    website_zipf: Option<Zipf>,
    active: Vec<WebsiteId>,
}

/// One Poisson arrival process with its own RNG stream. Arrival times
/// only grow, so each process yields its queries in time order; once
/// it has returned `None` it is not polled again.
#[derive(Clone, Debug)]
struct Arrivals {
    /// The website every query of a [`Surge::FlashCrowd`] aims at;
    /// `None` is the base process over all active websites.
    website: Option<WebsiteId>,
    rng: StdRng,
    /// Arrival clock in (fractional) milliseconds.
    t: f64,
    mean_gap_ms: f64,
    /// Exclusive end of the process.
    end_ms: u64,
}

impl Arrivals {
    fn next(&mut self, shape: &TraceShape) -> Option<QueryEvent> {
        // Exponential inter-arrival (Poisson process).
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        self.t += -u.ln() * self.mean_gap_ms;
        let at_ms = self.t as u64;
        if at_ms >= self.end_ms {
            return None;
        }
        let active = &shape.active;
        let website = match (self.website, &shape.website_zipf) {
            (Some(website), _) => website,
            (None, Some(z)) => active[z.sample(&mut self.rng)],
            (None, None) => active[self.rng.gen_range(0..active.len())],
        };
        let rank = shape.zipf.sample(&mut self.rng);
        Some(QueryEvent {
            at_ms,
            website,
            object: shape.catalog.object_id(website, rank),
            rank: rank as u32,
        })
    }
}

/// The query trace as an on-demand generator: the base Poisson process
/// and every surge, each on its own derived RNG stream, merged by
/// time. Equal timestamps resolve base first, then surges in
/// configuration order — a surge never reorders the base trace, and
/// the base trace (with every seed pin built on it) is bit-identical
/// whether the surge list is empty or not.
///
/// Cloning forks the generator: both copies yield the same remaining
/// trace (the sharded engine hands every shard its own replica).
#[derive(Clone, Debug)]
pub struct QueryGen {
    shape: Arc<TraceShape>,
    /// Process 0 is the base trace, process `i + 1` surge `i`.
    processes: Vec<Arrivals>,
    /// The next query of each process, drawn ahead for the merge.
    heads: Vec<Option<QueryEvent>>,
}

impl QueryGen {
    /// The trace of `cfg` over `catalog`, deterministically from
    /// `seed`.
    pub fn new(cfg: &WorkloadConfig, catalog: &Catalog, seed: u64) -> Self {
        assert!(cfg.query_rate_per_sec > 0.0, "query rate must be positive");
        let active: Vec<WebsiteId> = catalog.active_websites().collect();
        assert!(!active.is_empty(), "no active websites to query");
        let mut processes = vec![Arrivals {
            website: None,
            rng: StdRng::seed_from_u64(seed ^ 0x0131_D000),
            t: 0.0,
            mean_gap_ms: 1000.0 / cfg.query_rate_per_sec,
            end_ms: cfg.duration_ms,
        }];
        for (i, surge) in cfg.surges.iter().enumerate() {
            let rng = StdRng::seed_from_u64(seed ^ 0x5a26_e000 ^ ((i as u64) << 32));
            let Surge::FlashCrowd {
                start_ms,
                end_ms,
                website_rank,
                extra_rate_per_sec,
            } = *surge;
            assert!(start_ms < end_ms, "flash crowd window must be non-empty");
            assert!(
                extra_rate_per_sec > 0.0,
                "flash crowd rate must be positive"
            );
            processes.push(Arrivals {
                website: Some(active[website_rank.min(active.len() - 1)]),
                rng,
                t: start_ms as f64,
                mean_gap_ms: 1000.0 / extra_rate_per_sec,
                end_ms: end_ms.min(cfg.duration_ms),
            });
        }
        let shape = TraceShape {
            zipf: Zipf::new(catalog.objects_per_website(), cfg.zipf_alpha),
            // Skewed website choice is opt-in: with alpha 0 the
            // historical uniform draw runs unchanged (same RNG
            // consumption), keeping every pinned trace valid.
            website_zipf: (cfg.website_zipf_alpha > 0.0)
                .then(|| Zipf::new(active.len(), cfg.website_zipf_alpha)),
            catalog: catalog.clone(),
            active,
        };
        let heads = processes.iter_mut().map(|p| p.next(&shape)).collect();
        QueryGen {
            shape: Arc::new(shape),
            processes,
            heads,
        }
    }

    /// Attach the §6.1 originator draw (see [`OriginatedTrace`]).
    pub fn originated<N>(
        self,
        communities: Arc<Communities<N>>,
        rng: StdRng,
    ) -> OriginatedTrace<N> {
        OriginatedTrace {
            gen: self,
            communities,
            rng,
            next_qid: 0,
        }
    }
}

impl Iterator for QueryGen {
    type Item = QueryEvent;

    fn next(&mut self) -> Option<QueryEvent> {
        // The earliest head; the first process wins a tie, which is
        // the order a stable sort of base-then-surges would produce.
        let due = |head: &Option<QueryEvent>| head.map_or(u64::MAX, |e| e.at_ms);
        let mut first = 0;
        for i in 1..self.heads.len() {
            if due(&self.heads[i]) < due(&self.heads[first]) {
                first = i;
            }
        }
        let head = self.heads[first]?;
        self.heads[first] = self.processes[first].next(&self.shape);
        Some(head)
    }
}

/// The potential clients of every `(website, locality)`: who may
/// originate a query (§6.1: "a new client or a content peer of ws").
/// Generic over the harness's node identifier.
#[derive(Clone, Debug)]
pub struct Communities<N> {
    localities: usize,
    /// Row `website · localities + locality`.
    members: Vec<Vec<N>>,
}

impl<N> Communities<N> {
    /// No communities yet, over `localities` localities.
    pub fn new(localities: usize) -> Self {
        assert!(localities > 0, "need at least one locality");
        Communities {
            localities,
            members: Vec::new(),
        }
    }

    /// Number of localities.
    pub fn localities(&self) -> usize {
        self.localities
    }

    /// Set the community of `(ws, locality)`.
    pub fn insert(&mut self, ws: WebsiteId, locality: usize, members: Vec<N>) {
        assert!(locality < self.localities, "locality out of range");
        let row = ws.idx() * self.localities + locality;
        if self.members.len() <= row {
            self.members.resize_with(row + 1, Vec::new);
        }
        self.members[row] = members;
    }

    /// The community of `(ws, locality)`; empty if none was set.
    pub fn get(&self, ws: WebsiteId, locality: usize) -> &[N] {
        self.members
            .get(ws.idx() * self.localities + locality)
            .map_or(&[], Vec::as_slice)
    }
}

/// One query of the trace with its originator chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OriginatedQuery<N> {
    /// Position of the query in the trace (counting the ones no
    /// originator could be found for).
    pub qid: u64,
    /// Submission time, milliseconds from simulation start.
    pub at_ms: u64,
    /// The targeted website.
    pub website: WebsiteId,
    /// The requested object.
    pub object: ObjectId,
    /// The node that submits the query.
    pub origin: N,
}

/// A [`QueryGen`] with the paper's third choice made per query:
/// "a new client or a content peer of ws is chosen from a random
/// locality" — a uniform locality, then a uniform member of that
/// `(website, locality)` community, retried up to four times on empty
/// communities; a query that finds no originator is skipped (its `qid`
/// stays unused). The one implementation both the Flower-CDN and the
/// Squirrel harness inject from, each with its own communities and
/// draw stream.
#[derive(Clone, Debug)]
pub struct OriginatedTrace<N> {
    gen: QueryGen,
    communities: Arc<Communities<N>>,
    rng: StdRng,
    next_qid: u64,
}

impl<N: Copy> Iterator for OriginatedTrace<N> {
    type Item = OriginatedQuery<N>;

    fn next(&mut self) -> Option<OriginatedQuery<N>> {
        loop {
            let ev = self.gen.next()?;
            let qid = self.next_qid;
            self.next_qid += 1;
            for _attempt in 0..4 {
                let locality = self.rng.gen_range(0..self.communities.localities());
                let comm = self.communities.get(ev.website, locality);
                if !comm.is_empty() {
                    return Some(OriginatedQuery {
                        qid,
                        at_ms: ev.at_ms,
                        website: ev.website,
                        object: ev.object,
                        origin: comm[self.rng.gen_range(0..comm.len())],
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;

    fn catalog() -> Catalog {
        Catalog::new(CatalogConfig::default())
    }

    #[test]
    fn rate_is_respected() {
        let cfg = WorkloadConfig {
            duration_ms: 3_600_000,
            ..Default::default()
        };
        let s = QueryStream::generate(&cfg, &catalog(), 42);
        // 6 q/s for an hour ≈ 21600 queries; Poisson noise ±3σ ≈ ±450.
        let n = s.len() as f64;
        assert!((n - 21_600.0).abs() < 600.0, "unexpected query count {n}");
    }

    #[test]
    fn events_are_time_ordered_within_duration() {
        let s = QueryStream::generate(&WorkloadConfig::short_test(), &catalog(), 1);
        let mut last = 0;
        for e in s.events() {
            assert!(e.at_ms >= last);
            assert!(e.at_ms < 60_000);
            last = e.at_ms;
        }
    }

    #[test]
    fn only_active_websites_queried() {
        let s = QueryStream::generate(&WorkloadConfig::short_test(), &catalog(), 2);
        assert!(!s.is_empty());
        for e in s.events() {
            assert!(e.website.idx() < 6, "inactive website {}", e.website);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = QueryStream::generate(&WorkloadConfig::short_test(), &catalog(), 3);
        let b = QueryStream::generate(&WorkloadConfig::short_test(), &catalog(), 3);
        assert_eq!(a.events(), b.events());
        let c = QueryStream::generate(&WorkloadConfig::short_test(), &catalog(), 4);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn objects_follow_zipf_head() {
        let cfg = WorkloadConfig {
            duration_ms: 3_600_000,
            ..Default::default()
        };
        let cat = catalog();
        let s = QueryStream::generate(&cfg, &cat, 5);
        let head = s.events().iter().filter(|e| e.rank < 10).count() as f64;
        let frac = head / s.len() as f64;
        // Compare against the analytic top-10 Zipf mass.
        let z = Zipf::new(cat.objects_per_website(), cfg.zipf_alpha);
        let expect: f64 = (0..10).map(|r| z.pmf(r)).sum();
        assert!(
            (frac - expect).abs() < 0.05,
            "head fraction {frac:.3} vs analytic {expect:.3}"
        );
    }

    #[test]
    fn website_skew_concentrates_on_low_ranks() {
        let cfg = WorkloadConfig {
            duration_ms: 3_600_000,
            website_zipf_alpha: 1.2,
            ..Default::default()
        };
        let cat = catalog();
        let s = QueryStream::generate(&cfg, &cat, 7);
        let mut counts = [0usize; 6];
        for e in s.events() {
            counts[e.website.idx()] += 1;
        }
        assert!(
            counts[0] > counts[5] * 3,
            "rank-0 website must dominate: {counts:?}"
        );
        // Every active website still sees some traffic.
        assert!(counts.iter().all(|c| *c > 0), "{counts:?}");
        // And alpha = 0 stays bit-identical to the uniform draw.
        let base = WorkloadConfig {
            duration_ms: 600_000,
            ..Default::default()
        };
        let explicit_zero = WorkloadConfig {
            website_zipf_alpha: 0.0,
            ..base.clone()
        };
        assert_eq!(
            QueryStream::generate(&base, &cat, 3).events(),
            QueryStream::generate(&explicit_zero, &cat, 3).events(),
        );
    }

    #[test]
    fn flash_crowd_spikes_one_website_and_leaves_base_trace_intact() {
        let base = WorkloadConfig {
            duration_ms: 600_000,
            ..Default::default()
        };
        let surged = WorkloadConfig {
            surges: vec![Surge::FlashCrowd {
                start_ms: 200_000,
                end_ms: 400_000,
                website_rank: 2,
                extra_rate_per_sec: 30.0,
            }],
            ..base.clone()
        };
        let cat = catalog();
        let plain = QueryStream::generate(&base, &cat, 11);
        let s = QueryStream::generate(&surged, &cat, 11);
        // The surge multiplies load inside its window…
        assert!(
            s.rate_in(200_000, 400_000) > plain.rate_in(200_000, 400_000) * 4.0,
            "flash crowd must dominate the window"
        );
        // …leaves the rest of the trace at the base rate…
        assert!((s.rate_in(0, 200_000) - plain.rate_in(0, 200_000)).abs() < 1.0);
        // …aims at exactly one website…
        let ws2 = cat.active_websites().nth(2).unwrap();
        let in_window: Vec<_> = s
            .events()
            .iter()
            .filter(|e| e.at_ms >= 200_000 && e.at_ms < 400_000)
            .collect();
        let on_target = in_window.iter().filter(|e| e.website == ws2).count();
        assert!(
            on_target as f64 > in_window.len() as f64 * 0.7,
            "most window queries must hit the flash-crowd site"
        );
        // …and is purely additive: every base event survives verbatim.
        let as_set: Vec<_> = s.events().to_vec();
        for e in plain.events() {
            assert!(as_set.contains(e), "base event {e:?} lost");
        }
        // Time order is preserved through the merge.
        assert!(s.events().windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    }

    /// The merge against what it replaced: every process generated to
    /// completion, concatenated base-then-surges, stable-sorted by
    /// time. Rates high enough that equal timestamps across processes
    /// are common.
    #[test]
    fn merged_generator_equals_stable_sort_of_its_processes() {
        let cfg = WorkloadConfig {
            query_rate_per_sec: 400.0,
            duration_ms: 30_000,
            surges: vec![
                Surge::FlashCrowd {
                    start_ms: 5_000,
                    end_ms: 40_000,
                    website_rank: 1,
                    extra_rate_per_sec: 900.0,
                },
                Surge::FlashCrowd {
                    start_ms: 0,
                    end_ms: 20_000,
                    website_rank: 3,
                    extra_rate_per_sec: 700.0,
                },
            ],
            ..Default::default()
        };
        let gen = QueryGen::new(&cfg, &catalog(), 17);
        let mut sorted: Vec<QueryEvent> = Vec::new();
        for (p, head) in gen.processes.iter().zip(&gen.heads) {
            let mut p = p.clone();
            sorted.extend(*head);
            sorted.extend(std::iter::from_fn(|| p.next(&gen.shape)));
        }
        sorted.sort_by_key(|e| e.at_ms);
        let ties = sorted
            .windows(2)
            .filter(|w| w[0].at_ms == w[1].at_ms)
            .count();
        assert!(ties > 1000, "only {ties} equal timestamps");
        let merged: Vec<QueryEvent> = gen.clone().collect();
        assert_eq!(merged, sorted);
        assert_eq!(QueryStream::generate(&cfg, &catalog(), 17).events(), sorted);
        // A fork taken mid-trace yields the same remainder.
        let mut a = gen;
        let head: Vec<QueryEvent> = a.by_ref().take(5_000).collect();
        assert_eq!(head, sorted[..5_000]);
        let b = a.clone();
        assert!(a.eq(b));
    }

    #[test]
    fn originator_draw_skips_queries_without_a_community() {
        let cat = catalog();
        let gen = QueryGen::new(&WorkloadConfig::short_test(), &cat, 9);
        let trace: Vec<QueryEvent> = gen.clone().collect();
        // Website 0 has members in one of two localities, website 1
        // everywhere, the other four active websites nowhere.
        let mut comms = Communities::new(2);
        comms.insert(WebsiteId(0), 1, vec![10u32, 11]);
        comms.insert(WebsiteId(1), 0, vec![20]);
        comms.insert(WebsiteId(1), 1, vec![21]);
        let out: Vec<OriginatedQuery<u32>> = gen
            .originated(Arc::new(comms), StdRng::seed_from_u64(1))
            .collect();
        assert!(!out.is_empty() && out.len() < trace.len());
        let mut last_qid = None;
        for q in &out {
            assert!(last_qid < Some(q.qid), "qids follow trace order");
            last_qid = Some(q.qid);
            let ev = trace[q.qid as usize];
            assert_eq!(
                (q.at_ms, q.website, q.object),
                (ev.at_ms, ev.website, ev.object)
            );
            match q.website.0 {
                0 => assert!([10, 11].contains(&q.origin)),
                1 => assert!([20, 21].contains(&q.origin)),
                ws => panic!("website {ws} has no community"),
            }
        }
        // Website 1 never misses; website 0 misses 1 in 16.
        let ws1 = trace.iter().filter(|e| e.website.0 == 1).count();
        assert_eq!(out.iter().filter(|q| q.website.0 == 1).count(), ws1);
    }

    #[test]
    fn empty_surge_list_is_bit_identical_to_default() {
        let base = WorkloadConfig {
            duration_ms: 600_000,
            ..Default::default()
        };
        let explicit = WorkloadConfig {
            surges: Vec::new(),
            ..base.clone()
        };
        let cat = catalog();
        assert_eq!(
            QueryStream::generate(&base, &cat, 3).events(),
            QueryStream::generate(&explicit, &cat, 3).events(),
        );
    }

    #[test]
    fn object_ids_match_catalog() {
        let cat = catalog();
        let s = QueryStream::generate(&WorkloadConfig::short_test(), &cat, 6);
        for e in s.events().iter().take(200) {
            assert_eq!(e.object, cat.object_id(e.website, e.rank as usize));
        }
    }
}
