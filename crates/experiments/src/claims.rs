//! The paper's evaluation as data: one [`Claim`] row per §6 claim,
//! one [`Sweep`] declaration per experiment [`exps::sweep`] runs —
//! Table 2(a–c), the push-threshold sweep, Figures 5–8, and the churn
//! and cache extensions — and [`judge`], the one evaluator that turns
//! a figure's rows into its `claims` table and checks.
//!
//! A declaration names which systems run, its config steps, the table
//! functions that read the finished runs ([`crate::exps`]) and its
//! verdict. Each number §6 reports appears once, in its row or sweep
//! step. A band starts at what holds today and is only ever tightened.

use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::ops::RangeBounds;

use flower_core::{CachePolicy, FlowerConfig, FlowerSystem, SystemConfig, SystemReport};
use simnet::{QueryStats, SimDuration, SimTime, TimeSeries};

use crate::exps::{self, early_and_late_means, ExpOutput, Finished};
use crate::report::{f3, Table};
use crate::runner::RunScale;
use Horizon::{Any, Long, Short};
use Systems::{Flower, Pair};
use Verdict::{Claims, Shape};

/// The simulated horizons a claim applies to. The paper's levels are
/// 24-hour numbers; shorter (scaled) runs are dominated by warm-up, when
/// Flower-CDN's gossip-built overlays lag Squirrel's home directories.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Horizon {
    /// Every run.
    Any,
    /// Runs of at least [`LONG`].
    Long,
    /// Runs shorter than [`LONG`].
    Short,
}

/// Where a long horizon starts.
pub const LONG: SimTime = SimTime::from_hours(20);

/// One §6 claim: a scalar read out of what `figure` ran, the paper's
/// value for it where §6 states one, and the band it must fall in.
pub struct Claim {
    /// The subcommand that checks it.
    pub figure: &'static str,
    /// The label it prints.
    pub what: &'static str,
    /// The paper's value.
    pub paper: Option<f64>,
    /// The accepted band.
    pub band: (Bound<f64>, Bound<f64>),
    /// The horizons it applies to.
    pub horizon: Horizon,
    /// The scalar, read out of what the figure ran: one [`Run`] per
    /// swept value, `fig5`'s one Flower-CDN run, or, for `fig6`–`fig8`,
    /// Flower-CDN's run followed by Squirrel's.
    pub read: fn(&[Run]) -> f64,
}

/// The scalars the claims read from one run's query statistics.
///
/// A *cumulative* field reads every query resolved — by a peer (a
/// hit, the requester's own cache included) or by the origin server (a
/// miss) — from the start of the run to its horizon, the trace's end
/// plus the drain, whoever submitted it. A *windowed* field reads the
/// run's per-window series as `early_and_late_means` does: the first
/// three and the last three non-empty windows that start before the
/// trace's end, each one metric window (30 minutes of paper time). A
/// *transfer* is a resolved query some other node served: queries a
/// requester's own cache answered move no object and are left out.
/// `bps` is taken per participant, a node holding a directory or
/// content role at the horizon, in paper time.
#[derive(Debug, Default)]
pub struct Run {
    /// Cumulative: hits over resolved queries.
    pub hit: f64,
    /// Cumulative: gossip and push bits per second per participant,
    /// times the scale factor (paper time); Squirrel's run reads 0.
    pub bps: f64,
    /// Windowed: the late mean hit ratio minus the early one.
    pub hit_rise: f64,
    /// Cumulative: the fraction of lookups within 150 ms.
    pub lookup_le_150: f64,
    /// Cumulative: the fraction of lookups beyond 1050 ms.
    pub lookup_gt_1050: f64,
    /// Cumulative: mean lookup latency (submission to provider), ms.
    pub mean_lookup_ms: f64,
    /// Windowed: the late mean lookup latency, ms.
    pub late_lookup_ms: f64,
    /// Cumulative: the fraction of transfers within 100 ms.
    pub transfer_le_100: f64,
    /// Cumulative: mean transfer distance, ms.
    pub mean_transfer_ms: f64,
    /// Cumulative: mean transfer distance of transfers from a peer, ms.
    pub mean_transfer_hit_ms: f64,
    /// Windowed: the late mean transfer distance, ms.
    pub late_transfer_ms: f64,
    /// Cumulative: the fraction of hits served inside the requester's
    /// locality.
    pub local_hits: f64,
}

impl Run {
    /// Read a run that stopped at `horizon`; `bps` is its background
    /// traffic per peer in paper time.
    pub fn of(q: &QueryStats, horizon: SimTime, bps: f64) -> Run {
        let means = |s: &TimeSeries| early_and_late_means(&s.points(), horizon);
        let (early, late) = means(q.hit_series());
        Run {
            hit: q.hit_ratio(),
            bps,
            hit_rise: late - early,
            lookup_le_150: q.lookup_hist().fraction_le(150),
            lookup_gt_1050: q.lookup_hist().fraction_gt(1050),
            mean_lookup_ms: q.mean_lookup_ms(),
            late_lookup_ms: means(q.lookup_series()).1,
            transfer_le_100: q.transfer_hist().fraction_le(100),
            mean_transfer_ms: q.mean_transfer_ms(),
            mean_transfer_hit_ms: q.mean_transfer_hit_ms(),
            late_transfer_ms: means(q.transfer_series()).1,
            local_hits: q.local_hit_fraction(),
        }
    }
}

/// The smallest hit-ratio change from one swept value to the next,
/// rises counted positive with `sign` 1, drops with −1.
fn min_step(runs: &[Run], sign: f64) -> f64 {
    runs.windows(2)
        .map(|w| sign * (w[1].hit - w[0].hit))
        .fold(f64::INFINITY, f64::min)
}

/// `a / b`, with `b` kept off zero.
fn ratio(a: f64, b: f64) -> f64 {
    a / b.max(1e-9)
}

/// Highest minus lowest hit ratio across the runs.
fn hit_spread(runs: &[Run]) -> f64 {
    let hits = runs.iter().map(|run| run.hit);
    hits.clone().fold(f64::MIN, f64::max) - hits.fold(f64::MAX, f64::min)
}

/// Every §6 claim, in the order the figures print them. Each group's
/// comment says which [`Run`] readings its rows take: cumulative over
/// the whole run, or windowed (the first and last three windows).
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    // Table 2(a): bandwidth is linear in Lgossip (×4 from 5 to 20), the
    // hit ratio rises only mildly. Table 2 and the push thresholds read
    // each step's cumulative hit ratio and bps per participant.
    Claim { figure: "table2a", what: "bw(L=20) / bw(L=5)", paper: Some(4.0), horizon: Any,
        band: (Included(2.5), Excluded(6.0)), read: |r| ratio(r[2].bps, r[0].bps) },
    Claim { figure: "table2a", what: "smallest hit-ratio rise, L=5→10→20", paper: None,
        horizon: Any, band: (Included(-0.02), Unbounded), read: |r| min_step(r, 1.0) },
    // Table 2(b): bandwidth ∝ 1/Tgossip (×60 from 1 h to 1 min). The
    // measured bytes can overshoot: faster gossip also fills views with
    // summaries sooner (bigger messages), which the paper's fixed-size
    // model does not capture. The hit ratio degrades as gossip slows.
    Claim { figure: "table2b", what: "bw(T=1min) / bw(T=1h)", paper: Some(60.0), horizon: Any,
        band: (Included(20.0), Excluded(260.0)), read: |r| ratio(r[0].bps, r[2].bps) },
    Claim { figure: "table2b", what: "smallest hit-ratio drop, T=1min→30min→1h", paper: None,
        horizon: Any, band: (Included(-0.02), Unbounded), read: |r| min_step(r, -1.0) },
    // Table 2(c): bandwidth is flat in Vgossip (smaller views refresh
    // their entries more often and so carry slightly more summaries per
    // message); larger views hit slightly better.
    Claim { figure: "table2c", what: "|bw(V=70) − bw(V=20)| / bw(V=50)", paper: None, horizon: Any,
        band: (Unbounded, Excluded(0.45)), read: |r| ratio((r[2].bps - r[0].bps).abs(), r[1].bps) },
    Claim { figure: "table2c", what: "hit(V=70) − hit(V=20)", paper: None, horizon: Any,
        band: (Included(-0.02), Unbounded), read: |r| r[2].hit - r[0].hit },
    // §6.2: all push thresholds perform alike.
    Claim { figure: "push-threshold", what: "hit-ratio spread", paper: None, horizon: Any,
        band: (Unbounded, Excluded(0.05)), read: hit_spread },
    // Figure 5: the hit ratio rises (windowed); traffic per peer
    // stabilises (cumulative bps per participant, paper time).
    Claim { figure: "fig5", what: "hit-ratio rise, late − early windows", paper: None, horizon: Any,
        band: (Excluded(0.0), Unbounded), read: |r| r[0].hit_rise },
    Claim { figure: "fig5", what: "background bps per peer (paper time)", paper: Some(74.0),
        horizon: Any, band: (Excluded(0.1), Excluded(10_000.0)), read: |r| r[0].bps },
    // Figure 6: Squirrel converges a bit higher and faster; both high.
    // Cumulative hit ratios, every requester of each system.
    Claim { figure: "fig6", what: "flower hit ratio at horizon", paper: None, horizon: Any,
        band: (Excluded(0.5), Unbounded), read: |r| r[0].hit },
    Claim { figure: "fig6", what: "squirrel − flower hit ratio", paper: Some(0.13), horizon: Long,
        band: (Excluded(-0.03), Excluded(0.30)), read: |r| r[1].hit - r[0].hit },
    Claim { figure: "fig6", what: "squirrel − flower hit ratio", paper: None, horizon: Short,
        band: (Excluded(-0.03), Excluded(0.45)), read: |r| r[1].hit - r[0].hit },
    // Figure 7: Flower-CDN resolves most lookups within 150 ms, Squirrel
    // has a long tail; mean lookup latency ≈ 9× lower. Cumulative over
    // resolved queries, but the windowed late-lookup row.
    Claim { figure: "fig7", what: "flower lookups ≤ 150 ms", paper: Some(0.87), horizon: Long,
        band: (Excluded(0.5), Unbounded), read: |r| r[0].lookup_le_150 },
    Claim { figure: "fig7", what: "flower − squirrel lookups ≤ 150 ms", paper: None, horizon: Short,
        band: (Excluded(0.1), Unbounded), read: |r| r[0].lookup_le_150 - r[1].lookup_le_150 },
    Claim { figure: "fig7", what: "squirrel lookups > 1050 ms", paper: Some(0.61), horizon: Any,
        band: (Excluded(0.15), Unbounded), read: |r| r[1].lookup_gt_1050 },
    Claim { figure: "fig7", what: "mean lookup ms, squirrel / flower", paper: Some(9.0),
        horizon: Any, band: (Included(3.0), Unbounded),
        read: |r| ratio(r[1].mean_lookup_ms, r[0].mean_lookup_ms) },
    Claim { figure: "fig7", what: "flower lookup ms, late windows", paper: Some(120.0),
        horizon: Any, band: (Excluded(0.0), Excluded(150.0)), read: |r| r[0].late_lookup_ms },
    // Figure 8: Flower-CDN serves from nearby, in-locality peers; mean
    // transfer distance ≈ 2× lower. Cumulative over transfers (over hits
    // for in-locality), but the windowed late-transfer row.
    Claim { figure: "fig8", what: "flower transfers ≤ 100 ms", paper: Some(0.59), horizon: Any,
        band: (Excluded(0.3), Excluded(0.9)), read: |r| r[0].transfer_le_100 },
    Claim { figure: "fig8", what: "squirrel transfers ≤ 100 ms", paper: Some(0.17), horizon: Any,
        band: (Excluded(0.1), Excluded(0.25)), read: |r| r[1].transfer_le_100 },
    Claim { figure: "fig8", what: "flower − squirrel transfers ≤ 100 ms", paper: None, horizon: Any,
        band: (Excluded(0.0), Unbounded), read: |r| r[0].transfer_le_100 - r[1].transfer_le_100 },
    Claim { figure: "fig8", what: "mean transfer ms, squirrel / flower", paper: Some(2.0),
        horizon: Any, band: (Excluded(1.0), Excluded(4.0)),
        read: |r| ratio(r[1].mean_transfer_ms, r[0].mean_transfer_ms) },
    Claim { figure: "fig8", what: "mean P2P-hit transfer ms, squirrel / flower", paper: None,
        horizon: Any, band: (Included(1.5), Unbounded),
        read: |r| ratio(r[1].mean_transfer_hit_ms, r[0].mean_transfer_hit_ms) },
    Claim { figure: "fig8", what: "flower hits served in-locality", paper: None, horizon: Any,
        band: (Excluded(0.5), Unbounded), read: |r| r[0].local_hits },
    Claim { figure: "fig8", what: "flower transfer ms, late windows", paper: Some(80.0),
        horizon: Any, band: (Excluded(0.0), Excluded(150.0)), read: |r| r[0].late_transfer_ms },
];

/// Evaluate `figure`'s claims that apply to `runs` stopped at
/// `horizon`: append the `claims` table (claim | paper | measured |
/// band | verdict) to the figure's text and CSVs, and push one check
/// per row.
pub fn judge(out: &mut ExpOutput, figure: &str, horizon: SimTime, runs: &[Run]) {
    let mut t = Table::new(
        format!("Claims — {figure} against the paper's §6"),
        &["claim", "paper", "measured", "band", "verdict"],
    );
    let other = if horizon >= LONG { Short } else { Long };
    for c in CLAIMS
        .iter()
        .filter(|c| c.figure == figure && c.horizon != other)
    {
        let measured = (c.read)(runs);
        let ok = c.band.contains(&measured);
        t.row(vec![
            c.what.into(),
            c.paper.map_or("-".into(), |p| p.to_string()),
            f3(measured),
            show_band(c.band),
            if ok { "PASS" } else { "FAIL" }.into(),
        ]);
        out.push_check(format!("{}: {}", c.what, f3(measured)), ok);
    }
    out.text.push('\n');
    out.text.push_str(&t.render());
    out.csv.push(("claims".into(), t.to_csv()));
}

/// A band in interval notation: `[2.5, 6)`, `(0.5, ∞)`.
fn show_band((lo, hi): (Bound<f64>, Bound<f64>)) -> String {
    let lo = match lo {
        Included(x) => format!("[{x}"),
        Excluded(x) => format!("({x}"),
        Unbounded => "(-∞".into(),
    };
    let hi = match hi {
        Included(x) => format!("{x}]"),
        Excluded(x) => format!("{x})"),
        Unbounded => "∞)".into(),
    };
    format!("{lo}, {hi}")
}

/// One step of a [`Sweep`]: a config and the label of its table row.
pub struct Step {
    /// The label of its table row.
    pub label: &'static str,
    /// Sets the swept parameter; a period goes through the run's
    /// [`RunScale`] like every other period.
    pub set: fn(&mut FlowerConfig, RunScale),
    /// The paper's (hit ratio, background bps per peer), where §6
    /// gives them.
    pub paper: Option<(f64, f64)>,
}

/// Which systems run each step of a [`Sweep`].
#[derive(Clone, Copy)]
pub enum Systems {
    /// Flower-CDN alone, run by the fn: [`FlowerSystem::run`], or
    /// churn's scripted run.
    Flower(fn(&SystemConfig) -> (FlowerSystem, SystemReport)),
    /// Flower-CDN and Squirrel, both from the step's config. Every
    /// `Pair` declaration runs the configuration as given, so
    /// consecutive ones read one pair of runs.
    Pair,
}

/// What judges a [`Sweep`]'s finished runs.
pub enum Verdict {
    /// Its rows of [`CLAIMS`], printed as a `claims` table.
    Claims,
    /// The shape checks the fn pushes, printed after its tables.
    Shape(fn(&Finished, &mut ExpOutput)),
}

/// One experiment as data, run by [`exps::sweep`].
pub struct Sweep {
    /// The subcommand that runs it.
    pub cmd: &'static str,
    /// Which systems run.
    pub systems: Systems,
    /// Its config steps, in table order.
    pub steps: &'static [Step],
    /// Its tables, `(CSV stem, table)`, read from the finished runs.
    pub tables: fn(&Finished) -> Vec<(String, Table)>,
    /// What judges it.
    pub verdict: Verdict,
}

/// Table 2(b)'s setter: Tgossip of `mins` minutes, scaled like every
/// other period.
fn t_gossip(f: &mut FlowerConfig, scale: RunScale, mins: u64) {
    f.t_gossip = scale.scale_duration(SimDuration::from_mins(mins));
}

/// The cache sweep's setter: a replacement policy and its capacity.
fn cache(f: &mut FlowerConfig, policy: CachePolicy, capacity: usize) {
    f.cache_policy = policy;
    f.cache_capacity = capacity;
}

/// The columns of Table 2(a–c).
#[rustfmt::skip]
const TABLE_2: &[&str] =
    &["param", "hit ratio (paper)", "hit ratio (ours)", "bw bps (paper)", "bw bps (ours)"];

/// The one step of an experiment that runs the configuration as the
/// run options give it.
#[rustfmt::skip]
const AS_GIVEN: &[Step] = &[Step { label: "", set: |_, _| {}, paper: None }];

/// Every declared experiment, in the order `all` runs them.
#[rustfmt::skip]
pub const SWEEPS: [Sweep; 10] = [
    Sweep {
        cmd: "table2a", systems: Flower(FlowerSystem::run), verdict: Claims,
        tables: |f| exps::step_table(f, "Table 2(a) — effect of gossip length Lgossip \
            (Tgossip=30min, Vgossip=50)", TABLE_2, "table"),
        steps: &[
            Step { label: "5", set: |f, _| f.l_gossip = 5, paper: Some((0.823, 37.0)) },
            Step { label: "10", set: |f, _| f.l_gossip = 10, paper: Some((0.86, 74.0)) },
            Step { label: "20", set: |f, _| f.l_gossip = 20, paper: Some((0.89, 147.0)) },
        ],
    },
    Sweep {
        cmd: "table2b", systems: Flower(FlowerSystem::run), verdict: Claims,
        tables: |f| exps::step_table(f, "Table 2(b) — effect of gossip period Tgossip \
            (Lgossip=10, Vgossip=50)", TABLE_2, "table"),
        steps: &[
            Step { label: "1min", set: |f, s| t_gossip(f, s, 1), paper: Some((0.94, 2239.0)) },
            Step { label: "30min", set: |f, s| t_gossip(f, s, 30), paper: Some((0.86, 74.0)) },
            Step { label: "1h", set: |f, s| t_gossip(f, s, 60), paper: Some((0.81, 37.0)) },
        ],
    },
    Sweep {
        cmd: "table2c", systems: Flower(FlowerSystem::run), verdict: Claims,
        tables: |f| exps::step_table(f, "Table 2(c) — effect of view size Vgossip \
            (Lgossip=10, Tgossip=30min)", TABLE_2, "table"),
        steps: &[
            Step { label: "20", set: |f, _| f.v_gossip = 20, paper: Some((0.78, 74.0)) },
            Step { label: "50", set: |f, _| f.v_gossip = 50, paper: Some((0.86, 74.0)) },
            Step { label: "70", set: |f, _| f.v_gossip = 70, paper: Some((0.863, 74.0)) },
        ],
    },
    Sweep {
        cmd: "push-threshold", systems: Flower(FlowerSystem::run), verdict: Claims,
        tables: |f| exps::step_table(f, "Push-threshold sweep (paper §6.2: all values perform \
            alike)", &["threshold", "hit ratio", "bw bps"], "push_threshold"),
        steps: &[
            Step { label: "0.1", set: |f, _| f.push_threshold = 0.1, paper: None },
            Step { label: "0.5", set: |f, _| f.push_threshold = 0.5, paper: None },
            Step { label: "0.7", set: |f, _| f.push_threshold = 0.7, paper: None },
        ],
    },
    Sweep { cmd: "fig5", systems: Flower(FlowerSystem::run), steps: AS_GIVEN,
        tables: exps::fig5_table, verdict: Claims },
    Sweep { cmd: "fig6", systems: Pair, steps: AS_GIVEN, tables: exps::fig6_table,
        verdict: Claims },
    Sweep { cmd: "fig7", systems: Pair, steps: AS_GIVEN, verdict: Claims,
        tables: |f| exps::latency_tables(f, 7, "lookup latency", "lookup ms",
            |q| (q.lookup_series(), q.lookup_hist())) },
    Sweep { cmd: "fig8", systems: Pair, steps: AS_GIVEN, verdict: Claims,
        tables: |f| exps::latency_tables(f, 8, "transfer distance", "transfer ms",
            |q| (q.transfer_series(), q.transfer_hist())) },
    Sweep { cmd: "churn", systems: Flower(exps::churn_run), steps: AS_GIVEN,
        tables: exps::churn_table, verdict: Shape(exps::churn_checks) },
    Sweep {
        cmd: "cache", systems: Flower(FlowerSystem::run), tables: exps::cache_table,
        verdict: Shape(exps::cache_checks),
        steps: &[
            Step { label: "unbounded", set: |f, _| cache(f, CachePolicy::Unbounded, 0), paper: None },
            Step { label: "lru-50", set: |f, _| cache(f, CachePolicy::Lru, 50), paper: None },
            Step { label: "lru-10", set: |f, _| cache(f, CachePolicy::Lru, 10), paper: None },
            Step { label: "lfu-10", set: |f, _| cache(f, CachePolicy::Lfu, 10), paper: None },
        ],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `figure`'s verdicts on hand-made runs, one per row that applies.
    fn verdicts(figure: &str, long: bool, hits: &[f64], bps: &[f64]) -> Vec<bool> {
        let runs = hits.iter().zip(bps);
        let runs = runs.map(|(&hit, &bps)| Run {
            hit,
            bps,
            ..Run::default()
        });
        let horizon = if long { LONG } else { SimTime::ZERO };
        let mut out = ExpOutput::default();
        judge(&mut out, figure, horizon, &runs.collect::<Vec<_>>());
        assert!(out.text.contains("| verdict |"), "{}", out.text);
        out.checks.iter().map(|c| c.1).collect()
    }

    /// The bands accept and reject where the inequalities they
    /// replaced did.
    #[test]
    fn band_edges_keep_the_inequalities_they_replace() {
        // Table 2(a): bw(L=20)/bw(L=5) in 2.5..6.0.
        let flat = [0.8; 3];
        for (bw20, ok) in [(25.0, true), (59.99, true), (60.0, false), (24.99, false)] {
            let got = verdicts("table2a", false, &flat, &[10.0, 20.0, bw20]);
            assert_eq!(got, [ok, true], "bw(L=20) {bw20}");
        }
        // The hit-ratio steps tolerate 0.02 against the trend.
        let bw = [10.0, 20.0, 40.0];
        assert_eq!(
            verdicts("table2a", false, &[0.8, 0.781, 0.8], &bw),
            [true, true]
        );
        assert_eq!(
            verdicts("table2a", false, &[0.8, 0.779, 0.8], &bw),
            [true, false]
        );
        let bw = [600.0, 20.0, 10.0];
        assert_eq!(
            verdicts("table2b", false, &[0.8, 0.819, 0.8], &bw),
            [true, true]
        );
        assert_eq!(
            verdicts("table2b", false, &[0.8, 0.821, 0.8], &bw),
            [true, false]
        );
        let bw = [74.0; 3];
        assert_eq!(
            verdicts("table2c", false, &[0.8, 0.7, 0.781], &bw),
            [true, true]
        );
        assert_eq!(
            verdicts("table2c", false, &[0.8, 0.9, 0.779], &bw),
            [true, false]
        );
        // Figure 6: the Squirrel − Flower-CDN gap is bounded by 0.30 from
        // 20 simulated hours on, by 0.45 below.
        let fig6 = |long, squirrel| verdicts("fig6", long, &[0.6, squirrel], &[0.0; 2]);
        assert_eq!(fig6(true, 0.89), [true, true]);
        assert_eq!(fig6(true, 0.91), [true, false]);
        assert_eq!(fig6(false, 0.91), [true, true]);
        assert_eq!(fig6(false, 1.04), [true, true]);
        assert_eq!(fig6(false, 1.06), [true, false]);
        assert_eq!(fig6(false, 0.575), [true, true]);
        assert_eq!(fig6(false, 0.565), [true, false]);
    }

    /// A run that measured exactly the paper's value passes its row.
    #[test]
    fn every_band_holds_the_papers_value() {
        for c in CLAIMS {
            if let Some(p) = c.paper {
                assert!(c.band.contains(&p), "{}: {p}", c.what);
            }
        }
    }
}
