//! [`sweep`], which runs every declared experiment, the table and check
//! functions their declarations name, and the two experiments that
//! sweep shard layouts themselves.
//!
//! [`sweep`] runs any declaration of [`SWEEPS`]: one run per step (or
//! one Flower-CDN/Squirrel pair), then the declaration's tables, then
//! its verdict — the §6 claim rows, or shape checks. `scale` and
//! `chaos` run one simulation on several shard layouts through
//! `shard_parity`'s loop. Every experiment returns an
//! [`ExpOutput`]: rendered text, CSV artefacts and a list of checks.

use flower_core::{FlowerSystem, SystemConfig, SystemReport};
use metrics::Counter;
use simnet::{
    ChurnConfig, ChurnScript, FaultPlane, Histogram, LinkLoss, Locality, NodeId, Partition,
    QueryStats, RegionalFailure, SeriesPoint, SimDuration, SimTime, TimeSeries,
};
use squirrel::SquirrelSystem;
use workload::Surge;

use crate::claims::{judge, Run, Step, Sweep, Systems, Verdict, SWEEPS};
use crate::report::{f1, f3, pct, MetricsRecord, Table};
use crate::runner::{self, RunOpts, RunScale};

/// Rendered output of one experiment.
#[derive(Debug, Default)]
pub struct ExpOutput {
    /// Human-readable report.
    pub text: String,
    /// `(file-stem, csv-content)` artefacts.
    pub csv: Vec<(String, String)>,
    /// Qualitative shape checks `(description, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Registry snapshots for `METRICS.json` (per-subsystem hot-path
    /// attribution; written by `--metrics-out`).
    pub metrics: Vec<MetricsRecord>,
}

impl ExpOutput {
    pub(crate) fn push_check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// True if every qualitative check passed.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Append the check list to the text body.
    pub fn render_checks(&self) -> String {
        let mut s = String::from("shape checks:\n");
        for (what, ok) in &self.checks {
            s.push_str(&format!(
                "  [{}] {}\n",
                if *ok { "PASS" } else { "FAIL" },
                what
            ));
        }
        s
    }
}

/// The checks the CLI runs before building anything. Every deployment
/// experiment `cmd` would build under `opts` — for `scale`, every
/// nodes × instance-bits cell of `scale_params` — must carry a valid
/// Flower-CDN configuration and be big enough for
/// [`FlowerSystem::build`]'s placement; no shard count the command
/// reads (`--shard-sweep` for `scale`, none for `chaos`, `--shards`
/// elsewhere) may exceed the deployment's localities (the engine would
/// clamp it, and the tables would name a layout that never ran); and
/// `--scale` must leave every protocol period at least a millisecond
/// ([`runner::check_scale`]). `Err` is a one-line message for the
/// user; `Ok` means no size- or geometry-related panic is left on the
/// build path.
pub fn check_deployment_size(
    cmd: &str,
    opts: RunOpts,
    scale_params: &ScaleParams,
) -> Result<(), String> {
    match cmd {
        "scale" => {
            let p = scale_params;
            for &shards in &p.shards {
                shards_fit("--shard-sweep", shards, cmd, WAN_LOCALITIES)?;
            }
            // The topology does not depend on the instance bits and
            // more bits only need more nodes: the widest D-ring of
            // the sweep decides for each node count.
            let bits = p.instance_bits.iter().copied().max().unwrap_or(0);
            p.nodes
                .iter()
                .try_for_each(|&n| deployment_fits(&scale_config(n, 1, bits, p.horizon, p.seed)))
        }
        "chaos" => {
            let nodes = opts.nodes.unwrap_or(CHAOS_NODES);
            deployment_fits(&chaos_config(nodes, 1, opts.seed))
        }
        _ => {
            runner::check_scale(opts.scale)?;
            let cfg = runner::flower_config(opts);
            shards_fit("--shards", opts.shards, cmd, cfg.topology.localities)?;
            deployment_fits(&cfg)
        }
    }
}

/// The engine runs at most one shard per locality.
fn shards_fit(flag: &str, shards: usize, cmd: &str, localities: usize) -> Result<(), String> {
    if shards > localities {
        return Err(format!(
            "{flag} {shards} is more than the {localities} localities of `{cmd}`'s deployment \
             (one shard per locality at most); ask for {localities} or fewer"
        ));
    }
    Ok(())
}

/// `FlowerSystem::build` draws `websites × 2^instance_bits` directory
/// peers out of *every* locality's population, then one origin server
/// per website out of whatever is left anywhere; it panics when a
/// pool runs dry. Populations are only known once the topology is
/// generated, so this regenerates it (same config, same seed) — the
/// total is checked first, which also keeps a zero-node topology, and
/// one with more nodes than a `NodeId` can number, from ever reaching
/// the generator.
fn deployment_fits(cfg: &SystemConfig) -> Result<(), String> {
    cfg.flower.validate(cfg.topology.localities)?;
    let nodes = cfg.topology.nodes;
    if nodes > u32::MAX as usize {
        return Err(format!(
            "deployment too large: {nodes} nodes, but node ids are 32 bits wide \
             (at most {} nodes); lower --nodes",
            u32::MAX
        ));
    }
    let websites = cfg.catalog.num_websites;
    let instances = 1usize << cfg.flower.instance_bits;
    let dirs_per_locality = websites.saturating_mul(instances);
    let needed = dirs_per_locality
        .saturating_mul(cfg.topology.localities)
        .saturating_add(websites);
    let sizing = format!(
        "{websites} websites × {instances} instance(s) = {dirs_per_locality} directory peers \
         in each of {} localities plus {websites} origin servers",
        cfg.topology.localities
    );
    if nodes < needed.max(1) {
        return Err(format!(
            "deployment too small: {nodes} nodes, but it takes {sizing} (≥ {needed} nodes); \
             raise --nodes or lower --instance-bits"
        ));
    }
    let topo = simnet::Topology::generate(&cfg.topology, cfg.seed);
    for l in 0..topo.num_localities() {
        let population = topo.population(Locality(l as u16)) as usize;
        if population < dirs_per_locality {
            return Err(format!(
                "deployment too small: locality {l} holds {population} of the {nodes} nodes, \
                 but it takes {sizing}; raise --nodes or lower --instance-bits"
            ));
        }
    }
    Ok(())
}

/// A declaration's last step, run: the config it ran, Flower-CDN at
/// its horizon, and Squirrel from the same config where a
/// [`Systems::Pair`] runs it.
struct Last {
    cfg: SystemConfig,
    flower: FlowerSystem,
    squirrel: Option<SquirrelSystem>,
}

/// What a declaration's tables and verdict read: each step with its
/// Flower-CDN report, in step order; the [`Run`]s its claim rows read
/// (each step's Flower-CDN run, followed by its Squirrel run where
/// Squirrel runs); the systems of the last step only — the one step of
/// Figures 5–8 and churn — as a step's systems are dropped before the
/// next step builds; and the time scale they ran at.
pub struct Finished {
    steps: Vec<(&'static Step, SystemReport)>,
    runs: Vec<Run>,
    last: Option<Last>,
    scale: RunScale,
}

impl Finished {
    /// The last step's systems.
    fn last(&self) -> &Last {
        self.last.as_ref().expect("a declaration has a step")
    }

    /// The last step's Flower-CDN and Squirrel runs.
    fn pair(&self) -> (&FlowerSystem, &SquirrelSystem) {
        let last = self.last();
        (&last.flower, last.squirrel.as_ref().expect("a pair"))
    }
}

/// Run the declared experiments `cmds` ([`SWEEPS`]) in order and
/// return one output each, under its command: its tables, then its
/// claim rows or shape checks. Consecutive [`Systems::Pair`]
/// declarations read one pair of runs, so Figures 6–8 run it once under
/// `all`.
pub fn sweep(cmds: &[&str], opts: RunOpts) -> Vec<(&'static str, ExpOutput)> {
    let mut last: Option<(Systems, Finished)> = None;
    let mut outs = Vec::new();
    for cmd in cmds {
        let sweep = SWEEPS.iter().find(|s| s.cmd == *cmd).expect("a sweep");
        let f = match last.take() {
            Some((Systems::Pair, f)) if matches!(sweep.systems, Systems::Pair) => f,
            old => {
                drop(old);
                run(sweep, opts)
            }
        };
        let mut out = ExpOutput::default();
        let tables = (sweep.tables)(&f);
        let texts: Vec<String> = tables.iter().map(|(_, t)| t.render()).collect();
        out.text = texts.join("\n");
        out.csv = tables
            .into_iter()
            .map(|(stem, t)| (stem, t.to_csv()))
            .collect();
        match sweep.verdict {
            Verdict::Claims => judge(&mut out, sweep.cmd, f.last().flower.duration(), &f.runs),
            Verdict::Shape(check) => {
                check(&f, &mut out);
                out.text.push_str(&out.render_checks());
            }
        }
        outs.push((sweep.cmd, out));
        last = Some((sweep.systems, f));
    }
    outs
}

/// Run every step of `sweep` under `opts`.
fn run(sweep: &Sweep, opts: RunOpts) -> Finished {
    let mut f = Finished {
        steps: Vec::new(),
        runs: Vec::new(),
        last: None,
        scale: opts.scale,
    };
    for step in sweep.steps {
        // The previous step's systems go before this step builds.
        f.last = None;
        let mut cfg = runner::flower_config(opts);
        (step.set)(&mut cfg.flower, opts.scale);
        let (flower, report) = match sweep.systems {
            Systems::Flower(run) => run(&cfg),
            Systems::Pair => FlowerSystem::run(&cfg),
        };
        let squirrel = matches!(sweep.systems, Systems::Pair).then(|| SquirrelSystem::run(&cfg).0);
        let bps = report.background_bps * opts.scale.factor();
        let horizon = flower.duration();
        f.runs
            .push(Run::of(flower.engine().query_stats(), horizon, bps));
        if let Some(s) = &squirrel {
            f.runs.push(Run::of(s.engine().query_stats(), horizon, 0.0));
        }
        f.steps.push((step, report));
        f.last = Some(Last {
            cfg,
            flower,
            squirrel,
        });
    }
    f
}

/// A table of one row per step: its label, then the hit ratio and
/// background bps it measured, each beside the paper's value where the
/// step gives one (Table 2(a–c), the push-threshold sweep).
pub(crate) fn step_table(
    f: &Finished,
    title: &str,
    columns: &[&str],
    stem: &str,
) -> Vec<(String, Table)> {
    let mut table = Table::new(title, columns);
    for ((step, _), run) in f.steps.iter().zip(&f.runs) {
        let mut row = vec![step.label.to_string()];
        match step.paper {
            Some((hit, bps)) => row.extend([f3(hit), f3(run.hit), f1(bps), f1(run.bps)]),
            None => row.extend([f3(run.hit), f1(run.bps)]),
        }
        table.row(row);
    }
    vec![(stem.into(), table)]
}

/// Render a per-window series table, one row per window start, in
/// hours. Windows starting at or after `horizon` — the trace's
/// duration — are left out: the instant a run stops on opens one more
/// window, and the next to nothing in it would print as a ratio.
fn series_table(
    title: &str,
    cols: &[&str],
    horizon: SimTime,
    rows: impl Iterator<Item = (SimTime, Vec<String>)>,
) -> Table {
    let mut headers = vec!["hour"];
    headers.extend_from_slice(cols);
    let mut t = Table::new(title, &headers);
    for (at, cells) in rows.take_while(|(at, _)| *at < horizon) {
        let mut row = vec![format!("{:.2}", at.as_ms() as f64 / 3_600_000.0)];
        row.extend(cells);
        t.row(row);
    }
    t
}

/// The mean of the first and of the last three non-empty windows of
/// a series, among the windows [`series_table`] prints — those that
/// start before `horizon`. The window opened at the horizon itself
/// holds only the stragglers drained there and is no part of "late".
pub(crate) fn early_and_late_means(points: &[SeriesPoint], horizon: SimTime) -> (f64, f64) {
    let means: Vec<f64> = points
        .iter()
        .filter(|p| p.at < horizon && p.count > 0)
        .map(|p| p.mean())
        .collect();
    let over = 3.0_f64.min(means.len() as f64);
    let early = means.iter().take(3).sum::<f64>() / over;
    let late = means.iter().rev().take(3).sum::<f64>() / over;
    (early, late)
}

/// **Figure 5** — hit ratio and background traffic per peer vs time.
pub(crate) fn fig5_table(f: &Finished) -> Vec<(String, Table)> {
    let Last { cfg, flower, .. } = f.last();
    let window = cfg.window;
    let win_secs = window.as_ms() as f64 / 1000.0;
    let dirs = cfg.catalog.num_websites * cfg.topology.localities;

    let hit = flower.engine().query_stats().hit_series().points();
    let bg = flower.engine().traffic().background_series().points();
    // Participants over time: directories + cumulative joins.
    let joins = flower.engine().query_stats().join_series().points();
    let mut cum_joins = 0.0;
    let rows = (0..hit.len().max(bg.len())).map(|i| {
        cum_joins += joins.get(i).map(|p| p.sum).unwrap_or(0.0);
        let at = SimTime::from_ms(i as u64 * window.as_ms());
        let hr = hit.get(i).map(|p| p.mean()).unwrap_or(0.0);
        let bytes = bg.get(i).map(|p| p.sum).unwrap_or(0.0);
        let parts = (dirs as f64 + cum_joins).max(1.0);
        let bps = bytes * 8.0 / win_secs / parts * f.scale.factor();
        (at, vec![f3(hr), f1(bps)])
    });
    let t = series_table(
        "Figure 5 — hit ratio and background traffic per peer vs time",
        &["hit ratio", "bg bps/peer"],
        flower.duration(),
        rows,
    );
    vec![("fig5".into(), t)]
}

/// **Figure 6** — hit ratio over time, Flower-CDN vs Squirrel.
pub(crate) fn fig6_table(f: &Finished) -> Vec<(String, Table)> {
    let (fsys, ssys) = f.pair();
    let fq = fsys.engine().query_stats();
    let fh = fq.hit_series().points();
    let sh = ssys.engine().query_stats().hit_series().points();
    let win_ms = fq.hit_series().window().as_ms();
    let rows = (0..fh.len().max(sh.len())).map(|i| {
        (
            SimTime::from_ms(i as u64 * win_ms),
            vec![
                fh.get(i).map(|p| f3(p.mean())).unwrap_or_default(),
                sh.get(i).map(|p| f3(p.mean())).unwrap_or_default(),
            ],
        )
    });
    let t = series_table(
        "Figure 6 — hit ratio vs time, Flower-CDN and Squirrel",
        &["flower", "squirrel"],
        fsys.duration(),
        rows,
    );
    vec![("fig6".into(), t)]
}

/// **Figures 7 and 8**: Flower-CDN's mean `what` per window (a), and
/// the distribution of both systems' values (b), for Figure `n`.
pub(crate) fn latency_tables(
    f: &Finished,
    n: u8,
    what: &str,
    col: &str,
    pick: fn(&QueryStats) -> (&TimeSeries, &Histogram),
) -> Vec<(String, Table)> {
    let (fsys, ssys) = f.pair();
    let (series, fh) = pick(fsys.engine().query_stats());
    let (_, sh) = pick(ssys.engine().query_stats());
    let ta = series_table(
        &format!("Figure {n}(a) — Flower-CDN average {what} vs time (ms)"),
        &[col],
        fsys.duration(),
        series.points().iter().map(|p| (p.at, vec![f1(p.mean())])),
    );
    let mut tb = Table::new(
        format!("Figure {n}(b) — {what} distribution"),
        &["bucket (ms)", "flower", "squirrel"],
    );
    let (fd, sd) = (fh.distribution(), sh.distribution());
    for (i, (start, ff)) in fd.iter().enumerate() {
        let label = if i + 1 == fd.len() {
            format!(">{start}")
        } else {
            format!("{}-{}", start, start + fh.bucket_width())
        };
        tb.row(vec![label, pct(*ff), pct(sd[i].1)]);
    }
    vec![(format!("fig{n}a"), ta), (format!("fig{n}b"), tb)]
}

/// **Churn extension** (the paper's §8 announced analysis), run:
/// [`churn_plan`]'s directory kills and session churn, then the
/// trace to a minute past its end.
pub(crate) fn churn_run(cfg: &SystemConfig) -> (FlowerSystem, SystemReport) {
    let mut sys = FlowerSystem::build(cfg);
    let (kills, _, script) = churn_plan(&sys, cfg);
    sys.apply_churn(&ChurnScript::kill_at(&kills));
    sys.apply_churn(&script);
    sys.run_until(SimTime::from_ms(cfg.workload.duration_ms) + SimDuration::from_secs(60));
    let report = sys.report();
    (sys, report)
}

/// What `churn` scripts over a built system — a pure function of the
/// deployment, so its table re-derives the counts from the finished
/// run: one directory kill per active website a third into the trace,
/// the peers under session churn ([`churn_population`]), and their
/// churn script.
fn churn_plan(
    sys: &FlowerSystem,
    cfg: &SystemConfig,
) -> (Vec<(SimTime, NodeId)>, Vec<NodeId>, ChurnScript) {
    let horizon = SimTime::from_ms(cfg.workload.duration_ms);
    let k = cfg.topology.localities;
    let mut kills: Vec<(SimTime, NodeId)> = Vec::new();
    for ws in 0..cfg.catalog.active_websites as u16 {
        let loc = Locality((ws as usize % k) as u16);
        if let Some(d) = sys.initial_directory(workload::WebsiteId(ws), loc) {
            kills.push((SimTime::from_ms(horizon.as_ms() / 3), d));
        }
    }
    // Session churn over a third of community members.
    let affected = churn_population(sys, cfg);
    let churn_cfg = ChurnConfig {
        start: SimTime::from_ms(horizon.as_ms() / 4),
        end: horizon,
        mean_session: SimDuration::from_ms(horizon.as_ms() / 4),
        mean_downtime: SimDuration::from_ms(horizon.as_ms() / 20),
        permanent: false,
    };
    let script = ChurnScript::generate(&churn_cfg, &affected, cfg.seed);
    (kills, affected, script)
}

/// The churn run's table.
pub(crate) fn churn_table(f: &Finished) -> Vec<(String, Table)> {
    let (Last { cfg, flower, .. }, r) = (f.last(), &f.steps[0].1);
    let (kills, affected, script) = churn_plan(flower, cfg);
    let m = flower.engine().metrics();
    let mut t = Table::new(
        "Churn extension — session churn + directory kills",
        &["metric", "value"],
    );
    for (metric, value) in [
        ("peers under churn", affected.len().to_string()),
        ("directory kills", kills.len().to_string()),
        ("churn events", script.len().to_string()),
        ("hit ratio", f3(r.hit_ratio)),
        (
            "resolved/submitted",
            format!("{}/{}", r.resolved, r.submitted),
        ),
        ("redirection failures", r.redirection_failures.to_string()),
        (
            "directory replacements won",
            m.counter(Counter::DirReplacementsWon).to_string(),
        ),
    ] {
        t.row(vec![metric.into(), value]);
    }
    vec![("churn".into(), t)]
}

/// The churn run's checks — §5.2 recovery keeps the system serving —
/// and its registry snapshot for `--metrics-out`.
pub(crate) fn churn_checks(f: &Finished, out: &mut ExpOutput) {
    let (Last { cfg, flower, .. }, r) = (f.last(), &f.steps[0].1);
    let engine = flower.engine();
    out.metrics.push(MetricsRecord {
        experiment: "churn".into(),
        sim_key: format!("churn/seed{}", cfg.seed),
        shards: engine.num_shards(),
        set: engine.metrics().clone(),
    });
    let replacements = engine.metrics().counter(Counter::DirReplacementsWon);
    out.push_check(
        format!("system keeps serving under churn (hit {:.3})", r.hit_ratio),
        r.hit_ratio > 0.3,
    );
    out.push_check(
        format!("killed directories get replaced ({replacements} replacements)"),
        replacements >= 1,
    );
    out.push_check(
        format!(
            "redirection failures are handled ({} seen)",
            r.redirection_failures
        ),
        r.resolved as f64 > r.submitted as f64 * 0.9,
    );
}

/// Who session churn takes down and brings back, in `churn` and in the
/// `chaos` families: the first third of every (active website,
/// locality) community, in node order, each node once.
fn churn_population(sys: &FlowerSystem, cfg: &SystemConfig) -> Vec<NodeId> {
    let mut affected: Vec<NodeId> = Vec::new();
    for ws in 0..cfg.catalog.active_websites as u16 {
        for l in 0..cfg.topology.localities as u16 {
            let comm = sys.community(workload::WebsiteId(ws), Locality(l));
            affected.extend(comm.iter().take(comm.len() / 3));
        }
    }
    affected.sort_unstable_by_key(|n| n.0);
    affected.dedup();
    affected
}

/// **§8 extension: cache replacement** — bounded per-peer caches with
/// LRU/LFU, one row per capacity step.
pub(crate) fn cache_table(f: &Finished) -> Vec<(String, Table)> {
    let mut t = Table::new(
        "Cache replacement (§8 future work) — capacity sweep (objects/peer)",
        &[
            "variant",
            "hit ratio",
            "mean lookup ms",
            "redirection failures",
        ],
    );
    for (step, r) in &f.steps {
        t.row(vec![
            step.label.into(),
            f3(r.hit_ratio),
            f1(r.mean_lookup_ms),
            r.redirection_failures.to_string(),
        ]);
    }
    vec![("cache".into(), t)]
}

/// The cache sweep's verdicts on the hit ratios of its runs, in step
/// order (`unbounded`, `lru-50`, `lru-10`, `lfu-10`). Smaller caches
/// mean fewer self-hits and more stale directory entries (exercising
/// §5.1 retries); the hit ratio must degrade gracefully, not collapse.
/// A scale at which no cache fills runs every variant identically, so
/// the bounded ones must score strictly below the unbounded one for
/// the sweep to have evicted — and measured — anything at all.
pub(crate) fn cache_checks(f: &Finished, out: &mut ExpOutput) {
    let hits: Vec<f64> = f.runs.iter().map(|r| r.hit).collect();
    out.push_check(
        format!(
            "bounded caches evict: lru-10 hits less than unbounded ({:.3} vs {:.3})",
            hits[2], hits[0]
        ),
        hits[2] < hits[0],
    );
    out.push_check(
        format!(
            "even tiny caches keep the CDN functional (hit {:.3})",
            hits[2]
        ),
        hits[2] > 0.1,
    );
}

/// Parameters of the [`scale`] experiment sweep.
#[derive(Clone, Debug)]
pub struct ScaleParams {
    /// Node counts to sweep (e.g. `[10_000, 50_000, 100_000]`).
    pub nodes: Vec<usize>,
    /// Shard counts to sweep per node count (e.g. `[1, 2, 4, 8]`).
    pub shards: Vec<usize>,
    /// §5.3 instance-bits values to sweep (e.g. `[0, 2]` to compare
    /// the flat D-ring against a PetalUp one on the same workload).
    pub instance_bits: Vec<u32>,
    /// Simulated horizon per cell.
    pub horizon: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl Default for ScaleParams {
    fn default() -> Self {
        ScaleParams {
            nodes: vec![10_000, 50_000, 100_000],
            shards: vec![1, 2, 4, 8],
            instance_bits: vec![0],
            horizon: SimDuration::from_secs(60),
            seed: 42,
        }
    }
}

/// The deployment a `scale` cell simulates: an 8-domain CDN with
/// well-separated localities (60 ms inter-domain latency floor — which
/// is also the engine's epoch lookahead), communities sized with the
/// node count, a query rate proportional to the population (so the
/// event load actually grows with `nodes`), and Zipf-skewed *website*
/// popularity — the §5.3 PetalUp workload, where a couple of hot
/// websites would overload their flat directory petals.
fn scale_config(
    nodes: usize,
    shards: usize,
    instance_bits: u32,
    horizon: SimDuration,
    seed: u64,
) -> SystemConfig {
    use flower_core::FlowerConfig;
    use workload::{CatalogConfig, WorkloadConfig};
    let active_websites = SCALE_ACTIVE_WEBSITES;
    let query_rate_per_sec = nodes as f64 * SCALE_QUERY_RATE_PER_NODE;
    let flower_base = FlowerConfig::fast_test();
    // Split when an instance runs notably hotter than the mean petal's
    // expected per-window load; the power-of-two doubling then settles
    // each petal at roughly load/threshold instances (≤ 2^b). Scaled
    // from the workload so the policy is population-independent.
    let mean_petal_window = scale_mean_petal_window(nodes);
    let petal_split_threshold = (mean_petal_window * 0.45).max(4.0) as u64;
    SystemConfig {
        topology: wan_topology(nodes),
        catalog: CatalogConfig {
            num_websites: 8,
            active_websites,
            objects_per_website: 200,
            ..Default::default()
        },
        workload: WorkloadConfig {
            query_rate_per_sec,
            duration_ms: horizon.as_ms(),
            website_zipf_alpha: 1.2,
            ..Default::default()
        },
        flower: FlowerConfig {
            max_overlay: (nodes / 16).max(50),
            instance_bits,
            petal_split_threshold,
            petal_merge_floor: (petal_split_threshold / 4).max(1),
            ..flower_base
        },
        seed,
        window: SimDuration::from_secs(30),
        shards,
    }
}

/// Localities of the WAN deployment `scale` and `chaos` simulate,
/// shared with [`scale_mean_petal_window`] so the split threshold and
/// the flatten-check strictness can never drift apart.
const WAN_LOCALITIES: usize = 8;

/// The underlay of the `scale` and `chaos` deployments: 8 domains of
/// WAN latencies (10–500 ms) held apart by a 60 ms inter-domain floor,
/// which is also the engine's epoch lookahead.
fn wan_topology(nodes: usize) -> simnet::TopologyConfig {
    simnet::TopologyConfig {
        nodes,
        localities: WAN_LOCALITIES,
        min_latency_ms: 10,
        max_latency_ms: 500,
        cluster_spread: 0.03,
        background_fraction: 0.0,
        population_skew: 0.25,
        inter_locality_floor_ms: 60,
    }
}

/// Active websites of the `scale` deployment (petals = localities ×
/// active websites).
const SCALE_ACTIVE_WEBSITES: usize = 4;
/// Query rate per node per second of the `scale` workload.
const SCALE_QUERY_RATE_PER_NODE: f64 = 0.02;

/// Expected per-window query load of the *average* petal in a
/// [`scale_config`] deployment — the resolution the split policy has
/// to work with (`scale_config` derives its split threshold from it,
/// [`scale`] its strictness bounds).
fn scale_mean_petal_window(nodes: usize) -> f64 {
    use flower_core::FlowerConfig;
    let window_s = FlowerConfig::fast_test().keepalive_period.as_ms() as f64 / 1000.0;
    nodes as f64 * SCALE_QUERY_RATE_PER_NODE * window_s
        / (WAN_LOCALITIES * SCALE_ACTIVE_WEBSITES) as f64
}

/// **Scale** — the engine-performance experiment: sweep the node
/// count, the §5.3 instance bits and the shard count; report
/// events/second, wall-clock and per-instance directory load per
/// cell; assert that within every (nodes, instance_bits) group all
/// shard counts produce the *same run* ([`simnet::Engine::sim_state`]:
/// the merged query statistics and traffic whole) — the engine's
/// bit-determinism guarantee (the shard layout is an execution detail,
/// and the §5.3 instance choice is a pure function of protocol
/// state), measured end to end. When the sweep includes both the flat
/// D-ring (`b = 0`) and a PetalUp one (`b ≥ 1`), it also checks that
/// the splits actually flatten the per-instance directory load under
/// the Zipf-skewed website workload.
pub fn scale(p: &ScaleParams) -> ExpOutput {
    let mut out = ExpOutput::default();
    let mut table = Table::new(
        "Scale — engine throughput (instance bits × locality shards)",
        &[
            "nodes",
            "bits",
            "shards",
            "wall s",
            "events",
            "events/s",
            "peak queue",
            "epochs",
            "speedup vs base",
            "hit ratio",
            "dir max/mean",
            "live dirs",
        ],
    );
    for &nodes in &p.nodes {
        // Per-instance load imbalance of each instance-bits group
        // (identical across the group's cells, so the base cell's
        // value represents it).
        let mut load_ratios: Vec<(u32, f64)> = Vec::new();
        for &bits in &p.instance_bits {
            let name = if bits == 0 {
                format!("scale/{nodes}n")
            } else {
                format!("scale/{nodes}n/b{bits}")
            };
            // The shard count is an execution knob: every cell of the
            // group simulates the same trace, under one sim key.
            let (_, ratio) = shard_parity(
                &mut out,
                &name,
                &name,
                &p.shards,
                |k| FlowerSystem::build(&scale_config(nodes, k, bits, p.horizon, p.seed)),
                |sys, report, base_shards| {
                    format!(
                        "{nodes} nodes / b{bits} / {} shards: query statistics \
                         identical to the {base_shards}-shard run \
                         ({}/{} hit {:.6}, {} msgs, dir load {:.4})",
                        sys.engine().num_shards(),
                        report.submitted,
                        report.resolved,
                        report.hit_ratio,
                        sys.engine().traffic().messages(),
                        report.dir_load_max_mean
                    )
                },
                |sys, report, wall_s, base: Option<&(f64, f64)>| {
                    let engine = sys.engine();
                    // What the engine ran, not what was asked for: it
                    // clamps to the number of localities.
                    let shards = engine.num_shards();
                    let events = engine.events_processed();
                    let speedup = match base {
                        None => format!("×1.00 (base: {shards} shard(s))"),
                        Some((base_wall, _)) => format!("×{:.2}", base_wall / wall_s.max(1e-9)),
                    };
                    table.row(vec![
                        nodes.to_string(),
                        bits.to_string(),
                        shards.to_string(),
                        format!("{wall_s:.2}"),
                        events.to_string(),
                        f1(events as f64 / wall_s.max(1e-9)),
                        engine.peak_queue_depth().to_string(),
                        engine.epochs().to_string(),
                        speedup,
                        f3(report.hit_ratio),
                        f3(report.dir_load_max_mean),
                        report.dir_instances_live.to_string(),
                    ]);
                    (wall_s, report.dir_load_max_mean)
                },
            );
            load_ratios.push((bits, ratio));
        }
        // §5.3 PetalUp shape: splits must flatten the per-instance
        // directory load relative to the flat D-ring on the same
        // Zipf-skewed workload — by ≥3× once 4 instances are
        // available, measurably at 2. The 3× bound needs the policy
        // to have resolution (tens of queries per petal window); tiny
        // sweeps where a window holds a handful of queries get a 2×
        // bound instead.
        if let Some(&(_, flat)) = load_ratios.iter().find(|(b, _)| *b == 0) {
            let strict = scale_mean_petal_window(nodes) >= 25.0;
            for &(bits, ratio) in load_ratios.iter().filter(|(b, _)| *b > 0) {
                let bound = match (bits, strict) {
                    (2.., true) => flat / 3.0,
                    (2.., false) => flat * 0.5,
                    _ => flat * 0.8,
                };
                out.push_check(
                    format!(
                        "{nodes} nodes: b{bits} flattens directory load \
                         (max/mean {ratio:.3} vs flat {flat:.3}, bound {bound:.3})"
                    ),
                    ratio > 0.0 && ratio <= bound,
                );
            }
        }
    }
    out.text = table.render();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if p.shards.iter().any(|&k| k > cores) {
        out.text.push_str(
            "note: wall-clock speedup needs real cores; on a single-CPU host the sweep\n\
             still verifies shard determinism while events/s stays flat.\n",
        );
    }
    out.text.push_str(&out.render_checks());
    out.csv.push(("scale".into(), table.to_csv()));
    out
}

/// The shard-parity loop of `scale` and `chaos`: one run of the same
/// simulation per shard count of `shards`, each built by `build` and
/// run to its drain horizon. Every run records its registry snapshot
/// under `experiment` and the shared `sim_key` (so the metrics gate
/// re-checks the parity from the registry side); every run after the
/// first pushes a check, named by `label` from the run and the first
/// run's shard count, that its [`simnet::Engine::sim_state`] — the
/// merged statistics whole, not just the totals — equals the first's
/// (kept only when there is a second). `keep` reads each run, its
/// report, the wall seconds of its run and what it kept of the first
/// run, which is returned.
fn shard_parity<T>(
    out: &mut ExpOutput,
    experiment: &str,
    sim_key: &str,
    shards: &[usize],
    build: impl Fn(usize) -> FlowerSystem,
    label: impl Fn(&FlowerSystem, &SystemReport, usize) -> String,
    mut keep: impl FnMut(FlowerSystem, SystemReport, f64, Option<&T>) -> T,
) -> T {
    let mut first: Option<(T, usize, Option<_>)> = None;
    for &k in shards {
        let mut sys = build(k);
        let t0 = std::time::Instant::now();
        sys.run_until(sys.drain_horizon());
        let wall_s = t0.elapsed().as_secs_f64();
        let report = sys.report();
        let engine = sys.engine();
        out.metrics.push(MetricsRecord {
            experiment: experiment.into(),
            sim_key: sim_key.into(),
            shards: engine.num_shards(),
            set: engine.metrics().clone(),
        });
        let state = match &first {
            None => (shards.len() > 1).then(|| engine.sim_state()),
            Some((_, base_shards, base)) => {
                let same = base.as_ref() == Some(&engine.sim_state());
                out.push_check(label(&sys, &report, *base_shards), same);
                None
            }
        };
        let shards_run = engine.num_shards();
        let kept = keep(sys, report, wall_s, first.as_ref().map(|(t, _, _)| t));
        if first.is_none() {
            first = Some((kept, shards_run, state));
        }
    }
    first.expect("a shard sweep is non-empty").0
}

// ------------------------------------------------------------------
// Chaos — the fault-injection plane exercised end to end
// ------------------------------------------------------------------

/// Node count of the chaos deployment. Small enough that the whole
/// cell matrix (four families × their shard sweeps) finishes inside a
/// CI release job, large enough that every locality hosts communities
/// and directory petals worth disrupting.
const CHAOS_NODES: usize = 2000;

/// The scripted fault window shared by every chaos family: strike at
/// 150 s, heal/end at 240 s of the 360 s horizon — a settled plateau
/// on both sides of the disruption.
const CHAOS_FAULT_WINDOW: (SimTime, SimTime) = (SimTime::from_secs(150), SimTime::from_secs(240));

/// Hit-ratio bucket width of the chaos cells — fine enough to resolve
/// the dip and the recovery point inside the 90 s fault window.
const CHAOS_WINDOW: SimDuration = SimDuration::from_secs(15);

/// The chaos deployment: the flat-D-ring `scale` deployment over a
/// 360 s horizon, but with only 2 active websites, so the origin
/// servers live in exactly localities 1 and 2 (round-robin placement
/// starts at locality 1) and the partition script can keep them
/// reachable from everywhere. Query timeouts are armed (2 s initial,
/// retry budget 2): lookups swallowed by a fault retry against a
/// sibling instance and eventually degrade to the origin server.
pub fn chaos_config(nodes: usize, shards: usize, seed: u64) -> SystemConfig {
    let mut cfg = scale_config(nodes, shards, 0, SimDuration::from_secs(360), seed);
    cfg.catalog.active_websites = 2;
    cfg.flower.query_timeout = Some(SimDuration::from_secs(2));
    cfg.window = CHAOS_WINDOW;
    cfg
}

/// The flash-crowd variant of [`chaos_config`]: no network fault —
/// instead the colder of the two active websites (popularity rank 1)
/// receives a surge of extra queries across the fault window, roughly
/// tripling the deployment's total query rate while it lasts.
pub fn chaos_flash_config(nodes: usize, shards: usize, seed: u64) -> SystemConfig {
    let mut cfg = chaos_config(nodes, shards, seed);
    let (start, end) = CHAOS_FAULT_WINDOW;
    cfg.workload.surges = vec![Surge::FlashCrowd {
        start_ms: start.as_ms(),
        end_ms: end.as_ms(),
        website_rank: 1,
        extra_rate_per_sec: cfg.workload.query_rate_per_sec * 2.0,
    }];
    cfg
}

/// The partition script: pairwise islands. Every pair among the six
/// victim localities {0, 3, 4, 5, 6, 7} is severed, while localities
/// 1 and 2 — hosting the two active websites' origin servers — stay
/// connected to everyone, so the degradation path (retry budget
/// exhausted → origin) always has a route. Victim clients keep their
/// intra-locality overlays but lose every D-ring route hopping
/// through another victim locality.
fn chaos_partition_plane(start: SimTime, heal: SimTime) -> FaultPlane {
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

/// Steady session churn over a third of every community: rejoining
/// nodes come back stateless (fresh clients), keeping a continuous
/// flow of D-ring lookups — the traffic a partition actually breaks —
/// through the whole run instead of only during the join wave.
fn chaos_churn(sys: &FlowerSystem, cfg: &SystemConfig, seed: u64) -> ChurnScript {
    ChurnScript::generate(
        &ChurnConfig {
            start: SimTime::from_secs(30),
            end: SimTime::from_ms(cfg.workload.duration_ms),
            mean_session: SimDuration::from_secs(90),
            mean_downtime: SimDuration::from_secs(15),
            permanent: false,
        },
        &churn_population(sys, cfg),
        seed,
    )
}

/// Availability readout of one fault cell: the windowed hit-ratio
/// series summarised relative to a scripted fault window.
#[derive(Clone, Copy, Debug)]
pub struct Availability {
    /// Count-weighted mean hit ratio of the settled pre-fault windows.
    pub pre_hit: f64,
    /// Worst windowed hit ratio while the fault was active.
    pub min_fault_hit: f64,
    /// `pre_hit − min_fault_hit`: how deep availability dipped.
    pub dip_depth: f64,
    /// Seconds from the heal instant until the end of the first
    /// window whose hit ratio is back within 5% of `pre_hit`; `None`
    /// when the run ends without recovering.
    pub recovery_s: Option<f64>,
    /// Count-weighted mean hit ratio from the recovery window onward
    /// (0 when the system never recovered).
    pub recovered_hit: f64,
}

/// Fraction of the pre-fault hit ratio a post-heal window must reach
/// to count as recovered (the acceptance bound: within 5%).
pub const RECOVERY_FRACTION: f64 = 0.95;

/// Summarise a windowed hit-ratio series ([`simnet::TimeSeries`]
/// points of bucket width `window`) against a fault active over
/// `[fault_start, fault_end)`. Pre-fault statistics ignore windows
/// before `settle` (warm-up) and the window overlapping the fault
/// onset; empty windows never count. When no non-empty window
/// overlaps the fault, `min_fault_hit` falls back to `pre_hit` (no
/// dip evidence).
pub fn availability(
    points: &[SeriesPoint],
    window: SimDuration,
    settle: SimTime,
    fault_start: SimTime,
    fault_end: SimTime,
) -> Availability {
    let weighted = |pts: &[SeriesPoint]| -> f64 {
        let (sum, count) = pts
            .iter()
            .fold((0.0, 0u64), |(s, c), p| (s + p.sum, c + p.count));
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    };
    let pre: Vec<SeriesPoint> = points
        .iter()
        .filter(|p| p.count > 0 && p.at >= settle && p.at + window <= fault_start)
        .copied()
        .collect();
    let pre_hit = weighted(&pre);
    let min_fault_hit = points
        .iter()
        .filter(|p| p.count > 0 && p.at < fault_end && p.at + window > fault_start)
        .map(|p| p.mean())
        .fold(f64::INFINITY, f64::min);
    let min_fault_hit = if min_fault_hit.is_finite() {
        min_fault_hit
    } else {
        pre_hit
    };
    let mut recovery_s = None;
    let mut recovered: Vec<SeriesPoint> = Vec::new();
    for p in points.iter().filter(|p| p.count > 0 && p.at >= fault_end) {
        if recovery_s.is_none() {
            if p.mean() < RECOVERY_FRACTION * pre_hit {
                continue;
            }
            recovery_s = Some(((p.at + window) - fault_end).as_ms() as f64 / 1000.0);
        }
        recovered.push(*p);
    }
    Availability {
        pre_hit,
        min_fault_hit,
        dip_depth: pre_hit - min_fault_hit,
        recovery_s,
        recovered_hit: weighted(&recovered),
    }
}

/// **Chaos** — the fault-injection plane exercised end to end: a
/// pairwise-island partition with heal, a flash crowd on the colder
/// active website, probabilistic cross-locality message loss, and a
/// correlated regional failure with staggered recovery. Each family
/// runs across a shard sweep that must stay bit-identical, and each
/// is summarised by its availability profile: settled pre-fault hit
/// ratio, dip depth while the fault holds, and time-to-recover after
/// the heal.
pub fn chaos(opts: RunOpts) -> ExpOutput {
    let mut out = ExpOutput::default();
    let seed = opts.seed;
    let nodes = opts.nodes.unwrap_or(CHAOS_NODES);
    let (start, heal) = CHAOS_FAULT_WINDOW;
    let settle = SimTime::from_secs(60);
    let window = CHAOS_WINDOW;
    let mut table = Table::new(
        "Chaos — scripted faults, surges and the availability they cost",
        &[
            "cell",
            "pre hit",
            "fault min",
            "dip",
            "recover s",
            "timeouts",
            "retries",
            "origin fb",
            "fault drops",
            "resolved/submitted",
        ],
    );

    // Each family runs one simulation on every shard layout of its
    // sweep; its row and checks read the first layout's run.
    let mut family = |out: &mut ExpOutput,
                      name: &str,
                      shards: &[usize],
                      build: &dyn Fn(usize) -> FlowerSystem| {
        let exp = format!("chaos/{name}");
        let (sys, r) = shard_parity(
            out,
            &exp,
            &format!("{exp}/seed{seed}"),
            shards,
            build,
            |sys, _, first| {
                let shards = sys.engine().num_shards();
                format!("{exp}: {shards}-shard run bit-identical to the {first}-shard run")
            },
            |sys, report, _, _| (sys, report),
        );
        let points = sys.engine().query_stats().hit_series().points();
        let a = availability(&points, window, settle, start, heal);
        let m = sys.engine().metrics();
        table.row(vec![
            name.into(),
            f3(a.pre_hit),
            f3(a.min_fault_hit),
            f3(a.dip_depth),
            a.recovery_s.map_or("-".into(), |s| format!("{s:.0}")),
            m.counter(Counter::DirQueryTimeouts).to_string(),
            m.counter(Counter::DirQueryRetries).to_string(),
            m.counter(Counter::DirQueryOriginFallbacks).to_string(),
            m.counter(Counter::EngineFaultDrops).to_string(),
            format!("{}/{}", r.resolved, r.submitted),
        ]);
        (sys, r, a)
    };

    // "(resolved n/m)", and whether at least `frac` of them were.
    let served = |r: &SystemReport, frac: f64| {
        let ok = r.resolved as f64 >= r.submitted as f64 * frac;
        (format!("(resolved {}/{})", r.resolved, r.submitted), ok)
    };

    // --- partition + heal -------------------------------------------
    let plane = chaos_partition_plane(start, heal);
    let (sys, _, a) = family(&mut out, "partition", &[1, 2, 4], &|shards| {
        let cfg = chaos_config(nodes, shards, seed);
        let mut s = FlowerSystem::build(&cfg);
        s.apply_churn(&chaos_churn(&s, &cfg, seed));
        s.apply_faults(&plane);
        s
    });
    let m = sys.engine().metrics();
    let timeouts = m.counter(Counter::DirQueryTimeouts);
    out.push_check(
        format!("partition: lookups time out while the D-ring is cut ({timeouts} timeouts)"),
        timeouts > 0,
    );
    let fallbacks = m.counter(Counter::DirQueryOriginFallbacks);
    out.push_check(
        format!(
            "partition: exhausted retries degrade to the origin server ({fallbacks} fallbacks)"
        ),
        fallbacks > 0,
    );
    out.push_check(
        format!(
            "partition: availability dips while cut (hit {:.3} → {:.3})",
            a.pre_hit, a.min_fault_hit
        ),
        a.dip_depth > 0.02,
    );
    out.push_check(
        format!(
            "partition: hit ratio back within 5% of pre-fault after heal \
             (recovered {:.3} vs pre {:.3}, {} s)",
            a.recovered_hit,
            a.pre_hit,
            a.recovery_s.map_or("inf".into(), |s| format!("{s:.0}")),
        ),
        a.recovery_s.is_some() && a.recovered_hit >= RECOVERY_FRACTION * a.pre_hit,
    );

    // --- flash crowd -------------------------------------------------
    let (sys, report, a) = family(&mut out, "flash", &[1, 2, 4], &|shards| {
        FlowerSystem::build(&chaos_flash_config(nodes, shards, seed))
    });
    let points = sys.engine().query_stats().hit_series().points();
    // Resolution throughput per second, from the windowed counts.
    let rate = |lo: SimTime, hi: SimTime| -> f64 {
        let (mut n, mut ms) = (0u64, 0u64);
        for p in &points {
            if p.at >= lo && p.at + window <= hi {
                n += p.count;
                ms += window.as_ms();
            }
        }
        if ms == 0 {
            0.0
        } else {
            n as f64 / (ms as f64 / 1000.0)
        }
    };
    let pre_rate = rate(settle, start);
    let surge_rate = rate(start, heal);
    out.push_check(
        format!(
            "flash: the crowd actually arrives ({surge_rate:.0}/s vs {pre_rate:.0}/s baseline)"
        ),
        surge_rate > 1.5 * pre_rate,
    );
    let (resolved, ok) = served(&report, 0.9);
    out.push_check(
        format!("flash: the overlay absorbs the crowd {resolved}"),
        ok,
    );
    out.push_check(
        format!(
            "flash: hit ratio back within 5% of pre-surge once it passes \
             (recovered {:.3} vs pre {:.3})",
            a.recovered_hit, a.pre_hit
        ),
        a.recovery_s.is_some() && a.recovered_hit >= RECOVERY_FRACTION * a.pre_hit,
    );

    // --- cross-locality message loss ---------------------------------
    let loss_plane = FaultPlane::new().link_loss(LinkLoss {
        start,
        end: heal,
        probability: 0.25,
    });
    let (sys, report, _) = family(&mut out, "loss", &[1, 4], &|shards| {
        let mut s = FlowerSystem::build(&chaos_config(nodes, shards, seed));
        s.apply_faults(&loss_plane);
        s
    });
    let drops = sys.engine().metrics().counter(Counter::EngineFaultDrops);
    out.push_check(
        format!("loss: the lossy window drops traffic ({drops} fault drops)"),
        drops > 0,
    );
    let (resolved, ok) = served(&report, 0.9);
    out.push_check(
        format!("loss: retries absorb 25% cross-locality loss {resolved}"),
        ok,
    );

    // --- correlated regional failure ---------------------------------
    let victim = Locality(5);
    let regional_plane = FaultPlane::new().regional_failure(RegionalFailure {
        at: start,
        locality: victim,
        recover_start: heal,
        stagger: SimDuration::from_ms(50),
    });
    let (sys, report, _) = family(&mut out, "regional", &[1, 4], &|shards| {
        let mut s = FlowerSystem::build(&chaos_config(nodes, shards, seed));
        s.apply_faults(&regional_plane);
        s
    });
    let back_up = sys
        .engine()
        .topology()
        .nodes_in(victim)
        .iter()
        .all(|&n| sys.engine().is_up(n));
    out.push_check(
        format!(
            "regional: staggered recovery brings locality {} fully back",
            victim.0
        ),
        back_up,
    );
    let (resolved, ok) = served(&report, 0.8);
    out.push_check(
        format!("regional: the surviving localities keep serving {resolved}"),
        ok,
    );

    out.text = table.render();
    out.text.push_str(&out.render_checks());
    out.csv.push(("chaos".into(), table.to_csv()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The experiments run the full 5000-node topology; in debug-mode
    /// test builds that takes minutes per run, so the heavy shape
    /// tests are `#[ignore]`d — run them explicitly with
    /// `cargo test -p experiments --release -- --ignored`, or use the
    /// `flower-experiments` binary.
    fn opts(seed: u64) -> RunOpts {
        RunOpts::new().seed(seed)
    }

    /// A run processes the events due exactly at its horizon, so a
    /// series ends with a window that *starts* there; the figures'
    /// tables stop before it.
    #[test]
    fn series_tables_stop_at_the_horizon() {
        let horizon = SimTime::from_hours(1);
        let mut hits = simnet::TimeSeries::new(SimDuration::from_mins(30));
        for (mins, hit) in [(10, 0.0), (20, 1.0), (40, 1.0), (60, 0.0)] {
            hits.record(SimTime::from_ms(mins * 60_000), hit);
        }
        let points = hits.points();
        assert_eq!(points.last().map(|p| p.at), Some(horizon));
        let table = |until: SimTime| {
            let rows = points.iter().map(|p| (p.at, vec![f3(p.mean())]));
            series_table("t", &["hit ratio"], until, rows).to_csv()
        };
        assert_eq!(table(horizon), "hour,hit ratio\n0.00,0.500\n0.50,1.000\n");
        assert_eq!(
            table(horizon + SimDuration::from_ms(1)),
            "hour,hit ratio\n0.00,0.500\n0.50,1.000\n1.00,0.000\n",
            "a window that starts inside the trace is a row"
        );
    }

    /// Figure 5's "rises over time" check reads the windows its table
    /// prints: four windows of a steadily rising ratio, then the
    /// boundary window with two drained misses in it.
    #[test]
    fn fig5_late_mean_stops_at_the_horizon() {
        let horizon = SimTime::from_hours(2);
        let mut hits = simnet::TimeSeries::new(SimDuration::from_mins(30));
        for (window, ratio) in [0.5, 0.6, 0.7, 0.8].into_iter().enumerate() {
            for i in 0..10 {
                let at = SimTime::from_ms((window as u64 * 30 + 1 + i) * 60_000);
                hits.record(at, if (i as f64) < ratio * 10.0 { 1.0 } else { 0.0 });
            }
        }
        let (early, late) = early_and_late_means(&hits.points(), horizon);
        assert!((early - 0.6).abs() < 1e-9 && (late - 0.7).abs() < 1e-9);
        hits.record(horizon, 0.0);
        hits.record(horizon, 0.0);
        let points = hits.points();
        assert_eq!(points.last().map(|p| (p.at, p.count)), Some((horizon, 2)));
        assert_eq!(early_and_late_means(&points, horizon), (early, late));
        // Read past the horizon, "late" is (0.7 + 0.8 + 0) / 3 and
        // the verdict flips.
        let (_, with_boundary) = early_and_late_means(&points, horizon + SimDuration::from_ms(1));
        assert!(with_boundary < early);
    }

    /// The cache sweep's checks on hand-made hit ratios: the
    /// `--scale 0.2` table, then a scale where no cache fills and
    /// every variant reads the same.
    #[test]
    fn cache_pressure_fails_when_nothing_was_evicted() {
        let cache = SWEEPS.iter().find(|s| s.cmd == "cache").unwrap();
        let Verdict::Shape(check) = cache.verdict else {
            panic!("the cache sweep is judged by shape checks")
        };
        let verdicts = |hits: &[f64]| {
            let runs = hits.iter().map(|&hit| Run {
                hit,
                ..Run::default()
            });
            let finished = Finished {
                steps: Vec::new(),
                runs: runs.collect(),
                last: None,
                scale: RunScale::Scaled(0.2),
            };
            let mut out = ExpOutput::default();
            check(&finished, &mut out);
            out.checks.iter().map(|c| c.1).collect::<Vec<_>>()
        };
        assert_eq!(verdicts(&[0.633, 0.633, 0.547, 0.545]), [true, true]);
        assert_eq!(verdicts(&[0.417, 0.417, 0.417, 0.417]), [false, true]);
    }

    /// The claim rows `figure` evaluates on a run shorter than 20 h.
    fn short_rows(figure: &str) -> usize {
        let rows = crate::claims::CLAIMS.iter().filter(|c| c.figure == figure);
        rows.filter(|c| c.horizon != crate::claims::Horizon::Long)
            .count()
    }

    /// At `--scale 0.009` the 30-min step of Table 2(b) is the
    /// operating point every other run simulates: 16 200 ms of
    /// Tgossip, where a floored product gave 16 199.
    #[test]
    fn table2b_scales_tgossip_like_every_other_run() {
        let opts = RunOpts {
            scale: RunScale::Scaled(0.009),
            ..opts(42)
        };
        let table2b = SWEEPS.iter().find(|s| s.cmd == "table2b").unwrap();
        let mut cfg = runner::flower_config(opts);
        (table2b.steps[1].set)(&mut cfg.flower, opts.scale);
        assert_eq!(cfg.flower.t_gossip, SimDuration::from_ms(16_200));
        assert_eq!(
            format!("{cfg:?}"),
            format!("{:?}", runner::flower_config(opts))
        );
    }

    #[test]
    #[ignore = "runs paper-scale simulations; use --release -- --ignored"]
    fn table2a_shape() {
        let (_, out) = sweep(&["table2a"], opts(11)).remove(0);
        assert!(out.all_passed(), "{}", out.text);
        assert_eq!(out.checks.len(), short_rows("table2a"));
        assert!(out.text.contains("Table 2(a)"));
    }

    #[test]
    #[ignore = "runs paper-scale simulations; use --release -- --ignored"]
    fn fig6_7_8_shapes() {
        let figures = ["fig6", "fig7", "fig8"];
        for (figure, out) in sweep(&figures, opts(13)) {
            assert!(out.all_passed(), "{figure}:\n{}", out.text);
            assert_eq!(out.checks.len(), short_rows(figure), "{figure}");
        }
    }

    #[test]
    #[ignore = "runs paper-scale simulations; use --release -- --ignored"]
    fn churn_recovers() {
        let (_, out) = sweep(&["churn"], opts(17)).remove(0);
        assert!(out.all_passed(), "{}", out.render_checks());
    }

    #[test]
    #[ignore = "runs multi-thousand-node simulations; use --release -- --ignored"]
    fn scale_sweep_is_shard_deterministic() {
        let out = scale(&ScaleParams {
            nodes: vec![2000],
            shards: vec![1, 2, 4],
            instance_bits: vec![0],
            horizon: SimDuration::from_secs(20),
            seed: 9,
        });
        assert!(out.all_passed(), "{}", out.render_checks());
        assert_eq!(out.metrics.len(), 3, "one cell per shard count");
        assert_eq!(
            out.checks.len(),
            2,
            "shards 2 and 4 against the 1-shard run"
        );
        let cells: Vec<(u64, u64)> = (out.metrics.iter())
            .map(|r| {
                (
                    r.set.counter(Counter::EngineEvents),
                    r.set.counter(Counter::EngineEpochs),
                )
            })
            .collect();
        assert!(cells.iter().all(|&(events, _)| events > 0));
        assert_eq!(cells[0].0, cells[1].0);
        assert_eq!(cells[0].1, 0, "one shard has no barrier");
        assert!(cells[1].1 > 0, "sharded runs count barrier rounds");

        // An over-asked base cell is labelled with the shard count the
        // engine clamped it to (the 8 localities).
        let out = scale(&ScaleParams {
            nodes: vec![2000],
            shards: vec![64, 1],
            instance_bits: vec![0],
            horizon: SimDuration::from_secs(5),
            seed: 9,
        });
        assert!(out.all_passed(), "{}", out.render_checks());
        assert!(out.text.contains("(base: 8 shard(s))"), "{}", out.text);
        assert!(!out.text.contains("64 shard"), "{}", out.text);
    }

    #[test]
    #[ignore = "runs multi-thousand-node simulations; use --release -- --ignored"]
    fn scale_sweep_petalup_flattens_directory_load() {
        // The acceptance sweep: instance_bits ∈ {0, 1, 2} under the
        // Zipf website workload, bit-identical across shard counts,
        // with b = 2 flattening max/mean to ≤ 1/3 of the flat ring's.
        let out = scale(&ScaleParams {
            nodes: vec![20_000],
            shards: vec![1, 2, 4],
            instance_bits: vec![0, 1, 2],
            horizon: SimDuration::from_secs(30),
            seed: 42,
        });
        assert!(out.all_passed(), "{}", out.render_checks());
        assert_eq!(out.metrics.len(), 9, "3 bits × 3 shard counts");
        assert!(out
            .metrics
            .iter()
            .any(|r| r.experiment.ends_with("/b2") && r.set.counter(Counter::EngineEvents) > 0));
    }

    /// The two CLI repros: `scale --nodes 100` used to panic in
    /// `FlowerSystem::build` ("locality 0 too small for the D-ring"),
    /// `churn --nodes 0` in `Topology::generate`.
    #[test]
    fn deployment_size_check_rejects_what_build_would_panic_on() {
        let scale_100 = ScaleParams {
            nodes: vec![100],
            ..ScaleParams::default()
        };
        let err = check_deployment_size("scale", opts(42), &scale_100).unwrap_err();
        assert!(err.starts_with("deployment too small"), "{err}");
        assert!(!err.contains('\n'), "one line: {err}");
        let churn_0 = RunOpts {
            nodes: Some(0),
            ..opts(42)
        };
        let err = check_deployment_size("churn", churn_0, &ScaleParams::default()).unwrap_err();
        assert!(err.starts_with("deployment too small: 0 nodes"), "{err}");
        // One node more than a `NodeId` can number: refused before the
        // topology generator allocates 16 bytes for each of them.
        let scale_2_32 = ScaleParams {
            nodes: vec![1 << 32],
            ..ScaleParams::default()
        };
        let err = check_deployment_size("scale", opts(42), &scale_2_32).unwrap_err();
        assert!(err.starts_with("deployment too large"), "{err}");
        assert!(!err.contains('\n'), "one line: {err}");
        let chaos_2_32 = RunOpts {
            nodes: Some(1 << 32),
            ..opts(42)
        };
        for cmd in ["chaos", "churn"] {
            let err = check_deployment_size(cmd, chaos_2_32, &ScaleParams::default()).unwrap_err();
            assert!(err.starts_with("deployment too large"), "{cmd}: {err}");
        }
        // Enough nodes in total, but the smallest locality cannot host
        // its share of the D-ring: only the generated populations tell.
        let skewed = ScaleParams {
            nodes: vec![80],
            ..ScaleParams::default()
        };
        let err = check_deployment_size("scale", opts(42), &skewed).unwrap_err();
        assert!(err.contains("locality"), "{err}");
        // An instance-bits value the key scheme cannot represent is a
        // message too, not the `validate().expect()` panic.
        let wide = RunOpts {
            instance_bits: 60,
            ..opts(42)
        };
        assert!(check_deployment_size("fig5", wide, &ScaleParams::default()).is_err());
        // What the experiments run by default fits.
        let scale_2000 = ScaleParams {
            nodes: vec![2000],
            instance_bits: vec![0, 2],
            ..ScaleParams::default()
        };
        check_deployment_size("scale", opts(42), &scale_2000).unwrap();
        check_deployment_size("chaos", opts(42), &ScaleParams::default()).unwrap();
        check_deployment_size("churn", opts(42), &ScaleParams::default()).unwrap();
    }

    /// `scale --shard-sweep 1,8,16` printed the clamped 8-shard cell
    /// twice and `fig5 --shards 64` announced 64 shards while 6 ran.
    #[test]
    fn more_shards_than_localities_are_refused_not_clamped() {
        let sweep_16 = ScaleParams {
            nodes: vec![2000],
            shards: vec![1, 8, 16],
            ..ScaleParams::default()
        };
        let err = check_deployment_size("scale", opts(42), &sweep_16).unwrap_err();
        assert!(err.starts_with("--shard-sweep 16"), "{err}");
        assert!(err.contains("8 localities"), "{err}");
        assert!(!err.contains('\n'), "one line: {err}");
        let shards_64 = RunOpts {
            shards: 64,
            ..opts(42)
        };
        let err = check_deployment_size("fig5", shards_64, &ScaleParams::default()).unwrap_err();
        assert!(err.starts_with("--shards 64"), "{err}");
        assert!(err.contains("6 localities"), "{err}");
        // `chaos` and `scale` sweep shard counts of their own and read
        // no `--shards` (the parser turns the flag away for them).
        let sweep_8 = ScaleParams {
            nodes: vec![2000],
            ..ScaleParams::default()
        };
        for cmd in ["chaos", "scale"] {
            check_deployment_size(cmd, shards_64, &sweep_8).unwrap();
        }
        // One shard per locality is the most that runs, and it runs.
        let shards_6 = RunOpts {
            shards: 6,
            ..opts(42)
        };
        check_deployment_size("fig5", shards_6, &ScaleParams::default()).unwrap();
    }

    #[test]
    fn exp_output_check_bookkeeping() {
        let mut o = ExpOutput::default();
        o.push_check("a", true);
        assert!(o.all_passed());
        o.push_check("b", false);
        assert!(!o.all_passed());
        let rendered = o.render_checks();
        assert!(rendered.contains("[PASS] a"));
        assert!(rendered.contains("[FAIL] b"));
    }

    /// A synthetic hit-ratio point: mean and count, `sum` derived.
    fn pt(secs: u64, mean: f64, count: u64) -> SeriesPoint {
        SeriesPoint {
            at: SimTime::from_secs(secs),
            sum: mean * count as f64,
            count,
        }
    }

    #[test]
    fn availability_summarises_a_dip_and_recovery() {
        let w = SimDuration::from_secs(10);
        let points = vec![
            pt(0, 0.2, 10), // warm-up: before settle, ignored
            pt(10, 0.9, 10),
            pt(20, 0.9, 30),  // pre-fault: count-weighted mean 0.9
            pt(30, 0.5, 10),  // fault
            pt(40, 0.3, 10),  // fault: the dip floor
            pt(50, 0.7, 10),  // post-heal, not yet recovered
            pt(60, 0.88, 10), // recovered (≥ 0.95 × 0.9 = 0.855)
            pt(70, 0.9, 10),
        ];
        let a = availability(
            &points,
            w,
            SimTime::from_secs(10),
            SimTime::from_secs(30),
            SimTime::from_secs(50),
        );
        assert!((a.pre_hit - 0.9).abs() < 1e-12);
        assert!((a.min_fault_hit - 0.3).abs() < 1e-12);
        assert!((a.dip_depth - 0.6).abs() < 1e-12);
        // The recovery window [60 s, 70 s) ends 20 s after the heal.
        assert_eq!(a.recovery_s, Some(20.0));
        assert!((a.recovered_hit - 0.89).abs() < 1e-12);
    }

    #[test]
    fn availability_reports_no_recovery_and_no_dip_evidence() {
        let w = SimDuration::from_secs(10);
        // The only bucket overlapping the fault window is empty, and
        // the post-heal ratio never gets back within 5% of pre-fault.
        let points = vec![pt(0, 0.8, 10), pt(10, 0.0, 0), pt(20, 0.5, 10)];
        let a = availability(
            &points,
            w,
            SimTime::ZERO,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        assert!((a.pre_hit - 0.8).abs() < 1e-12);
        assert!((a.min_fault_hit - 0.8).abs() < 1e-12, "no dip evidence");
        assert!(a.dip_depth.abs() < 1e-12);
        assert_eq!(a.recovery_s, None);
        assert!(a.recovered_hit.abs() < 1e-12);
    }

    #[test]
    fn chaos_partition_plane_spares_the_origin_localities() {
        let (start, heal) = CHAOS_FAULT_WINDOW;
        let plane = chaos_partition_plane(start, heal);
        let mid = SimTime::from_secs((start.as_secs() + heal.as_secs()) / 2);
        // 6 victims pairwise severed: C(6,2) = 15 cuts, all healed.
        assert!(plane.cuts(mid, Locality(0), Locality(3)));
        assert!(plane.cuts(mid, Locality(6), Locality(7)));
        assert!(!plane.cuts(heal, Locality(0), Locality(3)));
        // Origin-server localities 1 and 2 stay reachable throughout.
        for l in [0u16, 3, 4, 5, 6, 7] {
            assert!(!plane.cuts(mid, Locality(1), Locality(l)));
            assert!(!plane.cuts(mid, Locality(2), Locality(l)));
        }
    }

    #[test]
    #[ignore = "runs multi-thousand-node simulations; use --release -- --ignored"]
    fn chaos_cells_pass_their_checks() {
        let out = chaos(RunOpts::new().seed(42));
        assert!(out.all_passed(), "{}", out.render_checks());
    }
}
