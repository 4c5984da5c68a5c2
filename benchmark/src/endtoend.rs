//! The eleven end-to-end metrics and the output checks, computed from
//! the repetitions of one workload.

use crate::cell::Cell;
use crate::stats::median;
use crate::workloads::Workload;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// Whether a metric is paid by the user of the simulator or produced
/// by the simulated system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host time or host memory; noisy.
    Host,
    /// Simulated; exactly repeatable for a fixed seed.
    Sim,
}

/// Declaration of one end-to-end metric. `BENCHMARK.json` repeats
/// name, unit, direction and bound; `--selfcheck` reads them here.
///
/// A run's seed draws the topology, the communities and the query
/// trace, so simulated metrics differ between seeds (ten seeds spread
/// the latency means by up to 5 %, `paper_5k`'s hit ratio by 3 %)
/// although they repeat exactly for one seed. `bound` is for medians
/// taken across seeds and is sized from the ten-seed spreads tabled in
/// the README (up to 7 % for `transfer_sim_ms_mean`). At one seed the
/// rule is stricter and needs no bound: a change that only speeds the
/// simulator up leaves every simulated metric and the `sim_fingerprint`
/// bit-identical, which is what `--selfcheck` demands of two sets of
/// the same code.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Host or simulated.
    pub kind: Kind,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: [MetricDef; 11] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        kind: Kind::Host,
        bound: 0.25,
    },
    MetricDef {
        name: "run_ref_s",
        unit: "s",
        better: Better::Lower,
        kind: Kind::Host,
        bound: 0.25,
    },
    MetricDef {
        name: "ref_us_per_query",
        unit: "us",
        better: Better::Lower,
        kind: Kind::Host,
        bound: 0.25,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        kind: Kind::Host,
        bound: 0.06,
    },
    MetricDef {
        name: "hit_ratio",
        unit: "fraction",
        better: Better::Higher,
        kind: Kind::Sim,
        bound: 0.12,
    },
    MetricDef {
        name: "lookup_sim_ms_mean",
        unit: "sim-ms",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.15,
    },
    MetricDef {
        name: "transfer_sim_ms_mean",
        unit: "sim-ms",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.15,
    },
    MetricDef {
        name: "local_hit_frac",
        unit: "fraction",
        better: Better::Higher,
        kind: Kind::Sim,
        bound: 0.12,
    },
    MetricDef {
        name: "background_bps_per_peer",
        unit: "bit/s",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.08,
    },
    MetricDef {
        name: "query_success_frac",
        unit: "fraction",
        better: Better::Higher,
        kind: Kind::Sim,
        bound: 0.005,
    },
    MetricDef {
        name: "undegraded_frac",
        unit: "fraction",
        better: Better::Higher,
        kind: Kind::Sim,
        bound: 0.005,
    },
];

/// Unresolved share of submitted queries the faulted workload may
/// reach: queries whose originator the churn script switched off
/// mid-flight never resolve.
const CHAOS_MAX_FAIL_FRAC: f64 = 0.02;

/// Tolerance of the dominant-share check, in share points.
const SHARE_TOLERANCE: f64 = 0.10;

/// Traffic classes of the per-class ledger, as the registry spells
/// them.
pub const CLASSES: [&str; 7] = [
    "gossip",
    "push",
    "keepalive",
    "dht_routing",
    "dht_maintenance",
    "query_control",
    "transfer",
];

/// The run in reference seconds. Every repetition of a seed dispatches
/// the same events in every slice, and each repetition knows from its
/// yardstick how much slower than the reference the host ran meanwhile
/// ([`Cell::host_slowdown`]). So each slice is the median, over the
/// repetitions, of its host seconds ÷ that repetition's slowdown, and
/// the run is the sum of its slices: a burst that hits one repetition's
/// slice is outvoted, and a slow phase that outlasts the invocation is
/// divided out as far as the yardstick feels it.
pub fn run_ref_s(reps: &[Cell]) -> f64 {
    (0..reps[0].slices.len())
        .map(|k| {
            let scaled: Vec<f64> = reps
                .iter()
                .map(|c| c.slices[k].wall_s / c.host_slowdown())
                .collect();
            median(&scaled)
        })
        .sum()
}

/// What each repetition on its own measured for the four host metrics,
/// which lead [`END_TO_END`], times in reference seconds; the tables
/// print their distribution.
pub fn host_samples(reps: &[Cell]) -> [Vec<f64>; 4] {
    let resolved = reps[0].sim.resolved.max(1) as f64;
    let per_rep = |f: &dyn Fn(&Cell) -> f64| reps.iter().map(f).collect();
    [
        per_rep(&|c| c.setup_s() / c.host_slowdown()),
        per_rep(&|c| c.run_wall_s() / c.host_slowdown()),
        per_rep(&|c| c.run_wall_s() / c.host_slowdown() * 1e6 / resolved),
        per_rep(&|c| c.peak_rss_mb),
    ]
}

/// What the clock read, before scaling: per repetition, the host
/// seconds of set-up and run and the slowdown they are divided by.
pub fn raw_samples(reps: &[Cell]) -> [(&'static str, Vec<f64>); 3] {
    let per_rep = |f: &dyn Fn(&Cell) -> f64| reps.iter().map(f).collect();
    [
        ("raw_setup_s", per_rep(&Cell::setup_s)),
        ("raw_run_wall_s", per_rep(&Cell::run_wall_s)),
        ("host_slowdown", per_rep(&Cell::host_slowdown)),
    ]
}

/// The end-to-end metric values of one workload, in [`END_TO_END`]
/// order. Simulated metrics are read off the first repetition; the
/// checks establish that the others agree.
pub fn metrics(reps: &[Cell]) -> Vec<f64> {
    let sim = &reps[0].sim;
    let run = run_ref_s(reps);
    let [setup, _, _, rss] = host_samples(reps);
    let submitted = sim.submitted.max(1) as f64;
    let degraded = reps[0].counter("dir_query_degraded_origin") as f64;
    vec![
        median(&setup),
        run,
        run * 1e6 / sim.resolved.max(1) as f64,
        median(&rss),
        sim.hit_ratio,
        sim.lookup_ms_mean,
        sim.transfer_ms_mean,
        sim.local_hit_frac,
        sim.background_bps,
        sim.resolved as f64 / submitted,
        1.0 - degraded / submitted,
    ]
}

/// Check the outputs of one workload's repetitions (and, where the
/// workload has one, of its shard-parity reference). Returns one line
/// per failed check.
pub fn check(workload: Workload, reps: &[Cell], reference: Option<&Cell>) -> Vec<String> {
    let mut failures = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            failures.push(format!("{}: {what}", workload.name()));
        }
    };
    let first = &reps[0];
    let sim = &first.sim;

    require(sim.submitted > 0, "no query was submitted".into());
    require(
        sim.resolved <= sim.submitted,
        format!("resolved {} > submitted {}", sim.resolved, sim.submitted),
    );
    let fail_frac = 1.0 - sim.resolved as f64 / sim.submitted.max(1) as f64;
    if workload.faulted() {
        require(
            fail_frac < CHAOS_MAX_FAIL_FRAC,
            format!("{fail_frac:.4} of queries unresolved, limit {CHAOS_MAX_FAIL_FRAC}"),
        );
        for counter in ["engine_fault_dropped", "dir_query_timeouts"] {
            require(
                first.counter(counter) > 0,
                format!("{counter} is 0: the script injected nothing"),
            );
        }
    } else {
        require(
            sim.resolved == sim.submitted,
            format!(
                "{} of {} queries unresolved without faults",
                sim.submitted - sim.resolved,
                sim.submitted
            ),
        );
    }

    for class in CLASSES {
        let of = |what: &str| first.counter(&format!("engine_{what}_{class}"));
        let (sent, accounted) = (of("sent"), of("recv") + of("bounce") + of("drop"));
        require(
            accounted <= sent,
            format!("{class}: recv + bounce + drop = {accounted} > sent = {sent}"),
        );
    }

    if let Some(d) = workload.dominant_share() {
        let mut count: u64 = d.counters.iter().map(|c| first.counter(c)).sum();
        if d.plus_submitted {
            count += sim.submitted;
        }
        let share = count as f64 / first.events().max(1) as f64;
        require(
            (share - d.expect).abs() <= SHARE_TOLERANCE,
            format!(
                "{} are {share:.3} of events, expected {:.2} ± {SHARE_TOLERANCE}",
                d.what, d.expect
            ),
        );
    }

    for (i, rep) in reps.iter().enumerate().skip(1) {
        require(
            same_simulation(first, rep),
            format!(
                "repetition {i} diverged: fingerprint {:016x} vs {:016x}",
                rep.sim_fingerprint, first.sim_fingerprint
            ),
        );
        let same_slices = rep.slices.len() == first.slices.len()
            && rep
                .slices
                .iter()
                .zip(&first.slices)
                .all(|(a, b)| a.events == b.events);
        require(
            same_slices,
            format!("repetition {i} sliced the run differently"),
        );
    }
    if let Some(reference) = reference {
        require(
            same_simulation(first, reference),
            format!(
                "shard-parity reference diverged: fingerprint {:016x} vs {:016x}",
                reference.sim_fingerprint, first.sim_fingerprint
            ),
        );
    }
    failures
}

/// Whether two cells simulated the same thing: equal fingerprint and
/// equal reported statistics.
fn same_simulation(a: &Cell, b: &Cell) -> bool {
    a.sim_fingerprint == b.sim_fingerprint && a.sim == b.sim
}
