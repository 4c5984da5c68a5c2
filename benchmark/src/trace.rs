//! `flower-bench-trace`: the per-layer half of the benchmark.
//!
//! One traced run of a workload — [`TRACE_SLICES`] spans of
//! `run_until`, registry counts read at every span boundary — then the
//! isolated probes at that run's operating point, then the cost model.
//! Everything is recorded from outside, around the calls into each
//! layer; spans inside the program are a later change.

mod model;
mod probes;

use std::process::ExitCode;

use flower_benchmark::cell::Cell;
use flower_benchmark::child::run_cell;
use flower_benchmark::cli::Args;
use flower_benchmark::endtoend;
use flower_benchmark::output::{result_line, Reported};
use flower_benchmark::stats::median;
use flower_benchmark::workloads::Workload;
use metrics::{Counter, Hist};

use probes::OperatingPoint;

/// Spans the traced run is cut into.
const TRACE_SLICES: usize = 64;

fn main() -> ExitCode {
    match trace(&Args::from_env(1)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("flower-bench-trace: {e}");
            ExitCode::from(2)
        }
    }
}

/// Delivery classes the span table splits events into, with the
/// registry counters behind each.
const SPAN_CLASSES: [(&str, &[&str]); 3] = [
    (
        "background",
        &[
            "engine_recv_gossip",
            "engine_recv_keepalive",
            "engine_recv_push",
        ],
    ),
    (
        "dht",
        &["engine_recv_dht_routing", "engine_recv_dht_maintenance"],
    ),
    (
        "query",
        &["engine_recv_query_control", "engine_recv_transfer"],
    ),
];

/// What the boundary hook reads off the live system.
#[derive(Default)]
struct Observed {
    /// Cumulative deliveries per [`SPAN_CLASSES`] entry at each span end.
    class_counts: Vec<[u64; 3]>,
    participants: usize,
    gossip_payload_bytes_mean: f64,
}

fn trace(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = args.number("--seed", 42u64)?;
    let cfg = workload.config(seed);

    // The traced run, in this process. Reading the merged registry at
    // every boundary is the tracing cost `trace.overhead_frac` states.
    let payload_hist = Hist::ALL
        .iter()
        .copied()
        .find(|h| h.def().name == "gossip_payload_bytes")
        .ok_or("registry has no histogram gossip_payload_bytes")?;
    let class_cells = SPAN_CLASSES.map(|(_, names)| -> Vec<Counter> {
        Counter::ALL
            .iter()
            .copied()
            .filter(|c| names.contains(&c.def().name))
            .collect()
    });
    let mut seen = Observed::default();
    let traced = Cell::run(workload, seed, TRACE_SLICES, |sys| {
        let registry = sys.engine().metrics();
        seen.class_counts.push(
            class_cells
                .each_ref()
                .map(|cells| cells.iter().map(|c| registry.counter(*c)).sum()),
        );
        if seen.class_counts.len() == TRACE_SLICES {
            seen.participants = sys.participants().len();
            seen.gossip_payload_bytes_mean = registry.hist(payload_hist).mean();
        }
    });

    // The same cell untraced, as the end-to-end runs measure it, and on
    // one shard where the workload itself is sharded.
    let untraced = run_cell(workload, seed)?;
    let one_shard = match workload.parity_reference() {
        Some(reference) => Some(run_cell(reference, seed)?),
        None => None,
    };
    let mut failures = endtoend::check(workload, std::slice::from_ref(&traced), one_shard.as_ref());
    if traced.sim_fingerprint != untraced.sim_fingerprint {
        failures.push(format!("{name}: tracing changed the simulation"));
    }

    let petals = (cfg.catalog.active_websites * cfg.topology.localities).max(1);
    let at = OperatingPoint {
        peak_queue_depth: traced.peak_queue_depth as usize,
        petal_size: (seen.participants / petals).max(1),
        objects_per_peer: (traced.sim.resolved as usize / seen.participants.max(1)).max(1),
        cfg,
    };
    let probes = probes::all(&at);

    let mut out: Vec<Reported> = Vec::new();
    counts(&traced, &seen, &mut out);
    spans(&traced, &untraced, &mut out);
    for (name, value, unit) in &probes {
        out.push((name.to_string(), *value, unit));
    }
    let attempted = 2 + one_shard.iter().len();
    let speedup = one_shard.map_or(1.0, |one| run_ref_s(&one) / run_ref_s(&untraced));
    out.push(("sync.speedup_vs_1shard".into(), speedup, "ratio"));

    // The model, against the untraced run: shares of the host time all
    // shard threads spent, so they are comparable across layouts.
    let thread_s = untraced.run_wall_s() * at.cfg.shards as f64;
    let terms = model::terms(&at.cfg, &traced, &probes);
    println!("\n== {name}: cost model against {thread_s:.3} thread-seconds of run");
    let mut explained = 0.0;
    for t in &terms {
        let share = t.secs / thread_s;
        explained += share;
        if share < 0.0 {
            failures.push(format!("{name}: model.share.{} is negative", t.layer));
        }
        println!(
            "{:<10} {:>7.4} s  share {:>6.3}   {}",
            t.layer, t.secs, share, t.formula
        );
        out.push((format!("model.share.{}", t.layer), share, "fraction"));
    }
    println!(
        "{:<10} {:>7} {:>6}  share {:>6.3}",
        "residual",
        "",
        "",
        1.0 - explained
    );
    out.push(("model.residual_share".into(), 1.0 - explained, "fraction"));
    if !(0.0..=1.0).contains(&explained) {
        failures.push(format!(
            "{name}: the model explains {explained:.3} of the run; a share counts time twice"
        ));
    }

    print_spans(name, &traced, &seen);
    print_drain_tail(name, &traced, at.cfg.workload.duration_ms);
    println!("\n== {name}: per-layer metrics (traced run, seed {seed})");
    for (metric, value, unit) in &out {
        println!("{metric:<38} {value:>16.6} {unit}");
    }
    for f in &failures {
        println!("CHECK FAILED {f}");
    }
    println!(
        "{}",
        result_line(attempted, failures.len().min(attempted), &out)?
    );
    Ok(failures.is_empty())
}

/// Exact counts from the registry after the run: the multipliers of
/// the cost model.
fn counts(cell: &Cell, seen: &Observed, out: &mut Vec<Reported>) {
    let n = |name: &str| cell.counter(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    for (metric, counter) in [
        ("engine.events", "engine_events_total"),
        ("engine.timer_events", "engine_timer_events"),
        ("engine.recv_gossip", "engine_recv_gossip"),
        ("engine.recv_push", "engine_recv_push"),
        ("engine.recv_keepalive", "engine_recv_keepalive"),
        ("engine.recv_dht_routing", "engine_recv_dht_routing"),
        ("engine.recv_dht_maintenance", "engine_recv_dht_maintenance"),
        ("engine.recv_query_control", "engine_recv_query_control"),
        ("engine.recv_transfer", "engine_recv_transfer"),
        ("engine.bounced_sends", "engine_bounced_sends"),
        ("engine.fault_dropped", "engine_fault_dropped"),
        ("engine.epochs", "engine_epochs"),
        ("directory.process_calls", "dir_process_calls"),
        ("directory.to_holder", "dir_decision_to_holder"),
        ("directory.to_directory", "dir_decision_to_directory"),
        ("directory.to_server", "dir_decision_to_server"),
        ("directory.view_seed_calls", "dir_view_seed_calls"),
        ("directory.query_timeouts", "dir_query_timeouts"),
        ("directory.query_retries", "dir_query_retries"),
        ("gossip.exchanges", "gossip_exchanges"),
        ("bloom.snapshot_cow_clones", "bloom_snapshot_cow_clones"),
        ("bloom.snapshot_rebuilds", "bloom_snapshot_rebuilds"),
    ] {
        out.push((metric.into(), n(counter), "count"));
    }
    let (cow, rebuilds) = (n("bloom_snapshot_cow_clones"), n("bloom_snapshot_rebuilds"));
    out.extend([
        (
            "engine.peak_queue_depth".into(),
            cell.peak_queue_depth as f64,
            "count",
        ),
        (
            "engine.barrier_idle_s".into(),
            n("engine_barrier_idle_ns") / 1e9,
            "s",
        ),
        (
            "directory.holder_frac".into(),
            ratio(n("dir_decision_to_holder"), n("dir_process_calls")),
            "fraction",
        ),
        (
            "gossip.payload_bytes_mean".into(),
            seen.gossip_payload_bytes_mean,
            "B",
        ),
        (
            "bloom.snapshot_cached_frac".into(),
            ratio(cow, cow + rebuilds),
            "fraction",
        ),
    ]);
}

/// One cell's run in reference seconds, so that two cells run minutes
/// apart compare although the host changed speed in between.
fn run_ref_s(cell: &Cell) -> f64 {
    endtoend::run_ref_s(std::slice::from_ref(cell))
}

/// Phase spans around the system's public calls.
fn spans(traced: &Cell, untraced: &Cell, out: &mut Vec<Reported>) {
    let per_event = |s: &flower_benchmark::cell::Slice| s.wall_s * 1e9 / s.events.max(1) as f64;
    let wall = traced.run_wall_s();
    let events = traced.events().max(1) as f64;
    let warm = &traced.slices[..TRACE_SLICES / 8];
    let warm_ns = warm.iter().map(|s| s.wall_s).sum::<f64>() * 1e9
        / warm.iter().map(|s| s.events).sum::<u64>().max(1) as f64;
    let steady: Vec<f64> = traced.slices[TRACE_SLICES / 2..]
        .iter()
        .filter(|s| s.events > 0)
        .map(per_event)
        .collect();
    out.extend([
        ("system.build_s".into(), traced.spans.build_s, "s"),
        (
            "system.script_install_s".into(),
            traced.spans.script_install_s,
            "s",
        ),
        ("system.report_s".into(), traced.spans.report_s, "s"),
        ("system.drop_s".into(), traced.spans.drop_s, "s"),
        ("engine.events_per_sec".into(), events / wall, "1/s"),
        ("engine.ns_per_event".into(), wall * 1e9 / events, "ns"),
        ("engine.ns_per_event_warm".into(), warm_ns, "ns"),
        (
            "engine.ns_per_event_steady".into(),
            if steady.is_empty() {
                0.0
            } else {
                median(&steady)
            },
            "ns",
        ),
        (
            "yardstick.host_slowdown".into(),
            traced.host_slowdown(),
            "ratio",
        ),
        (
            "trace.overhead_frac".into(),
            run_ref_s(traced) / run_ref_s(untraced) - 1.0,
            "fraction",
        ),
    ]);
}

/// The recorded spans, written out once the run is over.
fn print_spans(name: &str, traced: &Cell, seen: &Observed) {
    println!("\n== {name}: {TRACE_SLICES} spans of run_until (equal simulated time each)");
    print!(
        "{:>4} {:>9} {:>9} {:>9}",
        "span", "wall_ms", "events", "ns/event"
    );
    for (class, _) in SPAN_CLASSES {
        print!(" {class:>10}");
    }
    println!();
    let mut before = [0u64; 3];
    for (i, (s, counts)) in traced.slices.iter().zip(&seen.class_counts).enumerate() {
        print!(
            "{i:>4} {:>9.2} {:>9} {:>9.0}",
            s.wall_s * 1e3,
            s.events,
            s.wall_s * 1e9 / s.events.max(1) as f64
        );
        for (now, was) in counts.iter().zip(before) {
            print!(" {:>10}", now - was);
        }
        println!();
        before = *counts;
    }
}

/// How much of the run lies after the last query was injected: every
/// run goes on to `drain_horizon`, and on a short trace that tail is a
/// large part of the simulated time.
fn print_drain_tail(name: &str, traced: &Cell, trace_ms: u64) {
    let step_ms = traced.horizon_ms.div_ceil(TRACE_SLICES as u64);
    let first_tail_span = (trace_ms.div_ceil(step_ms) as usize).min(TRACE_SLICES);
    let tail = &traced.slices[first_tail_span..];
    println!(
        "\n== {name}: drain tail (spans {first_tail_span}..{TRACE_SLICES}, no query injected): {:.3} of simulated time, {:.3} of events, {:.3} of run host time",
        tail.len() as f64 / TRACE_SLICES as f64,
        tail.iter().map(|s| s.events).sum::<u64>() as f64 / traced.events().max(1) as f64,
        tail.iter().map(|s| s.wall_s).sum::<f64>() / traced.run_wall_s()
    );
}
