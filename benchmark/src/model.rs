//! The outside-in cost model: probe ns per call × exact registry count
//! ÷ run time = each layer's predicted share of the run. What the
//! isolated probes cannot see — `core::node` glue, cache misses on the
//! real working set, barrier waits — is the residual, reported rather
//! than hidden.
//!
//! A layer that calls another is charged its self time only: the
//! callee's probe, times the calls the caller's probe makes, is taken
//! out, so no nanosecond is counted twice.

use flower_benchmark::cell::Cell;
use flower_benchmark::endtoend::CLASSES;
use flower_core::SystemConfig;

use crate::probes::Probe;

/// One line of the model: a layer's predicted host seconds.
pub struct Term {
    /// The layer, as in `model.share.<layer>`.
    pub layer: &'static str,
    /// How the prediction was formed, for the printed table.
    pub formula: String,
    /// Predicted host seconds, summed over shards.
    pub secs: f64,
}

/// Build the model of `cell` (run under `cfg`) from `probes`.
pub fn terms(cfg: &SystemConfig, cell: &Cell, probes: &[Probe]) -> Vec<Term> {
    let ns = |name: &str| {
        probes
            .iter()
            .find(|p| p.0 == name)
            .unwrap_or_else(|| panic!("no probe {name:?}"))
            .1
    };
    let n = |name: &str| cell.counter(name) as f64;

    let events = n("engine_events_total");
    let sends: f64 = CLASSES.iter().map(|c| n(&format!("engine_sent_{c}"))).sum();
    let resolved = cell.sim.resolved as f64;
    let builds = 2.0 * n("gossip_exchanges");
    let absorbs = n("engine_recv_gossip");
    let cow = n("bloom_snapshot_cow_clones");
    let rebuilds = n("bloom_snapshot_rebuilds");
    let admits = n("engine_recv_transfer");
    // Every routed hop runs one `local_lookup`; maintenance replies
    // (stabilize, notify) route nothing.
    let hops = n("engine_recv_dht_routing");
    // Queries answered on the content-peer path: everything that did
    // not enter Algorithm 3 as a fresh query.
    let first_hand = n("dir_process_calls") - n("dir_decision_to_directory");
    let member_queries = (cell.sim.submitted as f64 - first_hand).max(0.0);
    let view = cfg.flower.v_gossip as f64;
    let directories = (cfg.catalog.num_websites * cfg.topology.localities) as f64;
    let dir_ticks =
        directories * cell.horizon_ms as f64 / cfg.flower.keepalive_period.as_ms() as f64;

    let hold = ns("simnet.event.hold_ns");
    let latency = ns("simnet.topology.latency_ns");
    let ledger = ns("simnet.stats.traffic_record_ns");
    let incr = ns("metrics.incr_ns");
    // A ping event pops and pushes once, looks one latency up, writes
    // one ledger pair and three registry cells; the rest is dispatch.
    // All five are thread-nanoseconds per event.
    let dispatch =
        (ns("simnet.engine.empty_dispatch_ns") - hold - latency - ledger - 3.0 * incr).max(0.0);

    let select = ns("gossip.select_ns");
    let merge = ns("gossip.merge_ns");
    let cached = ns("bloom.snapshot_cached_ns");
    let contains = ns("bloom.contains_ns");
    let build_self = (ns("core.content.build_gossip_ns") - select - cached).max(0.0);
    let absorb_self = (ns("core.content.absorb_gossip_ns") - merge).max(0.0);
    let scan_self = (ns("core.content.summary_candidates_ns") - view * contains).max(0.0);

    let term = |layer, formula: String, ns_total: f64| Term {
        layer,
        formula,
        secs: ns_total / 1e9,
    };
    vec![
        term(
            "event",
            format!("hold {hold:.0} ns × {events:.0} events"),
            hold * events,
        ),
        term(
            "engine",
            format!("dispatch self {dispatch:.0} ns × {events:.0} events"),
            dispatch * events,
        ),
        term(
            "topology",
            format!("latency {latency:.0} ns × {sends:.0} sends"),
            latency * sends,
        ),
        term(
            "stats",
            format!(
                "ledger {ledger:.0} ns × {sends:.0} sends + fold {:.0} ns × {resolved:.0} queries",
                ns("simnet.stats.query_fold_ns")
            ),
            ledger * sends + ns("simnet.stats.query_fold_ns") * resolved,
        ),
        term(
            "metrics",
            format!("incr {incr:.1} ns × ({sends:.0} sends + 2 × {events:.0} events)"),
            incr * (sends + 2.0 * events),
        ),
        term(
            "bloom",
            format!(
                "cached {cached:.0} ns × {cow:.0} + dirty {:.0} ns × {rebuilds:.0} + maintain {:.0} ns × {admits:.0} + contains {contains:.0} ns × {view:.0} × {member_queries:.0}",
                ns("bloom.snapshot_dirty_ns"),
                ns("bloom.maintain_ns")
            ),
            cached * cow
                + ns("bloom.snapshot_dirty_ns") * rebuilds
                + ns("bloom.maintain_ns") * admits
                + contains * view * member_queries,
        ),
        term(
            "gossip",
            format!("select {select:.0} ns × {builds:.0} + merge {merge:.0} ns × {absorbs:.0}"),
            select * builds + merge * absorbs,
        ),
        term(
            "chord",
            format!("next hop {:.0} ns × {hops:.0} routed hops", ns("chord.next_hop_ns")),
            ns("chord.next_hop_ns") * hops,
        ),
        term(
            "directory",
            format!(
                "process {:.0} ns × {:.0} + view seed {:.0} ns × {:.0} + push {:.0} ns × {:.0} + tick {:.0} ns × {dir_ticks:.0}",
                ns("core.directory.process_ns"),
                n("dir_process_calls"),
                ns("core.directory.view_seed_ns"),
                n("dir_view_seed_calls"),
                ns("core.directory.apply_push_ns"),
                n("engine_recv_push"),
                ns("core.directory.tick_ns"),
            ),
            ns("core.directory.process_ns") * n("dir_process_calls")
                + ns("core.directory.view_seed_ns") * n("dir_view_seed_calls")
                + ns("core.directory.apply_push_ns") * n("engine_recv_push")
                + ns("core.directory.tick_ns") * dir_ticks,
        ),
        term(
            "content",
            format!(
                "build self {build_self:.0} ns × {builds:.0} + absorb self {absorb_self:.0} ns × {absorbs:.0} + scan self {scan_self:.0} ns × {member_queries:.0}"
            ),
            build_self * builds + absorb_self * absorbs + scan_self * member_queries,
        ),
        term(
            "sync",
            format!(
                "round {:.0} ns × {:.0} epochs × {} shards",
                ns("simnet.sync.exchange_round_ns"),
                n("engine_epochs"),
                cfg.shards
            ),
            // Every shard thread runs every round.
            ns("simnet.sync.exchange_round_ns") * n("engine_epochs") * cfg.shards as f64,
        ),
    ]
}
