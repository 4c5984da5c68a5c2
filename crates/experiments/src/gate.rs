//! The metrics gate: the invariants every run's registry snapshot must
//! satisfy, and the per-subsystem attribution table for the CI step
//! summary. Both read the in-memory [`MetricsRecord`]s the command is
//! about to write as `METRICS.json` — the registry is checked where it
//! lives, by cell, not read back from its own serialisation.

use std::fmt::Write as _;

use metrics::{Counter, Gauge, Hist, MetricSet, Subsystem};
use simnet::engine::{BOUNCE_COUNTER, DROP_COUNTER, RECV_COUNTER, SENT_COUNTER};
use simnet::TrafficClass;

use crate::report::MetricsRecord;

/// Sum of a subsystem's counters.
fn subsystem_work(set: &MetricSet, subsystem: Subsystem) -> u64 {
    Counter::ALL
        .iter()
        .filter(|c| c.def().subsystem == subsystem)
        .map(|c| set.counter(*c))
        .sum()
}

/// The invariants every healthy set of records satisfies.
///
/// 1. At least one record, each with engine activity
///    (`engine_events_total > 0`).
/// 2. Per record: timer events and per-class deliveries never exceed
///    total events; Algorithm 3 decisions never exceed Algorithm 3
///    invocations; per traffic class, deliveries + bounces + drops
///    never exceed sends (`≤`: messages in flight at the horizon were
///    sent but never resolved) and the per-class bounces sum to
///    `engine_bounced_sends` exactly; every initiated gossip exchange
///    took a Bloom snapshot; every query timeout either retried or
///    degraded to the origin (`dir_query_timeouts == dir_query_retries
///    + dir_query_degraded_origin`); a petal merges only after it
///    split (`dir_petal_merges <= dir_petal_splits`).
/// 3. Coverage: some record reports directory work and some record
///    gossip/Bloom work.
/// 4. Sim-scope determinism: records sharing a `sim_key` (the same
///    simulation under different shard counts) have equal
///    [`MetricSet::sim_fingerprint`]s.
pub fn validate_metrics(records: &[MetricsRecord]) -> Result<(), String> {
    if records.is_empty() {
        return Err("metrics: document has no records".into());
    }
    for r in records {
        let who = &r.experiment;
        let c = |counter| r.set.counter(counter);
        let events = c(Counter::EngineEvents);
        if events == 0 {
            return Err(format!("metrics {who}: engine_events_total is 0"));
        }
        let timers = c(Counter::EngineTimers);
        if timers > events {
            return Err(format!(
                "metrics {who}: timer events {timers} exceed total events {events}"
            ));
        }
        let recv: u64 = RECV_COUNTER.iter().map(|k| c(*k)).sum();
        if recv > events {
            return Err(format!(
                "metrics {who}: class deliveries {recv} exceed total events {events}"
            ));
        }
        let process = c(Counter::DirProcess);
        let decisions =
            c(Counter::DirToHolder) + c(Counter::DirToDirectory) + c(Counter::DirToServer);
        if decisions > process {
            return Err(format!(
                "metrics {who}: {decisions} Algorithm 3 decisions from only \
                 {process} invocations"
            ));
        }
        for i in TrafficClass::ALL.map(TrafficClass::index) {
            let (sent, recv) = (c(SENT_COUNTER[i]), c(RECV_COUNTER[i]));
            let (dropped, bounced) = (c(DROP_COUNTER[i]), c(BOUNCE_COUNTER[i]));
            if recv + bounced + dropped > sent {
                let class = &SENT_COUNTER[i].def().name["engine_sent_".len()..];
                return Err(format!(
                    "metrics {who}: {class} ledger broken — {recv} delivered + \
                     {bounced} bounced + {dropped} dropped from {sent} sends"
                ));
            }
        }
        let split: u64 = BOUNCE_COUNTER.iter().map(|k| c(*k)).sum();
        let total = c(Counter::EngineBounces);
        if split != total {
            return Err(format!(
                "metrics {who}: per-class bounces sum to {split} but \
                 engine_bounced_sends says {total}"
            ));
        }
        let exchanges = c(Counter::GossipExchanges);
        let snapshots = c(Counter::BloomCowClones) + c(Counter::BloomRebuilds);
        if snapshots < exchanges {
            return Err(format!(
                "metrics {who}: {exchanges} gossip exchanges but only {snapshots} Bloom \
                 snapshots"
            ));
        }
        let timeouts = c(Counter::DirQueryTimeouts);
        let (retries, degraded) = (
            c(Counter::DirQueryRetries),
            c(Counter::DirQueryOriginFallbacks),
        );
        if timeouts != retries + degraded {
            return Err(format!(
                "metrics {who}: {timeouts} query timeouts but {retries} retries + \
                 {degraded} degraded to the origin"
            ));
        }
        let (splits, merges) = (c(Counter::DirPetalSplits), c(Counter::DirPetalMerges));
        if merges > splits {
            return Err(format!(
                "metrics {who}: {merges} petal merges from only {splits} splits"
            ));
        }
    }
    let work = |s| {
        records
            .iter()
            .map(|r| subsystem_work(&r.set, s))
            .sum::<u64>()
    };
    if work(Subsystem::Directory) == 0 {
        return Err("metrics: no record reports directory work".into());
    }
    if work(Subsystem::Gossip) == 0 {
        return Err("metrics: no record reports gossip/Bloom work".into());
    }
    for (i, a) in records.iter().enumerate() {
        for b in &records[i + 1..] {
            if a.sim_key == b.sim_key && a.set.sim_fingerprint() != b.set.sim_fingerprint() {
                return Err(format!(
                    "metrics: sim-scope cells differ between {:?} ({} shards) and \
                     {:?} ({} shards) despite shared sim key {:?}",
                    a.experiment, a.shards, b.experiment, b.shards, a.sim_key
                ));
            }
        }
    }
    Ok(())
}

/// Render the per-subsystem attribution table of the *headline*
/// record (the one with the most engine events — the biggest cell of
/// the sweep) as GitHub-flavoured markdown for the CI step summary.
pub fn metrics_markdown(host: &str, records: &[MetricsRecord]) -> String {
    let mut out = String::new();
    let Some(headline) = records
        .iter()
        .max_by_key(|r| r.set.counter(Counter::EngineEvents))
    else {
        let _ = writeln!(out, "### Metrics attribution\n\nNo records.");
        return out;
    };
    let _ = writeln!(
        out,
        "### Metrics attribution — `{}` ({} shard(s); {} record(s) in document)\n",
        headline.experiment,
        headline.shards,
        records.len()
    );
    let _ = writeln!(out, "| subsystem | metric | value | unit |");
    let _ = writeln!(out, "|---|---|---|---|");
    let set = &headline.set;
    for subsystem in [Subsystem::Engine, Subsystem::Directory, Subsystem::Gossip] {
        let counters = Counter::ALL.iter().map(|c| (c.def(), set.counter(*c)));
        let gauges = Gauge::ALL.iter().map(|g| (g.def(), set.gauge(*g)));
        for (def, value) in counters
            .chain(gauges)
            .filter(|(def, value)| def.subsystem == subsystem && *value > 0)
        {
            let _ = writeln!(
                out,
                "| {} | `{}` | {} | {} |",
                subsystem.name(),
                def.name,
                value,
                def.unit
            );
        }
        for h in Hist::ALL {
            let (def, hist) = (h.def(), set.hist(*h));
            if def.subsystem == subsystem && hist.count() > 0 {
                let _ = writeln!(
                    out,
                    "| {} | `{}` | n={}, mean={:.1} | {} |",
                    subsystem.name(),
                    def.name,
                    hist.count(),
                    hist.sum() as f64 / hist.count() as f64,
                    def.unit
                );
            }
        }
    }
    let _ = writeln!(out, "\nZero-valued cells omitted; host `{host}`.");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_set(scale: u64) -> MetricSet {
        let mut s = MetricSet::new();
        s.add(Counter::EngineEvents, 1000 * scale);
        s.add(Counter::EngineTimers, 100 * scale);
        // A consistent gossip ledger: every delivery was sent first.
        s.add(Counter::SentGossip, 10 * scale);
        s.add(Counter::RecvGossip, 10 * scale);
        s.add(Counter::DirProcess, 50 * scale);
        s.add(Counter::DirToHolder, 40 * scale);
        s.add(Counter::GossipExchanges, 10 * scale);
        s.add(Counter::BloomCowClones, 8 * scale);
        s.add(Counter::BloomRebuilds, 2 * scale);
        // Exec-scope cells legitimately differ between variants.
        s.add(Counter::EngineEpochs, 7 * scale);
        s.gauge_max(Gauge::PeakQueueDepth, 1234 * scale);
        for i in 0..scale {
            s.record(Hist::GossipPayloadBytes, 100 + i);
        }
        s
    }

    fn record(experiment: &str, shards: usize, set: MetricSet) -> MetricsRecord {
        MetricsRecord {
            experiment: experiment.into(),
            sim_key: experiment.into(),
            shards,
            set,
        }
    }

    /// The gate's verdict on one record: the healthy fixture plus
    /// `adds`.
    fn verdict(adds: &[(Counter, u64)]) -> Result<(), String> {
        let mut set = metrics_set(1);
        for &(counter, n) in adds {
            set.add(counter, n);
        }
        validate_metrics(&[record("x", 1, set)])
    }

    #[test]
    fn healthy_records_validate_and_render() {
        // Two execution variants of one simulation (same sim cells,
        // different exec cells) plus an unrelated bigger cell.
        let records = [
            record("scale/10000n", 1, metrics_set(1)),
            record("scale/10000n", 4, {
                let mut s = metrics_set(1);
                s.add(Counter::EngineEpochs, 500);
                s.gauge_max(Gauge::PeakQueueDepth, 999_999);
                s
            }),
            record("scale/50000n", 2, metrics_set(5)),
        ];
        validate_metrics(&records).unwrap();
        let md = metrics_markdown("test-host", &records);
        // The headline is the biggest cell.
        assert!(
            md.contains("`scale/50000n` (2 shard(s); 3 record(s)"),
            "{md}"
        );
        assert!(md.contains("| engine | `engine_events_total` | 5000 | events |"));
        assert!(md.contains("| engine | `engine_peak_queue_depth` | 6170 | events |"));
        assert!(md.contains("| directory | `dir_process_calls` | 250 | queries |"));
        assert!(md.contains("| gossip | `gossip_payload_bytes` | n=5, mean=102.0 | bytes |"));
        assert!(md.contains("host `test-host`"), "{md}");
        // Zero-valued cells are omitted.
        assert!(!md.contains("dir_petal_splits"), "{md}");
    }

    #[test]
    fn metrics_validation_catches_inconsistencies() {
        // An empty document decides nothing.
        assert!(validate_metrics(&[]).unwrap_err().contains("no records"));
        // A run with no engine activity.
        assert!(validate_metrics(&[record("x", 1, MetricSet::new())])
            .unwrap_err()
            .contains("engine_events_total is 0"));
        // Sim-scope divergence under a shared sim key.
        let mut diverged = metrics_set(1);
        diverged.incr(Counter::DirProcess);
        let err = validate_metrics(&[
            record("x", 1, metrics_set(1)),
            record("x", 2, diverged.clone()),
        ])
        .unwrap_err();
        assert!(err.contains("sim-scope cells differ"), "{err}");
        // The same divergence under *different* sim keys is fine —
        // different simulations are allowed to differ.
        validate_metrics(&[record("x", 1, metrics_set(1)), record("y", 2, diverged)]).unwrap();
    }

    #[test]
    fn metrics_validation_enforces_the_message_ledger() {
        use Counter::*;
        // A consistent ledger passes: 20 sent, 10 delivered (from the
        // fixture), 3 bounced, 2 dropped, 5 still in flight.
        let in_flight = [
            (SentGossip, 10),
            (BounceGossip, 3),
            (DropGossip, 2),
            (EngineBounces, 3),
        ];
        verdict(&in_flight).unwrap();
        // More deliveries + bounces + drops than sends fails…
        let err = verdict(&in_flight[1..]).unwrap_err();
        assert!(err.contains("ledger broken"), "{err}");
        // …and the per-class bounce split must sum back exactly to
        // the engine's bounced-sends total.
        let err = verdict(&[(SentGossip, 10), (BounceGossip, 3), (EngineBounces, 5)]).unwrap_err();
        assert!(err.contains("bounces sum to"), "{err}");
    }

    #[test]
    fn metrics_validation_balances_the_protocol_counters() {
        use Counter::*;
        // Every timeout either retried or degraded to the origin.
        let timeouts = [
            (DirQueryTimeouts, 7),
            (DirQueryRetries, 5),
            (DirQueryOriginFallbacks, 2),
        ];
        verdict(&timeouts).unwrap();
        let err = verdict(&timeouts[..2]).unwrap_err();
        assert!(err.contains("7 query timeouts but 5 retries + 0"), "{err}");
        // A petal merges only after it split.
        verdict(&[(DirPetalSplits, 2), (DirPetalMerges, 2)]).unwrap();
        let err = verdict(&[(DirPetalSplits, 1), (DirPetalMerges, 2)]).unwrap_err();
        assert!(err.contains("2 petal merges from only 1 splits"), "{err}");
    }
}
