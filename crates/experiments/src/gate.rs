//! The `METRICS.json` gate: schema-v1 parsing, the metrics-smoke
//! validation (non-empty registry, counter cross-invariants,
//! histogram count/sum consistency, sim-scope equality across
//! execution variants) and the per-subsystem attribution table
//! rendered into the CI step summary.
//!
//! The parser is a hand-rolled JSON tree reader for the document shape
//! [`crate::report::metrics_json`] emits (the build environment has no
//! serde): objects, arrays, strings, numbers and `null`.

use std::fmt::Write as _;

/// A JSON tree.
#[derive(Debug, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    Null,
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str_field(&self, key: &str, what: &str) -> Result<String, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(format!("{what}: missing string field {key:?}")),
        }
    }

    fn u64_field(&self, key: &str, what: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!(
                "{what}: field {key:?} must be a non-negative integer"
            )),
        }
    }

    fn arr_field<'a>(&'a self, key: &str, what: &str) -> Result<&'a [Json], String> {
        match self.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("{what}: missing array field {key:?}")),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("metrics json: {what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.s.get(self.i) else {
                return Err(self.err("unterminated string"));
            };
            self.i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err(self.err("dangling escape"));
                    };
                    self.i += 1;
                    out.push(match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'n' => '\n',
                        b't' => '\t',
                        other => return Err(self.err(&format!("escape \\{}", other as char))),
                    });
                }
                other => out.push(other as char),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.ws();
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| self.err("bad number"))
    }

    fn json(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.expect(b'{')?;
                let mut fields = Vec::new();
                if self.eat(b'}') {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.json()?));
                    if self.eat(b'}') {
                        return Ok(Json::Obj(fields));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'[') => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.json()?);
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => {
                if self.s[self.i..].starts_with(b"null") {
                    self.i += 4;
                    Ok(Json::Null)
                } else {
                    Err(self.err("expected null"))
                }
            }
            Some(_) => Ok(Json::Num(self.number()?)),
            None => Err(self.err("unexpected end")),
        }
    }
}

// ---------------------------------------------------------------- //
// METRICS.json: parsing, validation, attribution table             //
// ---------------------------------------------------------------- //

/// One counter or gauge snapshot from a `METRICS.json` record.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricPoint {
    /// Registered metric name (`engine_events_total`, …).
    pub name: String,
    /// Owning subsystem (`engine` / `directory` / `gossip`).
    pub subsystem: String,
    /// Determinism scope (`sim` / `exec`).
    pub scope: String,
    /// Unit of the value.
    pub unit: String,
    /// The snapshot value.
    pub value: u64,
}

/// One histogram snapshot from a `METRICS.json` record.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricHistPoint {
    /// Registered metric name.
    pub name: String,
    /// Owning subsystem.
    pub subsystem: String,
    /// Determinism scope.
    pub scope: String,
    /// Unit of the recorded values.
    pub unit: String,
    /// Exact number of recorded values.
    pub count: u64,
    /// Exact (saturating) sum of recorded values.
    pub sum: u64,
    /// Non-empty `(bucket index, count)` pairs, ascending.
    pub buckets: Vec<(usize, u64)>,
}

/// One run's worth of registry snapshots in a `METRICS.json`.
#[derive(Clone, Debug)]
pub struct MetricsRecordDoc {
    /// The experiment / sweep cell.
    pub experiment: String,
    /// Simulation-identity key: records sharing it must agree on
    /// every `sim`-scope cell (see [`validate_metrics`]).
    pub sim_key: String,
    /// Engine shards the run executed on.
    pub shards: usize,
    /// Counter snapshots.
    pub counters: Vec<MetricPoint>,
    /// Gauge snapshots.
    pub gauges: Vec<MetricPoint>,
    /// Histogram snapshots.
    pub hists: Vec<MetricHistPoint>,
}

impl MetricsRecordDoc {
    /// Value of a named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Sum of the counters a predicate selects.
    fn counter_sum(&self, pred: impl Fn(&MetricPoint) -> bool) -> u64 {
        self.counters
            .iter()
            .filter(|c| pred(c))
            .map(|c| c.value)
            .sum()
    }
}

/// A parsed `METRICS.json`.
#[derive(Clone, Debug)]
pub struct MetricsDoc {
    /// Schema tag ([`metrics::METRICS_SCHEMA_NAME`]).
    pub schema: String,
    /// Free-form host description.
    pub host: String,
    /// One record per measured run.
    pub records: Vec<MetricsRecordDoc>,
}

fn metric_point(v: &Json, what: &str) -> Result<MetricPoint, String> {
    Ok(MetricPoint {
        name: v.str_field("name", what)?,
        subsystem: v.str_field("subsystem", what)?,
        scope: v.str_field("scope", what)?,
        unit: v.str_field("unit", what)?,
        value: v.u64_field("value", what)?,
    })
}

fn metric_hist_point(v: &Json, what: &str) -> Result<MetricHistPoint, String> {
    let mut buckets = Vec::new();
    for b in v.arr_field("buckets", what)? {
        match b {
            Json::Arr(pair) => match pair.as_slice() {
                [Json::Num(i), Json::Num(c)]
                    if *i >= 0.0 && i.fract() == 0.0 && *c >= 0.0 && c.fract() == 0.0 =>
                {
                    buckets.push((*i as usize, *c as u64));
                }
                _ => return Err(format!("{what}: bucket must be an [index, count] pair")),
            },
            _ => return Err(format!("{what}: bucket must be an [index, count] pair")),
        }
    }
    Ok(MetricHistPoint {
        name: v.str_field("name", what)?,
        subsystem: v.str_field("subsystem", what)?,
        scope: v.str_field("scope", what)?,
        unit: v.str_field("unit", what)?,
        count: v.u64_field("count", what)?,
        sum: v.u64_field("sum", what)?,
        buckets,
    })
}

/// Parse a `METRICS.json` document (schema v1 only — the format is
/// new; accept-old-schemas leniency starts with v2).
pub fn parse_metrics(json: &str) -> Result<MetricsDoc, String> {
    let mut p = Parser::new(json);
    let tree = p.json()?;
    let schema = tree.str_field("schema", "document")?;
    if schema != metrics::METRICS_SCHEMA_NAME {
        return Err(format!("unsupported metrics schema {schema:?}"));
    }
    let host = tree.str_field("host", "document")?;
    let mut records = Vec::new();
    for (i, r) in tree.arr_field("records", "document")?.iter().enumerate() {
        let what = format!("record {i}");
        let mut rec = MetricsRecordDoc {
            experiment: r.str_field("experiment", &what)?,
            sim_key: r.str_field("sim_key", &what)?,
            shards: r.u64_field("shards", &what)? as usize,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
        };
        for c in r.arr_field("counters", &what)? {
            rec.counters.push(metric_point(c, &what)?);
        }
        for g in r.arr_field("gauges", &what)? {
            rec.gauges.push(metric_point(g, &what)?);
        }
        for h in r.arr_field("hists", &what)? {
            rec.hists.push(metric_hist_point(h, &what)?);
        }
        records.push(rec);
    }
    Ok(MetricsDoc {
        schema,
        host,
        records,
    })
}

/// The metrics-smoke validation: structural and cross-metric
/// invariants every healthy `METRICS.json` must satisfy.
///
/// 1. At least one record, each with a non-empty counter registry and
///    engine activity (`engine_events_total > 0`).
/// 2. Document-level subsystem coverage: some record reports non-zero
///    directory work and some record non-zero gossip/Bloom work.
/// 3. Counter cross-invariants (each checked only when both names are
///    present, so future registries stay parseable): timer events and
///    per-class deliveries never exceed total events; Algorithm 3
///    decisions never exceed Algorithm 3 invocations; every initiated
///    gossip exchange took a Bloom snapshot (CoW or rebuild).
/// 4. Histogram consistency: bucket indices valid and strictly
///    ascending, per-bucket counts summing to `count`, and `sum`
///    inside the value bounds the occupied buckets allow.
/// 5. Sim-scope determinism: records sharing a `sim_key` (same
///    simulation under different shard counts) agree exactly on every
///    `sim`-scope counter, gauge and histogram.
pub fn validate_metrics(doc: &MetricsDoc) -> Result<(), String> {
    if doc.records.is_empty() {
        return Err("metrics: document has no records".into());
    }
    for r in &doc.records {
        let who = &r.experiment;
        if r.counters.is_empty() {
            return Err(format!("metrics {who}: empty counter registry"));
        }
        let events = r.counter("engine_events_total").unwrap_or(0);
        if events == 0 {
            return Err(format!("metrics {who}: engine_events_total is 0"));
        }
        if let Some(timers) = r.counter("engine_timer_events") {
            if timers > events {
                return Err(format!(
                    "metrics {who}: timer events {timers} exceed total events {events}"
                ));
            }
        }
        let recv = r.counter_sum(|c| c.name.starts_with("engine_recv_"));
        if recv > events {
            return Err(format!(
                "metrics {who}: class deliveries {recv} exceed total events {events}"
            ));
        }
        if let Some(process) = r.counter("dir_process_calls") {
            let decisions = r.counter_sum(|c| c.name.starts_with("dir_decision_"));
            if decisions > process {
                return Err(format!(
                    "metrics {who}: {decisions} Algorithm 3 decisions from only \
                     {process} invocations"
                ));
            }
        }
        // Per-class message ledger: deliveries, bounces and fault
        // drops of a traffic class can never exceed its sends (`≤`,
        // not `==`: messages still in flight at the horizon were sent
        // but never resolved). Checked only when the class's full
        // ledger is present so older registries stay parseable.
        for class in [
            "gossip",
            "push",
            "keepalive",
            "dht_routing",
            "dht_maintenance",
            "query_control",
            "transfer",
        ] {
            let (Some(sent), Some(recv), Some(dropped), Some(bounced)) = (
                r.counter(&format!("engine_sent_{class}")),
                r.counter(&format!("engine_recv_{class}")),
                r.counter(&format!("engine_drop_{class}")),
                r.counter(&format!("engine_bounce_{class}")),
            ) else {
                continue;
            };
            if recv + bounced + dropped > sent {
                return Err(format!(
                    "metrics {who}: {class} ledger broken — {recv} delivered + \
                     {bounced} bounced + {dropped} dropped from {sent} sends"
                ));
            }
        }
        // Every per-class bounce is one of the engine's bounced sends,
        // and vice versa: the split must sum back exactly.
        if r.counters
            .iter()
            .any(|c| c.name.starts_with("engine_bounce_"))
        {
            if let Some(total) = r.counter("engine_bounced_sends") {
                let split = r.counter_sum(|c| c.name.starts_with("engine_bounce_"));
                if split != total {
                    return Err(format!(
                        "metrics {who}: per-class bounces sum to {split} but \
                         engine_bounced_sends says {total}"
                    ));
                }
            }
        }
        if let (Some(exchanges), Some(cow), Some(rebuilt)) = (
            r.counter("gossip_exchanges"),
            r.counter("bloom_snapshot_cow_clones"),
            r.counter("bloom_snapshot_rebuilds"),
        ) {
            if cow + rebuilt < exchanges {
                return Err(format!(
                    "metrics {who}: {exchanges} gossip exchanges but only {} Bloom \
                     snapshots",
                    cow + rebuilt
                ));
            }
        }
        for h in &r.hists {
            let mut bucket_total: u64 = 0;
            let mut lo: u128 = 0;
            let mut hi: u128 = 0;
            let mut prev: Option<usize> = None;
            for &(idx, c) in &h.buckets {
                if idx >= metrics::BUCKETS {
                    return Err(format!(
                        "metrics {who}/{}: bucket index {idx} out of range",
                        h.name
                    ));
                }
                if prev.is_some_and(|p| idx <= p) {
                    return Err(format!(
                        "metrics {who}/{}: bucket indices not ascending",
                        h.name
                    ));
                }
                prev = Some(idx);
                let (b_lo, b_hi) = metrics::bucket_bounds(idx);
                bucket_total += c;
                lo += c as u128 * b_lo as u128;
                hi += c as u128 * b_hi as u128;
            }
            if bucket_total != h.count {
                return Err(format!(
                    "metrics {who}/{}: buckets hold {bucket_total} values but count \
                     says {}",
                    h.name, h.count
                ));
            }
            let sum = h.sum as u128;
            if sum < lo || sum > hi {
                return Err(format!(
                    "metrics {who}/{}: sum {} outside the [{lo}, {hi}] range its \
                     buckets allow",
                    h.name, h.sum
                ));
            }
        }
    }
    let dir_work: u64 = doc
        .records
        .iter()
        .map(|r| r.counter_sum(|c| c.subsystem == "directory"))
        .sum();
    if dir_work == 0 {
        return Err("metrics: no record reports directory work".into());
    }
    let gossip_work: u64 = doc
        .records
        .iter()
        .map(|r| r.counter_sum(|c| c.subsystem == "gossip"))
        .sum();
    if gossip_work == 0 {
        return Err("metrics: no record reports gossip/Bloom work".into());
    }
    // Sim-scope determinism across execution variants.
    for (i, a) in doc.records.iter().enumerate() {
        for b in doc.records.iter().skip(i + 1) {
            if a.sim_key != b.sim_key {
                continue;
            }
            let sim = |points: &[MetricPoint]| -> Vec<MetricPoint> {
                points
                    .iter()
                    .filter(|p| p.scope == "sim")
                    .cloned()
                    .collect()
            };
            let sim_h = |hists: &[MetricHistPoint]| -> Vec<MetricHistPoint> {
                hists.iter().filter(|h| h.scope == "sim").cloned().collect()
            };
            if sim(&a.counters) != sim(&b.counters)
                || sim(&a.gauges) != sim(&b.gauges)
                || sim_h(&a.hists) != sim_h(&b.hists)
            {
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
pub fn metrics_markdown(doc: &MetricsDoc) -> String {
    let mut out = String::new();
    let Some(headline) = doc
        .records
        .iter()
        .max_by_key(|r| r.counter("engine_events_total").unwrap_or(0))
    else {
        let _ = writeln!(out, "### Metrics attribution\n\nNo records.");
        return out;
    };
    let _ = writeln!(
        out,
        "### Metrics attribution — `{}` ({} shard(s); {} record(s) in document)\n",
        headline.experiment,
        headline.shards,
        doc.records.len()
    );
    let _ = writeln!(out, "| subsystem | metric | value | unit |");
    let _ = writeln!(out, "|---|---|---|---|");
    for subsystem in ["engine", "directory", "gossip"] {
        for c in headline
            .counters
            .iter()
            .chain(headline.gauges.iter())
            .filter(|c| c.subsystem == subsystem && c.value > 0)
        {
            let _ = writeln!(
                out,
                "| {} | `{}` | {} | {} |",
                c.subsystem, c.name, c.value, c.unit
            );
        }
        for h in headline
            .hists
            .iter()
            .filter(|h| h.subsystem == subsystem && h.count > 0)
        {
            let _ = writeln!(
                out,
                "| {} | `{}` | n={}, mean={:.1} | {} |",
                h.subsystem,
                h.name,
                h.count,
                h.sum as f64 / h.count as f64,
                h.unit
            );
        }
    }
    let _ = writeln!(out, "\nZero-valued cells omitted; host `{}`.", doc.host);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_set(scale: u64) -> metrics::MetricSet {
        use metrics::{Counter, Gauge, Hist, MetricSet};
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

    fn metrics_doc_json(records: Vec<crate::report::MetricsRecord>) -> String {
        crate::report::metrics_json("test-host", &records)
    }

    fn metrics_record(
        experiment: &str,
        sim_key: &str,
        shards: usize,
        set: metrics::MetricSet,
    ) -> crate::report::MetricsRecord {
        crate::report::MetricsRecord {
            experiment: experiment.into(),
            sim_key: sim_key.into(),
            shards,
            set,
        }
    }

    #[test]
    fn metrics_roundtrip_validates_and_renders() {
        // Two execution variants of one simulation (same sim cells,
        // different exec cells) plus an unrelated bigger cell.
        let json = metrics_doc_json(vec![
            metrics_record("scale/10000n", "scale/10000n", 1, metrics_set(1)),
            metrics_record("scale/10000n", "scale/10000n", 4, {
                let mut s = metrics_set(1);
                s.add(metrics::Counter::EngineEpochs, 500);
                s.gauge_max(metrics::Gauge::PeakQueueDepth, 999_999);
                s
            }),
            metrics_record("scale/50000n", "scale/50000n", 2, metrics_set(5)),
        ]);
        let doc = parse_metrics(&json).unwrap();
        assert_eq!(doc.schema, metrics::METRICS_SCHEMA_NAME);
        assert_eq!(doc.records.len(), 3);
        assert_eq!(doc.records[0].counter("engine_events_total"), Some(1000));
        validate_metrics(&doc).unwrap();
        let md = metrics_markdown(&doc);
        // The headline is the biggest cell.
        assert!(md.contains("`scale/50000n` (2 shard(s)"), "{md}");
        assert!(md.contains("| engine | `engine_events_total` | 5000 | events |"));
        assert!(md.contains("| directory | `dir_process_calls` | 250 | queries |"));
        assert!(md.contains("| gossip | `gossip_payload_bytes` | n=5, mean=102.0 | bytes |"));
        // Zero-valued cells are omitted.
        assert!(!md.contains("dir_petal_splits"), "{md}");
    }

    #[test]
    fn metrics_rejects_malformed_documents() {
        assert!(parse_metrics("").is_err());
        assert!(parse_metrics(
            r#"{"schema": "flower-cdn/metrics/v999", "host": "h", "records": []}"#
        )
        .unwrap_err()
        .contains("unsupported metrics schema"));
        // Missing required fields inside a record.
        let bad = format!(
            r#"{{"schema": "{}", "host": "h", "records": [{{"experiment": "x"}}]}}"#,
            metrics::METRICS_SCHEMA_NAME
        );
        assert!(parse_metrics(&bad).unwrap_err().contains("sim_key"));
        // Counter values must be non-negative integers.
        let neg = format!(
            r#"{{"schema": "{}", "host": "h", "records": [
                {{"experiment": "x", "sim_key": "x", "shards": 1,
                  "counters": [{{"name": "n", "subsystem": "engine", "scope": "sim", "unit": "u", "value": -3}}],
                  "gauges": [], "hists": []}}]}}"#,
            metrics::METRICS_SCHEMA_NAME
        );
        assert!(parse_metrics(&neg)
            .unwrap_err()
            .contains("non-negative integer"));
    }

    #[test]
    fn metrics_validation_catches_inconsistencies() {
        // An empty document decides nothing.
        let empty = parse_metrics(&metrics_doc_json(vec![])).unwrap();
        assert!(validate_metrics(&empty).unwrap_err().contains("no records"));
        // A run with no engine activity.
        let doc = parse_metrics(&metrics_doc_json(vec![metrics_record(
            "x",
            "x",
            1,
            metrics::MetricSet::new(),
        )]))
        .unwrap();
        assert!(validate_metrics(&doc)
            .unwrap_err()
            .contains("engine_events_total is 0"));
        // Histogram count vs bucket mismatch.
        let mut doc = parse_metrics(&metrics_doc_json(vec![metrics_record(
            "x",
            "x",
            1,
            metrics_set(1),
        )]))
        .unwrap();
        let h = doc.records[0]
            .hists
            .iter_mut()
            .find(|h| h.name == "gossip_payload_bytes")
            .unwrap();
        h.count += 1;
        assert!(validate_metrics(&doc).unwrap_err().contains("count says"));
        // Histogram sum outside the bucket bounds.
        let mut doc2 = parse_metrics(&metrics_doc_json(vec![metrics_record(
            "x",
            "x",
            1,
            metrics_set(1),
        )]))
        .unwrap();
        let h2 = doc2.records[0]
            .hists
            .iter_mut()
            .find(|h| h.name == "gossip_payload_bytes")
            .unwrap();
        h2.sum = 1;
        assert!(validate_metrics(&doc2).unwrap_err().contains("outside the"));
        // Sim-scope divergence under a shared sim key.
        let mut diverged = metrics_set(1);
        diverged.incr(metrics::Counter::DirProcess);
        let doc3 = parse_metrics(&metrics_doc_json(vec![
            metrics_record("x", "x", 1, metrics_set(1)),
            metrics_record("x", "x", 2, diverged),
        ]))
        .unwrap();
        assert!(validate_metrics(&doc3)
            .unwrap_err()
            .contains("sim-scope cells differ"));
        // The same divergence under *different* sim keys is fine —
        // different simulations are allowed to differ.
        let mut diverged2 = metrics_set(1);
        diverged2.incr(metrics::Counter::DirProcess);
        let doc4 = parse_metrics(&metrics_doc_json(vec![
            metrics_record("x", "x", 1, metrics_set(1)),
            metrics_record("y", "y", 2, diverged2),
        ]))
        .unwrap();
        validate_metrics(&doc4).unwrap();
    }

    #[test]
    fn metrics_validation_enforces_the_message_ledger() {
        use metrics::Counter;
        // A consistent ledger passes: 20 sent, 10 delivered (from the
        // fixture), 3 bounced, 2 dropped, 5 still in flight.
        let mut ok = metrics_set(1);
        ok.add(Counter::SentGossip, 10);
        ok.add(Counter::BounceGossip, 3);
        ok.add(Counter::DropGossip, 2);
        ok.add(Counter::EngineBounces, 3);
        let doc = parse_metrics(&metrics_doc_json(vec![metrics_record("x", "x", 1, ok)])).unwrap();
        validate_metrics(&doc).unwrap();
        // More deliveries + bounces + drops than sends fails…
        let mut broken = metrics_set(1);
        broken.add(Counter::BounceGossip, 3);
        broken.add(Counter::DropGossip, 2);
        broken.add(Counter::EngineBounces, 3);
        let doc2 =
            parse_metrics(&metrics_doc_json(vec![metrics_record("x", "x", 1, broken)])).unwrap();
        assert!(validate_metrics(&doc2)
            .unwrap_err()
            .contains("ledger broken"));
        // …and the per-class bounce split must sum back exactly to
        // the engine's bounced-sends total.
        let mut skewed = metrics_set(1);
        skewed.add(Counter::SentGossip, 10);
        skewed.add(Counter::BounceGossip, 3);
        skewed.add(Counter::EngineBounces, 5);
        let doc3 =
            parse_metrics(&metrics_doc_json(vec![metrics_record("x", "x", 1, skewed)])).unwrap();
        assert!(validate_metrics(&doc3)
            .unwrap_err()
            .contains("bounces sum to"));
    }
}
