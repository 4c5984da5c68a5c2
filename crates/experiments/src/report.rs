//! Plain-text table, CSV and metrics-JSON rendering for experiment
//! output.

use std::fmt::Write as _;

use metrics::{Counter, Gauge, Hist, MetricSet, METRICS_SCHEMA_NAME};

/// A fixed-width text table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, " {:<w$} |", c, w = widths[i]);
            }
            let _ = writeln!(out, "{s}");
        };
        line(&mut out, &self.headers);
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Render as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// One engine-performance measurement: a row of the `scale` table
/// (the repository's benchmark is `benchmark/`, see `BENCHMARK.json`).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// The experiment (or sweep cell) the measurement belongs to.
    pub experiment: String,
    /// Underlay nodes simulated.
    pub nodes: usize,
    /// Engine shards (worker threads) used.
    pub shards: usize,
    /// Wall-clock seconds of the run (simulation only, build
    /// excluded).
    pub wall_s: f64,
    /// Events the engine dispatched.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// High-water mark of any shard's event queue length.
    pub peak_queue_depth: usize,
    /// §5.3 PetalUp: per-instance directory query load imbalance
    /// (hottest instance over mean petal load) at the end of the run;
    /// 0.0 for runs with no directory traffic.
    pub dir_load_max_mean: f64,
    /// Barrier rounds the sharded engine executed (0 on single-shard
    /// runs, which have no barrier).
    pub epochs: u64,
}

/// One run's registry snapshot, emitted into `METRICS.json` so the CI
/// dashboard can attribute hot-path work per subsystem.
#[derive(Clone, Debug)]
pub struct MetricsRecord {
    /// The experiment (or sweep cell) the snapshot belongs to.
    pub experiment: String,
    /// Simulation-identity key: cells that simulate the same trace
    /// under different shard counts share this key, and the metrics
    /// gate asserts their `Scope::Sim` cells are identical.
    pub sim_key: String,
    /// Engine shards the run executed on.
    pub shards: usize,
    /// The merged registry cells at the end of the run.
    pub set: MetricSet,
}

/// Render registry snapshots as the versioned `METRICS.json` document
/// (schema [`METRICS_SCHEMA_NAME`]; hand-rolled: the build environment
/// has no serde).
///
/// Every registered counter and gauge is emitted, zeros included;
/// histograms carry their exact count/sum plus the
/// non-empty `[bucket index, count]` pairs.
pub fn metrics_json(host: &str, records: &[MetricsRecord]) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{METRICS_SCHEMA_NAME}\",");
    let _ = writeln!(out, "  \"host\": \"{}\",", esc(host));
    let _ = writeln!(out, "  \"records\": [");
    for (ri, r) in records.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"experiment\": \"{}\",", esc(&r.experiment));
        let _ = writeln!(out, "      \"sim_key\": \"{}\",", esc(&r.sim_key));
        let _ = writeln!(out, "      \"shards\": {},", r.shards);
        let _ = writeln!(out, "      \"counters\": [");
        for (i, c) in Counter::ALL.iter().enumerate() {
            let d = c.def();
            let _ = writeln!(
                out,
                "        {{\"name\": \"{}\", \"subsystem\": \"{}\", \"scope\": \"{}\", \
                 \"unit\": \"{}\", \"value\": {}}}{}",
                d.name,
                d.subsystem.name(),
                d.scope.name(),
                d.unit,
                r.set.counter(*c),
                if i + 1 == Counter::ALL.len() { "" } else { "," }
            );
        }
        let _ = writeln!(out, "      ],");
        let _ = writeln!(out, "      \"gauges\": [");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            let d = g.def();
            let _ = writeln!(
                out,
                "        {{\"name\": \"{}\", \"subsystem\": \"{}\", \"scope\": \"{}\", \
                 \"unit\": \"{}\", \"value\": {}}}{}",
                d.name,
                d.subsystem.name(),
                d.scope.name(),
                d.unit,
                r.set.gauge(*g),
                if i + 1 == Gauge::ALL.len() { "" } else { "," }
            );
        }
        let _ = writeln!(out, "      ],");
        let _ = writeln!(out, "      \"hists\": [");
        for (i, h) in Hist::ALL.iter().enumerate() {
            let d = h.def();
            let hist = r.set.hist(*h);
            let buckets: Vec<String> = hist
                .nonzero()
                .map(|(idx, c)| format!("[{idx}, {c}]"))
                .collect();
            let _ = writeln!(
                out,
                "        {{\"name\": \"{}\", \"subsystem\": \"{}\", \"scope\": \"{}\", \
                 \"unit\": \"{}\", \"count\": {}, \"sum\": {}, \"buckets\": [{}]}}{}",
                d.name,
                d.subsystem.name(),
                d.scope.name(),
                d.unit,
                hist.count(),
                hist.sum(),
                buckets.join(", "),
                if i + 1 == Hist::ALL.len() { "" } else { "," }
            );
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(
            out,
            "    }}{}",
            if ri + 1 == records.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("T", &["a", "long-header"]);
        t.row(vec!["xxxx".into(), "1".into()]);
        let r = t.render();
        assert!(r.contains("| a    | long-header |"), "got:\n{r}");
        assert!(r.contains("| xxxx | 1           |"), "got:\n{r}");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        // Widths count characters, not bytes.
        let mut t = Table::new("T", &["band", "x"]);
        t.row(vec!["(-∞, 0.45)".into(), "1".into()]);
        t.row(vec!["[2.5, 6)".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("| [2.5, 6)   | 2 |"), "got:\n{r}");
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["x,y".into(), "q\"z".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"q\"\"z\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn number_formats() {
        assert_eq!(f3(0.8571), "0.857");
        assert_eq!(f1(74.26), "74.3");
        assert_eq!(pct(0.87), "87.0%");
    }

    #[test]
    fn metrics_json_shape() {
        let mut set = MetricSet::new();
        set.add(Counter::EngineEvents, 1000);
        set.incr(Counter::DirProcess);
        set.gauge_max(Gauge::PeakQueueDepth, 77);
        set.record(Hist::GossipPayloadBytes, 129);
        let records = vec![MetricsRecord {
            experiment: "scale/20000n".into(),
            sim_key: "scale/20000n".into(),
            shards: 2,
            set,
        }];
        let json = metrics_json("test-host", &records);
        assert!(json.contains(&format!("\"schema\": \"{METRICS_SCHEMA_NAME}\"")));
        assert!(json.contains("\"experiment\": \"scale/20000n\""));
        assert!(json.contains("\"sim_key\": \"scale/20000n\""));
        assert!(json.contains("\"shards\": 2"));
        assert!(json.contains(
            "{\"name\": \"engine_events_total\", \"subsystem\": \"engine\", \
             \"scope\": \"sim\", \"unit\": \"events\", \"value\": 1000}"
        ));
        // Zero cells are emitted too.
        assert!(json.contains("\"name\": \"gossip_exchanges\""));
        assert!(json.contains("\"value\": 0"));
        // The recorded histogram value lands in exactly one bucket.
        let idx = metrics::bucket_index(129);
        assert!(json.contains(&format!(
            "\"count\": 1, \"sum\": 129, \"buckets\": [[{idx}, 1]]"
        )));
        // Empty histograms emit an empty bucket list.
        assert!(json.contains("\"count\": 0, \"sum\": 0, \"buckets\": []"));
    }
}
