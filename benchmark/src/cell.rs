//! One simulation cell: build, script install, run, report, drop —
//! each timed from outside, through `FlowerSystem`'s public calls.
//!
//! A cell runs in a process of its own, so peak RSS and allocator
//! state are per repetition; it hands its numbers to the parent as
//! `name value` lines ([`Cell::to_lines`] / [`Cell::from_lines`]).
//!
//! Between the steps of the run the cell times the benchmark's own
//! [`Yardstick`], which tells how fast the host was running while this
//! cell ran; host times divided by [`Cell::host_slowdown`] are in
//! reference seconds (see `yardstick.rs`).

use std::time::Instant;

use flower_core::{FlowerSystem, SystemReport};
use metrics::Counter;
use simnet::{SimDuration, SimTime};

use crate::workloads::Workload;
use crate::yardstick::{Yardstick, REFERENCE_CHUNK_S};

/// Equal sim-time slices an untraced run advances in. The run's host
/// time is estimated slice by slice across repetitions, see
/// [`crate::endtoend`].
pub const SLICES: usize = 16;

/// Host-time spans (seconds) around the system's public calls.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Spans {
    /// `FlowerSystem::build`.
    pub build_s: f64,
    /// Script generation plus `apply_churn`/`apply_faults`.
    pub script_install_s: f64,
    /// `FlowerSystem::report` (the statistics-plane fold).
    pub report_s: f64,
    /// Dropping the system.
    pub drop_s: f64,
}

/// One slice of `run_until`: host seconds and events dispatched.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slice {
    /// Host seconds the slice took.
    pub wall_s: f64,
    /// Events dispatched inside the slice.
    pub events: u64,
}

/// The simulated, exactly repeatable statistics of a finished run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Queries submitted.
    pub submitted: u64,
    /// Queries resolved by the drain horizon.
    pub resolved: u64,
    /// The paper's hit ratio.
    pub hit_ratio: f64,
    /// Mean lookup latency, simulated ms.
    pub lookup_ms_mean: f64,
    /// Mean transfer distance, simulated ms.
    pub transfer_ms_mean: f64,
    /// Share of P2P hits served inside the requester's locality.
    pub local_hit_frac: f64,
    /// Gossip + push bits per second per participant.
    pub background_bps: f64,
}

/// Everything one finished cell leaves behind.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Cell {
    /// Host-time spans outside the run.
    pub spans: Spans,
    /// The run, in equal sim-time slices.
    pub slices: Vec<Slice>,
    /// Host seconds of the yardstick chunks timed before the first
    /// slice and after every slice.
    pub yard_s: Vec<f64>,
    /// The simulated end-of-run statistics.
    pub sim: SimStats,
    /// High-water mark of any shard's event queue.
    pub peak_queue_depth: u64,
    /// Simulated ms the run covered (`FlowerSystem::drain_horizon`).
    pub horizon_ms: u64,
    /// Every registry counter by name, in registry order.
    pub counters: Vec<(String, u64)>,
    /// Hash of the simulated statistics (every `SystemReport` field and
    /// every `Sim`-scope registry cell); equal across shard layouts and
    /// repetitions.
    pub sim_fingerprint: u64,
    /// Peak resident set of the process (`VmHWM`) less what the
    /// yardstick holds, MB; 0 where `/proc` is unavailable.
    pub peak_rss_mb: f64,
}

impl Cell {
    /// Build and run `workload` for `seed`, advancing in `slices` equal
    /// steps of simulated time. `at_boundary` sees the system after
    /// every slice.
    pub fn run(
        workload: Workload,
        seed: u64,
        slices: usize,
        mut at_boundary: impl FnMut(&FlowerSystem),
    ) -> Cell {
        let cfg = workload.config(seed);
        let mut spans = Spans::default();

        let rss_before = proc_status_mb("VmRSS:");
        let mut yardstick = Yardstick::new();
        let yardstick_mb = proc_status_mb("VmRSS:") - rss_before;

        let t = Instant::now();
        let mut sys = FlowerSystem::build(&cfg);
        spans.build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        if let Some(script) = workload.script(&sys, &cfg) {
            sys.apply_churn(&script.churn);
            sys.apply_faults(&script.faults);
        }
        spans.script_install_s = t.elapsed().as_secs_f64();

        let horizon = sys.drain_horizon();
        let step = SimDuration::from_ms((horizon - SimTime::ZERO).as_ms().div_ceil(slices as u64));
        let mut run = Vec::with_capacity(slices);
        let mut yard_s = Vec::with_capacity(slices + 1);
        yard_s.push(yardstick.chunk());
        let mut upto = SimTime::ZERO;
        let mut events_before = 0;
        for i in 0..slices {
            upto = if i + 1 == slices {
                horizon
            } else {
                upto + step
            };
            let t = Instant::now();
            sys.run_until(upto);
            let wall_s = t.elapsed().as_secs_f64();
            let events = sys.engine().events_processed();
            run.push(Slice {
                wall_s,
                events: events - events_before,
            });
            events_before = events;
            yard_s.push(yardstick.chunk());
            at_boundary(&sys);
        }

        let t = Instant::now();
        let report = sys.report();
        spans.report_s = t.elapsed().as_secs_f64();

        let engine = sys.engine();
        let registry = engine.metrics();
        let counters = Counter::ALL
            .iter()
            .map(|c| (c.def().name.to_string(), registry.counter(*c)))
            .collect();
        let sim_fingerprint = fingerprint(&report, &registry.sim_fingerprint());
        let peak_queue_depth = engine.peak_queue_depth() as u64;

        let t = Instant::now();
        drop(sys);
        spans.drop_s = t.elapsed().as_secs_f64();
        std::hint::black_box(yardstick.checksum());

        Cell {
            spans,
            slices: run,
            yard_s,
            sim: SimStats {
                submitted: report.submitted,
                resolved: report.resolved,
                hit_ratio: report.hit_ratio,
                lookup_ms_mean: report.mean_lookup_ms,
                transfer_ms_mean: report.mean_transfer_ms,
                local_hit_frac: report.local_hit_fraction,
                background_bps: report.background_bps,
            },
            peak_queue_depth,
            horizon_ms: (horizon - SimTime::ZERO).as_ms(),
            counters,
            sim_fingerprint,
            peak_rss_mb: (proc_status_mb("VmHWM:") - yardstick_mb).max(0.0),
        }
    }

    /// How much slower than the quiet reference host this host ran
    /// while the cell did: mean yardstick chunk time ÷ its reference
    /// time. Host seconds ÷ this are reference seconds.
    pub fn host_slowdown(&self) -> f64 {
        self.yard_s.iter().sum::<f64>() / self.yard_s.len() as f64 / REFERENCE_CHUNK_S
    }

    /// What a user waits for before the first event runs.
    pub fn setup_s(&self) -> f64 {
        self.spans.build_s + self.spans.script_install_s
    }

    /// Host seconds of the whole run, as this repetition saw it.
    pub fn run_wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_s).sum()
    }

    /// Events dispatched.
    pub fn events(&self) -> u64 {
        self.slices.iter().map(|s| s.events).sum()
    }

    /// A registry counter by name; panics on a name the registry no
    /// longer has, which is a benchmark bug to fix, not to hide.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("registry has no counter {name:?}"))
            .1
    }

    /// The float fields, by the names they travel under.
    fn floats(&mut self) -> [(&'static str, &mut f64); 10] {
        let (s, m) = (&mut self.spans, &mut self.sim);
        [
            ("build_s", &mut s.build_s),
            ("script_install_s", &mut s.script_install_s),
            ("report_s", &mut s.report_s),
            ("drop_s", &mut s.drop_s),
            ("hit_ratio", &mut m.hit_ratio),
            ("lookup_ms_mean", &mut m.lookup_ms_mean),
            ("transfer_ms_mean", &mut m.transfer_ms_mean),
            ("local_hit_frac", &mut m.local_hit_frac),
            ("background_bps", &mut m.background_bps),
            ("peak_rss_mb", &mut self.peak_rss_mb),
        ]
    }

    /// The integer fields, likewise.
    fn ints(&mut self) -> [(&'static str, &mut u64); 5] {
        [
            ("submitted", &mut self.sim.submitted),
            ("resolved", &mut self.sim.resolved),
            ("peak_queue_depth", &mut self.peak_queue_depth),
            ("horizon_ms", &mut self.horizon_ms),
            ("sim_fingerprint", &mut self.sim_fingerprint),
        ]
    }

    /// The cell as `name value` lines. Floats print in Rust's shortest
    /// round-trip form, so [`Cell::from_lines`] restores them exactly.
    pub fn to_lines(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut fields = self.clone();
        for (name, v) in fields.floats() {
            writeln!(out, "{name} {v:?}").unwrap();
        }
        for (name, v) in fields.ints() {
            writeln!(out, "{name} {v}").unwrap();
        }
        for sl in &self.slices {
            writeln!(out, "slice {:?} {}", sl.wall_s, sl.events).unwrap();
        }
        for y in &self.yard_s {
            writeln!(out, "yard {y:?}").unwrap();
        }
        for (name, v) in &self.counters {
            writeln!(out, "counter {name} {v}").unwrap();
        }
        out
    }

    /// Parse [`Cell::to_lines`] output.
    pub fn from_lines(text: &str) -> Result<Cell, String> {
        fn num<T: std::str::FromStr>(word: Option<&str>, line: &str) -> Result<T, String> {
            word.and_then(|w| w.parse().ok())
                .ok_or_else(|| format!("malformed cell line {line:?}"))
        }
        let mut c = Cell::default();
        for line in text.lines() {
            let mut words = line.split_whitespace();
            let Some(key) = words.next() else { continue };
            if key == "slice" {
                c.slices.push(Slice {
                    wall_s: num(words.next(), line)?,
                    events: num(words.next(), line)?,
                });
            } else if key == "yard" {
                c.yard_s.push(num(words.next(), line)?);
            } else if key == "counter" {
                let name = num::<String>(words.next(), line)?;
                c.counters.push((name, num(words.next(), line)?));
            } else {
                let word = words.next();
                if let Some((_, v)) = c.floats().into_iter().find(|(n, _)| *n == key) {
                    *v = num(word, line)?;
                    continue;
                }
                if let Some((_, v)) = c.ints().into_iter().find(|(n, _)| *n == key) {
                    *v = num(word, line)?;
                    continue;
                }
                return Err(format!("unknown cell line {line:?}"));
            }
        }
        if c.slices.is_empty() || c.yard_s.is_empty() || c.counters.is_empty() {
            return Err("cell output has no slices, no yardstick chunks or no counters".into());
        }
        Ok(c)
    }
}

/// FNV-1a over every simulated statistic.
fn fingerprint(r: &SystemReport, registry: &[u64]) -> u64 {
    let report = [
        r.submitted,
        r.resolved,
        r.hit_ratio.to_bits(),
        r.mean_lookup_ms.to_bits(),
        r.mean_transfer_ms.to_bits(),
        r.mean_transfer_hit_ms.to_bits(),
        r.background_bps.to_bits(),
        r.participants as u64,
        r.redirection_failures,
        r.local_hit_fraction.to_bits(),
        r.dir_load_max_mean.to_bits(),
        r.dir_instances_live as u64,
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in report.iter().chain(registry) {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A kB field of `/proc/self/status` (`VmHWM:`, `VmRSS:`) in MB.
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(field))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}
