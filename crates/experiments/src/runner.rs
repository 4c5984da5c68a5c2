//! Configured paper-scale runs, with optional time scaling.
//!
//! A full reproduction simulates 24 hours of a 5000-node underlay
//! (Table 1). `RunScale` shrinks the *simulated duration* (and,
//! proportionally, the gossip/keepalive periods and the metric
//! window) so the same dynamics play out faster — the standard trick
//! for iterating on event simulations. `RunScale::Full` is the
//! paper's exact setup and the one recorded in `EXPERIMENTS.md`.

use flower_core::{FlowerConfig, FlowerSystem, SystemConfig, SystemReport};
use simnet::SimDuration;
use squirrel::{SquirrelConfig, SquirrelReport, SquirrelSystem};

use crate::report::BenchRecord;

/// The run parameters every experiment takes: time scale, master
/// seed and engine shard count. All of them are
/// execution/reproduction knobs orthogonal to the paper's protocol
/// parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// How much of the 24-hour experiment to simulate.
    pub scale: RunScale,
    /// Master seed; a run is a pure function of config + seed.
    pub seed: u64,
    /// Engine locality shards (worker threads); results are
    /// bit-identical for every value.
    pub shards: usize,
    /// §5.3 PetalUp instance bits `b`: up to `2^b` directory
    /// instances per (website, locality) petal. 0 is the paper's base
    /// design.
    pub instance_bits: u32,
    /// Pin shard worker threads to cores under the engine's
    /// latency-aware placement (`--pin`); wall-clock only, results
    /// are bit-identical either way.
    pub pin: bool,
    /// Override the underlay node count (`--nodes` on non-`scale`
    /// experiments); `None` keeps the paper's population. Communities
    /// and the D-ring keep their configured sizes — a larger
    /// population grows the topology and its background machinery,
    /// which is exactly what the 50k churn smoke exercises.
    pub nodes: Option<usize>,
}

impl RunOpts {
    /// Defaults: 1/10 time scale, seed 42, one shard, no §5.3
    /// instances.
    pub fn new() -> Self {
        RunOpts {
            scale: RunScale::Scaled(0.1),
            seed: 42,
            shards: 1,
            instance_bits: 0,
            pin: false,
            nodes: None,
        }
    }

    /// Replace the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for RunOpts {
    fn default() -> Self {
        Self::new()
    }
}

/// How much of the 24-hour experiment to simulate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RunScale {
    /// The paper's full 24 h at 5000 nodes.
    Full,
    /// Duration (and protocol periods) scaled by the factor; 0.1 ⇒
    /// 2.4 simulated hours with 3-minute gossip periods.
    Scaled(f64),
}

impl RunScale {
    /// The scale factor.
    pub fn factor(self) -> f64 {
        match self {
            RunScale::Full => 1.0,
            RunScale::Scaled(f) => f,
        }
    }

    /// Parse `"full"` or a float factor.
    pub fn parse(s: &str) -> Result<RunScale, String> {
        if s == "full" || s == "1" || s == "1.0" {
            return Ok(RunScale::Full);
        }
        let f: f64 = s.parse().map_err(|_| format!("bad scale {s:?}"))?;
        if !(f > 0.0 && f <= 1.0) {
            return Err(format!("scale must be in (0, 1], got {f}"));
        }
        Ok(RunScale::Scaled(f))
    }

    fn scale_duration(self, d: SimDuration) -> SimDuration {
        match self {
            RunScale::Full => d,
            RunScale::Scaled(f) => {
                SimDuration::from_ms(((d.as_ms() as f64 * f).round() as u64).max(1))
            }
        }
    }
}

/// The paper-scale Flower-CDN configuration under `opts`, the engine
/// on `opts.shards` locality shards (results are bit-identical for
/// every shard count).
///
/// Time-like protocol parameters (`Tgossip`, keepalive, `Tdead` ticks
/// stay ratio-identical because the tick period scales) shrink with
/// the scale so convergence dynamics match the full run's shape.
pub fn flower_config(opts: RunOpts) -> SystemConfig {
    let mut cfg = SystemConfig::paper();
    cfg.seed = opts.seed;
    cfg.workload.duration_ms = opts
        .scale
        .scale_duration(SimDuration::from_hours(24))
        .as_ms();
    cfg.flower = scale_flower(&cfg.flower, opts.scale);
    cfg.flower.instance_bits = opts.instance_bits;
    cfg.window = opts.scale.scale_duration(SimDuration::from_mins(30));
    cfg.shards = opts.shards.max(1);
    cfg.topology.pin = opts.pin;
    if let Some(n) = opts.nodes {
        cfg.topology.nodes = n;
    }
    cfg
}

/// Scale the time-like fields of a [`FlowerConfig`].
pub fn scale_flower(base: &FlowerConfig, scale: RunScale) -> FlowerConfig {
    let mut f = base.clone();
    f.t_gossip = scale.scale_duration(f.t_gossip);
    f.keepalive_period = scale.scale_duration(f.keepalive_period);
    f.stabilize_period = scale.scale_duration(f.stabilize_period);
    f.fix_finger_period = scale.scale_duration(f.fix_finger_period);
    f.dir_replacement_jitter = scale.scale_duration(f.dir_replacement_jitter);
    f.query_timeout = f.query_timeout.map(|t| scale.scale_duration(t));
    f
}

/// The matching Squirrel configuration (same topology, catalog,
/// workload, seed, shard count).
pub fn squirrel_config(opts: RunOpts) -> SquirrelConfig {
    let mut cfg = SquirrelConfig::paper();
    cfg.seed = opts.seed;
    cfg.workload.duration_ms = opts
        .scale
        .scale_duration(SimDuration::from_hours(24))
        .as_ms();
    cfg.window = opts.scale.scale_duration(SimDuration::from_mins(30));
    cfg.shards = opts.shards.max(1);
    cfg.topology.pin = opts.pin;
    cfg
}

/// Run Flower-CDN and return the system (for series/histograms) plus
/// its report.
pub fn run_flower(cfg: &SystemConfig) -> (FlowerSystem, SystemReport) {
    FlowerSystem::run(cfg)
}

/// As [`run_flower`], additionally measuring the engine: wall-clock of
/// the simulation itself (build excluded), events/second and peak
/// queue depth, packaged as a [`BenchRecord`] for the `scale` table.
pub fn run_flower_timed(
    cfg: &SystemConfig,
    experiment: &str,
) -> (FlowerSystem, SystemReport, BenchRecord) {
    let mut sys = FlowerSystem::build(cfg);
    let horizon = sys.drain_horizon();
    let t0 = std::time::Instant::now();
    sys.run_until(horizon);
    let wall_s = t0.elapsed().as_secs_f64();
    let report = sys.report();
    let engine = sys.engine();
    let events = engine.events_processed();
    let record = BenchRecord {
        experiment: experiment.to_string(),
        nodes: cfg.topology.nodes,
        shards: engine.num_shards(),
        wall_s,
        events,
        events_per_sec: events as f64 / wall_s.max(1e-9),
        peak_queue_depth: engine.peak_queue_depth(),
        dir_load_max_mean: report.dir_load_max_mean,
        epochs: engine.epochs(),
    };
    (sys, report, record)
}

/// Run Squirrel likewise.
pub fn run_squirrel(cfg: &SquirrelConfig) -> (SquirrelSystem, SquirrelReport) {
    SquirrelSystem::run(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(RunScale::parse("full").unwrap(), RunScale::Full);
        assert_eq!(RunScale::parse("0.25").unwrap(), RunScale::Scaled(0.25));
        assert!(RunScale::parse("0").is_err());
        assert!(RunScale::parse("2.0").is_err());
        assert!(RunScale::parse("x").is_err());
    }

    fn opts(scale: RunScale, shards: usize) -> RunOpts {
        RunOpts {
            scale,
            shards,
            ..RunOpts::new().seed(1)
        }
    }

    #[test]
    fn instance_bits_flow_into_the_flower_config() {
        let mut o = opts(RunScale::Scaled(0.1), 1);
        o.instance_bits = 2;
        let cfg = flower_config(o);
        assert_eq!(cfg.flower.instance_bits, 2);
        assert_eq!(
            flower_config(opts(RunScale::Scaled(0.1), 1))
                .flower
                .instance_bits,
            0,
            "base design by default"
        );
    }

    #[test]
    fn shards_flow_into_the_configs() {
        let f = flower_config(opts(RunScale::Scaled(0.1), 4));
        assert_eq!(f.shards, 4);
        let s = squirrel_config(opts(RunScale::Scaled(0.1), 4));
        assert_eq!(s.shards, 4);
        // 0 is normalized to 1.
        assert_eq!(flower_config(opts(RunScale::Full, 0)).shards, 1);
    }

    #[test]
    fn scaled_config_shrinks_time_not_space() {
        let full = flower_config(opts(RunScale::Full, 1));
        let tenth = flower_config(opts(RunScale::Scaled(0.1), 1));
        assert_eq!(tenth.topology.nodes, full.topology.nodes);
        assert_eq!(tenth.catalog.num_websites, full.catalog.num_websites);
        assert_eq!(tenth.workload.duration_ms, full.workload.duration_ms / 10);
        assert_eq!(
            tenth.flower.t_gossip.as_ms(),
            full.flower.t_gossip.as_ms() / 10
        );
        assert_eq!(tenth.flower.v_gossip, full.flower.v_gossip);
    }
}
