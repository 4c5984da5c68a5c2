//! Configured paper-scale runs, with optional time scaling.
//!
//! A full reproduction simulates 24 hours of a 5000-node underlay
//! (Table 1). `RunScale` shrinks the *simulated duration* (and,
//! proportionally, the gossip/keepalive periods and the metric
//! window) so the same dynamics play out faster — the standard trick
//! for iterating on event simulations. `RunScale::Full` is the
//! paper's exact setup.

use flower_core::{FlowerConfig, SystemConfig};
use simnet::SimDuration;

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

    /// `d` at this scale, rounded to the clock's millisecond; `None`
    /// when that rounds it to nothing.
    fn scaled(self, d: SimDuration) -> Option<SimDuration> {
        match self {
            RunScale::Full => Some(d),
            RunScale::Scaled(f) => {
                let ms = (d.as_ms() as f64 * f).round() as u64;
                (ms > 0).then(|| SimDuration::from_ms(ms))
            }
        }
    }

    /// [`RunScale::scaled`], clamped to 1 ms. A scale that reaches the
    /// clamp no longer keeps the periods in ratio; [`check_scale`] is
    /// how the CLI refuses one.
    pub(crate) fn scale_duration(self, d: SimDuration) -> SimDuration {
        self.scaled(d).unwrap_or(SimDuration::from_ms(1))
    }
}

/// The paper's metric window (Figures 5 and 6 plot 30-minute points).
const PAPER_WINDOW: SimDuration = SimDuration::from_mins(30);

/// The time-like fields of a [`FlowerConfig`]: what a [`RunScale`]
/// shrinks.
fn time_fields(f: &mut FlowerConfig) -> impl Iterator<Item = &mut SimDuration> {
    [
        &mut f.t_gossip,
        &mut f.keepalive_period,
        &mut f.stabilize_period,
        &mut f.fix_finger_period,
        &mut f.dir_replacement_jitter,
    ]
    .into_iter()
    .chain(f.query_timeout.as_mut())
}

/// Refuse a scale so small that a protocol period of the paper
/// configuration, or the metric window, would shrink below the
/// clock's millisecond and be clamped: the periods would no longer be
/// in the paper's ratio to each other and the run would mean nothing.
/// `Err` is a one-line message for the user.
pub fn check_scale(scale: RunScale) -> Result<(), String> {
    let mut paper = FlowerConfig::paper();
    let shortest = time_fields(&mut paper)
        .map(|d| *d)
        .chain([PAPER_WINDOW])
        .min()
        .expect("the window is always there");
    match scale.scaled(shortest) {
        Some(_) => Ok(()),
        None => Err(format!(
            "--scale {} is too small: the shortest protocol period ({} s) would fall below \
             the simulator's 1 ms clock; use at least {:.7}",
            scale.factor(),
            shortest.as_ms() / 1000,
            (0.5e7 / shortest.as_ms() as f64).ceil() / 1e7
        )),
    }
}

/// The paper-scale configuration under `opts`, the engine on
/// `opts.shards` locality shards (results are bit-identical for every
/// shard count). Squirrel builds from the same config, so every
/// option, `--nodes` included, reaches both compared systems.
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
    cfg.window = opts.scale.scale_duration(PAPER_WINDOW);
    cfg.shards = opts.shards.max(1);
    if let Some(n) = opts.nodes {
        cfg.topology.nodes = n;
    }
    cfg
}

/// Scale the time-like fields of a [`FlowerConfig`].
pub fn scale_flower(base: &FlowerConfig, scale: RunScale) -> FlowerConfig {
    let mut f = base.clone();
    for d in time_fields(&mut f) {
        *d = scale.scale_duration(*d);
    }
    f
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

    /// The smallest default period is `fix_finger_period` = 30 s: at
    /// 1/60 000 it scales to half a millisecond and still rounds to
    /// one; anything below would be clamped, and is refused.
    #[test]
    fn a_scale_that_would_clamp_a_period_is_refused_at_the_boundary() {
        let shortest = FlowerConfig::paper().fix_finger_period;
        assert_eq!(shortest, SimDuration::from_secs(30));
        let edge = RunScale::Scaled(0.5 / 30_000.0);
        assert_eq!(edge.scaled(shortest), Some(SimDuration::from_ms(1)));
        check_scale(edge).unwrap();
        let below = RunScale::Scaled(0.499 / 30_000.0);
        assert_eq!(below.scaled(shortest), None);
        let err = check_scale(below).unwrap_err();
        assert!(err.contains("30 s") && !err.contains('\n'), "{err}");
        // The advice in the message is itself accepted.
        check_scale(RunScale::Scaled(0.0000167)).unwrap();
        assert!(err.ends_with("0.0000167"), "{err}");
        assert!(check_scale(RunScale::Scaled(0.000_000_1)).is_err());
        check_scale(RunScale::Scaled(0.01)).unwrap();
        check_scale(RunScale::Full).unwrap();
        // Above the boundary nothing is clamped: every scaled period
        // is the rounded product.
        let f = scale_flower(&FlowerConfig::paper(), edge);
        assert_eq!(f.fix_finger_period.as_ms(), 1);
        assert_eq!(f.stabilize_period.as_ms(), 1);
        assert_eq!(f.t_gossip.as_ms(), 30);
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
