//! Flower-CDN protocol parameters.
//!
//! A value is a field of [`FlowerConfig`] because the paper names it as
//! a parameter, or because an experiment or a benchmark workload gives
//! it a second value; anything else is a constant next to the code
//! that reads it.
//!
//! * **Table 1** (defaults reproduce it): `v_gossip`, `l_gossip`,
//!   `t_gossip`, `push_threshold`, `max_overlay` (`Sco`) — the five the
//!   paper's evaluation sweeps (`table2a`/`b`/`c`, `push-threshold`;
//!   `scale` and `chaos` size `Sco` with the population) — and, from
//!   its prose, `t_dead`, `keepalive_period` (§5.1) and
//!   `locality_bits` (§3.1).
//! * **Swept by an experiment:** `cache_policy` and `cache_capacity`
//!   (`cache`), `instance_bits`, `petal_split_threshold` and
//!   `petal_merge_floor` (`scale`, §5.3).
//! * **Set by the time scaling or a workload** (`experiments::runner`,
//!   `chaos`, `benchmark/src/workloads.rs`): `stabilize_period`,
//!   `fix_finger_period`, `dir_replacement_jitter`, `query_timeout`,
//!   `query_retry_budget`; `max_dir_hops` has one value in use and is
//!   a field only because `benchmark/src/probes/directory.rs` reads it.
//! * **Constants** of `node`, each with one reader there:
//!   `SUMMARY_FETCH_RETRIES` = 2, `HOLDER_RETRIES` = 3,
//!   `SUMMARY_REFRESH_THRESHOLD` = 0.1.
//!
//! The one knob outside this struct that only a test turns on is
//! `simnet::ChurnConfig::permanent`. It stays because the benchmark
//! pins it: `benchmark/src/workloads.rs` and
//! `benchmark/src/probes/fault.rs` build `ChurnConfig` field by field.

use simnet::SimDuration;

use crate::cache::CachePolicy;

/// All tunables of the Flower-CDN protocol.
#[derive(Clone, Debug)]
pub struct FlowerConfig {
    // ---- gossip (Table 1, §4.2) ----
    /// View size `Vgossip`: max contacts in a content peer's view.
    pub v_gossip: usize,
    /// Gossip length `Lgossip`: view entries sent per exchange.
    pub l_gossip: usize,
    /// Gossip period `Tgossip` between exchanges a peer initiates.
    pub t_gossip: SimDuration,

    // ---- directory maintenance (§4.2.1, §5.1) ----
    /// Fraction of changed content triggering a push to the directory
    /// (Table 1: push threshold; default 0.1).
    pub push_threshold: f64,
    /// Age limit `Tdead` (in directory ticks) after which a directory
    /// entry is considered dead and removed (§5.1).
    pub t_dead: u32,
    /// Keepalive period of content peers toward their directory
    /// (§5.1); also the directory's age-increment tick.
    pub keepalive_period: SimDuration,

    // ---- overlay capacity (§5.3, Table 1) ----
    /// Maximum content-overlay size `Sco`.
    pub max_overlay: usize,

    // ---- D-ring key scheme (§3.1, §5.3) ----
    /// Bits `m1` of the locality segment (2^m1 ≥ k).
    pub locality_bits: u32,
    /// Extra low-order bits `b` for the §5.3 scale-up extension
    /// (multiple directory peers per (website, locality)); 0 in the
    /// paper's base design.
    pub instance_bits: u32,

    // ---- PetalUp split/merge policy (§5.3 scale-up) ----
    /// Split a petal (double its live directory instances, up to
    /// `2^b`) when one instance processes more than this many queries
    /// within one directory tick window. Inert when `instance_bits`
    /// is 0.
    pub petal_split_threshold: u64,
    /// Merge a petal (halve its live instances) when the *total*
    /// windowed query load across all its live instances falls below
    /// this floor. Must stay below the split threshold (hysteresis).
    pub petal_merge_floor: u64,

    // ---- DHT maintenance ----
    /// Chord stabilization period for directory peers.
    pub stabilize_period: SimDuration,
    /// Chord finger-repair period for directory peers.
    pub fix_finger_period: SimDuration,

    // ---- failure handling (§5.1, §5.2) ----
    /// Directory-level redirections allowed per query (Algorithm 3's
    /// directory-summary step). The paper's design gives 1: the
    /// locality's own directory plus at most one summary redirect.
    /// 0 disables directory summaries.
    pub max_dir_hops: u8,
    /// Maximum jitter before a content peer attempts to replace a dead
    /// directory (reduces join collisions; §5.2).
    pub dir_replacement_jitter: SimDuration,
    /// Timeout armed on every pending query. The paper's §5 failure
    /// handling relies on *synchronous* bounces from dead
    /// destinations; partitions and silent message loss give no such
    /// signal, so a pending query that hears nothing for this long
    /// fires a retry (doubling the timeout each attempt, re-routed to
    /// a sibling petal instance where the §5.3 scheme provides one)
    /// and, past [`FlowerConfig::query_retry_budget`], degrades to
    /// the origin server. `None` (the default, the paper's base
    /// system) disables timeouts entirely.
    pub query_timeout: Option<SimDuration>,
    /// Timed-out re-route attempts before a query degrades to the
    /// origin server. Only meaningful with `query_timeout` set.
    pub query_retry_budget: u8,

    // ---- §8 extensions (off by default: the paper's base system) ----
    /// Cache replacement policy of content peers (paper: unbounded).
    pub cache_policy: CachePolicy,
    /// Cache capacity in objects when the policy is bounded.
    pub cache_capacity: usize,
}

impl Default for FlowerConfig {
    fn default() -> Self {
        FlowerConfig {
            v_gossip: 50,
            l_gossip: 10,
            t_gossip: SimDuration::from_mins(30),
            push_threshold: 0.1,
            t_dead: 10,
            keepalive_period: SimDuration::from_mins(5),
            max_overlay: 100,
            locality_bits: 8,
            instance_bits: 0,
            petal_split_threshold: 500,
            petal_merge_floor: 100,
            stabilize_period: SimDuration::from_mins(1),
            fix_finger_period: SimDuration::from_secs(30),
            max_dir_hops: 1,
            dir_replacement_jitter: SimDuration::from_secs(60),
            query_timeout: None,
            query_retry_budget: 2,
            cache_policy: CachePolicy::Unbounded,
            cache_capacity: 0,
        }
    }
}

impl FlowerConfig {
    /// The paper's chosen operating point (§6.2): `Tgossip = 30 min`,
    /// `Lgossip = 10`, `Vgossip = 50`.
    pub fn paper() -> Self {
        FlowerConfig::default()
    }

    /// A fast-converging configuration for small tests: second-scale
    /// periods instead of minutes.
    pub fn fast_test() -> Self {
        FlowerConfig {
            t_gossip: SimDuration::from_secs(10),
            keepalive_period: SimDuration::from_secs(5),
            stabilize_period: SimDuration::from_secs(5),
            fix_finger_period: SimDuration::from_secs(2),
            dir_replacement_jitter: SimDuration::from_secs(20),
            max_overlay: 20,
            v_gossip: 10,
            l_gossip: 4,
            ..Default::default()
        }
    }

    /// Validate invariants against the deployment parameters.
    pub fn validate(&self, num_localities: usize) -> Result<(), String> {
        if self.v_gossip == 0 {
            return Err("Vgossip must be positive".into());
        }
        if self.l_gossip == 0 || self.l_gossip > self.v_gossip {
            return Err(format!(
                "Lgossip must be in 1..=Vgossip ({} vs {})",
                self.l_gossip, self.v_gossip
            ));
        }
        if self.t_gossip.is_zero() {
            return Err("Tgossip must be positive".into());
        }
        if self.push_threshold.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("push threshold must be positive".into());
        }
        if self.t_dead == 0 {
            return Err("Tdead must be positive".into());
        }
        if self.max_overlay == 0 {
            return Err("Sco must be positive".into());
        }
        // The key-scheme geometry check lives in `KeyScheme::try_new`
        // (the single authority): an invalid `m1 + b` is a config
        // error here, never a panic downstream.
        let scheme = crate::id::KeyScheme::try_new(self.locality_bits, self.instance_bits)?;
        if num_localities > scheme.max_localities() {
            return Err(format!(
                "2^m1 = {} localities representable, {num_localities} requested",
                scheme.max_localities()
            ));
        }
        if self.instance_bits > 0 && self.petal_merge_floor >= self.petal_split_threshold {
            return Err(format!(
                "petal merge floor ({}) must stay below the split threshold ({}) \
                 or petals would oscillate",
                self.petal_merge_floor, self.petal_split_threshold
            ));
        }
        if self.cache_policy != CachePolicy::Unbounded && self.cache_capacity == 0 {
            return Err("bounded cache policy needs a positive capacity".into());
        }
        if let Some(t) = self.query_timeout {
            if t.is_zero() {
                return Err("query timeout must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let c = FlowerConfig::default();
        assert_eq!(c.v_gossip, 50);
        assert_eq!(c.l_gossip, 10);
        assert_eq!(c.t_gossip, SimDuration::from_mins(30));
        assert_eq!(c.max_overlay, 100);
        assert!((c.push_threshold - 0.1).abs() < 1e-12);
        c.validate(6).unwrap();
        // The protocol constants that are not fields.
        use crate::node::{HOLDER_RETRIES, SUMMARY_FETCH_RETRIES, SUMMARY_REFRESH_THRESHOLD};
        assert_eq!(SUMMARY_FETCH_RETRIES, 2);
        assert_eq!(HOLDER_RETRIES, 3);
        assert_eq!(SUMMARY_REFRESH_THRESHOLD, 0.1);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn validation_rejects_bad_configs() {
        let mut c = FlowerConfig::default();
        c.l_gossip = 0;
        assert!(c.validate(6).is_err());
        c = FlowerConfig::default();
        c.l_gossip = c.v_gossip + 1;
        assert!(c.validate(6).is_err());
        c = FlowerConfig::default();
        c.locality_bits = 2;
        assert!(c.validate(6).is_err(), "6 localities need 3 bits");
        c = FlowerConfig::default();
        c.locality_bits = 3;
        assert!(c.validate(6).is_ok());
        c = FlowerConfig::default();
        c.instance_bits = 60;
        assert!(c.validate(6).is_err());
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn key_scheme_bound_is_an_error_not_a_panic() {
        use crate::id::KeyScheme;
        use chord::ChordId;
        // The widest geometry KeyScheme::try_new accepts…
        let widest = ChordId::BITS - KeyScheme::MIN_WEBSITE_BITS;
        let mut c = FlowerConfig::default();
        c.locality_bits = 8;
        c.instance_bits = widest - 8;
        // (merge floor < split threshold holds by default)
        assert!(c.validate(6).is_ok(), "m2 = MIN_WEBSITE_BITS is legal");
        // …one more bit is a config *error* on this path, while
        // `KeyScheme::new` panics — the same single boundary.
        c.instance_bits = widest - 7;
        let err = c.validate(6).unwrap_err();
        assert!(err.contains("website bits"), "unexpected error: {err}");
        assert!(KeyScheme::try_new(8, widest - 7).is_err());
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn petal_policy_needs_hysteresis() {
        let mut c = FlowerConfig::default();
        c.instance_bits = 2;
        c.petal_split_threshold = 100;
        c.petal_merge_floor = 100;
        assert!(c.validate(6).is_err(), "floor == threshold oscillates");
        c.petal_merge_floor = 99;
        assert!(c.validate(6).is_ok());
        // Inert at instance_bits = 0: the knobs are not even checked.
        c.instance_bits = 0;
        c.petal_merge_floor = 100;
        assert!(c.validate(6).is_ok());
    }
}
