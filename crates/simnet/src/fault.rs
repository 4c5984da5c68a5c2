//! Deterministic fault injection: scripted partitions, link loss and
//! correlated regional failures.
//!
//! A [`FaultPlane`] is the failure-side sibling of
//! [`ChurnScript`](crate::churn::ChurnScript): a static script,
//! compiled once and installed on an [`Engine`](crate::engine::Engine)
//! via [`Engine::set_fault_plane`](crate::engine::Engine::set_fault_plane),
//! that the delivery path consults while the simulation runs. Three
//! fault families:
//!
//! * **Partitions** ([`Partition`]) cut every wire message between two
//!   locality sets for a scheduled window, *silently* — no bounce is
//!   generated, unlike sends to dead nodes, because a partitioned
//!   network gives the sender no synchronous signal. The cut is
//!   evaluated at delivery time as a pure function of `(delivery
//!   time, sender locality, destination locality)`, so it is
//!   independent of the shard layout by construction.
//! * **Link loss** ([`LinkLoss`]) drops each wire send that crosses a
//!   locality boundary inside the active window with probability `p`;
//!   intra-locality (LAN) links stay lossless. The coin is flipped **at
//!   send time from the emitter's own RNG stream**, which is the same
//!   stream on every shard layout — results stay bit-identical across
//!   `--shards 1/2/4`. When no loss window is active the emitter's
//!   stream is not consulted at all, so enabling an empty plane
//!   changes nothing.
//! * **Regional failures** ([`RegionalFailure`]) kill every node of a
//!   locality at one instant and revive them on a staggered schedule
//!   (node *i* of the locality's node list recovers at
//!   `recover_start + i · stagger`). They compile to the same
//!   broadcast churn events `ChurnScript` uses — no randomness, no
//!   layout dependence.
//!
//! The determinism contract, in one line: **every fault decision is a
//! pure function of the script, the topology and the emitter's
//! private RNG stream** — never of shard count or thread schedule.

use crate::time::{SimDuration, SimTime};
use crate::topology::Locality;

/// A scheduled network partition between two locality sets.
///
/// While `start ≤ now < heal`, every wire message with the sender in
/// one side and the destination in the other is silently dropped (in
/// both directions). Localities in neither side are unaffected.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Instant the partition takes effect.
    pub start: SimTime,
    /// Instant the partition heals (exclusive — messages delivered at
    /// `heal` go through).
    pub heal: SimTime,
    /// One side of the cut.
    pub side_a: Vec<Locality>,
    /// The other side of the cut.
    pub side_b: Vec<Locality>,
}

/// A [`Partition`] compiled to locality bitmasks for the hot delivery
/// path.
#[derive(Clone, Copy, Debug)]
struct CompiledPartition {
    start: SimTime,
    heal: SimTime,
    mask_a: u128,
    mask_b: u128,
}

/// A probabilistic message-loss window on the links between
/// localities; intra-locality (LAN) links stay lossless.
#[derive(Clone, Copy, Debug)]
pub struct LinkLoss {
    /// Instant loss starts.
    pub start: SimTime,
    /// Instant loss ends (exclusive).
    pub end: SimTime,
    /// Per-message drop probability in `[0, 1]`.
    pub probability: f64,
}

/// A correlated regional failure: every node of `locality` dies at
/// `at`; node `i` of the locality's node list recovers at
/// `recover_start + i · stagger`.
#[derive(Clone, Copy, Debug)]
pub struct RegionalFailure {
    /// Instant the whole locality goes down.
    pub at: SimTime,
    /// The locality that fails.
    pub locality: Locality,
    /// Instant the first node comes back.
    pub recover_start: SimTime,
    /// Gap between consecutive node recoveries.
    pub stagger: SimDuration,
}

/// A compiled, installable fault script. See the module docs for the
/// three fault families and the determinism contract.
#[derive(Clone, Debug, Default)]
pub struct FaultPlane {
    partitions: Vec<CompiledPartition>,
    loss: Vec<LinkLoss>,
    regional: Vec<RegionalFailure>,
}

fn locality_mask(side: &[Locality]) -> u128 {
    let mut mask = 0u128;
    for l in side {
        assert!(
            l.idx() < 128,
            "FaultPlane supports locality indices < 128, got {}",
            l.idx()
        );
        mask |= 1u128 << l.idx();
    }
    mask
}

impl FaultPlane {
    /// An empty plane (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a scheduled [`Partition`]. Panics on an empty side,
    /// overlapping sides or a non-positive window — a silently inert
    /// partition would invalidate whatever experiment scripted it.
    pub fn partition(mut self, p: Partition) -> Self {
        assert!(
            !p.side_a.is_empty() && !p.side_b.is_empty(),
            "partition sides must be non-empty"
        );
        assert!(
            p.start < p.heal,
            "partition must heal after it starts ({:?} !< {:?})",
            p.start,
            p.heal
        );
        let mask_a = locality_mask(&p.side_a);
        let mask_b = locality_mask(&p.side_b);
        assert!(
            mask_a & mask_b == 0,
            "partition sides overlap (a locality cannot be on both sides)"
        );
        self.partitions.push(CompiledPartition {
            start: p.start,
            heal: p.heal,
            mask_a,
            mask_b,
        });
        self
    }

    /// Add a [`LinkLoss`] window. Panics on a probability outside
    /// `[0, 1]` or a non-positive window.
    pub fn link_loss(mut self, l: LinkLoss) -> Self {
        assert!(
            (0.0..=1.0).contains(&l.probability),
            "loss probability must be in [0, 1], got {}",
            l.probability
        );
        assert!(
            l.start < l.end,
            "loss window must end after it starts ({:?} !< {:?})",
            l.start,
            l.end
        );
        self.loss.push(l);
        self
    }

    /// Add a [`RegionalFailure`]. Panics when recovery is scheduled
    /// before the failure.
    pub fn regional_failure(mut self, r: RegionalFailure) -> Self {
        assert!(
            r.recover_start > r.at,
            "regional recovery must start after the failure ({:?} !> {:?})",
            r.recover_start,
            r.at
        );
        self.regional.push(r);
        self
    }

    /// True when the plane scripts nothing at all.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty() && self.loss.is_empty() && self.regional.is_empty()
    }

    /// Does an active partition cut a message from locality `a` to
    /// locality `b` at instant `at`? Pure function of its arguments.
    #[inline]
    pub fn cuts(&self, at: SimTime, a: Locality, b: Locality) -> bool {
        if self.partitions.is_empty() {
            return false;
        }
        let (ma, mb) = (1u128 << a.idx().min(127), 1u128 << b.idx().min(127));
        self.partitions.iter().any(|p| {
            at >= p.start
                && at < p.heal
                && ((p.mask_a & ma != 0 && p.mask_b & mb != 0)
                    || (p.mask_b & ma != 0 && p.mask_a & mb != 0))
        })
    }

    /// The drop probability a send at `at` is exposed to, or `None`
    /// when no loss window applies — in which case the caller must
    /// not consume any randomness. `crosses_locality` is whether the
    /// message leaves the sender's locality; one that does not is
    /// never at risk.
    #[inline]
    pub fn loss_probability(&self, at: SimTime, crosses_locality: bool) -> Option<f64> {
        if !crosses_locality {
            return None;
        }
        self.loss
            .iter()
            .find(|l| at >= l.start && at < l.end)
            .map(|l| l.probability)
    }

    /// The scripted regional failures, for the engine to compile into
    /// broadcast churn events at install time.
    pub fn regional_failures(&self) -> &[RegionalFailure] {
        &self.regional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn partition_cuts_both_directions_within_window() {
        let plane = FaultPlane::new().partition(Partition {
            start: t(10),
            heal: t(20),
            side_a: vec![Locality(0)],
            side_b: vec![Locality(1), Locality(2)],
        });
        assert!(plane.cuts(t(10), Locality(0), Locality(1)));
        assert!(plane.cuts(t(15), Locality(2), Locality(0)));
        // Outside the window, before and at heal.
        assert!(!plane.cuts(t(9), Locality(0), Locality(1)));
        assert!(!plane.cuts(t(20), Locality(0), Locality(1)));
        // Uninvolved locality and same-side traffic pass.
        assert!(!plane.cuts(t(15), Locality(3), Locality(0)));
        assert!(!plane.cuts(t(15), Locality(1), Locality(2)));
        assert!(!plane.cuts(t(15), Locality(0), Locality(0)));
    }

    #[test]
    #[should_panic(expected = "sides overlap")]
    fn overlapping_partition_sides_panic() {
        let _ = FaultPlane::new().partition(Partition {
            start: t(0),
            heal: t(1),
            side_a: vec![Locality(0), Locality(1)],
            side_b: vec![Locality(1)],
        });
    }

    #[test]
    #[should_panic(expected = "must heal after")]
    fn inverted_partition_window_panics() {
        let _ = FaultPlane::new().partition(Partition {
            start: t(5),
            heal: t(5),
            side_a: vec![Locality(0)],
            side_b: vec![Locality(1)],
        });
    }

    #[test]
    fn loss_window_scopes_and_bounds() {
        let plane = FaultPlane::new().link_loss(LinkLoss {
            start: t(1),
            end: t(2),
            probability: 0.25,
        });
        assert_eq!(plane.loss_probability(t(1), true), Some(0.25));
        // Intra-locality links are exempt.
        assert_eq!(plane.loss_probability(t(1), false), None);
        assert_eq!(plane.loss_probability(t(0), true), None);
        assert_eq!(plane.loss_probability(t(2), true), None);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn out_of_range_loss_probability_panics() {
        let _ = FaultPlane::new().link_loss(LinkLoss {
            start: t(0),
            end: t(1),
            probability: 1.5,
        });
    }

    #[test]
    #[should_panic(expected = "recovery must start after")]
    fn regional_recovery_before_failure_panics() {
        let _ = FaultPlane::new().regional_failure(RegionalFailure {
            at: t(10),
            locality: Locality(0),
            recover_start: t(10),
            stagger: SimDuration::from_secs(1),
        });
    }

    #[test]
    fn empty_plane_is_empty() {
        assert!(FaultPlane::new().is_empty());
    }
}
