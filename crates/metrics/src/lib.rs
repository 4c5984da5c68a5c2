//! # metrics — static metric registry for the simulator
//!
//! A rezolus-style observability plane, hand-rolled for this offline
//! workspace (no `linkme`/`ctor` distributed registration, no serde):
//! every metric the system can emit is **declared once** in a static
//! table ([`defs`]) with name, description, unit, owning subsystem and
//! determinism scope, and addressed by a dense enum
//! ([`Counter`], [`Gauge`], [`Hist`]). Recording is an array index and
//! an integer add on plain `u64` cells — no atomics, no locks, no
//! allocation — because each engine shard owns a private
//! [`MetricSet`], exactly like the per-shard `Traffic` accumulators,
//! and the sets are merged **deterministically in shard order** at
//! read time ([`MetricSet::merge_from`]).
//!
//! ## Determinism scopes
//!
//! Metrics carry a [`Scope`]:
//!
//! * [`Scope::Sim`] — a fact about the *simulation* (events delivered
//!   per traffic class, Algorithm 3 draws, gossip exchanges). The
//!   merged value is **bit-identical for every shard count**, and the
//!   shard-parity suite pins that.
//! * [`Scope::Exec`] — a fact about the *execution* (epoch rounds,
//!   barrier idle time, peak queue depth). These legitimately vary
//!   with the shard layout and are excluded from parity checks.
//!
//! [`MetricSet::sim_fingerprint`] flattens every `Sim`-scope cell into
//! one comparable vector for exactly that purpose.
//!
//! ## Histograms
//!
//! Value distributions use a log-linear layout ([`LogLinearHist`]):
//! each power of two is split into `2^GROUP_BITS` linear sub-buckets,
//! giving a bounded relative error over the full `u64` range in a
//! fixed 252-slot array. Buckets are integers, so merging is a
//! bucket-wise add and stays exact.

#![forbid(unsafe_code)]

pub mod defs;
pub mod hist;
pub mod set;

pub use defs::{
    Counter, Gauge, Hist, MetricDef, MetricKind, Scope, Subsystem, METRICS_SCHEMA_NAME,
};
pub use hist::{bucket_bounds, bucket_index, LogLinearHist, BUCKETS, GROUP_BITS};
pub use set::{MetricSet, MetricSink};
