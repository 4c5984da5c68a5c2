//! # experiments — regenerating the paper's evaluation (§6)
//!
//! One module per concern:
//!
//! * [`claims`] — the evaluation as data: one row per §6 claim (the
//!   paper's value, an accepted band, a reader over the runs) and one
//!   declaration per experiment [`exps::sweep`] runs (Table 2(a–c), the
//!   push-threshold sweep, Figures 5–8, churn and cache);
//! * [`runner`] — configured runs of the Flower-CDN system and the
//!   Squirrel baseline at paper scale (optionally time-scaled down);
//! * [`report`] — fixed-width table, CSV and `METRICS.json`
//!   rendering;
//! * [`gate`] — the metrics gate: the invariants a run's registry
//!   snapshots must satisfy, and their attribution table;
//! * [`exps`] — `sweep`, which runs those declarations, the table and
//!   check functions they name, and the `scale` and `chaos` sweeps over
//!   shard layouts, each returning a printable report and its checks.
//!
//! The binary `flower-experiments` exposes each experiment as a
//! subcommand.

#![forbid(unsafe_code)]

pub mod claims;
pub mod exps;
pub mod gate;
pub mod report;
pub mod runner;

pub use runner::{RunOpts, RunScale};
