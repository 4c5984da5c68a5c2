//! # experiments — regenerating the paper's evaluation (§6)
//!
//! One module per concern:
//!
//! * [`claims`] — the paper's §6 as data: one row per claim (the
//!   paper's value, an accepted band, a reader over the run) and the
//!   parameter sweeps of Table 2(a–c);
//! * [`runner`] — configured runs of the Flower-CDN system and the
//!   Squirrel baseline at paper scale (optionally time-scaled down);
//! * [`report`] — fixed-width table, CSV and `METRICS.json`
//!   rendering;
//! * [`gate`] — the metrics gate: the invariants a run's registry
//!   snapshots must satisfy, and their attribution table;
//! * [`exps`] — one function per table/figure and extension
//!   experiment, each returning a printable report and its checks.
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
