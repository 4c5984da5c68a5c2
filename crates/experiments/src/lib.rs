//! # experiments — regenerating the paper's evaluation (§6)
//!
//! One module per concern:
//!
//! * [`paper`] — the numbers the paper reports (Tables 2(a–c),
//!   Figures 5–8), as constants for side-by-side printing;
//! * [`runner`] — configured runs of the Flower-CDN system and the
//!   Squirrel baseline at paper scale (optionally time-scaled down);
//! * [`report`] — fixed-width table, CSV and `METRICS.json`
//!   rendering;
//! * [`gate`] — the metrics gate: the invariants a run's registry
//!   snapshots must satisfy, and their attribution table;
//! * [`exps`] — one function per table/figure, each returning a
//!   printable report and checking the qualitative invariants
//!   (who wins, by what rough factor).
//!
//! The binary `flower-experiments` exposes each experiment as a
//! subcommand; `EXPERIMENTS.md` records a full paper-scale run.

#![forbid(unsafe_code)]

pub mod exps;
pub mod gate;
pub mod paper;
pub mod report;
pub mod runner;

pub use runner::{RunOpts, RunScale};
