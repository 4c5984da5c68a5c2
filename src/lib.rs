//! # flower-cdn — reproduction of the EDBT 2009 Flower-CDN paper
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] (the `flower-core` crate) — the paper's contribution:
//!   the D-ring directory overlay (a [`chord::ChordState`] per
//!   directory peer, routed with [`core::DringPolicy`]) and
//!   gossip-based content overlays;
//! * [`squirrel`] — the Squirrel baseline the paper compares against;
//! * [`simnet`] — the discrete-event network simulator substrate;
//! * [`metrics`] — the static metric registry every run records into;
//! * [`chord`] — the Chord DHT under the D-ring and the baseline;
//! * [`gossip`] — age-based view/gossip machinery (Algorithms 4–6);
//! * [`bloom`] — Bloom-filter content summaries;
//! * [`workload`] — Zipf query workload generation (Table 1);
//! * [`experiments`] — the harness regenerating every table and
//!   figure of the paper's evaluation (§6).
//!
//! See `examples/quickstart.rs` for a five-minute tour and the
//! top-level `README.md` for the crate map and how to run the paper's
//! experiments.

#![forbid(unsafe_code)]

pub use bloom;
pub use chord;
pub use experiments;
pub use flower_core as core;
pub use gossip;
pub use metrics;
pub use simnet;
pub use squirrel;
pub use workload;
