//! Shared half of the benchmark: workloads, the simulation cell, the
//! end-to-end metrics and their checks. Nothing here reaches below
//! `FlowerSystem`; the layer probes live in the trace binary.

pub mod cell;
pub mod child;
pub mod cli;
pub mod endtoend;
pub mod output;
pub mod stats;
pub mod workloads;
pub mod yardstick;
