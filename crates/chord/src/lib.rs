//! # chord — a Chord DHT substrate
//!
//! From-scratch implementation of Chord (Stoica et al., SIGCOMM 2001),
//! the structured overlay the Flower-CDN paper simulates underneath
//! its D-ring ("we choose to simulate Chord for its simplicity", §6.1)
//! and underneath the Squirrel baseline.
//!
//! The crate is split into:
//!
//! * [`id`] — 64-bit ring arithmetic (intervals, distances, finger
//!   targets, hashing of names onto the ring);
//! * [`state`] — the pure per-node routing state: predecessor,
//!   successor list, finger table, `local_lookup` (the paper's
//!   Algorithm 1 primitive), join/stabilize/notify decision logic,
//!   and [`state::stable_ring`] which produces the converged ring the
//!   paper's evaluation starts from;
//! * [`proto`] — the message protocol: recursive key-based routing
//!   with a pluggable [`proto::RoutePolicy`] next-hop hook (the
//!   single extension point D-ring's Algorithm 2 needs),
//!   `FindSuccessor` lookups, join, stabilization and finger repair.
//!
//! Higher-level protocols embed [`proto::ChordMsg`] in their own
//! message enums and call [`proto::handle`] from their event loops;
//! the DHT never talks to the network directly.

#![forbid(unsafe_code)]

pub mod id;
pub mod proto;
pub mod state;

pub use id::{hash64, hash_bytes, ChordId};
pub use proto::{
    conflict_peers, handle, on_undeliverable, start_fix_finger, start_join, start_route,
    start_stabilize, ChordMsg, ChordOutcome, LookupToken, RoutePayload, RoutePolicy,
    StandardPolicy, Transport, Wire,
};
pub use state::{stable_ring, ChordConfig, ChordState, PeerRef};
