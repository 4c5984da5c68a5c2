//! # flower-core — the Flower-CDN protocol
//!
//! Reproduction of the system contributed by *"Flower-CDN: A hybrid
//! P2P overlay for Efficient Query Processing in CDN"* (El Dick,
//! Pacitti, Kemme; EDBT 2009).
//!
//! Flower-CDN lets the community interested in an under-provisioned
//! website redistribute its content. Its hybrid overlay is:
//!
//! * **D-ring** ([`id`], [`policy`], [`directory`]) — a structured
//!   directory overlay over a standard DHT. One *directory peer*
//!   `d_{ws,loc}` per (website, locality) indexes the content stored
//!   in its locality's *content overlay*. Peer IDs concatenate a
//!   website hash with a locality number (§3.1), so a query routed
//!   with the key `(website, locality)` lands on the right directory
//!   in `O(log n)` hops, and Algorithm 2's tweak keeps it within the
//!   right website when directories are missing (§3.2).
//! * **Content overlays** ([`content`]) — per-(website, locality)
//!   gossip clusters of *content peers* that cache the objects they
//!   requested and serve them to close-by peers. Gossip (Algorithm 4)
//!   disseminates content summaries, discovers members and detects
//!   failures; pushes (Algorithm 5/6) keep the directory index fresh.
//!
//! [`node::FlowerNode`] ties the roles together as a single
//! event-driven state machine over the [`simnet`] simulator, and
//! [`system::FlowerSystem`] builds the paper's full evaluation setup
//! (Table 1).
//!
//! ## Quickstart
//!
//! ```
//! use flower_core::system::{FlowerSystem, SystemConfig};
//!
//! let mut cfg = SystemConfig::small_test();
//! cfg.workload.duration_ms = 60_000; // one simulated minute
//! let (_system, report) = FlowerSystem::run(&cfg);
//! assert!(report.resolved > 0);
//! println!("hit ratio: {:.2}", report.hit_ratio);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod content;
pub mod directory;
pub mod id;
pub mod idmap;
pub mod msg;
pub mod node;
pub mod policy;
pub mod system;

pub use cache::{CacheManager, CachePolicy};
pub use config::FlowerConfig;
pub use content::ContentPeerState;
pub use directory::{DirDecision, DirLoad, DirectoryState, NeighborSummary};
pub use id::{instance_for, KeyScheme};
pub use msg::{FlowerMsg, GossipEntry, GossipPayload, ProviderKind, Query};
pub use node::{Deployment, FlowerNode};
pub use policy::DringPolicy;
pub use system::{FlowerSystem, SystemConfig, SystemReport};
