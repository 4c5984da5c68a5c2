//! # squirrel — the paper's baseline P2P web cache
//!
//! Implementation of **Squirrel** (Iyer, Rowstron, Druschel; PODC
//! 2002) in its *directory* variant — the comparator of the
//! Flower-CDN paper's evaluation (§6.1): all participants join one
//! locality-blind DHT; the node whose id is closest to `hash(url)`
//! is the object's *home node* and keeps a small directory of
//! pointers to recent downloaders; every query (after a local cache
//! miss) is routed through the DHT to the home node, receives a
//! pointer, and fetches from the pointed-to peer — wherever on the
//! planet it happens to be. The contrast with Flower-CDN's
//! locality-aware one-hop content overlays produces the paper's
//! headline 9×/2× improvements (Figures 7–8).
//!
//! [`SquirrelSystem`] builds from the Flower-CDN run's own
//! [`flower_core::SystemConfig`], so the two compared systems cannot
//! drift apart in topology, catalog, workload or seed.

#![forbid(unsafe_code)]

pub mod msg;
pub mod node;
pub mod system;

pub use msg::{SQuery, SquirrelMsg};
pub use node::{SquirrelDeployment, SquirrelNode};
pub use system::{SquirrelReport, SquirrelSystem};
