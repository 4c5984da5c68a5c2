//! # gossip — age-based partial views and push dissemination
//!
//! The gossip machinery of Flower-CDN (§4.2 of the paper, Algorithms
//! 4–6), factored out as a reusable substrate. The design follows the
//! gossip-based membership protocols the paper builds on (Cyclon,
//! peer-sampling service):
//!
//! * every peer keeps a bounded *view* of contacts, each entry
//!   carrying an **age** (time since the entry was created) and a
//!   payload (for Flower-CDN: the contact's content summary);
//! * periodically a peer increments all ages, picks the **oldest**
//!   contact, and exchanges a random **subset** of its view plus its
//!   own current summary with it (active behaviour);
//! * on reception, the partner answers symmetrically (passive
//!   behaviour) and both **merge**: duplicate entries keep the lowest
//!   age, then the `Vgossip` most recent entries are retained;
//! * content peers additionally **push** deltas of their content list
//!   to their directory peer once the fraction of unreported changes
//!   passes a threshold (Algorithm 5), and the directory evicts
//!   entries whose age passes `Tdead` (§5.1).
//!
//! The module is generic over the peer identifier `P` and the entry
//! payload `S`, and contains no networking: protocols embed these
//! types and drive them from timer/message events.

#![forbid(unsafe_code)]

pub mod push;
pub mod view;

pub use push::{ChangeKind, ChangeLog, PushPolicy};
pub use view::{View, ViewEntry};
