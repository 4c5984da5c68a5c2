//! # bloom — Bloom filters and content summaries
//!
//! Flower-CDN represents the content held by a peer or indexed by a
//! directory as a *summary*: a Bloom filter over object identifiers,
//! following the summary-cache design of Fan et al. (SIGCOMM 1998)
//! that the paper cites for both its content summaries (§4.2) and its
//! directory summaries (§3.3).
//!
//! Sizing follows Table 1 of the paper: `summary size = 8 · nb-ob`
//! bits, i.e. 8 bits per potential object, which with the optimal
//! number of hash functions gives a false-positive rate around 2 %.
//!
//! The crate provides:
//! * [`BitVec`] — a fixed-size bit vector that lists few set bits as
//!   their positions;
//! * [`BloomFilter`] — insert / query with double hashing;
//! * [`ContentSummary`] — the paper-facing summary sized per Table 1,
//!   reporting its wire size for the bandwidth model: below two
//!   inserts it is its object id (no filter, nothing shared), from two
//!   a shared filter; every answer is the filter's;
//! * [`SummaryBits`] — the *maintained* form for an owner that keeps
//!   its own object list: no bits below two objects, from there bits
//!   set on an object's first occurrence and marked stale when its
//!   last occurrence goes, held in the filter its snapshots share,
//!   with snapshots identical to a from-scratch [`ContentSummary`]
//!   (the hot-path replacement for rebuild-per-gossip);
//! * [`MaintainedSummary`] — [`SummaryBits`] over a multiset of its
//!   own, kept for the benchmark's probe until ROADMAP item 7.

#![forbid(unsafe_code)]

pub mod bits;
pub mod filter;
pub mod maintained;
pub mod summary;

pub use bits::BitVec;
pub use filter::BloomFilter;
pub use maintained::{MaintainedSummary, SummaryBits};
pub use summary::{ContentSummary, ObjectId};
