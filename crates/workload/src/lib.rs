//! # workload — synthetic web-query workloads
//!
//! The paper's evaluation (§6.1) generates a synthetic workload
//! because "available web traces reflect object accesses while we are
//! interested in website accesses":
//!
//! * `|W| = 100` websites, of which **6 are active** (queried);
//! * each website provides `nb-ob` requestable, cacheable objects
//!   (Table 1: 100);
//! * queries arrive at **6 per second** for 24 hours, are assigned to
//!   one of the active websites, and request an object drawn from a
//!   **Zipf** distribution over that website's objects (Breslau et
//!   al., INFOCOM 1999), with no correlation between websites;
//! * the originator is "a new client or a content peer of ws, chosen
//!   from a random locality".
//!
//! This crate provides the [`zipf::Zipf`] sampler, the website/object
//! [`catalog`], and the deterministic query trace — [`generator::QueryGen`]
//! on demand, [`generator::QueryStream`] collected, and
//! [`generator::OriginatedTrace`] with the §6.1 originator draw.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod generator;
pub mod zipf;

pub use catalog::{catalog_id, catalog_rank, Catalog, CatalogConfig, WebsiteId};
pub use generator::{
    Communities, OriginatedQuery, OriginatedTrace, QueryEvent, QueryGen, QueryStream, Surge,
    WorkloadConfig,
};
pub use zipf::Zipf;
