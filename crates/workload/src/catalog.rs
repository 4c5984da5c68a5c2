//! The website/object catalog.
//!
//! Flower-CDN supports a set `W` of websites, each providing a set of
//! requestable, cacheable objects (web pages, documents): `|W| = 100`
//! websites, `nb-ob = 500` objects per website (§6.1: "each website
//! provides 500 objects"; Table 1's `nb-ob = 100` contradicts the
//! text; 500 is what the reproduction runs), of which 6 websites are
//! *active* (receive queries) — the other 94 exist only as D-ring
//! entries, exactly as in the paper's setup.
//!
//! Object identifiers are global 64-bit keys derived by hashing
//! `(website, object index)`, standing in for the paper's
//! `hash(url)`. Object sizes (10–100 KB per the paper's description)
//! are derived deterministically from the object id; the paper does
//! not model transfer sizes, and neither do our metrics, but the
//! sizes feed the `Transfer` traffic class for completeness.

use bloom::ObjectId;

/// Identifier of a website in `W`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WebsiteId(pub u16);

impl WebsiteId {
    /// The website as a usize index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for WebsiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ws{}", self.0)
    }
}

/// Catalog shape parameters (Table 1 defaults).
#[derive(Clone, Debug)]
pub struct CatalogConfig {
    /// Total number of websites `|W|`.
    pub num_websites: usize,
    /// Number of websites receiving queries.
    pub active_websites: usize,
    /// Objects per website (`nb-ob`).
    pub objects_per_website: usize,
    /// Smallest object size in bytes.
    pub min_object_bytes: u32,
    /// Largest object size in bytes.
    pub max_object_bytes: u32,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            num_websites: 100,
            active_websites: 6,
            objects_per_website: 500,
            min_object_bytes: 10 * 1024,
            max_object_bytes: 100 * 1024,
        }
    }
}

impl CatalogConfig {
    /// A small catalog for fast tests.
    pub fn small_test() -> Self {
        CatalogConfig {
            num_websites: 8,
            active_websites: 2,
            objects_per_website: 20,
            ..Default::default()
        }
    }
}

/// The immutable website/object universe of a simulation.
#[derive(Clone, Debug)]
pub struct Catalog {
    cfg: CatalogConfig,
}

const MIX_ADD: u64 = 0x9E37_79B9_7F4A_7C15;
const MIX_MUL1: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX_MUL2: u64 = 0x94D0_49BB_1331_11EB;

/// SplitMix64 finalizer (local copy to keep this crate dependency-free
/// beyond `bloom`). A bijection: [`unmix64`] undoes it.
const fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(MIX_ADD);
    z = (z ^ (z >> 30)).wrapping_mul(MIX_MUL1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX_MUL2);
    z ^ (z >> 31)
}

/// The inverse of an odd `m` modulo 2^64 (Newton's iteration: each
/// step doubles the correct low bits, from the 3 of `m·m ≡ 1 mod 8`).
const fn mul_inverse(m: u64) -> u64 {
    let mut x = m;
    let mut i = 0;
    while i < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)));
        i += 1;
    }
    x
}

/// `x` from `y = x ^ (x >> s)`, for `s ≥ 16`: the first step leaves
/// `x ^ (x >> 2s)`, the second `x ^ (x >> 4s)`, which is `x`.
const fn unshift(y: u64, s: u32) -> u64 {
    let x = y ^ (y >> s);
    x ^ (x >> (2 * s))
}

const MIX_MUL1_INV: u64 = mul_inverse(MIX_MUL1);
const MIX_MUL2_INV: u64 = mul_inverse(MIX_MUL2);

/// The inverse of [`mix64`].
const fn unmix64(mut z: u64) -> u64 {
    z = unshift(z, 31).wrapping_mul(MIX_MUL2_INV);
    z = unshift(z, 27).wrapping_mul(MIX_MUL1_INV);
    unshift(z, 30).wrapping_sub(MIX_ADD)
}

/// The constant bits of an object id's pre-image: the website sits in
/// bits 32..48, the rank below. Its `0xC7` byte overlaps the website's
/// high byte, so `ws` and `ws | 0xC700` share their ids — distinct
/// only for catalogs of up to 256 websites.
const ID_MAGIC: u64 = 0x0B1E_C700_0000_0000;

/// The id of the object of popularity rank `rank` of `ws` (the
/// paper's `hash(url)`), for a catalog of any shape:
/// [`Catalog::object_id`] without the rank bound. [`catalog_rank`]
/// inverts it.
pub const fn catalog_id(ws: WebsiteId, rank: usize) -> ObjectId {
    ObjectId(mix64(((ws.0 as u64) << 32) | rank as u64 | ID_MAGIC))
}

/// The inverse of [`catalog_id`]: the website and rank whose id `o`
/// is, or `None` when `o` is no catalog id (a made-up key). Ranks come
/// back below 2^32; of two websites that share ids (see `ID_MAGIC`) the
/// smaller is named. Catalog bounds are not checked:
/// `catalog_id(ws, rank) == o` whenever this returns `Some((ws, rank))`.
#[inline]
pub const fn catalog_rank(o: ObjectId) -> Option<(WebsiteId, usize)> {
    let pre = unmix64(o.0);
    if (pre >> 48) != ID_MAGIC >> 48 || (pre >> 40) & 0xC7 != 0xC7 {
        return None;
    }
    let ws = ((pre >> 32) & !(ID_MAGIC >> 32)) as u16;
    Some((WebsiteId(ws), pre as u32 as usize))
}

impl Catalog {
    /// Build a catalog.
    pub fn new(cfg: CatalogConfig) -> Self {
        assert!(cfg.num_websites > 0, "need at least one website");
        assert!(
            cfg.active_websites <= cfg.num_websites,
            "cannot activate more websites than exist"
        );
        assert!(cfg.objects_per_website > 0, "websites must provide objects");
        assert!(
            cfg.min_object_bytes <= cfg.max_object_bytes,
            "object size range inverted"
        );
        Catalog { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &CatalogConfig {
        &self.cfg
    }

    /// All websites in `W`.
    pub fn websites(&self) -> impl Iterator<Item = WebsiteId> {
        (0..self.cfg.num_websites as u16).map(WebsiteId)
    }

    /// The active (queried) websites: the first `active_websites`
    /// entries of `W`.
    pub fn active_websites(&self) -> impl Iterator<Item = WebsiteId> {
        (0..self.cfg.active_websites as u16).map(WebsiteId)
    }

    /// True if `ws` receives queries.
    pub fn is_active(&self, ws: WebsiteId) -> bool {
        ws.idx() < self.cfg.active_websites
    }

    /// Number of objects per website (`nb-ob`).
    pub fn objects_per_website(&self) -> usize {
        self.cfg.objects_per_website
    }

    /// The global object id of the `rank`-th most popular object of
    /// `ws` (the paper's `hash(url)`).
    pub fn object_id(&self, ws: WebsiteId, rank: usize) -> ObjectId {
        assert!(
            rank < self.cfg.objects_per_website,
            "object rank out of range"
        );
        catalog_id(ws, rank)
    }

    /// All object ids of a website, in popularity-rank order.
    pub fn objects_of(&self, ws: WebsiteId) -> Vec<ObjectId> {
        (0..self.cfg.objects_per_website)
            .map(|r| self.object_id(ws, r))
            .collect()
    }

    /// Deterministic object size in bytes within the configured range.
    pub fn object_size(&self, o: ObjectId) -> u32 {
        let span = (self.cfg.max_object_bytes - self.cfg.min_object_bytes) as u64;
        if span == 0 {
            return self.cfg.min_object_bytes;
        }
        self.cfg.min_object_bytes + (mix64(o.key()) % (span + 1)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = Catalog::new(CatalogConfig::default());
        assert_eq!(c.websites().count(), 100);
        assert_eq!(c.active_websites().count(), 6);
        assert_eq!(c.objects_per_website(), 500);
        assert!(c.is_active(WebsiteId(5)));
        assert!(!c.is_active(WebsiteId(6)));
    }

    #[test]
    fn object_ids_unique_across_catalog() {
        let c = Catalog::new(CatalogConfig::default());
        let mut all = std::collections::HashSet::new();
        for ws in c.websites() {
            for o in c.objects_of(ws) {
                assert!(all.insert(o), "duplicate object id {o}");
            }
        }
        assert_eq!(all.len(), 100 * 500);
    }

    #[test]
    fn object_ids_deterministic() {
        let c1 = Catalog::new(CatalogConfig::default());
        let c2 = Catalog::new(CatalogConfig::default());
        assert_eq!(c1.object_id(WebsiteId(3), 7), c2.object_id(WebsiteId(3), 7));
    }

    #[test]
    fn object_sizes_in_range() {
        let c = Catalog::new(CatalogConfig::default());
        for ws in c.active_websites() {
            for o in c.objects_of(ws) {
                let s = c.object_size(o);
                assert!(
                    (10 * 1024..=100 * 1024).contains(&s),
                    "size {s} out of range"
                );
            }
        }
    }

    #[test]
    fn fixed_size_when_range_collapsed() {
        let cfg = CatalogConfig {
            min_object_bytes: 500,
            max_object_bytes: 500,
            ..Default::default()
        };
        let c = Catalog::new(cfg);
        assert_eq!(c.object_size(c.object_id(WebsiteId(0), 0)), 500);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn rank_bounds_checked() {
        let c = Catalog::new(CatalogConfig::small_test());
        let _ = c.object_id(WebsiteId(0), 20);
    }

    #[test]
    #[should_panic(expected = "more websites")]
    fn active_exceeding_total_rejected() {
        let _ = Catalog::new(CatalogConfig {
            num_websites: 3,
            active_websites: 4,
            ..Default::default()
        });
    }

    #[test]
    fn the_paper_catalog_inverts_and_made_up_keys_do_not() {
        let c = Catalog::new(CatalogConfig::default());
        for ws in c.websites() {
            for rank in [0, 1, 63, 64, 499] {
                assert_eq!(catalog_rank(c.object_id(ws, rank)), Some((ws, rank)));
            }
        }
        for key in [0, 3, 7919 * 5 + 3, u64::MAX / 5, u64::MAX] {
            assert_eq!(catalog_rank(ObjectId(key)), None, "key {key}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `catalog_rank` inverts `catalog_id` for every website a
        /// catalog of up to 256 names and every rank below 2^32.
        #[test]
        fn catalog_rank_inverts_catalog_id(ws in 0u16..256, rank in 0usize..1 << 32) {
            prop_assert_eq!(catalog_rank(catalog_id(WebsiteId(ws), rank)), Some((WebsiteId(ws), rank)));
        }

        /// Whatever key it names a pre-image for, that pre-image maps
        /// back to the key — websites that share ids included.
        #[test]
        fn every_named_pre_image_is_exact(ws in any::<u16>(), rank in 0usize..1 << 32, key in any::<u64>()) {
            for o in [catalog_id(WebsiteId(ws), rank), ObjectId(key)] {
                if let Some((w, r)) = catalog_rank(o) {
                    prop_assert_eq!(catalog_id(w, r), o);
                }
            }
            prop_assert!(catalog_rank(catalog_id(WebsiteId(ws), rank)).is_some());
        }
    }
}
