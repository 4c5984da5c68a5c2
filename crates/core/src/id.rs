//! D-ring key management (§3.1, Figures 2–3) and the §5.3 scale-up
//! extension.
//!
//! A D-ring peer identifier packs, from most to least significant:
//!
//! ```text
//! | website ID (m2 bits) | locality ID (m1 bits) | instance (b bits) |
//! ```
//!
//! * the **website ID** is `hash(ws)` truncated to `m2 = m − m1 − b`
//!   bits, so all directory peers of a website share a prefix and are
//!   therefore *neighbours on the ring* — the property Algorithm 2
//!   and the directory-summary design rely on;
//! * the **locality ID** enumerates the `k` localities, so the
//!   directory peers of one website appear in locality order
//!   (Figure 3);
//! * the **instance** bits implement §5.3's extension ("the peer ID
//!   should be extended by adding b extra bits at the end") allowing
//!   several directory peers — each with its own content overlay —
//!   per (website, locality). The paper's base design has `b = 0`.
//!
//! A query for website `ws` from locality `loc` is routed with the key
//! `key(ws, loc)` instead of an object key: the DHT then lands exactly
//! on `d_{ws,loc}` when it is alive, and near it otherwise.

use chord::{hash64, ChordId};
use simnet::{Locality, NodeId};
use workload::WebsiteId;

/// The bit layout of D-ring identifiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyScheme {
    /// Locality bits `m1`.
    pub locality_bits: u32,
    /// Instance bits `b` (§5.3 extension; 0 in the base design).
    pub instance_bits: u32,
}

impl KeyScheme {
    /// Minimum website-segment width `m2`: below 9 bits the website
    /// hashes of even the paper's 100-website catalog start to
    /// collide.
    pub const MIN_WEBSITE_BITS: u32 = 9;

    /// The authoritative geometry check: `m1 ≥ 1` and
    /// `m2 = m − m1 − b ≥ MIN_WEBSITE_BITS`. [`KeyScheme::new`] and
    /// [`crate::config::FlowerConfig::validate`] both defer to this,
    /// so the two paths can never disagree about the boundary.
    pub fn try_new(locality_bits: u32, instance_bits: u32) -> Result<Self, String> {
        if locality_bits < 1 {
            return Err("need at least one locality bit".into());
        }
        if locality_bits
            .checked_add(instance_bits)
            .is_none_or(|sum| sum > ChordId::BITS - Self::MIN_WEBSITE_BITS)
        {
            return Err(format!(
                "locality ({locality_bits}) + instance ({instance_bits}) bits leave fewer \
                 than {} website bits",
                Self::MIN_WEBSITE_BITS
            ));
        }
        Ok(KeyScheme {
            locality_bits,
            instance_bits,
        })
    }

    /// A scheme with `m1` locality bits and `b` instance bits. Panics
    /// on an invalid geometry; validated configuration paths use
    /// [`KeyScheme::try_new`] and surface the error instead.
    pub fn new(locality_bits: u32, instance_bits: u32) -> Self {
        Self::try_new(locality_bits, instance_bits).expect("invalid key scheme")
    }

    /// Number of representable localities.
    pub fn max_localities(&self) -> usize {
        1usize << self.locality_bits
    }

    /// Number of directory instances per (website, locality)
    /// (1 in the base design).
    pub fn instances(&self) -> usize {
        1usize << self.instance_bits
    }

    /// The website segment of the identifier space for `ws`:
    /// `hash(ws)` truncated to `m2` bits (the paper's `hash(ws)` into
    /// the subspace `S'`).
    pub fn website_segment(&self, ws: WebsiteId) -> u64 {
        hash64((ws.0 as u64) ^ 0x5EED_F10E_1200) >> (self.locality_bits + self.instance_bits)
    }

    /// The D-ring peer ID / search key for `d_{ws,loc}` (base design,
    /// instance 0).
    pub fn key(&self, ws: WebsiteId, loc: Locality) -> ChordId {
        self.key_with_instance(ws, loc, 0)
    }

    /// The §5.3 extended key for a specific directory instance.
    pub fn key_with_instance(&self, ws: WebsiteId, loc: Locality, instance: u32) -> ChordId {
        assert!(
            (loc.idx()) < self.max_localities(),
            "locality does not fit m1 bits"
        );
        assert!(
            (instance as usize) < self.instances(),
            "instance does not fit b bits"
        );
        let w = self.website_segment(ws);
        ChordId(
            (w << (self.locality_bits + self.instance_bits))
                | ((loc.0 as u64) << self.instance_bits)
                | instance as u64,
        )
    }

    /// Extract the website segment of an identifier.
    pub fn website_of(&self, id: ChordId) -> u64 {
        id.0 >> (self.locality_bits + self.instance_bits)
    }

    /// Extract the locality of an identifier.
    pub fn locality_of(&self, id: ChordId) -> Locality {
        Locality(((id.0 >> self.instance_bits) & ((1 << self.locality_bits) - 1)) as u16)
    }

    /// Extract the instance index of an identifier.
    pub fn instance_of(&self, id: ChordId) -> u32 {
        (id.0 & ((1 << self.instance_bits) - 1)) as u32
    }

    /// Do two identifiers belong to the same website? (The check of
    /// Algorithm 2.)
    pub fn same_website(&self, a: ChordId, b: ChordId) -> bool {
        self.website_of(a) == self.website_of(b)
    }
}

impl Default for KeyScheme {
    fn default() -> Self {
        KeyScheme::new(8, 0)
    }
}

/// §5.3 instance selection: the directory instance responsible for
/// `client` when `live` instances of a petal are active.
///
/// The choice is a pure function of the client's node id (no protocol
/// state, no RNG), so every node — and every engine shard layout —
/// computes the same assignment. Because live instance counts are
/// powers of two, the assignments *nest*: for `live' | live`,
/// `instance_for(c, live') == instance_for(c, live) % live'`, which is
/// what lets petal splits and merges move only the members of the
/// instances that actually changed hands.
pub fn instance_for(client: NodeId, live: u32) -> u32 {
    if live <= 1 {
        return 0;
    }
    debug_assert!(live.is_power_of_two(), "live instance counts double");
    (hash64(client.0 as u64 ^ 0x9E7A_1BEE_5EED) % live as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> KeyScheme {
        KeyScheme::new(8, 0)
    }

    #[test]
    fn roundtrip_website_and_locality() {
        let s = scheme();
        for ws in [0u16, 1, 42, 99] {
            for loc in [0u16, 1, 5] {
                let key = s.key(WebsiteId(ws), Locality(loc));
                assert_eq!(s.locality_of(key), Locality(loc));
                assert_eq!(s.website_of(key), s.website_segment(WebsiteId(ws)));
            }
        }
    }

    #[test]
    fn same_website_keys_are_ring_neighbours() {
        // Directory peers of one website have consecutive ids
        // (Figure 3: "they have successive peer IDs").
        let s = scheme();
        let ws = WebsiteId(7);
        let k0 = s.key(ws, Locality(0));
        let k1 = s.key(ws, Locality(1));
        let k5 = s.key(ws, Locality(5));
        assert_eq!(k1.0 - k0.0, 1);
        assert_eq!(k5.0 - k0.0, 5);
        assert!(s.same_website(k0, k5));
    }

    #[test]
    fn an_absent_directorys_key_is_nearest_to_a_same_website_neighbour() {
        // §3.1's portability argument is a property of this layout,
        // not of a DHT: under a numerically-closest ownership rule the
        // key of a missing directory falls to a directory of the same
        // website in an adjacent locality.
        let s = scheme();
        let absent = s.key(WebsiteId(5), Locality(3));
        let nearest = (0..20u16)
            .flat_map(|ws| (0..6u16).map(move |l| (ws, l)))
            .filter(|&d| d != (5, 3))
            .min_by_key(|&(ws, l)| s.key(WebsiteId(ws), Locality(l)).ring_distance(absent))
            .expect("119 directories remain");
        assert_eq!(nearest.0, 5, "fell to another website: {nearest:?}");
        assert!(
            nearest.1 == 2 || nearest.1 == 4,
            "not a neighbour: {nearest:?}"
        );
    }

    #[test]
    fn different_websites_differ() {
        let s = scheme();
        let a = s.key(WebsiteId(1), Locality(0));
        let b = s.key(WebsiteId(2), Locality(0));
        assert!(!s.same_website(a, b));
        assert_ne!(a, b);
    }

    #[test]
    fn website_segments_collision_free_for_paper_scale() {
        let s = scheme();
        let mut seen = crate::idmap::IdSet::default();
        for ws in 0..100u16 {
            assert!(
                seen.insert(s.website_segment(WebsiteId(ws))),
                "website hash collision at {ws} (56-bit space)"
            );
        }
    }

    #[test]
    fn scale_up_extension_keys() {
        // §5.3: b = 2 → 4 directory peers per (website, locality),
        // all sharing the website+locality prefix.
        let s = KeyScheme::new(8, 2);
        let ws = WebsiteId(3);
        let loc = Locality(4);
        let keys: Vec<ChordId> = (0..4).map(|i| s.key_with_instance(ws, loc, i)).collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(s.locality_of(*k), loc);
            assert_eq!(s.instance_of(*k), i as u32);
            assert!(s.same_website(keys[0], *k));
        }
        // Consecutive instances are consecutive ids.
        assert_eq!(keys[1].0 - keys[0].0, 1);
        // Next locality starts right after the last instance.
        let next_loc = s.key_with_instance(ws, Locality(5), 0);
        assert_eq!(next_loc.0 - keys[3].0, 1);
    }

    #[test]
    #[should_panic(expected = "does not fit m1")]
    fn oversized_locality_rejected() {
        let s = KeyScheme::new(2, 0);
        let _ = s.key(WebsiteId(0), Locality(4));
    }

    #[test]
    #[should_panic(expected = "does not fit b")]
    fn oversized_instance_rejected() {
        let s = KeyScheme::new(8, 1);
        let _ = s.key_with_instance(WebsiteId(0), Locality(0), 2);
    }

    #[test]
    fn try_new_is_the_authoritative_bound() {
        // The widest legal geometry: m2 = MIN_WEBSITE_BITS exactly.
        let widest = ChordId::BITS - KeyScheme::MIN_WEBSITE_BITS;
        assert!(KeyScheme::try_new(8, widest - 8).is_ok());
        // One bit more is an error — from *both* construction paths.
        assert!(KeyScheme::try_new(8, widest - 7).is_err());
        assert!(KeyScheme::try_new(0, 0).is_err());
        // Overflow-proof.
        assert!(KeyScheme::try_new(8, u32::MAX).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid key scheme")]
    fn new_panics_where_try_new_errors() {
        let _ = KeyScheme::new(8, ChordId::BITS - KeyScheme::MIN_WEBSITE_BITS - 7);
    }

    #[test]
    fn instance_for_is_stable_and_in_range() {
        for live in [1u32, 2, 4, 8] {
            for n in 0..200u32 {
                let i = instance_for(NodeId(n), live);
                assert!(i < live.max(1));
                assert_eq!(i, instance_for(NodeId(n), live), "pure function");
            }
        }
        // All instances actually receive clients at live = 4.
        let hit: crate::idmap::IdSet<u32> =
            (0..200u32).map(|n| instance_for(NodeId(n), 4)).collect();
        assert_eq!(hit.len(), 4, "hash must spread over the live set");
    }

    #[test]
    fn instance_assignments_nest_across_doublings() {
        for n in 0..500u32 {
            let at4 = instance_for(NodeId(n), 4);
            let at2 = instance_for(NodeId(n), 2);
            let at1 = instance_for(NodeId(n), 1);
            assert_eq!(at4 % 2, at2, "halving keeps the low bits");
            assert_eq!(at1, 0, "a single live instance owns everyone");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Key packing round-trips locality and instance for any
        /// scheme geometry.
        #[test]
        fn pack_unpack_roundtrip(
            m1 in 1u32..12,
            b in 0u32..4,
            ws in 0u16..1000,
            loc_raw in 0u16..4096,
            inst_raw in 0u32..16,
        ) {
            let s = KeyScheme::new(m1, b);
            let loc = Locality(loc_raw % s.max_localities() as u16);
            let inst = inst_raw % s.instances() as u32;
            let key = s.key_with_instance(WebsiteId(ws), loc, inst);
            prop_assert_eq!(s.locality_of(key), loc);
            prop_assert_eq!(s.instance_of(key), inst);
            prop_assert_eq!(s.website_of(key), s.website_segment(WebsiteId(ws)));
        }

        /// §5.3 round-trip with instance bits actually in play
        /// (`b ≥ 1`): website segment, locality and instance are all
        /// recovered, and the instance-0 key of the extended scheme is
        /// exactly the base-design bit layout `(segment ∥ locality ∥
        /// 0…0)` — so a deployment that never splits (and every pinned
        /// statistic at `instance_bits = 0`) is untouched by the
        /// extension.
        #[test]
        fn scale_up_roundtrip_and_instance0_layout(
            m1 in 1u32..12,
            b in 1u32..4,
            ws in 0u16..1000,
            loc_raw in 0u16..4096,
            inst_raw in 1u32..16,
        ) {
            let s = KeyScheme::new(m1, b);
            let loc = Locality(loc_raw % s.max_localities() as u16);
            let inst = 1 + (inst_raw - 1) % (s.instances() as u32 - 1).max(1);
            let key = s.key_with_instance(WebsiteId(ws), loc, inst);
            prop_assert_eq!(s.website_of(key), s.website_segment(WebsiteId(ws)));
            prop_assert_eq!(s.locality_of(key), loc);
            prop_assert_eq!(s.instance_of(key), inst);
            // Instance 0 is the plain-key alias…
            let k0 = s.key(WebsiteId(ws), loc);
            prop_assert_eq!(k0, s.key_with_instance(WebsiteId(ws), loc, 0));
            prop_assert_eq!(s.instance_of(k0), 0);
            // …and its bit layout is the base design shifted left by b:
            // the base scheme's key over the *same* website segment.
            prop_assert_eq!(
                k0.0,
                (s.website_segment(WebsiteId(ws)) << (m1 + b)) | ((loc.0 as u64) << b)
            );
        }

        /// All keys of one website form one contiguous id block of
        /// size k·instances — they are mutual ring neighbours.
        #[test]
        fn website_block_contiguous(m1 in 1u32..10, b in 0u32..3, ws in 0u16..500) {
            let s = KeyScheme::new(m1, b);
            let k = s.max_localities().min(8);
            let mut prev: Option<u64> = None;
            for loc in 0..k as u16 {
                for inst in 0..s.instances().min(4) as u32 {
                    let key = s.key_with_instance(WebsiteId(ws), Locality(loc), inst).0;
                    if let Some(p) = prev {
                        if inst == 0 && s.instances() > 4 {
                            // skipped instances; only check monotonicity
                            prop_assert!(key > p);
                        } else {
                            prop_assert!(key > p);
                        }
                    }
                    prev = Some(key);
                }
            }
        }
    }
}
