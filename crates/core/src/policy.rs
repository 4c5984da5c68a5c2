//! The D-ring routing service (§3.2, Algorithm 2).
//!
//! D-ring reuses the DHT's key-based routing unchanged except for two
//! added steps, exactly as the paper presents them: after the standard
//! `local_lookup` picks the next hop `p'`,
//!
//! 1. if `p'.websiteID != key.websiteID`, run a **conditional local
//!    lookup**: among the peers this node knows, find the numerically
//!    closest one to `key` *with the same website ID as `key`*;
//! 2. if no such peer is known, keep `p'`.
//!
//! This guarantees that a message for `d_{ws,loc}` keeps moving toward
//! *some* directory peer of `ws` even when the exact target is absent
//! (not yet joined, or failed) — the directory peers of one website
//! are ring neighbours (see [`crate::id`]), so the ordinary lookup is
//! usually already right and the conditional lookup only corrects the
//! edge cases at the website block boundaries.

use chord::{ChordId, ChordState, PeerRef, RoutePolicy};

use crate::id::KeyScheme;

/// Algorithm 2's next-hop adjustment, parameterized by the key scheme.
#[derive(Clone, Copy, Debug)]
pub struct DringPolicy {
    scheme: KeyScheme,
}

impl DringPolicy {
    /// A policy for the given key layout.
    pub fn new(scheme: KeyScheme) -> Self {
        DringPolicy { scheme }
    }

    /// The key layout.
    pub fn scheme(&self) -> KeyScheme {
        self.scheme
    }

    /// The paper's `conditional_local_lookup(key, key.websiteID)`:
    /// the known peer numerically closest to `key` whose website ID
    /// equals the key's (or `None`).
    pub fn conditional_local_lookup(&self, st: &ChordState, key: ChordId) -> Option<PeerRef> {
        let me = st.me();
        st.known_peers()
            .iter()
            .copied()
            .chain(std::iter::once(me))
            .filter(|p| self.scheme.same_website(p.id, key))
            .min_by_key(|p| (p.id.ring_distance(key), p.id.0))
    }
}

impl RoutePolicy for DringPolicy {
    fn adjust_next_hop(&self, st: &ChordState, key: ChordId, dflt: PeerRef) -> PeerRef {
        if self.scheme.same_website(dflt.id, key) {
            return dflt;
        }
        self.conditional_local_lookup(st, key).unwrap_or(dflt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chord::{stable_ring, ChordConfig, ChordMsg, ChordOutcome};
    use simnet::{Locality, NodeId};
    use workload::WebsiteId;

    fn scheme() -> KeyScheme {
        KeyScheme::new(8, 0)
    }

    /// Build D-ring states for the given (website, locality) pairs.
    fn dring(pairs: &[(u16, u16)]) -> (Vec<ChordState>, Vec<PeerRef>) {
        let s = scheme();
        let members: Vec<PeerRef> = pairs
            .iter()
            .enumerate()
            .map(|(i, (ws, loc))| PeerRef {
                id: s.key(WebsiteId(*ws), Locality(*loc)),
                node: NodeId(i as u32),
            })
            .collect();
        (stable_ring(&members, &ChordConfig::default()), members)
    }

    #[test]
    fn same_website_default_is_kept() {
        let (states, members) = dring(&[(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]);
        let p = DringPolicy::new(scheme());
        let key = scheme().key(WebsiteId(1), Locality(1));
        // Default next hop already of website 1 → unchanged.
        let dflt = members[2];
        let got = p.adjust_next_hop(&states[0], key, dflt);
        assert_eq!(got, dflt);
    }

    #[test]
    fn cross_website_default_is_corrected() {
        // Website 1 has localities {0, 2}; the key for locality 3 may
        // default to another website's directory — the conditional
        // lookup must pull it back to website 1.
        let (states, members) = dring(&[(1, 0), (1, 2), (2, 0), (2, 1), (3, 0)]);
        let p = DringPolicy::new(scheme());
        let key = scheme().key(WebsiteId(1), Locality(3));
        // Pretend the default lookup picked a website-2 directory.
        let wrong = members[2];
        let got = p.adjust_next_hop(&states[0], key, wrong);
        assert!(
            p.scheme().same_website(got.id, key),
            "next hop {:?} not of website 1",
            got.id
        );
    }

    #[test]
    fn conditional_lookup_picks_numerically_closest() {
        let (states, members) = dring(&[(1, 0), (1, 1), (1, 5), (2, 0)]);
        let p = DringPolicy::new(scheme());
        // Key for (1, 4): closest same-website peer is (1,5) at ring
        // distance 1, vs (1,1) at distance 3.
        let key = scheme().key(WebsiteId(1), Locality(4));
        let got = p.conditional_local_lookup(&states[3], key).unwrap();
        assert_eq!(got.id, members[2].id, "expected (1,5), got {:?}", got.id);
    }

    #[test]
    fn conditional_lookup_none_when_website_unknown() {
        let (states, _) = dring(&[(2, 0), (2, 1)]);
        let p = DringPolicy::new(scheme());
        let key = scheme().key(WebsiteId(9), Locality(0));
        // The tiny ring only knows website 2 → no same-website peer.
        assert!(p.conditional_local_lookup(&states[0], key).is_none());
        // adjust falls back to the default.
        let dflt = states[0].me();
        assert_eq!(p.adjust_next_hop(&states[0], key, dflt), dflt);
    }

    #[test]
    fn conditional_lookup_takes_the_first_of_equal_ids() {
        // Node 9 also claims (1,1)'s key — a racing §5.2 replacement.
        // Both are equally close to any key; the one listed first in
        // `known_peers` (successors before fingers) is the answer.
        let (states, members) = dring(&[(1, 0), (1, 1), (2, 0)]);
        let p = DringPolicy::new(scheme());
        let mut st = states[0].clone();
        let rival = PeerRef {
            id: members[1].id,
            node: NodeId(9),
        };
        st.set_finger(0, rival);
        let key = scheme().key(WebsiteId(1), Locality(2));
        assert_eq!(p.conditional_local_lookup(&st, key), Some(members[1]));
        st.on_peer_dead(members[1].node);
        assert_eq!(p.conditional_local_lookup(&st, key), Some(rival));
    }

    /// Every locality of every website: a full D-ring's pairs.
    fn full(websites: u16, localities: u16) -> Vec<(u16, u16)> {
        (0..websites)
            .flat_map(|ws| (0..localities).map(move |l| (ws, l)))
            .collect()
    }

    /// A routed payload of no interest beyond its arrival.
    #[derive(Debug)]
    struct Probe;

    impl chord::Wire for Probe {
        fn wire_size(&self) -> u32 {
            0
        }
    }

    /// Collects sends for synchronous replay.
    #[derive(Default)]
    struct Collect {
        sent: Vec<(NodeId, ChordMsg<Probe>)>,
    }

    impl chord::Transport<Probe> for Collect {
        fn send_chord(&mut self, to: NodeId, msg: ChordMsg<Probe>) {
            self.sent.push((to, msg));
        }
    }

    /// Route toward `key` from `states[start]` under Algorithm 2,
    /// pumping messages until a delivery. Returns the delivering
    /// member's index (nodes are member indices); panics if the
    /// payload is lost or routing does not terminate.
    fn route_to_delivery(states: &mut [ChordState], start: usize, key: ChordId) -> usize {
        let p = DringPolicy::new(scheme());
        let mut out = Collect::default();
        let mut pending = chord::start_route(&mut states[start], &mut out, key, Probe, &p);
        let mut at = start;
        let mut guard = 0;
        loop {
            if let Some(ChordOutcome::Deliver { .. }) = pending {
                return at;
            }
            let Some((to, msg)) = out.sent.pop() else {
                panic!("payload lost before delivery")
            };
            guard += 1;
            assert!(guard < 10_000, "routing storm");
            at = to.idx();
            pending = chord::handle(&mut states[at], &mut out, NodeId(u32::MAX), msg, &p);
        }
    }

    #[test]
    fn dring_keys_are_delivered_to_their_owners() {
        let (mut states, members) = dring(&full(8, 4));
        for ws in 0..8u16 {
            for l in 0..4u16 {
                let key = scheme().key(WebsiteId(ws), Locality(l));
                let expect = members
                    .iter()
                    .position(|m| m.id == key)
                    .expect("directory exists");
                let start = ((ws as usize) * 7 + l as usize) % members.len();
                let got = route_to_delivery(&mut states, start, key);
                assert_eq!(got, expect, "key for ws{ws}/loc{l} missed its owner");
            }
        }
    }

    #[test]
    fn absent_keys_land_on_same_website_directories() {
        let s = scheme();
        // Website 3 has localities 0..4; route a key for locality 5.
        let (mut states, members) = dring(&full(8, 4));
        let key = s.key(WebsiteId(3), Locality(5));
        let got = route_to_delivery(&mut states, 0, key);
        assert!(
            s.same_website(members[got].id, key),
            "absent key landed on the wrong website ({:?})",
            members[got].id
        );
    }

    #[test]
    fn conditional_lookup_may_return_self() {
        let (states, _) = dring(&[(1, 0), (2, 0)]);
        let p = DringPolicy::new(scheme());
        // From the website-1 directory, the closest website-1 peer for
        // key (1, 3) is itself.
        let key = scheme().key(WebsiteId(1), Locality(3));
        let got = p.conditional_local_lookup(&states[0], key).unwrap();
        assert_eq!(got.node, states[0].me().node);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use chord::{stable_ring, ChordConfig};
    use proptest::prelude::*;
    use simnet::{Locality, NodeId};
    use workload::WebsiteId;

    /// `conditional_local_lookup` as it read while `known_peers` was
    /// computed per call: collect every routing slot, sort, dedup by
    /// adjacent node, scan.
    fn reference(p: &DringPolicy, st: &ChordState, key: ChordId) -> Option<PeerRef> {
        let mut known: Vec<PeerRef> = st.successors().to_vec();
        known.extend(st.fingers());
        known.extend(st.predecessor());
        known.sort_by_key(|q| q.id.0);
        known.dedup_by_key(|q| q.node);
        known
            .into_iter()
            .chain(std::iter::once(st.me()))
            .filter(|q| p.scheme.same_website(q.id, key))
            .min_by_key(|q| (q.id.ring_distance(key), q.id.0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random D-rings — as converged, then with a stranger
        /// claiming a member's key (possibly this node's own) and a
        /// member listed under a second id — Algorithm 2's lookup
        /// picks what the sort-per-call scan picked, tie-breaks
        /// included.
        #[test]
        fn conditional_lookup_matches_the_reference(
            pairs in proptest::collection::btree_set((0u16..4, 0u16..8), 2..20),
            picks in (0usize..20, 0usize..20, 0usize..20),
            slots in (0u32..64, 0u32..64),
        ) {
            let s = KeyScheme::new(8, 0);
            let p = DringPolicy::new(s);
            let members: Vec<PeerRef> = pairs
                .iter()
                .enumerate()
                .map(|(i, (ws, loc))| PeerRef {
                    id: s.key(WebsiteId(*ws), Locality(*loc)),
                    node: NodeId(i as u32),
                })
                .collect();
            let n = members.len();
            let keys: Vec<ChordId> = (0u16..5)
                .flat_map(|ws| (0u16..8).map(move |loc| s.key(WebsiteId(ws), Locality(loc))))
                .collect();
            for mut st in stable_ring(&members, &ChordConfig::default()) {
                for &key in &keys {
                    prop_assert_eq!(p.conditional_local_lookup(&st, key), reference(&p, &st, key));
                }
                st.set_finger(slots.0, PeerRef { id: members[picks.0 % n].id, node: NodeId(1000) });
                st.set_finger(
                    slots.1,
                    PeerRef { id: members[picks.1 % n].id, node: members[picks.2 % n].node },
                );
                for &key in &keys {
                    prop_assert_eq!(p.conditional_local_lookup(&st, key), reference(&p, &st, key));
                }
            }
        }
    }
}
