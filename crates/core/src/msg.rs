//! The Flower-CDN wire protocol: queries, redirections, gossip,
//! pushes, keepalives, and directory recovery messages.
//!
//! Every message models its serialized size ([`simnet::Message`]) so
//! that the paper's background-bandwidth metric (Table 2) can be
//! measured rather than estimated. The byte model is documented per
//! message; the constants below pin the primitive sizes.

use bloom::{ContentSummary, ObjectId};
use chord::{ChordId, ChordMsg, PeerRef, Wire};
use simnet::{Locality, Message, NodeId, SimTime, TrafficClass};
use workload::WebsiteId;

/// Modelled bytes of a peer address (IPv4 + port).
pub const ADDR_BYTES: u32 = 6;
/// Modelled bytes of an age field.
pub const AGE_BYTES: u32 = 2;
/// Modelled bytes of an object identifier (`hash(url)`).
pub const OBJECT_ID_BYTES: u32 = 8;
/// Modelled bytes of a generic message header.
pub const MSG_HEADER_BYTES: u32 = 16;

/// A query for an object `o_ws` (the paper's `query(o_ws)`), carried
/// through every stage of processing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    /// Unique id assigned at submission (metric correlation).
    pub id: u64,
    /// The querying peer (where the object must be delivered).
    pub origin: NodeId,
    /// The origin's locality at submission time.
    pub origin_locality: Locality,
    /// The targeted website.
    pub website: WebsiteId,
    /// The requested object.
    pub object: ObjectId,
    /// Submission instant (lookup-latency measurement).
    pub submitted_at: SimTime,
    /// Directory-level redirections so far (own directory = 0; a
    /// directory-summary redirect increments it; bounded to avoid
    /// summary false-positive ping-pong).
    pub dir_hops: u8,
    /// Redirection failures (§5.1) encountered so far.
    pub holder_retries: u8,
}

impl Wire for Query {
    fn wire_size(&self) -> u32 {
        // id + origin + locality + website + object + time + counters
        8 + ADDR_BYTES + 2 + 2 + OBJECT_ID_BYTES + 8 + 2
    }
}

/// Who served a query, as reported in [`FlowerMsg::ServeObject`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProviderKind {
    /// A content peer.
    ContentPeer,
    /// The website's origin server (a P2P miss).
    OriginServer,
}

/// One view entry travelling inside a gossip exchange: address, age
/// and (optionally) the contact's content summary.
#[derive(Clone, Debug)]
pub struct GossipEntry {
    /// The contact.
    pub peer: NodeId,
    /// Age of the entry at the sender.
    pub age: u32,
    /// The contact's content summary, if the sender has one.
    pub summary: Option<ContentSummary>,
}

impl GossipEntry {
    fn wire_size(&self) -> u32 {
        ADDR_BYTES + AGE_BYTES + self.summary.as_ref().map_or(0, |s| s.wire_size())
    }
}

/// The symmetric payload of Algorithm 4's gossip messages.
#[derive(Clone, Debug)]
pub struct GossipPayload {
    /// The website whose content overlay is gossiping.
    pub website: WebsiteId,
    /// The overlay's locality: overlays are per (website, locality),
    /// so receivers reject cross-locality exchanges (§5.4).
    pub locality: Locality,
    /// The sender's *current* content summary.
    pub summary: ContentSummary,
    /// `Lgossip` view entries.
    pub subset: Vec<GossipEntry>,
    /// The sender's view entry for the directory peer (§4.2.1: spread
    /// in every exchange for failure recovery).
    pub dir_hint: Option<(NodeId, u32)>,
}

impl GossipPayload {
    fn wire_size(&self) -> u32 {
        MSG_HEADER_BYTES
            + self.summary.wire_size()
            + self.subset.iter().map(GossipEntry::wire_size).sum::<u32>()
            + self.dir_hint.map_or(0, |_| ADDR_BYTES + AGE_BYTES)
    }
}

/// A directory-index entry snapshot, used in voluntary hand-off
/// (§5.2).
#[derive(Clone, Debug)]
pub struct IndexSnapshotEntry {
    /// The content peer.
    pub peer: NodeId,
    /// Entry age at hand-off.
    pub age: u32,
    /// Objects the entry lists.
    pub objects: Vec<ObjectId>,
}

/// All messages of the Flower-CDN protocol.
#[derive(Clone, Debug)]
pub enum FlowerMsg {
    /// External injection: the harness asks `origin` to submit a
    /// query. Not a network message (never sent between nodes).
    Submit {
        /// Query id assigned by the harness.
        qid: u64,
        /// Target website.
        website: WebsiteId,
        /// Requested object.
        object: ObjectId,
    },
    /// Chord traffic of the D-ring (routing + maintenance), carrying
    /// queries as routed payloads.
    Dht(ChordMsg<Query>),
    /// A content peer asks its own directory peer to process a query
    /// (the post-join fast path: no D-ring routing).
    ClientQuery {
        /// The query.
        query: Query,
    },
    /// A directory peer redirects a query to another directory peer of
    /// the same website whose directory summary matched (Algorithm 3).
    SummaryRedirect {
        /// The query.
        query: Query,
    },
    /// A directory peer redirects a query to a content peer listed as
    /// holding the object (Algorithm 3).
    RedirectToHolder {
        /// The query.
        query: Query,
    },
    /// A content peer probes a view contact whose summary matched.
    PeerFetch {
        /// The query.
        query: Query,
    },
    /// The probed peer does not actually hold the object (summary
    /// false positive or evicted content).
    FetchMiss {
        /// The query.
        query: Query,
    },
    /// Fallback: the query is sent to the website's origin server.
    ServerQuery {
        /// The query.
        query: Query,
    },
    /// The provider transfers the object to the query origin.
    ServeObject {
        /// The query being answered.
        query: Query,
        /// When the provider received the query (end of lookup).
        resolved_at: SimTime,
        /// Peer or origin server.
        provider: ProviderKind,
        /// Object payload size in bytes.
        size: u32,
        /// A subset of the serving peer's view, seeding the origin's
        /// view (§4.2: "F's view is initialized from a subset of A's
        /// view").
        view_seed: Vec<NodeId>,
    },
    /// The directory peer tells a new client whether it was admitted
    /// into the content overlay, providing itself and a view seed
    /// drawn from its directory index.
    Admission {
        /// The website whose overlay was joined.
        website: WebsiteId,
        /// The locality of the admitting overlay.
        locality: Locality,
        /// False when the overlay is full (`Sco` reached, §5.3).
        admitted: bool,
        /// The directory peer's address (for pushes/keepalives).
        dir: NodeId,
        /// §5.3 PetalUp: live directory instances of the petal at
        /// admission time (1 in the base design). Lets the member pin
        /// its hash-assigned instance against stale gossip hints.
        petal_live: u32,
        /// Initial contacts from the directory index.
        view_seed: Vec<NodeId>,
    },
    /// Active gossip half (Algorithm 4).
    GossipReq(GossipPayload),
    /// Passive gossip half (Algorithm 4).
    GossipResp(GossipPayload),
    /// One-way content push to the directory peer (Algorithm 5).
    Push {
        /// The website whose overlay this push belongs to.
        website: WebsiteId,
        /// Objects gained since the last push.
        added: Vec<ObjectId>,
        /// Objects dropped since the last push.
        removed: Vec<ObjectId>,
    },
    /// Keepalive from a content peer to its directory peer (§5.1).
    KeepAlive {
        /// The website whose overlay this keepalive belongs to.
        website: WebsiteId,
    },
    /// A directory peer sends a refreshed directory summary to a
    /// neighbour directory peer of the same website (§3.3, §4.2.1).
    DirSummary {
        /// Originating website.
        website: WebsiteId,
        /// Locality of the sending directory peer.
        locality: Locality,
        /// D-ring id of the sending directory peer.
        dir_id: ChordId,
        /// Bloom summary of its directory index.
        summary: ContentSummary,
    },
    /// Voluntary directory hand-off (§5.2): the leaving directory
    /// transfers its directory index and ring neighbourhood to a
    /// chosen content peer.
    DirHandoff {
        /// Website served.
        website: WebsiteId,
        /// Locality served.
        locality: Locality,
        /// The directory index snapshot.
        index: Vec<IndexSnapshotEntry>,
        /// Ring neighbours the heir rebuilds its routing state from
        /// (the leaving directory's successors and predecessor).
        neighbors: Vec<PeerRef>,
        /// Live §5.3 petal instance count at the moment of the
        /// hand-off. The heir continues with the running petal rather
        /// than restarting at `live = 1` and orphaning the active
        /// siblings.
        live: u32,
    },
    /// Sender informs a contact that it left the website's overlay
    /// (locality change, §5.4); the receiver drops it like a dead
    /// peer.
    Moved {
        /// The overlay the sender left.
        website: WebsiteId,
    },
    /// §8 active replication: a directory offers its hottest objects
    /// (with a holder for each) to a same-website neighbour directory.
    ReplicaOffer {
        /// The website being replicated.
        website: WebsiteId,
        /// `(object, holder in the offering overlay)` pairs.
        objects: Vec<(ObjectId, NodeId)>,
    },
    /// §8 active replication: the receiving directory instructs one of
    /// its members to pull an object from a remote holder.
    ReplicaInstruct {
        /// The website being replicated.
        website: WebsiteId,
        /// The object to replicate.
        object: ObjectId,
        /// Where to pull it from.
        holder: NodeId,
    },
    /// §8 active replication: the member asks the remote holder for
    /// the object.
    ReplicaPull {
        /// The website being replicated.
        website: WebsiteId,
        /// The object to pull.
        object: ObjectId,
    },
    /// §8 active replication: the object payload.
    ReplicaData {
        /// The website being replicated.
        website: WebsiteId,
        /// The replicated object.
        object: ObjectId,
        /// Payload size in bytes.
        size: u32,
    },
    /// §5.3 PetalUp split: the petal primary tells a sibling instance
    /// that the petal now runs `live` instances. A dormant sibling
    /// activates; an already-active one re-partitions its members
    /// under the new live count.
    PetalActivate {
        /// The petal's website.
        website: WebsiteId,
        /// The petal's locality.
        locality: Locality,
        /// The new live instance count (a power of two ≤ 2^b).
        live: u32,
    },
    /// §5.3 PetalUp merge: the petal primary shrinks the petal to
    /// `live` instances. A sibling at index ≥ `live` re-points its
    /// members to their new owning instances and goes dormant.
    PetalDeactivate {
        /// The petal's website.
        website: WebsiteId,
        /// The petal's locality.
        locality: Locality,
        /// The remaining live instance count.
        live: u32,
    },
    /// §5.3 PetalUp: a sibling instance leaves voluntarily (§5.2
    /// leave or §5.4 locality change). It has already re-pointed its
    /// members to the primary; the primary shrinks the petal below
    /// the retiring instance so forwards stop flowing there.
    PetalRetire {
        /// The petal's website.
        website: WebsiteId,
        /// The petal's locality.
        locality: Locality,
        /// The retiring instance.
        instance: u32,
    },
    /// §5.3 PetalUp telemetry: a live sibling reports its windowed
    /// query load to the petal primary, which runs the merge policy
    /// over the petal total.
    PetalLoad {
        /// The petal's website.
        website: WebsiteId,
        /// The petal's locality.
        locality: Locality,
        /// The reporting instance.
        instance: u32,
        /// Queries the instance processed in the last window.
        queries: u64,
    },
    /// Harness/operator injection (never on the wire): ask a directory
    /// peer to leave voluntarily, handing its directory off to a
    /// stable content peer first (§5.2).
    AdminLeave,
    /// Harness/operator injection (never on the wire): the node
    /// detects it has moved to another network locality (§5.4).
    AdminChangeLocality {
        /// The newly detected locality.
        to: Locality,
    },
}

impl Message for FlowerMsg {
    fn wire_size(&self) -> u32 {
        match self {
            // Harness injections: never cross the wire.
            FlowerMsg::Submit { .. }
            | FlowerMsg::AdminLeave
            | FlowerMsg::AdminChangeLocality { .. } => 0,
            FlowerMsg::Dht(m) => m.wire_size(),
            FlowerMsg::ClientQuery { query }
            | FlowerMsg::SummaryRedirect { query }
            | FlowerMsg::RedirectToHolder { query }
            | FlowerMsg::PeerFetch { query }
            | FlowerMsg::FetchMiss { query }
            | FlowerMsg::ServerQuery { query } => MSG_HEADER_BYTES + query.wire_size(),
            FlowerMsg::ServeObject {
                query,
                size,
                view_seed,
                ..
            } => MSG_HEADER_BYTES + query.wire_size() + size + ADDR_BYTES * view_seed.len() as u32,
            FlowerMsg::Admission { view_seed, .. } => {
                // admitted flag + live count + dir + seed addresses
                MSG_HEADER_BYTES + 1 + 4 + ADDR_BYTES * (1 + view_seed.len() as u32)
            }
            FlowerMsg::GossipReq(p) | FlowerMsg::GossipResp(p) => p.wire_size(),
            FlowerMsg::Push { added, removed, .. } => {
                MSG_HEADER_BYTES + (OBJECT_ID_BYTES + 1) * (added.len() + removed.len()) as u32
            }
            FlowerMsg::KeepAlive { .. } => MSG_HEADER_BYTES,
            FlowerMsg::DirSummary { summary, .. } => MSG_HEADER_BYTES + 8 + summary.wire_size(),
            FlowerMsg::DirHandoff {
                index, neighbors, ..
            } => {
                // Header + index + neighbours + live petal count.
                MSG_HEADER_BYTES
                    + index
                        .iter()
                        .map(|e| ADDR_BYTES + AGE_BYTES + OBJECT_ID_BYTES * e.objects.len() as u32)
                        .sum::<u32>()
                    + 16 * neighbors.len() as u32
                    + 4
            }
            FlowerMsg::Moved { .. } => MSG_HEADER_BYTES,
            FlowerMsg::ReplicaOffer { objects, .. } => {
                MSG_HEADER_BYTES + (OBJECT_ID_BYTES + ADDR_BYTES) * objects.len() as u32
            }
            FlowerMsg::ReplicaInstruct { .. } => MSG_HEADER_BYTES + OBJECT_ID_BYTES + ADDR_BYTES,
            FlowerMsg::ReplicaPull { .. } => MSG_HEADER_BYTES + OBJECT_ID_BYTES,
            FlowerMsg::ReplicaData { size, .. } => MSG_HEADER_BYTES + OBJECT_ID_BYTES + size,
            // website + locality + live count (or retiring instance)
            FlowerMsg::PetalActivate { .. }
            | FlowerMsg::PetalDeactivate { .. }
            | FlowerMsg::PetalRetire { .. } => MSG_HEADER_BYTES + 2 + 2 + 4,
            // website + locality + instance + windowed counter
            FlowerMsg::PetalLoad { .. } => MSG_HEADER_BYTES + 2 + 2 + 4 + 8,
        }
    }

    fn class(&self) -> TrafficClass {
        match self {
            FlowerMsg::Submit { .. }
            | FlowerMsg::AdminLeave
            | FlowerMsg::AdminChangeLocality { .. } => TrafficClass::QueryControl,
            FlowerMsg::Dht(m) => {
                if m.is_routing() {
                    TrafficClass::DhtRouting
                } else {
                    TrafficClass::DhtMaintenance
                }
            }
            FlowerMsg::ClientQuery { .. }
            | FlowerMsg::SummaryRedirect { .. }
            | FlowerMsg::RedirectToHolder { .. }
            | FlowerMsg::PeerFetch { .. }
            | FlowerMsg::FetchMiss { .. }
            | FlowerMsg::ServerQuery { .. }
            | FlowerMsg::Admission { .. } => TrafficClass::QueryControl,
            FlowerMsg::ServeObject { .. } => TrafficClass::Transfer,
            FlowerMsg::GossipReq(_) | FlowerMsg::GossipResp(_) | FlowerMsg::Moved { .. } => {
                TrafficClass::Gossip
            }
            // Directory summaries propagate index contents like pushes
            // do; the paper counts both as background maintenance. The
            // §8 replication control plane is likewise proactive
            // maintenance.
            // The PetalUp control plane is proactive directory
            // maintenance, like summary refreshes.
            FlowerMsg::Push { .. }
            | FlowerMsg::DirSummary { .. }
            | FlowerMsg::ReplicaOffer { .. }
            | FlowerMsg::ReplicaInstruct { .. }
            | FlowerMsg::ReplicaPull { .. }
            | FlowerMsg::PetalActivate { .. }
            | FlowerMsg::PetalDeactivate { .. }
            | FlowerMsg::PetalRetire { .. }
            | FlowerMsg::PetalLoad { .. } => TrafficClass::Push,
            FlowerMsg::ReplicaData { .. } => TrafficClass::Transfer,
            FlowerMsg::KeepAlive { .. } => TrafficClass::KeepAlive,
            FlowerMsg::DirHandoff { .. } => TrafficClass::DhtMaintenance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> Query {
        Query {
            id: 1,
            origin: NodeId(2),
            origin_locality: Locality(3),
            website: WebsiteId(4),
            object: ObjectId(5),
            submitted_at: SimTime::from_secs(6),
            dir_hops: 0,
            holder_retries: 0,
        }
    }

    #[test]
    fn gossip_size_scales_with_subset_length() {
        // Table 2(a): background bandwidth is linear in Lgossip — that
        // linearity comes from this byte model.
        let entry = |peer| GossipEntry {
            peer: NodeId(peer),
            age: 1,
            summary: Some(ContentSummary::empty(100)),
        };
        let payload = |l: u32| {
            FlowerMsg::GossipReq(GossipPayload {
                website: WebsiteId(0),
                locality: Locality(0),
                summary: ContentSummary::empty(100),
                subset: (0..l).map(entry).collect(),
                dir_hint: Some((NodeId(9), 0)),
            })
        };
        let s5 = payload(5).wire_size();
        let s10 = payload(10).wire_size();
        let s20 = payload(20).wire_size();
        assert_eq!(s10 - s5, 5 * (6 + 2 + 100));
        assert_eq!(s20 - s10, 10 * (6 + 2 + 100));
        assert_eq!(payload(5).class(), TrafficClass::Gossip);
    }

    #[test]
    fn serve_object_carries_payload_size() {
        let m = FlowerMsg::ServeObject {
            query: query(),
            resolved_at: SimTime::from_secs(7),
            provider: ProviderKind::ContentPeer,
            size: 50_000,
            view_seed: vec![NodeId(1), NodeId(2)],
        };
        assert!(m.wire_size() > 50_000);
        assert_eq!(m.class(), TrafficClass::Transfer);
    }

    #[test]
    fn classes_separate_background_from_foreground() {
        let push = FlowerMsg::Push {
            website: WebsiteId(0),
            added: vec![ObjectId(1)],
            removed: vec![],
        };
        assert!(push.class().is_background());
        let ka = FlowerMsg::KeepAlive {
            website: WebsiteId(0),
        };
        assert!(!ka.class().is_background());
        let q = FlowerMsg::ClientQuery { query: query() };
        assert!(!q.class().is_background());
        assert_eq!(
            FlowerMsg::Submit {
                qid: 0,
                website: WebsiteId(0),
                object: ObjectId(0)
            }
            .wire_size(),
            0
        );
    }

    #[test]
    fn push_size_scales_with_delta() {
        let mk = |n: u64| FlowerMsg::Push {
            website: WebsiteId(0),
            added: (0..n).map(ObjectId).collect(),
            removed: vec![],
        };
        assert_eq!(mk(10).wire_size() - mk(5).wire_size(), 5 * 9);
    }

    #[test]
    fn dht_classes_split_routing_and_maintenance() {
        let route = ChordMsg::Route {
            key: chord::ChordId(0),
            hops: 0,
            payload: chord::RoutePayload::App(query()),
        };
        assert_eq!(FlowerMsg::Dht(route).class(), TrafficClass::DhtRouting);
        let maint = ChordMsg::NeighborsReq;
        assert_eq!(FlowerMsg::Dht(maint).class(), TrafficClass::DhtMaintenance);
    }
}
