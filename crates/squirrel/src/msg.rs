//! The Squirrel wire protocol (directory variant).

use bloom::ObjectId;
use chord::{ChordMsg, Wire};
use simnet::{Locality, Message, NodeId, SimTime, TrafficClass};
use workload::WebsiteId;

/// A query travelling through Squirrel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SQuery {
    /// Unique id assigned at submission.
    pub id: u64,
    /// The querying peer.
    pub origin: NodeId,
    /// The origin's locality (metrics only — Squirrel itself is
    /// locality-blind, which is the point of the comparison).
    pub origin_locality: Locality,
    /// The website (identifies the origin server).
    pub website: WebsiteId,
    /// The requested object; its hash is the DHT key.
    pub object: ObjectId,
    /// Submission instant.
    pub submitted_at: SimTime,
}

impl Wire for SQuery {
    fn wire_size(&self) -> u32 {
        8 + 6 + 2 + 2 + 8 + 8
    }
}

/// Messages of the Squirrel protocol.
#[derive(Clone, Debug)]
pub enum SquirrelMsg {
    /// Harness injection: submit a query at the origin (never sent on
    /// the wire).
    Submit {
        /// Query id.
        qid: u64,
        /// Target website.
        website: WebsiteId,
        /// Requested object.
        object: ObjectId,
    },
    /// DHT traffic (queries routed to object home nodes).
    Chord(ChordMsg<SQuery>),
    /// The home node answers the origin with pointers to recent
    /// downloaders (empty ⇒ fetch from the origin server).
    Pointers {
        /// The query being answered.
        query: SQuery,
        /// Recent downloaders that potentially cache the object.
        candidates: Vec<NodeId>,
    },
    /// The origin asks a pointed-to peer for the object.
    Fetch {
        /// The query.
        query: SQuery,
    },
    /// The probed peer does not cache the object (stale pointer).
    FetchMiss {
        /// The query.
        query: SQuery,
    },
    /// Fallback request to the website's origin server.
    ServerQuery {
        /// The query.
        query: SQuery,
    },
    /// Object delivery.
    ServeObject {
        /// The query being answered.
        query: SQuery,
        /// When the provider received the query.
        resolved_at: SimTime,
        /// True if served by the origin server (a miss).
        from_server: bool,
        /// Object payload size.
        size: u32,
    },
}

impl Message for SquirrelMsg {
    fn wire_size(&self) -> u32 {
        match self {
            SquirrelMsg::Submit { .. } => 0,
            SquirrelMsg::Chord(m) => m.wire_size(),
            SquirrelMsg::Pointers { query, candidates } => {
                16 + query.wire_size() + 6 * candidates.len() as u32
            }
            SquirrelMsg::Fetch { query }
            | SquirrelMsg::FetchMiss { query }
            | SquirrelMsg::ServerQuery { query } => 16 + query.wire_size(),
            SquirrelMsg::ServeObject { query, size, .. } => 16 + query.wire_size() + size,
        }
    }

    fn class(&self) -> TrafficClass {
        match self {
            SquirrelMsg::Submit { .. } => TrafficClass::QueryControl,
            SquirrelMsg::Chord(m) => {
                if m.is_routing() {
                    TrafficClass::DhtRouting
                } else {
                    TrafficClass::DhtMaintenance
                }
            }
            SquirrelMsg::Pointers { .. }
            | SquirrelMsg::Fetch { .. }
            | SquirrelMsg::FetchMiss { .. }
            | SquirrelMsg::ServerQuery { .. } => TrafficClass::QueryControl,
            SquirrelMsg::ServeObject { .. } => TrafficClass::Transfer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_classes() {
        let q = SQuery {
            id: 1,
            origin: NodeId(0),
            origin_locality: Locality(0),
            website: WebsiteId(0),
            object: ObjectId(9),
            submitted_at: SimTime::ZERO,
        };
        let p = SquirrelMsg::Pointers {
            query: q,
            candidates: vec![NodeId(1); 4],
        };
        assert_eq!(p.wire_size(), 16 + q.wire_size() + 24);
        assert_eq!(p.class(), TrafficClass::QueryControl);
        let s = SquirrelMsg::ServeObject {
            query: q,
            resolved_at: SimTime::ZERO,
            from_server: true,
            size: 1000,
        };
        assert_eq!(s.class(), TrafficClass::Transfer);
        assert!(s.wire_size() > 1000);
        assert_eq!(
            SquirrelMsg::Submit {
                qid: 0,
                website: WebsiteId(0),
                object: ObjectId(0)
            }
            .wire_size(),
            0
        );
    }
}
