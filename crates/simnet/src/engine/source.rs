//! The injection source a shard walks ([`Engine::attach_source`]
//! attaches it; module docs of [`engine`](super), "Injection
//! sources"): a shard's replica of the stream, how it moves the next
//! due injection into the queue, and the earliest instant the shard
//! publishes at the barrier, source head included.
//!
//! [`Engine::attach_source`]: super::Engine::attach_source

use super::shard::{Pending, Placement, Shard};
use super::{next_key, Event, Message, Node};
use crate::event::EventKey;
use crate::time::SimTime;
use crate::topology::NodeId;

/// One external injection of an [`Engine::attach_source`] stream:
/// deliver the event to the node at the instant.
///
/// [`Engine::attach_source`]: super::Engine::attach_source
pub type Injection<M> = (SimTime, NodeId, Event<M>);

/// Sequence numbers of the external stream set aside for an attached
/// source: injection `i` is keyed `base + i`, and whatever is
/// scheduled after the attachment starts above the whole block — as if
/// the stream had been scheduled up front, without knowing its length.
pub(super) const SOURCE_BLOCK: u64 = 1 << 48;

/// A shard's replica of the attached injection stream. Every replica
/// walks the whole stream — the key of an injection is its position in
/// it — and keeps the injections addressed to its own shard's nodes,
/// one at a time: only `head` is resident.
pub(super) struct ShardSource<M> {
    /// The rest of the stream; `None` when nothing is attached.
    pub(super) rest: Option<Box<dyn Iterator<Item = Injection<M>> + Send>>,
    /// Sequence number of the next item of `rest`.
    pub(super) next_seq: u64,
    /// This shard's earliest injection not yet in its queue.
    pub(super) head: Option<(EventKey, NodeId, Event<M>)>,
    /// Injections this shard has moved into its queue.
    pub(super) injected: u64,
}

impl<M> ShardSource<M> {
    pub(super) fn detached() -> Self {
        ShardSource {
            rest: None,
            next_seq: 0,
            head: None,
            injected: 0,
        }
    }

    /// Load the next injection owned by shard `me` into `head`.
    pub(super) fn advance(&mut self, me: usize, place: &Placement) {
        let floor = self.head.as_ref().map(|(key, ..)| key.at);
        self.head = None;
        let Some(rest) = &mut self.rest else { return };
        for (at, node, ev) in rest {
            let key = next_key(at, None, &mut self.next_seq);
            if place.shard(node) == me {
                debug_assert!(floor <= Some(at), "injection source went back in time");
                self.head = Some((key, node, ev));
                return;
            }
        }
        self.rest = None;
    }
}

impl<M: Message, N: Node<M>> Shard<M, N> {
    /// Move into the queue every source injection that is due before
    /// `limit` and precedes the queue's head, so that the queue's head
    /// is this shard's next event. Called before every look at the
    /// head; moves at most the injections about to be popped, so the
    /// future of the stream never becomes resident.
    #[inline]
    pub(super) fn pull_source(&mut self, limit: SimTime, place: &Placement) {
        while let Some((key, ..)) = &self.source.head {
            if key.at >= limit || self.queue.peek_key().is_some_and(|head| head < *key) {
                return;
            }
            let (key, dst, ev) = self.source.head.take().expect("matched above");
            self.queue.push(key, Pending::App { dst, ev });
            self.source.injected += 1;
            self.source.advance(self.id, place);
        }
    }

    /// The earliest instant anything is pending on this shard, in the
    /// queue or in the source — what the shard publishes at the epoch
    /// barrier. Leaving the source head out would make a shard with
    /// nothing but injections ahead of it look idle, and its peers
    /// would run past the messages those injections are about to send.
    pub(super) fn next_pending(&self) -> Option<SimTime> {
        let sourced = self.source.head.as_ref().map(|(key, ..)| key.at);
        self.queue.peek_time().into_iter().chain(sourced).min()
    }
}
