//! The fate of a wire message, from the send that puts it on the wire
//! ([`Shard::launch`]: traffic accounting, then the link-loss coin) to
//! the instant it is due ([`Shard::deliver_wire`]: a fault cut, a
//! delivery, a bounce to its sender, or a drop), and the per-class
//! counter tables every step of that is counted in — the message
//! ledger the metrics gate checks.

use metrics::Counter;
use rand::Rng;

use super::shard::{Pending, Placement, Shard, Staged};
use super::{Event, Message, Node};
use crate::fault::FaultPlane;
use crate::stats::TrafficClass;
use crate::topology::{NodeId, Topology};

/// Per-traffic-class receive counters, indexed by
/// [`TrafficClass::index`] — declaration order of both sides is
/// pinned by a test.
pub const RECV_COUNTER: [Counter; 7] = [
    Counter::RecvGossip,
    Counter::RecvPush,
    Counter::RecvKeepAlive,
    Counter::RecvDhtRouting,
    Counter::RecvDhtMaintenance,
    Counter::RecvQueryControl,
    Counter::RecvTransfer,
];

/// Per-traffic-class send counters, mirror of [`RECV_COUNTER`].
pub const SENT_COUNTER: [Counter; 7] = [
    Counter::SentGossip,
    Counter::SentPush,
    Counter::SentKeepAlive,
    Counter::SentDhtRouting,
    Counter::SentDhtMaintenance,
    Counter::SentQueryControl,
    Counter::SentTransfer,
];

/// Per-traffic-class undelivered-drop counters (fault cuts, link
/// loss, dead senders), mirror of [`RECV_COUNTER`]. Together with
/// [`BOUNCE_COUNTER`] these close the per-class message ledger the CI
/// gate checks: `recv + bounce + drop ≤ sent` (strict equality is
/// impossible — messages still in flight at the horizon are neither).
pub const DROP_COUNTER: [Counter; 7] = [
    Counter::DropGossip,
    Counter::DropPush,
    Counter::DropKeepAlive,
    Counter::DropDhtRouting,
    Counter::DropDhtMaintenance,
    Counter::DropQueryControl,
    Counter::DropTransfer,
];

/// Per-traffic-class bounce counters, mirror of [`RECV_COUNTER`].
/// Sums to [`Counter::EngineBounces`] exactly.
pub const BOUNCE_COUNTER: [Counter; 7] = [
    Counter::BounceGossip,
    Counter::BouncePush,
    Counter::BounceKeepAlive,
    Counter::BounceDhtRouting,
    Counter::BounceDhtMaintenance,
    Counter::BounceQueryControl,
    Counter::BounceTransfer,
];

impl<M: Message, N: Node<M>> Shard<M, N> {
    /// The installed fault plane, if any: the shard's replica of the
    /// script every cut and loss decision reads.
    #[inline]
    fn plane(&self) -> Option<&FaultPlane> {
        self.fault.as_deref()
    }

    /// Count a message of `class` that reaches nobody: taken by the
    /// fault plane (`fault`: a cut or a lost coin), or due at a dead
    /// destination from a sender that is dead too, so no bounce has
    /// anyone to reach.
    #[inline]
    fn count_drop(&mut self, class: TrafficClass, fault: bool) {
        if fault {
            self.metrics.incr(Counter::EngineFaultDrops);
        }
        self.metrics.incr(DROP_COUNTER[class.index()]);
    }

    /// Account a send of `msg` from `from` (local index `li`) to `to`,
    /// then flip the link-loss coin: `true` when the message goes on
    /// the wire. The coin is flipped at send time from the *emitter's*
    /// RNG stream — the same stream on every shard layout — and only
    /// when a loss window actually applies, so an inactive plane
    /// consumes no randomness and perturbs nothing.
    #[inline]
    pub(super) fn launch(
        &mut self,
        from: NodeId,
        li: usize,
        to: NodeId,
        msg: &M,
        topo: &Topology,
    ) -> bool {
        let class = msg.class();
        self.traffic
            .record_sent(self.now, li, class, msg.wire_size());
        self.metrics.incr(SENT_COUNTER[class.index()]);
        let now = self.now;
        let loss = self
            .plane()
            .and_then(|f| f.loss_probability(now, topo.locality(from) != topo.locality(to)));
        let lost = loss.is_some_and(|p| self.slab.rngs[li].gen_range(0.0..1.0) < p);
        if lost {
            self.count_drop(class, true);
        }
        !lost
    }

    /// A wire message from `from` to `to` is due now. A fault cut
    /// drops it *silently* — a severed network gives the sender no
    /// connection-refused signal, unlike a dead destination, and that
    /// is what forces the protocol's query timeouts. Otherwise a live
    /// destination receives it; a dead one bounces it to a live
    /// sender after one more one-way latency (the connection-refused
    /// round trip), emitted on the dead destination's stream — its
    /// shard processes the wire event, so the counter stays
    /// deterministic; with both ends dead there is nobody to notify.
    #[inline]
    pub(super) fn deliver_wire(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        topo: &Topology,
        place: &Placement,
        outbox: &mut [Vec<Staged<M>>],
    ) {
        let class = msg.class();
        let now = self.now;
        let cut = self
            .plane()
            .is_some_and(|f| f.cuts(now, topo.locality(from), topo.locality(to)));
        if cut {
            self.count_drop(class, true);
        } else if self.up.get(to) {
            self.traffic
                .record_recv(place.local(to), class, msg.wire_size());
            self.metrics.incr(RECV_COUNTER[class.index()]);
            self.deliver(to, Event::Recv { from, msg }, topo, place, outbox);
        } else if self.up.get(from) {
            self.metrics.incr(Counter::EngineBounces);
            self.metrics.incr(BOUNCE_COUNTER[class.index()]);
            let key = self.emit_key(now + topo.latency(to, from), to, place);
            let ev = Event::Undeliverable { to, msg };
            let back = Pending::App { dst: from, ev };
            self.route(place.shard(from), key, back, outbox);
        } else {
            self.count_drop(class, false);
        }
    }
}
