//! The cross-shard exchange: one worker thread per shard, barrier
//! rounds, and the one bound that says how far a shard may run in a
//! round ([`reachability_bounds`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use metrics::Counter;

use super::shard::Staged;
use super::{Engine, Message, Node};
use crate::sync::{MailboxGrid, SenseBarrier};
use crate::time::SimTime;

/// The per-round epoch-bound coefficients, from the raw
/// pair-lookahead matrix `l` (row-major `k × k`, `u64::MAX` diagonal).
///
/// `reach[m][i]` lower-bounds how long after shard `m`'s earliest
/// pending event *anything* could become due at shard `i` that is not
/// already in `i`'s queue: an event of `m` at time `t` can trigger an
/// emission chain `m → … → j → i` whose hops each cost at least the
/// pair lookahead (handlers emit at the instant of receipt, so relay
/// delay lower-bounds at zero). Formally
/// `reach[m][i] = min over j ≠ i of (dist(m, j) + l[j][i])` with
/// `dist` the min-plus shortest path over `l` (`dist(m, m) = 0`).
///
/// The `j ≠ i` exclusion makes the diagonal the *round-trip* term
/// `reach[i][i] = min_j (dist(i, j) + l[j][i])`: shard `i`'s own
/// events can reflect off a peer and come back, so `i` may never
/// outrun its own emissions by more than a round trip — the
/// self-reflection a naive `min over peers of (next_j + l[j][i])`
/// bound misses (an idle peer would then constrain nobody, yet a
/// message sent to it this round can wake it and draw a reply).
pub(super) fn reachability_bounds(l: &[u64], k: usize) -> Vec<u64> {
    // Progress guarantee: every off-diagonal pair lookahead is ≥ 1 ms
    // (shard pairs are cross-locality by construction, and the
    // topology's cross floor clamps to at least 1 ms), so every reach
    // entry is ≥ 1 ms and an epoch bound always lies strictly
    // beyond the global minimum — no barrier round can spin without
    // processing anything.
    debug_assert!(
        (0..k).all(|a| (0..k).all(|b| a == b || l[a * k + b] >= 1)),
        "pair lookaheads must be positive for the barrier to progress"
    );
    // Min-plus all-pairs shortest path over the pair lookaheads.
    let mut dist: Vec<u64> = (0..k * k)
        .map(|x| if x / k == x % k { 0 } else { l[x] })
        .collect();
    for via in 0..k {
        for a in 0..k {
            for b in 0..k {
                let d = dist[a * k + via].saturating_add(dist[via * k + b]);
                dist[a * k + b] = dist[a * k + b].min(d);
            }
        }
    }
    (0..k * k)
        .map(|x| {
            let (m, i) = (x / k, x % k);
            (0..k)
                .filter(|&j| j != i)
                .map(|j| dist[m * k + j].saturating_add(l[j * k + i]))
                .min()
                .unwrap_or(u64::MAX)
        })
        .collect()
}

impl<M: Message, N: Node<M>> Engine<M, N> {
    /// The parallel path: one worker thread per shard, cross-shard
    /// messages exchanged through a lock-free double-buffered
    /// [`MailboxGrid`] at a single sense-reversing barrier per round.
    /// Idle stretches are skipped by starting each epoch at the
    /// globally earliest pending event.
    ///
    /// Each round, every shard *publishes* — its earliest pending
    /// event time, plus the staged batches from the previous epoch
    /// and their earliest arrival time per receiver — then crosses
    /// the one barrier, drains its incoming mail, and derives the
    /// *effective next* of every shard:
    ///
    /// ```text
    /// eff[m] = min(published next of m,
    ///              min over senders i of i's min arrival into m)
    /// ```
    ///
    /// which is exactly shard `m`'s earliest pending event *after*
    /// absorbing the exchange — the same quantity the classic
    /// two-barrier loop (publish → barrier → run → exchange → barrier
    /// → absorb) reads at its first barrier. Bounds, epoch counts and
    /// results are therefore bit-identical to that loop; only the
    /// synchronization cost halves.
    ///
    /// Shard `i` runs to `min over shards m of (eff[m] + reach[m][i])`,
    /// with `reach` the emission-chain closure of the exact pair
    /// lookaheads ([`reachability_bounds`]): the earliest instant
    /// anything not yet in `i`'s queue could become due at `i`,
    /// including replies that `i`'s *own* emissions may draw out of a
    /// currently idle peer (the `m = i` round-trip term). A fully idle
    /// peer constrains nobody on its own — the temporal meaning of
    /// "actually communicating" — and distant shard pairs synchronize
    /// less often. Every bound is conservative, so per-shard event
    /// orderings (and therefore results) are bit-identical to the
    /// schedule that runs every shard in lock-step epochs of the
    /// global floor — which is this same rule with every `reach` entry
    /// flattened to the floor, and is how the engine's tests build
    /// that reference; only the barrier-round count shrinks. That
    /// bound is the one rule for how far a shard may run, a shard that
    /// alone has work included: the `m = i` term lets it run a full
    /// round trip past its own earliest event, and the round counts
    /// that decided against a second rule are in README, "Sharded
    /// parallel execution".
    pub(super) fn run_sharded(&mut self, limit: SimTime) {
        let k = self.shards.len();
        let limit_ms = limit.as_ms();
        let (topo, place, reach) = (&*self.topo, &self.place, &self.reach_ms);
        let barrier = &SenseBarrier::new(k);
        let grid = &MailboxGrid::<Staged<M>>::new(k);
        // Published state, double-buffered by round parity like the
        // mailbox slots (entry `p·k + m` / `p·k² + i·k + m`): with a
        // single barrier per round, the writes for round `r + 1`
        // overlap the reads for round `r`, and the parity split keeps
        // same-cell conflicts two barriers apart.
        let unset = |n| -> Vec<AtomicU64> { (0..n).map(|_| AtomicU64::new(u64::MAX)).collect() };
        let (next_times, arrivals) = (&unset(2 * k), &unset(2 * k * k));
        std::thread::scope(|scope| {
            for shard in self.shards.iter_mut() {
                scope.spawn(move || {
                    let me = shard.id;
                    let mut waiter = barrier.waiter();
                    let mut outbox: Vec<Vec<Staged<M>>> = (0..k).map(|_| Vec::new()).collect();
                    let mut eff: Vec<u64> = vec![0; k];
                    let mut round: u64 = 0;
                    loop {
                        let p = (round & 1) as usize;
                        round += 1;
                        // (1) Publish: my earliest pending event
                        // (queued or still in the source), and the
                        // previous epoch's staged batches with
                        // their earliest arrival per receiver.
                        let next = shard.next_pending().map_or(u64::MAX, |t| t.as_ms());
                        next_times[p * k + me].store(next, Ordering::Relaxed);
                        for (j, batch) in outbox.iter().enumerate().filter(|(j, _)| *j != me) {
                            let min_at = batch.iter().map(|(key, _)| key.at.as_ms()).min();
                            let min_at = min_at.unwrap_or(u64::MAX);
                            arrivals[p * k * k + me * k + j].store(min_at, Ordering::Relaxed);
                        }
                        // SAFETY: this thread is the unique sender
                        // `me`, publishing before this round's
                        // barrier; receivers drain after it with the
                        // same parity.
                        unsafe { grid.publish(p, me, &mut outbox) };
                        let at_barrier = Instant::now();
                        barrier.wait(&mut waiter);
                        let idle_ns = at_barrier.elapsed().as_nanos() as u64;
                        shard.metrics.add(Counter::EngineBarrierIdleNs, idle_ns);
                        // (2) Absorb this round's incoming mail; the
                        // queue re-establishes key order. Relaxed
                        // loads below are sound for the same reason
                        // the grid is: the barrier orders and
                        // publishes every pre-barrier store.
                        // SAFETY: unique receiver `me`, after the
                        // barrier the senders published before.
                        unsafe { grid.drain(p, me, |(key, pend)| shard.queue.push(key, pend)) };
                        // (3) Everyone's effective next = earliest
                        // pending event after the exchange.
                        for (m, e) in eff.iter_mut().enumerate() {
                            let mail = (0..k).filter(|&i| i != m);
                            let mail = mail
                                .map(|i| arrivals[p * k * k + i * k + m].load(Ordering::Relaxed));
                            *e = mail.fold(next_times[p * k + m].load(Ordering::Relaxed), u64::min);
                        }
                        let min_eff = *eff.iter().min().expect("at least one shard");
                        if min_eff >= limit_ms {
                            // Every thread computes the same minimum,
                            // so all exit on the same round.
                            break;
                        }
                        shard.metrics.incr(Counter::EngineEpochs);
                        // (4) One epoch up to this shard's
                        // conservative bound.
                        let bound = (0..k)
                            .map(|m| eff[m].saturating_add(reach[m * k + me]))
                            .min();
                        let bound = bound.expect("at least one shard").min(limit_ms);
                        let epoch_end = SimTime::from_ms(bound);
                        shard.run_epoch(epoch_end, topo, place, &mut outbox);
                    }
                });
            }
        });
    }
}
