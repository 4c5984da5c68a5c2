//! Lock-free synchronization primitives for the sharded engine's
//! epoch loop: a sense-reversing barrier tuned for short rounds and a
//! double-buffered mailbox grid for the staged cross-shard exchange.
//!
//! Both exist because the barrier round of
//! [`Engine::run_sharded`](crate::engine::Engine) is *short* — at a
//! 60 ms lookahead a saturated run crosses the barrier thousands of
//! times per simulated minute, so a `std::sync::Barrier` (mutex +
//! condvar, two kernel round trips per wait under contention) and
//! `Mutex<Vec>` inbox appends dominate the wall clock once the
//! per-round work shrinks. The replacements here never touch the
//! kernel on the happy path when the host has a core per shard
//! (waiters spin, parking only on oversubscription) and recycle every
//! buffer across rounds, so the steady-state epoch loop performs no
//! allocation and takes no hot-path lock.
//!
//! ## Memory ordering contract
//!
//! [`SenseBarrier::wait`] is a full synchronization point: every
//! write performed by any participating thread *before* its `wait`
//! happens-before every read performed by any thread *after* that
//! same `wait` returns (arrivals release into the counter, the
//! release sequence carries through the fetch-sub chain, and both the
//! last arriver's sense flip and the waiters' sense loads are
//! acquire/release). [`MailboxGrid`] relies on exactly this: a slot
//! written before a barrier may be read by its receiver after it with
//! no further synchronization.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// How many times a waiter polls the sense flag with a pure spin hint
/// before it starts yielding the CPU between polls (spin mode only:
/// hosts with at least as many cores as parties).
const SPIN_BUDGET: u32 = 256;

/// A sense-reversing barrier for `parties` threads.
///
/// Each thread carries a [`SenseWaiter`] whose private sense flips
/// every round; the barrier releases a round by flipping its shared
/// sense to match. On a host with at least as many cores as parties —
/// the configuration where barrier latency matters — a wait is one
/// atomic fetch-sub per arrival plus a bounded spin on the sense
/// flag: the classic centralized barrier (Mellor-Crummey & Scott,
/// TOCS 1991) that beats `std::sync::Barrier` by an order of
/// magnitude on rounds shorter than a scheduler quantum.
///
/// On an *oversubscribed* host (more shards than cores — the 1-CPU CI
/// smoke) spinning or yield-looping only steals the quantum from the
/// threads being waited on, so waiters park on a mutex + condvar
/// instead, exactly like `std::sync::Barrier`. The mode is fixed at
/// construction, so all parties always take the same path.
///
/// Park mode against spin-only, in wall seconds over 8 alternating
/// pairs (park → spin): pinned to one CPU (`taskset -c 0`, the other
/// CPU partly busy), `scale --nodes 100000 --horizon-secs 60` on 2
/// shards 3.81 → 4.45 (spin slower in 7/8) and on 8 shards 5.59 →
/// 5.22, `churn --scale 0.02 --nodes 50000 --shards 4` 6.44 → 8.39
/// (spin slower in 7/8); on 2 vCPUs the same cells read alike (4
/// shards 2.53 → 2.45, 8 shards 2.70 → 2.65, churn 5.08 → 5.11). Park
/// mode stays for oversubscribed hosts, and with it the lost-wakeup
/// class (a sense flip made outside the lock) that the round-shape
/// stress test catches only rarely.
pub struct SenseBarrier {
    parties: usize,
    /// Threads still missing from the current round.
    count: AtomicUsize,
    /// Flips each round; waiters spin until it equals their private
    /// sense.
    sense: AtomicBool,
    /// Whether the host has at least `parties` cores (spin mode); if
    /// not, waiters park instead.
    spin: bool,
    /// Parking lot for the oversubscribed path; unused in spin mode.
    lock: Mutex<()>,
    parked: Condvar,
}

impl SenseBarrier {
    /// A barrier for `parties` threads (must be ≥ 1), spinning when
    /// the host has a core for each of them and parking otherwise.
    pub fn new(parties: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        Self::with_mode(parties, cores >= parties)
    }

    /// [`SenseBarrier::new`] with the waiting mode given, so a test
    /// reaches both whatever cores its host has.
    fn with_mode(parties: usize, spin: bool) -> Self {
        assert!(parties >= 1, "a barrier needs at least one party");
        SenseBarrier {
            parties,
            count: AtomicUsize::new(parties),
            sense: AtomicBool::new(false),
            spin,
            lock: Mutex::new(()),
            parked: Condvar::new(),
        }
    }

    /// The per-thread handle; create exactly one per participating
    /// thread, before the first round.
    pub fn waiter(&self) -> SenseWaiter {
        SenseWaiter { sense: true }
    }

    /// Block until all `parties` threads have called `wait` with
    /// their waiter for this round.
    pub fn wait(&self, w: &mut SenseWaiter) {
        let my_sense = w.sense;
        w.sense = !my_sense;
        // The AcqRel fetch-sub makes every arriver's prior writes
        // visible to the last arriver (release sequence through the
        // RMW chain), and the Release store / Acquire loads on the
        // sense flag publish them to every waiter.
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.count.store(self.parties, Ordering::Relaxed);
            if self.spin {
                self.sense.store(my_sense, Ordering::Release);
            } else {
                // Flip under the lock so a parking waiter either sees
                // the new sense before it sleeps or is already on the
                // condvar when the wakeup fires — no missed notify.
                let guard = self.lock.lock().unwrap();
                self.sense.store(my_sense, Ordering::Release);
                drop(guard);
                self.parked.notify_all();
            }
            return;
        }
        if self.spin {
            let mut polls: u32 = 0;
            while self.sense.load(Ordering::Acquire) != my_sense {
                if polls < SPIN_BUDGET {
                    polls += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        } else {
            let mut guard = self.lock.lock().unwrap();
            while self.sense.load(Ordering::Acquire) != my_sense {
                guard = self.parked.wait(guard).unwrap();
            }
        }
    }
}

/// Per-thread state for a [`SenseBarrier`]: the thread's private
/// sense, flipped on every wait.
pub struct SenseWaiter {
    sense: bool,
}

/// A `shards × shards` grid of single-producer single-consumer
/// mailboxes, double-buffered by round parity, for the epoch-boundary
/// cross-shard exchange.
///
/// Slot `(parity, sender, receiver)` is written by thread `sender`
/// *before* the barrier of a round with that parity
/// ([`MailboxGrid::publish`] swaps the sender's staged batch in) and
/// drained by thread `receiver` *after* the same barrier
/// ([`MailboxGrid::drain`]). Publishing is a `Vec` swap: the sender
/// hands over its full batch and takes back the empty-but-allocated
/// buffer the receiver left behind two rounds ago, so buffers
/// circulate forever and the steady-state exchange allocates nothing.
///
/// Draining visits senders in index order and batches preserve stage
/// order, so the merged inbox order is a pure function of
/// (sender shard, stage order) — the determinism contract the seed-42
/// pins in `tests/shard_parity.rs` hold the engine to. (The retired
/// `Mutex<Vec>` inboxes appended in racy arrival order; that was
/// result-neutral only because event keys are unique, but the grid
/// makes the order itself deterministic.)
///
/// # Why the parity dimension
///
/// With a single barrier per round, a sender's publish for round
/// `r + 1` may overlap a slow receiver's drain of round `r` — the two
/// operations are separated by one barrier, not two. Indexing slots
/// by `r & 1` pushes any write/drain pair on the *same* slot two
/// rounds apart, i.e. across two barrier synchronizations, which
/// makes every slot access a data-race-free handoff (see the module
/// docs for the ordering argument).
pub struct MailboxGrid<T> {
    k: usize,
    /// `2 · k · k` slots, indexed `parity · k² + sender · k +
    /// receiver`.
    slots: Box<[UnsafeCell<Vec<T>>]>,
}

// SAFETY: a slot is only ever touched by its sender (publish, before
// the round's barrier) and its receiver (drain, after it); the
// barrier orders the two, and the parity split keeps same-slot
// accesses from consecutive rounds two barriers apart. `T: Send`
// because values cross from the sender's thread to the receiver's.
unsafe impl<T: Send> Sync for MailboxGrid<T> {}

impl<T> MailboxGrid<T> {
    /// An empty grid for `k` shards.
    pub fn new(k: usize) -> Self {
        MailboxGrid {
            k,
            slots: (0..2 * k * k)
                .map(|_| UnsafeCell::new(Vec::new()))
                .collect(),
        }
    }

    /// Number of shards the grid serves.
    pub fn shards(&self) -> usize {
        self.k
    }

    /// Publish `sender`'s staged batches for this round: swap
    /// `outbox[receiver]` into slot `(parity, sender, receiver)` for
    /// every other shard, leaving the recycled (empty) buffer in the
    /// outbox.
    ///
    /// # Safety
    ///
    /// The caller must be the unique thread acting as `sender`, must
    /// call this *before* the round's barrier, and every receiver
    /// must drain with the same `parity` *after* that barrier.
    pub unsafe fn publish(&self, parity: usize, sender: usize, outbox: &mut [Vec<T>]) {
        debug_assert_eq!(outbox.len(), self.k);
        let base = (parity & 1) * self.k * self.k + sender * self.k;
        for (receiver, batch) in outbox.iter_mut().enumerate() {
            if receiver == sender {
                debug_assert!(batch.is_empty(), "self-sends are routed locally");
                continue;
            }
            // SAFETY: per the contract above, no other thread touches
            // this slot between the previous barrier and the next.
            let slot = unsafe { &mut *self.slots[base + receiver].get() };
            debug_assert!(slot.is_empty(), "slot not drained last round");
            std::mem::swap(slot, batch);
        }
    }

    /// Drain every batch published *to* `receiver` this round, in
    /// sender-index order, preserving stage order within each batch.
    /// Buffers are emptied in place so their capacity returns to the
    /// senders on the next same-parity publish.
    ///
    /// # Safety
    ///
    /// The caller must be the unique thread acting as `receiver` and
    /// must call this *after* the barrier of the round in which the
    /// senders published with the same `parity`.
    pub unsafe fn drain(&self, parity: usize, receiver: usize, mut sink: impl FnMut(T)) {
        let base = (parity & 1) * self.k * self.k;
        for sender in 0..self.k {
            if sender == receiver {
                continue;
            }
            // SAFETY: per the contract above, the sender finished its
            // swap before the barrier and will not touch the slot
            // again until two barriers from now.
            let slot = unsafe { &mut *self.slots[base + sender * self.k + receiver].get() };
            for item in slot.drain(..) {
                sink(item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn barrier_synchronizes_counting_rounds() {
        let parties = 4;
        let rounds = 200;
        let barrier = SenseBarrier::new(parties);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..parties {
                s.spawn(|| {
                    let mut w = barrier.waiter();
                    for r in 0..rounds {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait(&mut w);
                        // After the wait, every thread's increment for
                        // this round must be visible.
                        let seen = counter.load(Ordering::Relaxed);
                        assert!(seen >= (r + 1) * parties as u64, "round {r}: saw {seen}");
                        barrier.wait(&mut w);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), rounds * parties as u64);
    }

    #[test]
    fn single_party_barrier_never_blocks() {
        let b = SenseBarrier::new(1);
        let mut w = b.waiter();
        for _ in 0..10 {
            b.wait(&mut w);
        }
    }

    /// One round as the engine runs it at shard `me`: publish parity
    /// `p`, one `wait`, drain parity `p`.
    fn exchange<T>(
        grid: &MailboxGrid<T>,
        barrier: &SenseBarrier,
        w: &mut SenseWaiter,
        p: usize,
        me: usize,
        outbox: &mut [Vec<T>],
        sink: impl FnMut(T),
    ) {
        // SAFETY: this thread alone acts as `me`, and publishes before
        // the round's barrier.
        unsafe { grid.publish(p, me, outbox) };
        barrier.wait(w);
        // SAFETY: this thread alone acts as `me`, and drains after the
        // barrier of the round every sender published parity `p` in.
        unsafe { grid.drain(p, me, sink) };
    }

    #[test]
    fn grid_delivers_in_sender_then_stage_order_and_recycles() {
        let k = 3;
        let grid: MailboxGrid<(usize, u32)> = MailboxGrid::new(k);
        let barrier = SenseBarrier::new(k);
        let rounds = 50u32;
        std::thread::scope(|s| {
            for me in 0..k {
                let grid = &grid;
                let barrier = &barrier;
                s.spawn(move || {
                    let mut w = barrier.waiter();
                    let mut outbox: Vec<Vec<(usize, u32)>> = vec![Vec::new(); k];
                    for r in 0..rounds {
                        let parity = (r & 1) as usize;
                        for (j, batch) in outbox.iter_mut().enumerate() {
                            if j != me {
                                batch.push((me, 2 * r));
                                batch.push((me, 2 * r + 1));
                            }
                        }
                        let mut got = Vec::new();
                        exchange(grid, barrier, &mut w, parity, me, &mut outbox, |item| {
                            got.push(item)
                        });
                        for batch in &outbox {
                            assert!(batch.is_empty(), "publish must take the batch");
                        }
                        let expect: Vec<(usize, u32)> = (0..k)
                            .filter(|s| *s != me)
                            .flat_map(|s| [(s, 2 * r), (s, 2 * r + 1)])
                            .collect();
                        assert_eq!(got, expect, "round {r} at shard {me}");
                        barrier.wait(&mut w);
                    }
                });
            }
        });
    }

    /// One item of the stress exchange: (sender, round, stage).
    type Item = (usize, u32, u32);

    /// How many items `sender` stages for `receiver` in `round`: 0–3,
    /// known to both ends without talking.
    fn staged(sender: usize, receiver: usize, round: u32) -> u32 {
        (sender as u32 * 7 + receiver as u32 * 3 + round) % 4
    }

    /// Give the CPU away one time in four, on the thread's own stream.
    fn dawdle(rng: &mut StdRng) {
        if rng.gen_bool(0.25) {
            std::thread::yield_now();
        }
    }

    /// The engine's round, `rounds` times over `parties` threads:
    /// publish parity `p`, one `wait`, drain parity `p` — so a fast
    /// thread's next publish (parity `p ^ 1`) overlaps a slow peer's
    /// drain. Every receiver must get exactly what every sender staged
    /// for it that round, in (sender, stage) order. A lost wakeup
    /// would hang the threads, so they run detached under a watchdog.
    fn exchange_rounds(parties: usize, spin: bool, rounds: u32) {
        use std::sync::{mpsc, Arc};
        let shared = Arc::new((
            SenseBarrier::with_mode(parties, spin),
            MailboxGrid::<Item>::new(parties),
        ));
        let (done_tx, done_rx) = mpsc::channel();
        let handles: Vec<_> = (0..parties)
            .map(|me| {
                let shared = Arc::clone(&shared);
                let done = done_tx.clone();
                std::thread::spawn(move || {
                    let (barrier, grid) = &*shared;
                    let body = std::panic::AssertUnwindSafe(|| {
                        let mut w = barrier.waiter();
                        let mut rng = StdRng::seed_from_u64(me as u64);
                        let mut outbox: Vec<Vec<Item>> = vec![Vec::new(); parties];
                        let mut got: Vec<Item> = Vec::new();
                        for r in 0..rounds {
                            let p = (r & 1) as usize;
                            for (j, batch) in outbox.iter_mut().enumerate() {
                                if j != me {
                                    batch.extend((0..staged(me, j, r)).map(|s| (me, r, s)));
                                }
                            }
                            dawdle(&mut rng);
                            got.clear();
                            exchange(grid, barrier, &mut w, p, me, &mut outbox, |item| {
                                dawdle(&mut rng);
                                got.push(item);
                            });
                            let expect: Vec<Item> = (0..parties)
                                .filter(|s| *s != me)
                                .flat_map(|s| (0..staged(s, me, r)).map(move |i| (s, r, i)))
                                .collect();
                            assert_eq!(got, expect, "round {r} at shard {me}");
                        }
                    });
                    // A failed assertion leaves the peers at the
                    // barrier for good; report it instead of joining.
                    let _ = done.send(std::panic::catch_unwind(body));
                })
            })
            .collect();
        for _ in 0..parties {
            match done_rx.recv_timeout(std::time::Duration::from_secs(60)) {
                Ok(Ok(())) => {}
                Ok(Err(panic)) => std::panic::resume_unwind(panic),
                Err(_) => panic!("{parties} parties, spin={spin}: a thread never returned"),
            }
        }
        for h in handles {
            h.join().expect("reported done");
        }
    }

    /// Both waiting modes at every party count, whatever the host: on
    /// two cores `new` would pick spin for 2 parties and park for the
    /// rest, and never the other way round.
    #[test]
    fn engine_round_shape_survives_slow_peers_in_both_modes() {
        for parties in [2, 3, 5, 7] {
            for spin in [true, false] {
                exchange_rounds(parties, spin, 2000);
            }
        }
    }
}
