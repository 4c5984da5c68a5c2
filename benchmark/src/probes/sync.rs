//! `simnet::sync`: one cross-shard exchange round between two parties.

use std::time::Instant;

use simnet::{MailboxGrid, SenseBarrier};

use super::Probe;

/// Rounds per timed stretch.
const ROUNDS: usize = 5_000;
/// Timed stretches; the median is reported, because where the two
/// threads land on the host decides a stretch's speed.
const STRETCHES: usize = 7;
/// Messages each party stages for the other per round.
const BATCH: u64 = 8;

/// Publish, barrier, drain — the round the sharded engine runs once
/// per epoch — between two threads.
pub fn probe() -> Vec<Probe> {
    let grid: MailboxGrid<u64> = MailboxGrid::new(2);
    let barrier = SenseBarrier::new(2);
    let party = |me: usize| {
        let mut waiter = barrier.waiter();
        let mut outbox: Vec<Vec<u64>> = vec![Vec::new(), Vec::new()];
        let mut received = 0u64;
        let mut stretches = Vec::with_capacity(STRETCHES);
        for _ in 0..STRETCHES {
            let t = Instant::now();
            for round in 0..ROUNDS {
                outbox[1 - me].extend(0..BATCH);
                // SAFETY: this thread is the only one acting as `me`;
                // it publishes before the round's barrier and drains
                // the same parity after it, as does the other party.
                unsafe { grid.publish(round & 1, me, &mut outbox) };
                barrier.wait(&mut waiter);
                // SAFETY: as above — after the barrier of the round
                // the other party published in, same parity.
                unsafe { grid.drain(round & 1, me, |m| received += m) };
            }
            stretches.push(t.elapsed().as_secs_f64() * 1e9 / ROUNDS as f64);
        }
        std::hint::black_box(received);
        stretches.sort_by(f64::total_cmp);
        stretches[STRETCHES / 2]
    };
    let round_ns = std::thread::scope(|s| {
        let other = s.spawn(|| party(1));
        let mine = party(0);
        other.join().expect("exchange party panicked");
        mine
    });
    vec![("simnet.sync.exchange_round_ns", round_ns, "ns")]
}
