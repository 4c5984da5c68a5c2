//! `simnet::event`: the pending-event set.

use std::hint::black_box;

use simnet::event::{EventKey, EventQueue};
use simnet::SimTime;

use super::{ns_per_call, Mix, OperatingPoint, Probe};

/// The classic hold model: a queue kept at the workload's peak depth,
/// each step popping the earliest event and scheduling a successor a
/// random latency-like delay later.
pub fn probe(at: &OperatingPoint) -> Vec<Probe> {
    let depth = at.peak_queue_depth.max(1);
    let (lo, hi) = (
        at.cfg.topology.min_latency_ms,
        at.cfg.topology.max_latency_ms,
    );
    let mut mix = Mix(depth as u64);
    let mut delay = move || lo + mix.next() % (hi - lo + 1);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for seq in 0..depth as u64 {
        let key = EventKey {
            at: SimTime::from_ms(delay()),
            src: seq % 1024,
            seq,
        };
        queue.push(key, seq);
    }
    let mut seq = depth as u64;
    let hold_ns = ns_per_call(|_| {
        let (key, payload) = queue.pop().expect("queue stays at depth");
        seq += 1;
        let next = EventKey {
            at: key.at + simnet::SimDuration::from_ms(delay()),
            src: key.src,
            seq,
        };
        queue.push(next, black_box(payload));
    });
    vec![("simnet.event.hold_ns", hold_ns, "ns")]
}
