//! The yardstick: a fixed piece of work, owned by the benchmark, that
//! is timed between the steps of every cell to tell how fast the host
//! is running *right now*.
//!
//! The reference host is two vCPUs of a shared machine. For minutes at
//! a time something outside the guest slows every program on it, the
//! simulator by up to 2×, without a trace in the guest's own counters.
//! No estimator over raw seconds removes a phase that outlasts the
//! whole invocation, so host times are reported in *reference seconds*:
//! measured seconds ÷ ([`Yardstick::chunk`] time now ÷ its time on a
//! quiet reference host, [`REFERENCE_CHUNK_S`]).
//!
//! The work is a miniature of what the simulator does per event — pop
//! the earliest entry of a time-ordered heap, touch one node's state,
//! set and test Bloom-style bits, now and then allocate and free a
//! message buffer, push a follow-up event — over a few megabytes, so it
//! competes for the same core, cache and allocator. It calls nothing in
//! the code under test, so a change to the simulator cannot move it.
//!
//! **Frozen:** any edit to this file re-bases every reference second
//! ever recorded. Change it only together with a re-measured baseline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Seconds one [`Yardstick::chunk`] takes on the reference host in a
/// quiet phase (see README, "Reference seconds"). It only fixes the
/// scale: on that host a reference second is a second.
pub const REFERENCE_CHUNK_S: f64 = 0.0073;

/// Nodes of the miniature: about 8 MB with their buffers and the heap,
/// more than a core's private cache and less than the shared one.
const NODES: usize = 20_000;

/// Events one chunk dispatches.
const EVENTS_PER_CHUNK: usize = 30_000;

struct Node {
    bits: [u64; 16],
    peers: Vec<u32>,
    mail: Vec<u8>,
    hits: u64,
}

/// The miniature's state. Built once per cell, before anything is
/// measured; every node holds one buffer from the start, so its
/// resident size stays constant.
pub struct Yardstick {
    nodes: Vec<Node>,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
}

/// 64-bit finaliser of MurmurHash3.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Bytes of a message buffer drawn from `h`.
fn mail_len(h: u64) -> usize {
    32 + h as usize % 200
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    /// Allocate the miniature and schedule one event per node.
    pub fn new() -> Yardstick {
        let nodes = (0..NODES)
            .map(|i| Node {
                bits: [0; 16],
                peers: (0..16)
                    .map(|k| (mix((i * 16 + k) as u64) % NODES as u64) as u32)
                    .collect(),
                mail: vec![0; mail_len(mix(i as u64))],
                hits: 0,
            })
            .collect();
        let queue = (0..NODES)
            .map(|i| Reverse((mix(i as u64) % 100_000, i as u32)))
            .collect();
        Yardstick { nodes, queue }
    }

    /// Dispatch [`EVENTS_PER_CHUNK`] events; host seconds it took.
    pub fn chunk(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..EVENTS_PER_CHUNK {
            let Reverse((time, id)) = self.queue.pop().expect("one event per node is pending");
            let h = mix(time ^ ((id as u64) << 32));
            let node = &mut self.nodes[id as usize];
            let bit = (h >> 8) as usize % 1024;
            if node.bits[bit / 64] >> (bit % 64) & 1 == 1 {
                node.hits += 1;
            }
            node.bits[bit / 64] |= 1 << (bit % 64);
            if h & 7 == 0 {
                node.mail = vec![h as u8; mail_len(h >> 20)];
            }
            let peer = node.peers[(h >> 40) as usize % 16];
            self.queue
                .push(Reverse((time + 1 + (h >> 16) % 100_000, peer)));
        }
        t.elapsed().as_secs_f64()
    }

    /// A value depending on all the work done, so none of it can be
    /// optimised away.
    pub fn checksum(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.hits + n.mail.first().copied().unwrap_or(0) as u64)
            .sum()
    }
}
