//! The deterministic future-event list.
//!
//! Events are totally ordered by [`EventKey`] — `(time, source stream,
//! per-stream sequence number)`. The key is a *total order over all
//! events of a run that does not depend on how the simulation is
//! sharded*: external injections draw from one engine-wide counter
//! (stream 0), and every event a node emits is numbered by that node's
//! own emission counter (stream `node_id + 1`). Because each node's
//! processing order is itself deterministic, the keys — and therefore
//! the global event order — are identical whether the run executes on
//! one shard or many. This is the property the engine's epoch barrier
//! relies on for bit-identical parallel execution (see
//! [`crate::engine`]).
//!
//! ## Storage
//!
//! [`EventQueue`] is a self-resizing calendar queue (R. Brown,
//! "Calendar Queues: A Fast O(1) Priority Queue Implementation for the
//! Simulation Event Set Problem", CACM 1988) over a payload slab.
//!
//! A payload is written **once**, into a slot of the slab, when the
//! event is pushed, and read once, when it is popped; free slots are
//! reused last-out-first-in, so the slab is as large as the deepest
//! the queue has been and stays warm. Everything the calendar itself
//! files, sorts, shifts and rebuilds is a 32-byte `(key, slot)`
//! entry — a protocol message is several times that, and moving it
//! through every sorted insert and every rebuild was most of what the
//! queue used to cost.
//!
//! The entries are bucketed into *days* of a fixed millisecond width.
//! The day currently being drained is kept sorted by full `EventKey`
//! (so same-instant ties break by stream id, then per-stream
//! sequence); future days are unsorted append-only buckets, sorted
//! once when the clock reaches them; and events beyond the bucket
//! ring's horizon wait in a small overflow heap that is drip-fed back
//! into the ring as days advance. At steady state enqueue and dequeue
//! are `O(1)` — one bucket append, one pop off the sorted current
//! day. The plain binary heap this replaced survives as the test-only
//! reference the proptests below compare against.
//!
//! Because the current day is sorted, the queue knows its next several
//! pops, not just the next one: [`EventQueue::upcoming`] lends them out
//! read-only, and the engine uses that to ask the cache for an event's
//! working set before the event comes up (see [`crate::engine`],
//! "Lookahead prefetch"). Filing, sorting and pop order are untouched
//! by it.
//!
//! ### Bucket width and resize policy
//!
//! Two rules set the day width; both are pure functions of the
//! push/pop sequence — no wall clock, no RNG — so the geometry can
//! never affect simulation results, only wall-clock speed.
//!
//! * **From the pending events**, whenever the population crosses a
//!   threshold — growing past `2 ×` the bucket count or shrinking
//!   below `1/8` of it — and whenever the ring is exhausted and only
//!   overflow events remain (the calendar's "next year"): the rebuild
//!   sets the day width to roughly `3 ×` the average gap between the
//!   events of the earlier half of the queue (Brown's rule of thumb: a
//!   handful of events per day), clamped to at least 1 ms, and the
//!   ring size to the population rounded up to a power of two (within
//!   `[16, 65536]`).
//! * **From the observed dequeue rate**, when days run fat. What is
//!   *pending* is a biased sample of what will be *popped*: a
//!   simulation's backlog is mostly long timers, each waiting tens of
//!   seconds, while most of its throughput is messages that live for
//!   one link latency. The first rule alone can therefore settle on
//!   days that each hold hundreds of events, every one of them a
//!   sorted insert into the day being drained. So the queue counts
//!   what it pops: once more than `FAT_DAY` (32) events have come out
//!   of a single day, it compares the day width with `3 ×` the mean
//!   gap between the events *popped* since the last such check (at
//!   least `RATE_SAMPLE`, 256, of them) and, if that is at most half
//!   the current width, rebuilds at it. At the 1 ms floor the rule is
//!   off.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Globally unique, shard-layout-independent ordering key of a
/// scheduled event.
///
/// Ordering is lexicographic: delivery instant first, then the source
/// stream (0 = externally injected; `n + 1` = emitted by node `n`),
/// then the per-stream sequence number. Same-instant events from the
/// same stream are therefore FIFO, and ties across streams resolve by
/// stream id — deterministically, without any global insertion
/// counter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventKey {
    /// Delivery instant.
    pub at: SimTime,
    /// Source stream: 0 for external injections, `node_id + 1` for
    /// node-emitted events.
    pub src: u64,
    /// Sequence number within the source stream.
    pub seq: u64,
}

/// What the calendar files and sorts: an event's key and the slab slot
/// holding its payload. Keys are unique, so the derived order is the
/// key order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Entry {
    key: EventKey,
    slot: u32,
}

/// Payload storage: a slot per pending event, freed slots reused
/// last-out-first-in.
#[derive(Debug)]
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn insert(&mut self, payload: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("under 2^32 pending events");
                self.slots.push(Some(payload));
                slot
            }
        }
    }

    fn take(&mut self, slot: u32) -> T {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("a filed entry's slot is occupied")
    }

    fn get(&self, slot: u32) -> &T {
        self.slots[slot as usize]
            .as_ref()
            .expect("a filed entry's slot is occupied")
    }
}

/// Smallest and largest ring sizes the calendar will resize to.
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 16;

/// Events per day both width rules aim for (Brown's "a handful").
const PER_DAY: u64 = 3;
/// A day that yields more events than this — ten times the aim —
/// makes the queue check its width against the dequeue rate.
const FAT_DAY: u64 = 32;
/// Pops a dequeue-rate estimate must rest on.
const RATE_SAMPLE: u64 = 256;

/// The calendar. Invariant: whenever the queue is non-empty,
/// `current` is non-empty and holds (sorted descending by key, so the
/// global minimum is `current.last()`) exactly the pending events with
/// `at < day_end`; ring bucket `i` holds the unsorted events of day
/// `[day_end + i·width, day_end + (i+1)·width)`; `far` min-heaps
/// everything at or beyond the ring horizon.
#[derive(Debug)]
struct Calendar<T> {
    /// The day being drained, sorted descending by key (pop = `pop()`
    /// off the tail).
    current: Vec<Entry>,
    /// Exclusive end of the current day, in ms.
    day_end: u64,
    /// Day width in ms (≥ 1).
    width: u64,
    /// Future days; `ring[i]` covers `[day_end + i·width, +width)`.
    ring: VecDeque<Vec<Entry>>,
    /// Events held in `ring` (so ring exhaustion is O(1) to detect).
    in_ring: usize,
    /// Overflow events at or beyond `day_end + ring.len()·width`.
    far: BinaryHeap<Reverse<Entry>>,
    len: usize,
    payloads: Slab<T>,
    /// Events popped out of the current day so far.
    day_pops: u64,
    /// Pops since `rate_since`, and the instant (ms) counting began:
    /// the dequeue-rate sample of the fat-day rule.
    rate_pops: u64,
    rate_since: u64,
}

impl<T> Calendar<T> {
    fn new() -> Self {
        Calendar {
            current: Vec::new(),
            day_end: 0,
            width: 1,
            ring: VecDeque::from_iter((0..MIN_BUCKETS).map(|_| Vec::new())),
            in_ring: 0,
            far: BinaryHeap::new(),
            len: 0,
            payloads: Slab {
                slots: Vec::new(),
                free: Vec::new(),
            },
            day_pops: 0,
            rate_pops: 0,
            rate_since: 0,
        }
    }

    fn push(&mut self, key: EventKey, payload: T) {
        let entry = Entry {
            key,
            slot: self.payloads.insert(payload),
        };
        self.len += 1;
        let at = key.at.as_ms();
        if self.len == 1 {
            // Queue was empty: re-anchor the current day at the event,
            // and the rate sample with it (an idle gap is not a rate).
            self.day_end = at.saturating_add(self.width);
            self.current.push(entry);
            self.day_pops = 0;
            self.rate_pops = 0;
            self.rate_since = at;
            return;
        }
        if at < self.day_end {
            // Into the (sorted) current day; unique keys make the
            // binary-search position deterministic. A duplicate key
            // (a caller contract violation) slots in adjacent to its
            // twin.
            let pos = match self.current.binary_search_by(|e| key.cmp(&e.key)) {
                Ok(pos) | Err(pos) => pos,
            };
            self.current.insert(pos, entry);
        } else {
            self.file_ahead(entry);
        }
        if self.len > 2 * self.ring.len() && self.ring.len() < MAX_BUCKETS {
            self.rebuild(None);
        }
    }

    /// File an entry due at or after `day_end` into its ring bucket,
    /// or into the overflow heap beyond the ring horizon.
    fn file_ahead(&mut self, entry: Entry) {
        let idx = ((entry.key.at.as_ms() - self.day_end) / self.width) as usize;
        if idx < self.ring.len() {
            self.ring[idx].push(entry);
            self.in_ring += 1;
        } else {
            self.far.push(Reverse(entry));
        }
    }

    fn pop(&mut self) -> Option<(EventKey, T)> {
        let Entry { key, slot } = self.current.pop()?;
        self.len -= 1;
        self.day_pops += 1;
        self.rate_pops += 1;
        if self.current.is_empty() && self.len > 0 {
            self.advance();
        } else if self.len < self.ring.len() / 8 && self.ring.len() > MIN_BUCKETS {
            self.rebuild(None);
        } else if self.day_pops > FAT_DAY && self.rate_pops >= RATE_SAMPLE && self.width > 1 {
            self.narrow_to_dequeue_rate(key.at.as_ms());
        }
        Some((key, self.payloads.take(slot)))
    }

    fn peek(&self) -> Option<&Entry> {
        self.current.last()
    }

    /// The entry `ahead` places behind the head of the current day
    /// (`upcoming(0)` is [`Calendar::peek`]); `None` past the day's
    /// end, whatever the ring holds beyond it.
    #[inline]
    fn upcoming(&self, ahead: usize) -> Option<&Entry> {
        let behind = self.current.len().checked_sub(ahead)?;
        self.current[..behind].last()
    }

    /// Walk forward day by day until the current day is non-empty.
    /// Called only when `current` is empty and events remain.
    fn advance(&mut self) {
        loop {
            if self.in_ring == 0 {
                // Only overflow events remain: start the next "year"
                // re-anchored at their minimum.
                debug_assert!(!self.far.is_empty());
                self.rebuild(None);
                return;
            }
            // Advance one day: recycle the bucket, move the horizon,
            // and drip overflow events that entered it into the ring.
            let bucket = self.ring.pop_front().expect("ring is never empty");
            self.day_end += self.width;
            self.ring.push_back(Vec::new());
            while let Some(Reverse(e)) = self.far.peek() {
                let idx = ((e.key.at.as_ms() - self.day_end) / self.width) as usize;
                if idx >= self.ring.len() {
                    break;
                }
                let Reverse(e) = self.far.pop().expect("peeked");
                self.ring[idx].push(e);
                self.in_ring += 1;
            }
            if !bucket.is_empty() {
                self.in_ring -= bucket.len();
                self.current = bucket;
                self.day_pops = 0;
                // Descending, so the earliest key sits at the tail.
                self.current.sort_unstable_by(|a, b| b.cmp(a));
                return;
            }
        }
    }

    /// The fat-day rule (module docs): re-derive the day width from
    /// the events popped since the last check, up to `now`, and
    /// rebuild if that at least halves it.
    fn narrow_to_dequeue_rate(&mut self, now: u64) {
        let elapsed = now.saturating_sub(self.rate_since);
        let width = (elapsed.saturating_mul(PER_DAY) / self.rate_pops).max(1);
        self.rate_pops = 0;
        self.rate_since = now;
        if width <= self.width / 2 {
            self.rebuild(Some(width));
        }
    }

    /// Collect every pending entry and redistribute it under a fresh
    /// geometry: ring size ≈ population (power of two in
    /// `[MIN_BUCKETS, MAX_BUCKETS]`), day origin at the earliest
    /// pending event, day width as given or else ≈ 3× the average
    /// inter-event gap of the earlier half of the queue.
    fn rebuild(&mut self, width: Option<u64>) {
        let mut all: Vec<Entry> = Vec::with_capacity(self.len);
        all.append(&mut self.current);
        for bucket in self.ring.iter_mut() {
            all.append(bucket);
        }
        self.in_ring = 0;
        all.extend(self.far.drain().map(|Reverse(e)| e));
        debug_assert_eq!(all.len(), self.len);
        if all.is_empty() {
            return;
        }

        let min_at = match width {
            Some(width) => {
                self.width = width;
                all.iter()
                    .map(|e| e.key.at.as_ms())
                    .min()
                    .expect("non-empty")
            }
            None => {
                // Width policy on the earlier half only: far-future
                // outliers (long-delay timers) must not stretch the
                // day width, or the near-term bulk would all collapse
                // into one giant day.
                let half = (all.len() / 2).max(1).min(all.len() - 1);
                let (lower, median, _) = all.select_nth_unstable(half);
                let median_at = median.key.at.as_ms();
                let min_at = lower
                    .iter()
                    .map(|e| e.key.at.as_ms())
                    .min()
                    .unwrap_or(median_at);
                let gaps = half.max(1) as u64;
                self.width = ((median_at - min_at).saturating_mul(PER_DAY) / gaps).max(1);
                min_at
            }
        };

        let buckets = all
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.ring = VecDeque::from_iter((0..buckets).map(|_| Vec::new()));
        self.day_end = min_at.saturating_add(self.width);

        for entry in all {
            if entry.key.at.as_ms() < self.day_end {
                self.current.push(entry);
            } else {
                self.file_ahead(entry);
            }
        }
        self.current.sort_unstable_by(|a, b| b.cmp(a));
        self.day_pops = 0;
        debug_assert!(!self.current.is_empty(), "day origin holds the minimum");
    }
}

/// A deterministic future-event list (see the module docs for the
/// ordering contract and the calendar storage).
#[derive(Debug)]
pub struct EventQueue<T> {
    cal: Calendar<T>,
    peak: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            cal: Calendar::new(),
            peak: 0,
        }
    }

    /// Schedule `payload` for delivery under `key`. The caller is
    /// responsible for key uniqueness (the engine derives keys from
    /// per-stream counters, which guarantees it).
    pub fn push(&mut self, key: EventKey, payload: T) {
        self.cal.push(key, payload);
        self.peak = self.peak.max(self.cal.len);
    }

    /// Remove and return the event with the smallest key, if any.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        self.cal.pop()
    }

    /// As [`EventQueue::pop`], but only if the earliest event is due
    /// strictly before `limit` — the engine's epoch inner loop, as one
    /// queue operation instead of a peek-then-pop pair.
    pub fn pop_if_before(&mut self, limit: SimTime) -> Option<(EventKey, T)> {
        if self.peek_time()? >= limit {
            return None;
        }
        self.pop()
    }

    /// A read-only look past the head: the payload of the event
    /// `ahead` places behind it in pop order (`upcoming(0)` is the
    /// payload the next [`EventQueue::pop`] returns), or `None` once
    /// `ahead` runs past the end of the day being drained — the sorted
    /// part of the calendar; later days are unsorted buckets with no
    /// "next" yet. What it returns is a forecast, exact only until the next
    /// push: an event filed into the current day takes its sorted
    /// place among the entries already seen and moves everything
    /// behind it one place back. Pop order is unaffected either way.
    #[inline]
    pub fn upcoming(&self, ahead: usize) -> Option<&T> {
        self.cal
            .upcoming(ahead)
            .map(|e| self.cal.payloads.get(e.slot))
    }

    /// Ask the cache for the payload [`EventQueue::upcoming`] would
    /// return, without reading it ([`crate::prefetch`]).
    #[inline]
    pub(crate) fn prefetch_upcoming(&self, ahead: usize) {
        if let Some(e) = self.cal.upcoming(ahead) {
            crate::prefetch(&self.cal.payloads.slots[e.slot as usize]);
        }
    }

    /// The delivery time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|k| k.at)
    }

    /// The full key of the earliest pending event.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.cal.peek().map(|e| e.key)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cal.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of the queue length over the queue's lifetime
    /// (the "peak queue depth" benchmark metric).
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

/// The binary heap the calendar replaced, kept as the oracle the
/// proptests below compare against: `O(log n)` per operation over
/// inverted keys, obviously correct, and never reachable from a
/// config, a flag or the public API.
#[cfg(test)]
mod reference {
    use super::*;
    use std::cmp::Ordering;

    /// Heap entry: a payload under an *inverted* key ordering, so
    /// `BinaryHeap`'s max-heap pops the smallest key first.
    #[derive(Debug)]
    struct Scheduled<T> {
        key: EventKey,
        payload: T,
    }

    impl<T> PartialEq for Scheduled<T> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl<T> Eq for Scheduled<T> {}

    impl<T> PartialOrd for Scheduled<T> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<T> Ord for Scheduled<T> {
        fn cmp(&self, other: &Self) -> Ordering {
            other.key.cmp(&self.key)
        }
    }

    #[derive(Debug)]
    pub struct HeapQueue<T> {
        heap: BinaryHeap<Scheduled<T>>,
        peak: usize,
    }

    impl<T> HeapQueue<T> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                peak: 0,
            }
        }

        pub fn push(&mut self, key: EventKey, payload: T) {
            self.heap.push(Scheduled { key, payload });
            self.peak = self.peak.max(self.heap.len());
        }

        pub fn pop(&mut self) -> Option<(EventKey, T)> {
            self.heap.pop().map(|s| (s.key, s.payload))
        }

        pub fn pop_if_before(&mut self, limit: SimTime) -> Option<(EventKey, T)> {
            if self.peek_key()?.at >= limit {
                return None;
            }
            self.pop()
        }

        pub fn peek_key(&self) -> Option<EventKey> {
            self.heap.peek().map(|s| s.key)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn peak_len(&self) -> usize {
            self.peak
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at_ms: u64, src: u64, seq: u64) -> EventKey {
        EventKey {
            at: SimTime::from_ms(at_ms),
            src,
            seq,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(key(30, 0, 0), "c");
        q.push(key(10, 0, 1), "a");
        q.push(key(20, 0, 2), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_same_stream_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(key(5, 3, i), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn same_instant_orders_by_stream() {
        let mut q = EventQueue::new();
        q.push(key(5, 7, 0), "node6");
        q.push(key(5, 0, 9), "external");
        q.push(key(5, 2, 0), "node1");
        assert_eq!(q.pop().unwrap().1, "external");
        assert_eq!(q.pop().unwrap().1, "node1");
        assert_eq!(q.pop().unwrap().1, "node6");
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(key(10, 0, 0), 1);
        q.push(key(5, 0, 1), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(key(7, 0, 2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn peek_len_and_peak() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.peek_key(), None);
        q.push(key(42, 0, 0), ());
        q.push(key(41, 0, 1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak_len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(41)));
        q.pop();
        q.pop();
        assert_eq!(q.peak_len(), 2, "peak survives drains");
    }

    #[test]
    fn pop_if_before_respects_the_limit() {
        let mut q = EventQueue::new();
        q.push(key(10, 0, 0), "x");
        assert!(q.pop_if_before(SimTime::from_ms(10)).is_none());
        assert!(q.pop_if_before(SimTime::from_ms(5)).is_none());
        assert_eq!(q.len(), 1, "a refused pop must not drop the event");
        let (k, p) = q.pop_if_before(SimTime::from_ms(11)).unwrap();
        assert_eq!((k.at, p), (SimTime::from_ms(10), "x"));
        assert!(q.pop_if_before(SimTime::from_ms(u64::MAX)).is_none());
    }

    #[test]
    fn zero_time_events() {
        let mut q = EventQueue::new();
        q.push(key(0, 0, 0), "x");
        assert_eq!(q.pop().unwrap().0.at, SimTime::ZERO);
    }

    #[test]
    fn far_future_events_cross_the_ring_horizon() {
        // Events hours apart at ms resolution exercise the overflow
        // heap and the next-year rebuild.
        let mut q = EventQueue::new();
        let hour = 3_600_000u64;
        q.push(key(3 * hour, 0, 0), 3u64);
        q.push(key(1, 0, 1), 0);
        q.push(key(hour, 0, 2), 1);
        q.push(key(2 * hour + 5, 0, 3), 2);
        for want in 0..4u64 {
            assert_eq!(q.pop().unwrap().1, want);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn filed_entries_are_32_bytes() {
        // What every sorted insert shifts and every rebuild moves —
        // whatever the payload type.
        assert!(std::mem::size_of::<Entry>() <= 32);
    }

    #[test]
    fn payload_slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..100u64 {
                q.push(key(round * 1000 + i * 7 % 500, 1, round * 100 + i), i);
            }
            while q.pop().is_some() {}
        }
        assert_eq!(q.cal.payloads.slots.len(), 100, "slab = peak depth");
    }

    /// The fat-day rule: a backlog of sparse long timers makes the
    /// pending-event sample pick days seconds wide; message-like
    /// traffic at tens of events per millisecond then fills every day
    /// with thousands of entries until the observed dequeue rate
    /// narrows it.
    #[test]
    fn fat_days_narrow_the_width_to_the_dequeue_rate() {
        let mut q = EventQueue::new();
        let mut heap = reference::HeapQueue::new();
        let mut seq = 0u64;
        let mut push = |q: &mut EventQueue<u64>, heap: &mut reference::HeapQueue<u64>, at, src| {
            q.push(key(at, src, seq), seq);
            heap.push(key(at, src, seq), seq);
            seq += 1;
        };
        for i in 0..2_000u64 {
            push(&mut q, &mut heap, i * 1_000, 1);
        }
        let timers_only = q.cal.width;
        assert!(
            timers_only >= 1_000,
            "sampled from the backlog: {timers_only}"
        );
        // 600 messages in flight, each re-sent 1–40 ms after delivery.
        for i in 0..600u64 {
            push(&mut q, &mut heap, i % 40, 2);
        }
        for step in 0..40_000u64 {
            let (k, p) = q.pop().expect("hold model keeps the queue full");
            assert_eq!(Some((k, p)), heap.pop(), "diverged at step {step}");
            if k.src == 2 {
                push(&mut q, &mut heap, k.at.as_ms() + 1 + (p * 7 + step) % 40, 2);
            }
        }
        assert!(
            q.cal.width <= 2,
            "600 events per ~20 ms must narrow the day to the floor, got {}",
            q.cal.width
        );
        loop {
            let (a, b) = (q.pop(), heap.pop());
            assert_eq!(a, b, "diverged in the drain");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn grows_and_shrinks_through_rebuilds() {
        let mut q = EventQueue::new();
        // Push enough to force several grow rebuilds…
        for i in 0..10_000u64 {
            q.push(key((i * 37) % 4096, 1, i), i);
        }
        assert_eq!(q.len(), 10_000);
        // …then drain fully (shrink rebuilds), checking order.
        let mut last = None;
        let mut n = 0;
        while let Some((k, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(k > prev);
            }
            last = Some(k);
            n += 1;
        }
        assert_eq!(n, 10_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::reference::HeapQueue;
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn key(at_ms: u64, src: u64, seq: u64) -> EventKey {
        EventKey {
            at: SimTime::from_ms(at_ms),
            src,
            seq,
        }
    }

    proptest! {
        /// The queue is a stable priority queue over full keys:
        /// popping yields non-decreasing keys, and within one source
        /// stream the per-stream sequence numbers come out in order.
        #[test]
        fn pop_order_is_sorted_by_key(entries in proptest::collection::vec((0u64..1000, 0u64..4), 0..200)) {
            let mut q = EventQueue::new();
            let mut seqs = [0u64; 4];
            for (i, &(t, src)) in entries.iter().enumerate() {
                let seq = seqs[src as usize];
                seqs[src as usize] += 1;
                q.push(key(t, src, seq), i);
            }
            let mut last: Option<EventKey> = None;
            let mut popped = 0usize;
            while let Some((k, _)) = q.pop() {
                popped += 1;
                if let Some(lk) = last {
                    prop_assert!(k > lk, "keys must strictly increase");
                }
                last = Some(k);
            }
            prop_assert_eq!(popped, entries.len());
        }

        /// Reference parity: for an arbitrary insert sequence — narrow
        /// time range, so same-timestamp bursts are common — the
        /// calendar queue pops the exact payload sequence the binary
        /// heap does.
        #[test]
        fn calendar_matches_heap_pop_order(entries in proptest::collection::vec((0u64..64, 0u64..6), 0..300)) {
            let mut cal = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut seqs = [0u64; 6];
            for (i, &(t, src)) in entries.iter().enumerate() {
                let seq = seqs[src as usize];
                seqs[src as usize] += 1;
                cal.push(key(t, src, seq), i);
                heap.push(key(t, src, seq), i);
            }
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b, "calendar diverged from the heap");
                if a.is_none() {
                    break;
                }
            }
        }

        /// Reference parity under the engine's real call mix: each
        /// batch is a burst of pushes followed by epochs drained with
        /// `pop_if_before(limit)` — a refused pop opens the next epoch
        /// at the earliest pending event, as the barrier loop does —
        /// with `peek_key`, `peek_time`, `len` and `peak_len` compared
        /// at every step. The per-batch `stretch` scales the deltas
        /// from ring-local (×1) to hours out (×125 000), so events
        /// cross the ring horizon into the `far` heap and come back
        /// through the drip-feed and the next-year rebuild; bursts of
        /// up to 200 pushes and the full drain at the end force grow
        /// *and* shrink rebuilds.
        ///
        /// The lookahead rides along as one more observation: before
        /// every pop, `upcoming(k)` for `k < 12` must be `Some` exactly
        /// for the entries left in the current day, and must agree with
        /// `forecast` — the next pops as earlier looks predicted them,
        /// each push since filed where the key order puts it (ahead of
        /// entries already seen, when it lands among them). Every pop —
        /// the heap's too, by the comparison above it — must then take
        /// the forecast's front.
        #[test]
        fn calendar_matches_heap_interleaved(batches in proptest::collection::vec((proptest::collection::vec((0u64..48, 0u64..3), 0..200), 0usize..250, 0usize..4), 1..8)) {
            let mut cal = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut seqs = [0u64; 3];
            let mut clock = 0u64; // keys must never be scheduled "past"
            let mut keys: Vec<EventKey> = Vec::new(); // by payload
            let mut forecast: VecDeque<usize> = VecDeque::new();
            for (pushes, pops, stretch) in &batches {
                let scale = [1u64, 50, 2_500, 125_000][*stretch];
                for &(dt, src) in pushes {
                    let seq = seqs[src as usize];
                    seqs[src as usize] += 1;
                    let (k, i) = (key(clock + dt * scale, src, seq), keys.len());
                    cal.push(k, i);
                    heap.push(k, i);
                    keys.push(k);
                    if let Some(at) = forecast.iter().position(|seen| k < keys[*seen]) {
                        forecast.insert(at, i);
                    }
                }
                let window = 16 * scale;
                let mut limit = SimTime::from_ms(clock + window);
                for _ in 0..*pops {
                    prop_assert_eq!(cal.peek_key(), heap.peek_key(), "heads diverged");
                    prop_assert_eq!(cal.peek_time(), heap.peek_key().map(|k| k.at));
                    for ahead in 0..12 {
                        let seen = cal.upcoming(ahead).copied();
                        prop_assert_eq!(seen.is_some(), ahead < cal.cal.current.len());
                        let Some(seen) = seen else { break };
                        match forecast.get(ahead) {
                            Some(due) => prop_assert_eq!(seen, *due, "forecast {} ahead moved", ahead),
                            None => forecast.push_back(seen),
                        }
                    }
                    let (mut a, mut b) = (cal.pop_if_before(limit), heap.pop_if_before(limit));
                    prop_assert_eq!(&a, &b, "diverged mid-epoch");
                    if a.is_none() {
                        (a, b) = (cal.pop(), heap.pop());
                        prop_assert_eq!(&a, &b, "diverged at the epoch boundary");
                    }
                    prop_assert_eq!(cal.len(), heap.len());
                    prop_assert_eq!(a.map(|(_, p)| p), forecast.pop_front(), "not the event forecast");
                    let Some((k, _)) = a else { break };
                    if k.at >= limit {
                        limit = k.at + SimDuration::from_ms(window);
                    }
                    clock = k.at.as_ms();
                }
            }
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(&a, &b, "diverged in the final drain");
                prop_assert_eq!(cal.len(), heap.len());
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(cal.peak_len(), heap.peak_len());
        }

        /// Reference parity across a rate change that forces a
        /// re-width. A backlog of sparse timers sets a wide day from
        /// the pending sample; then a hold model runs hot — `flight`
        /// events, each popped and re-pushed `0..spread` ms later, so
        /// pushes land in the day being drained (delay 0: the very
        /// instant being popped) — until the fat-day rule rebuilds at
        /// the observed rate, mid-stream, with the heap compared at
        /// every pop.
        #[test]
        fn calendar_matches_heap_across_a_rate_change(
            timers in proptest::collection::vec(1u64..4_000, 40..120),
            flight in 64usize..400,
            spread in 1u64..24,
            delays in proptest::collection::vec(0u64..1_000, 64..128),
        ) {
            let mut cal = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut seq = 0u64;
            let mut at = 0u64;
            for gap in &timers {
                at += gap * 50;
                cal.push(key(at, 1, seq), seq);
                heap.push(key(at, 1, seq), seq);
                seq += 1;
            }
            let wide = cal.cal.width;
            for i in 0..flight as u64 {
                cal.push(key(i % spread, 2, seq), seq);
                heap.push(key(i % spread, 2, seq), seq);
                seq += 1;
            }
            for step in 0..6_000usize {
                prop_assert_eq!(cal.peek_key(), heap.peek_key(), "heads diverged");
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(&a, &b, "diverged at step {}", step);
                let Some((k, _)) = a else { break };
                if k.src == 2 {
                    let delay = delays[step % delays.len()] % spread;
                    cal.push(key(k.at.as_ms() + delay, 2, seq), seq);
                    heap.push(key(k.at.as_ms() + delay, 2, seq), seq);
                    seq += 1;
                }
                prop_assert_eq!(cal.len(), heap.len());
            }
            if wide >= 4 * spread {
                prop_assert!(
                    cal.cal.width <= wide / 2,
                    "hot traffic in {}-ms days must have narrowed them (still {})",
                    wide,
                    cal.cal.width
                );
            }
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(&a, &b, "diverged in the final drain");
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(cal.peak_len(), heap.peak_len());
        }
    }
}
