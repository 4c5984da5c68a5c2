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
//! [`EventQueue`] is a hierarchical timing wheel (G. Varghese and
//! T. Lauck, "Hashed and Hierarchical Timing Wheels", SOSP 1987) at
//! the 1 ms resolution of [`SimTime`], over a message slab.
//!
//! What the wheel files, moves and sorts is a 32-byte entry: the key,
//! and either a slab slot or a timer. A message ([`Item::Payload`]) is
//! written **once**, into a slot of the slab, when it is pushed, and
//! read once, when it is popped; free slots are reused
//! last-out-first-in, so the slab is as large as the most messages the
//! queue has held and stays warm. A timer ([`Item::Timer`]) is its
//! entry: kind and tag ride in the entry's spare words and it takes no
//! slot. Most pending events of a Flower-CDN run are its periodic
//! gossip and keepalive timers (99 % at `steady_100k`'s peak), so the
//! slab is sized by the messages in flight alone.
//!
//! The wheel has eleven levels of 64 unsorted slots, each level
//! resolving 6 bits of the millisecond instant relative to an origin,
//! `pos`: an entry due at `at` files into the level of the highest
//! 6-bit digit in which `at` and `pos` differ (level 0 if none does),
//! at the slot that digit of `at` names. A level-0 slot therefore
//! holds a single instant, and every entry of a level is due before
//! every entry of the levels above it, so the earliest pending instant
//! sits in the first occupied slot of the lowest occupied level — one
//! `trailing_zeros` of that level's `u64` occupancy word. Beside the
//! wheel, `current` holds exactly that instant, sorted by full key
//! (same-instant ties break by stream id, then per-stream sequence),
//! and a pop takes its tail. When `current` runs dry the next instant
//! comes in: a level-0 slot is copied in whole and sorted; a higher
//! slot is *cascaded* — the origin moves to the slot's start and the
//! slot's entries are re-filed a level or more lower — but only once
//! the clock, the last popped instant, has reached that start. Until
//! then only the slot's earliest instant is taken out, by a scan.
//!
//! A slot is not a growing buffer but a set of fixed blocks of 64
//! entries (2 KiB), every one full but the newest, drawn from one pool
//! the wheel owns: filing appends to the newest block, which the slot
//! holds inline, and takes a new one only when it is full. The
//! level-0 copy, a cascade and the scan (which re-files what it
//! leaves) take a slot's blocks off one at a time and give each back
//! to the pool as soon as it is drained, so a cascade's targets fill
//! the very blocks its source gave up and no entry is ever held
//! twice. The wheel's slot memory is thus the most blocks it ever had
//! in use at once: a block is allocated only when the pool is empty,
//! and kept for the queue's lifetime.
//!
//! That bound keeps `pos` at or behind the clock, and no push may be
//! earlier than the clock, so no push lands behind the wheel: one at
//! the instant being drained takes its sorted place in `current`, a
//! later one is filed, and an earlier one — a cross-shard message
//! drained at the barrier, a push at the instant whose last event was
//! just popped, the first push into an empty queue — hands `current`
//! back to the wheel and takes its place. Cascading a slot as soon as
//! it is the earliest, clock or not, was measured and dropped: a
//! distant timer at the head of the queue then pulls the origin ahead
//! of the clock, every push in between becomes a sorted insert, and
//! `query_storm_10k` ran 30 % slower.
//!
//! Nothing of this geometry is tuned or resized, and the pop order is
//! the key order: the plain binary heap the queue replaced survives as
//! the test-only reference the proptests below compare against.
//!
//! Because `current` is sorted, the queue knows the rest of the
//! instant being drained, not just the next pop:
//! [`EventQueue::upcoming`] lends it out read-only, and the engine uses
//! that to ask the cache for an event's working set before the event
//! comes up (see [`crate::engine`], "Lookahead prefetch"). Filing,
//! sorting and pop order are untouched by it.

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
    /// node-emitted events. A queue holds streams below 2^32.
    pub src: u64,
    /// Sequence number within the source stream.
    pub seq: u64,
}

/// What one pending event is: a payload, or a timer, which is nothing
/// but the kind and tag it was armed with — whose timer it is, the
/// key's stream says. A `T` converts into `Payload`, so a queue that
/// holds no timers is pushed its payloads as they are.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Item<T> {
    /// An event carrying a payload, held in the queue's slab.
    Payload(T),
    /// A timer, held in its wheel entry alone.
    Timer {
        /// Application-defined timer kind.
        kind: u16,
        /// Application-defined payload for the timer.
        tag: u64,
    },
}

impl<T> From<T> for Item<T> {
    fn from(payload: T) -> Self {
        Item::Payload(payload)
    }
}

/// The `word` bit that marks a timer entry; its low 16 bits are then
/// the timer's kind. A payload entry's word is its slab slot, below
/// this bit.
const TIMER: u32 = 1 << 31;

/// What the wheel files and sorts, 32 bytes: an event's key, with the
/// stream narrowed to `u32`, and a `word` — the slab slot of a
/// payload, or [`TIMER`] with a timer's kind — beside the timer's
/// `tag`. Keys are unique, so the derived order, `(at, src, seq)`
/// first, is the key order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
struct Entry {
    at: u64,
    src: u32,
    seq: u64,
    word: u32,
    tag: u64,
}

impl Entry {
    fn new(key: EventKey, word: u32, tag: u64) -> Self {
        Entry {
            at: key.at.as_ms(),
            src: u32::try_from(key.src).expect("an event's source stream is below 2^32"),
            seq: key.seq,
            word,
            tag,
        }
    }

    fn key(&self) -> EventKey {
        EventKey {
            at: SimTime::from_ms(self.at),
            src: u64::from(self.src),
            seq: self.seq,
        }
    }

    /// The slab slot of a payload entry; `None` for a timer.
    #[inline]
    fn slot(&self) -> Option<u32> {
        (self.word & TIMER == 0).then_some(self.word)
    }

    /// A timer entry's item, or a payload entry's from the slab.
    #[inline]
    fn item<P>(&self, payload: impl FnOnce(u32) -> P) -> Item<P> {
        match self.slot() {
            Some(slot) => Item::Payload(payload(slot)),
            None => Item::Timer {
                kind: self.word as u16,
                tag: self.tag,
            },
        }
    }
}

/// Payload storage: a slot per pending payload, freed slots reused
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
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|slot| slot & TIMER == 0)
                    .expect("under 2^31 pending payloads");
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

/// Bits of the millisecond instant one level resolves; eleven levels
/// cover all 64.
const SLOT_BITS: usize = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const LEVELS: usize = 11;

/// Entries per block of a slot's chain: 2 KiB of them. Blocks are
/// held boxed, so that one moves between a chain and the pool as a
/// pointer.
const BLOCK: usize = SLOTS;

/// The level an entry due at `at` files into while the wheel's origin
/// is `pos`: the 6-bit digit holding the highest bit in which the two
/// differ, 0 when they are equal.
fn level_of(pos: u64, at: u64) -> usize {
    ((pos ^ at) | 1).ilog2() as usize / SLOT_BITS
}

type Block = [Entry; BLOCK];

/// One wheel slot: its `len` entries, unsorted, in blocks, every one
/// full but the newest, which holds at least one. The newest is
/// inline, so an append follows one pointer.
#[derive(Debug, Default)]
struct Chain {
    newest: Option<Box<Block>>,
    #[allow(clippy::vec_box)]
    full: Vec<Box<Block>>,
    len: usize,
}

impl Chain {
    /// Append `entry`, taking a block from `pool` only when the newest
    /// one is full.
    #[inline]
    fn push(&mut self, entry: Entry, pool: &mut Pool) {
        let at = self.len % BLOCK;
        if at == 0 {
            if let Some(full) = self.newest.replace(pool.take()) {
                self.full.push(full);
            }
        }
        self.newest.as_mut().expect("a block with room")[at] = entry;
        self.len += 1;
    }

    /// Take off the newest block, with the number of entries it holds;
    /// the caller gives it back to the pool once it has read them.
    #[inline]
    fn pop(&mut self) -> Option<(Box<Block>, usize)> {
        let block = self.newest.take()?;
        let n = (self.len - 1) % BLOCK + 1;
        self.len -= n;
        self.newest = self.full.pop();
        Some((block, n))
    }

    /// The entries, block by block, newest first.
    fn runs(&self) -> impl Iterator<Item = &[Entry]> {
        let newest = self.len.wrapping_sub(1) % BLOCK + 1;
        let full = self.full.iter().map(|block| &block[..]);
        self.newest
            .iter()
            .map(move |block| &block[..newest])
            .chain(full)
    }
}

/// The blocks of every slot's chain not in use: a block is allocated
/// only when this is empty, and never freed while the wheel lives.
#[derive(Debug, Default)]
struct Pool {
    #[allow(clippy::vec_box)]
    free: Vec<Box<Block>>,
    #[cfg(test)]
    counts: tests::Blocks,
}

impl Pool {
    fn take(&mut self) -> Box<Block> {
        #[cfg(test)]
        self.counts.take(self.free.is_empty());
        self.free
            .pop()
            .unwrap_or_else(|| Box::new([Entry::default(); BLOCK]))
    }

    fn give(&mut self, block: Box<Block>) {
        #[cfg(test)]
        self.counts.give();
        self.free.push(block);
    }
}

/// The wheel. Invariants, whenever the queue is non-empty: `current`
/// holds exactly the events of the earliest pending instant, sorted
/// descending by key (so the global minimum is `current.last()`);
/// every other event is in the slot [`Wheel::slot_for`] names for it,
/// and bit `d` of `occupied[l]` is set iff slot `d` of level `l` is
/// non-empty; `pos <= clock`. A slot's chain holds exactly
/// ⌈len / [`BLOCK`]⌉ blocks; every other block is in `pool`.
#[derive(Debug)]
struct Wheel<T> {
    /// The instant being drained (pop = `pop()` off the tail).
    current: Vec<Entry>,
    /// Level `l`, digit `d` at `slots[l * SLOTS + d]`.
    slots: Vec<Chain>,
    pool: Pool,
    occupied: [u64; LEVELS],
    /// The origin every filed entry is due at or after, in ms.
    pos: u64,
    /// The last popped instant, in ms.
    clock: u64,
    len: usize,
    payloads: Slab<T>,
    #[cfg(test)]
    paths: tests::Paths,
}

impl<T> Wheel<T> {
    fn new() -> Self {
        Wheel {
            current: Vec::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Chain::default()).collect(),
            pool: Pool::default(),
            occupied: [0; LEVELS],
            pos: 0,
            clock: 0,
            len: 0,
            payloads: Slab {
                slots: Vec::new(),
                free: Vec::new(),
            },
            #[cfg(test)]
            paths: tests::Paths::default(),
        }
    }

    fn push(&mut self, key: EventKey, item: Item<T>) {
        let entry = match item {
            Item::Payload(payload) => Entry::new(key, self.payloads.insert(payload), 0),
            Item::Timer { kind, tag } => Entry::new(key, TIMER | u32::from(kind), tag),
        };
        self.len += 1;
        match self.current.last() {
            Some(head) if entry.at == head.at => {
                // Into the instant being drained; unique keys make the
                // binary-search position deterministic. A duplicate
                // key (a caller contract violation) slots in adjacent
                // to its twin.
                let pos = match self.current.binary_search_by(|e| entry.cmp(e)) {
                    Ok(pos) | Err(pos) => pos,
                };
                self.current.insert(pos, entry);
            }
            Some(head) if entry.at > head.at => self.file(entry),
            _ => {
                // Earlier than the instant being drained, or into an
                // empty queue: the one place a push can be behind the
                // clock, and so behind the wheel's origin.
                assert!(
                    entry.at >= self.clock,
                    "cannot push behind the last popped instant"
                );
                if let Some(at) = self.current.last().map(|e| e.at) {
                    let i = self.slot_for(at);
                    for e in self.current.drain(..) {
                        self.slots[i].push(e, &mut self.pool);
                    }
                    #[cfg(test)]
                    {
                        self.paths.spills += 1;
                    }
                }
                self.current.push(entry);
            }
        }
    }

    #[inline]
    fn file(&mut self, entry: Entry) {
        let i = self.slot_for(entry.at);
        self.slots[i].push(entry, &mut self.pool);
    }

    /// The index in `slots` of the slot an entry due at `at` files
    /// into, marked occupied.
    fn slot_for(&mut self, at: u64) -> usize {
        debug_assert!(at >= self.pos, "filed behind the wheel");
        let level = level_of(self.pos, at);
        let digit = (at >> (level * SLOT_BITS)) as usize % SLOTS;
        self.occupied[level] |= 1 << digit;
        level * SLOTS + digit
    }

    fn pop(&mut self) -> Option<(EventKey, Item<T>)> {
        let entry = self.current.pop()?;
        self.len -= 1;
        self.clock = entry.at;
        if self.current.is_empty() && self.len > 0 {
            self.refill();
        }
        Some((entry.key(), entry.item(|slot| self.payloads.take(slot))))
    }

    fn peek(&self) -> Option<&Entry> {
        self.current.last()
    }

    /// The entry `ahead` places behind the head of the instant being
    /// drained (`upcoming(0)` is [`Wheel::peek`]); `None` past its end.
    #[inline]
    fn upcoming(&self, ahead: usize) -> Option<&Entry> {
        let behind = self.current.len().checked_sub(ahead)?;
        self.current[..behind].last()
    }

    /// Bring the earliest pending instant into the drained `current`
    /// (module docs). Called only when events remain.
    fn refill(&mut self) {
        loop {
            let level = self
                .occupied
                .iter()
                .position(|&word| word != 0)
                .expect("events remain");
            let digit = self.occupied[level].trailing_zeros() as usize;
            let i = level * SLOTS + digit;
            if level == 0 {
                // One instant: copy it in whole.
                self.occupied[0] &= !(1 << digit);
                while let Some((block, n)) = self.slots[i].pop() {
                    self.current.extend_from_slice(&block[..n]);
                    self.pool.give(block);
                }
                break;
            }
            let shift = level * SLOT_BITS;
            let start = ((self.pos >> shift) & !(SLOTS as u64 - 1) | digit as u64) << shift;
            if self.clock < start {
                // Not reached: take out only the earliest instant,
                // re-filing the rest into the slot block by block.
                let at = self.slots[i]
                    .runs()
                    .filter_map(|run| run.iter().map(|e| e.at).min())
                    .min()
                    .expect("occupied");
                let mut rest = std::mem::take(&mut self.slots[i]);
                while let Some((block, n)) = rest.pop() {
                    for &e in &block[..n] {
                        if e.at == at {
                            self.current.push(e);
                        } else {
                            self.slots[i].push(e, &mut self.pool);
                        }
                    }
                    self.pool.give(block);
                }
                if self.slots[i].len == 0 {
                    self.occupied[level] &= !(1 << digit);
                }
                #[cfg(test)]
                {
                    self.paths.scans += 1;
                }
                break;
            }
            // Reached: move the origin to the slot's start and re-file
            // its entries lower, each drained block back in the pool
            // before the next is read. None files back into this slot.
            self.occupied[level] &= !(1 << digit);
            self.pos = start;
            while let Some((block, n)) = self.slots[i].pop() {
                for &entry in &block[..n] {
                    self.file(entry);
                }
                self.pool.give(block);
            }
            #[cfg(test)]
            {
                self.paths.cascades[level] += 1;
            }
        }
        // Descending, so the earliest key sits at the tail.
        self.current.sort_unstable_by(|a, b| b.cmp(a));
    }
}

/// A deterministic future-event list (see the module docs for the
/// ordering contract and the timing-wheel storage).
#[derive(Debug)]
pub struct EventQueue<T> {
    wheel: Wheel<T>,
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
            wheel: Wheel::new(),
            peak: 0,
        }
    }

    /// Schedule `item` — a payload (a `T` converts) or a timer — for
    /// delivery under `key`. The caller is responsible for key
    /// uniqueness (the engine derives keys from per-stream counters,
    /// which guarantees it). A key earlier than the last popped instant
    /// is refused with a panic: nothing can be scheduled in the queue's
    /// past. So is a source stream of 2^32 or more.
    pub fn push(&mut self, key: EventKey, item: impl Into<Item<T>>) {
        self.wheel.push(key, item.into());
        self.peak = self.peak.max(self.wheel.len);
    }

    /// Remove and return the event with the smallest key, if any.
    pub fn pop(&mut self) -> Option<(EventKey, Item<T>)> {
        self.wheel.pop()
    }

    /// As [`EventQueue::pop`], but only if the earliest event is due
    /// strictly before `limit` — the engine's epoch inner loop, as one
    /// queue operation instead of a peek-then-pop pair.
    pub fn pop_if_before(&mut self, limit: SimTime) -> Option<(EventKey, Item<T>)> {
        if self.peek_time()? >= limit {
            return None;
        }
        self.pop()
    }

    /// A read-only look past the head: the key and item of the event
    /// `ahead` places behind it in pop order (`upcoming(0)` is what the
    /// next [`EventQueue::pop`] returns, its payload lent), or `None` once
    /// `ahead` runs past the end of the instant being drained — the
    /// sorted part of the queue; later instants are unsorted slots
    /// with no "next" yet. What it returns is a forecast, exact only
    /// until the next push: a same-instant push takes its sorted place
    /// among the entries already seen and moves everything behind it
    /// one place back. Pop order is unaffected either way.
    #[inline]
    pub fn upcoming(&self, ahead: usize) -> Option<(EventKey, Item<&T>)> {
        let e = self.wheel.upcoming(ahead)?;
        Some((e.key(), e.item(|slot| self.wheel.payloads.get(slot))))
    }

    /// Ask the cache for the payload [`EventQueue::upcoming`] would
    /// lend, without reading it ([`crate::prefetch`]); a timer has
    /// none.
    #[inline]
    pub(crate) fn prefetch_upcoming(&self, ahead: usize) {
        if let Some(slot) = self.wheel.upcoming(ahead).and_then(Entry::slot) {
            crate::prefetch(&self.wheel.payloads.slots[slot as usize]);
        }
    }

    /// The delivery time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek().map(|e| SimTime::from_ms(e.at))
    }

    /// The full key of the earliest pending event.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.wheel.peek().map(Entry::key)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len
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

/// The binary heap this queue replaced, kept as the oracle the
/// proptests below compare against: `O(log n)` per operation over
/// inverted keys, obviously correct, and never reachable from a
/// config, a flag or the public API.
#[cfg(test)]
mod reference {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// Heap entry: an item under an *inverted* key ordering, so
    /// `BinaryHeap`'s max-heap pops the smallest key first.
    #[derive(Debug)]
    struct Scheduled<T> {
        key: EventKey,
        item: Item<T>,
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

        pub fn push(&mut self, key: EventKey, item: impl Into<Item<T>>) {
            let item = item.into();
            self.heap.push(Scheduled { key, item });
            self.peak = self.peak.max(self.heap.len());
        }

        pub fn pop(&mut self) -> Option<(EventKey, Item<T>)> {
            self.heap.pop().map(|s| (s.key, s.item))
        }

        pub fn pop_if_before(&mut self, limit: SimTime) -> Option<(EventKey, Item<T>)> {
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

    /// How often the wheel took each path a pop order can go wrong
    /// on: what the oracle tests assert they reached.
    #[derive(Debug, Default)]
    pub(super) struct Paths {
        /// Slots cascaded, by level.
        pub cascades: [u64; LEVELS],
        /// Instants taken out of a slot the clock had not reached.
        pub scans: u64,
        /// Pushes that handed the instant being drained back.
        pub spills: u64,
    }

    /// The wheel's blocks: how many it allocated, how many sit in its
    /// pool, and the most it ever had in use at once.
    #[derive(Debug, Default)]
    pub(super) struct Blocks {
        pub owned: usize,
        pub idle: usize,
        pub peak_in_use: usize,
    }

    impl Blocks {
        pub fn take(&mut self, allocates: bool) {
            if allocates {
                self.owned += 1;
            } else {
                self.idle -= 1;
            }
            self.peak_in_use = self.peak_in_use.max(self.in_use());
        }

        pub fn give(&mut self) {
            self.idle += 1;
        }

        pub fn in_use(&self) -> usize {
            self.owned - self.idle
        }
    }

    fn key(at_ms: u64, src: u64, seq: u64) -> EventKey {
        EventKey {
            at: SimTime::from_ms(at_ms),
            src,
            seq,
        }
    }

    /// The payload of a popped event; panics on a timer or an empty pop.
    fn payload<T>(popped: Option<(EventKey, Item<T>)>) -> T {
        match popped {
            Some((_, Item::Payload(p))) => p,
            _ => panic!("expected a payload"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(key(30, 0, 0), "c");
        q.push(key(10, 0, 1), "a");
        q.push(key(20, 0, 2), "b");
        assert_eq!(payload(q.pop()), "a");
        assert_eq!(payload(q.pop()), "b");
        assert_eq!(payload(q.pop()), "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_same_stream_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(key(5, 3, i), i);
        }
        for i in 0..100 {
            assert_eq!(payload(q.pop()), i);
        }
    }

    #[test]
    fn same_instant_orders_by_stream() {
        let mut q = EventQueue::new();
        q.push(key(5, 7, 0), "node6");
        q.push(key(5, 0, 9), "external");
        q.push(key(5, 2, 0), "node1");
        assert_eq!(payload(q.pop()), "external");
        assert_eq!(payload(q.pop()), "node1");
        assert_eq!(payload(q.pop()), "node6");
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(key(10, 0, 0), 1);
        q.push(key(5, 0, 1), 0);
        assert_eq!(payload(q.pop()), 0);
        q.push(key(7, 0, 2), 2);
        assert_eq!(payload(q.pop()), 2);
        assert_eq!(payload(q.pop()), 1);
    }

    #[test]
    fn peek_len_and_peak() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.peek_key(), None);
        q.push(key(42, 0, 0), ());
        q.push(key(41, 1, 0), Item::Timer { kind: 0, tag: 0 });
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak_len(), 2, "a timer counts like a payload");
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
        assert_eq!((k.at, p), (SimTime::from_ms(10), Item::Payload("x")));
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
        // Events hours apart at ms resolution file into the upper
        // levels, beyond every lower level's 64-slot ring, and come
        // back down one instant or one cascade at a time.
        let mut q = EventQueue::new();
        let hour = 3_600_000u64;
        q.push(key(3 * hour, 0, 0), 3u64);
        q.push(key(1, 0, 1), 0);
        q.push(key(hour, 0, 2), 1);
        q.push(key(2 * hour + 5, 0, 3), 2);
        q.push(key(u64::MAX, 0, 4), 4);
        for want in 0..5u64 {
            assert_eq!(payload(q.pop()), want);
        }
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot push behind the last popped instant")]
    fn pushing_behind_the_clock_panics() {
        let mut q = EventQueue::new();
        q.push(key(10, 0, 0), ());
        q.push(key(20, 0, 1), ());
        q.pop();
        q.push(key(9, 0, 2), ());
    }

    #[test]
    fn filed_entries_are_32_bytes() {
        // What every slot push, cascade and sort moves — whatever the
        // payload type, and all a timer is.
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
        assert_eq!(q.wheel.payloads.slots.len(), 100, "slab = peak depth");
    }

    /// A timer is its entry: it takes no slab slot, and its kind and
    /// tag come back whole, at every extreme.
    #[test]
    fn timers_take_no_payload_slot() {
        let mut q = EventQueue::new();
        let kinds = [0, 1, u16::MAX];
        let tags = [0, 1 << 40, u64::MAX];
        for i in 0..300u64 {
            let (kind, tag) = (kinds[i as usize % 3], tags[i as usize / 3 % 3] ^ i);
            q.push(key(i % 7, 1 + i % 5, i), Item::Timer { kind, tag });
            if i % 30 == 0 {
                q.push(key(i % 7, 9, i), i);
            }
        }
        assert_eq!(q.wheel.payloads.slots.len(), 10, "only payloads have slots");
        let mut popped = Vec::new();
        while let Some((k, item)) = q.pop() {
            popped.push((k.seq, k.src == 9, item));
        }
        popped.sort_by_key(|&(seq, payload, _)| (seq, payload));
        let mut timers = 0;
        for (seq, payload, item) in popped {
            let i = seq as usize;
            let want = if payload {
                Item::Payload(seq)
            } else {
                timers += 1;
                Item::Timer {
                    kind: kinds[i % 3],
                    tag: tags[i / 3 % 3] ^ seq,
                }
            };
            assert_eq!(item, want, "event {seq}");
        }
        assert_eq!(timers, 300);
    }

    /// The stream id is narrowed to 32 bits by a checked conversion:
    /// the largest that fits comes back as it went in, for a payload
    /// and for a timer.
    #[test]
    fn the_largest_32_bit_stream_round_trips() {
        let mut q = EventQueue::new();
        let top = u64::from(u32::MAX);
        q.push(key(3, top, u64::MAX), "last");
        q.push(key(3, top - 1, 0), Item::Timer { kind: 7, tag: 8 });
        assert_eq!(q.peek_key(), Some(key(3, top - 1, 0)));
        assert_eq!(
            q.pop(),
            Some((key(3, top - 1, 0), Item::Timer { kind: 7, tag: 8 }))
        );
        assert_eq!(
            q.upcoming(0),
            Some((key(3, top, u64::MAX), Item::Payload(&"last")))
        );
        assert_eq!(
            q.pop(),
            Some((key(3, top, u64::MAX), Item::Payload("last")))
        );
    }

    #[test]
    #[should_panic(expected = "an event's source stream is below 2^32")]
    fn a_stream_past_32_bits_panics() {
        let mut q = EventQueue::<()>::new();
        q.push(
            key(3, u64::from(u32::MAX) + 1, 0),
            Item::Timer { kind: 0, tag: 0 },
        );
    }

    /// The wheel's block accounting, exactly: every occupied slot's
    /// chain holds ⌈len / [`BLOCK`]⌉ blocks, those are all the blocks
    /// in use, and the wheel owns no more blocks than it ever had in
    /// use at once — it allocates one only when its pool is empty.
    pub(super) fn assert_blocks<T>(q: &EventQueue<T>) {
        let wheel = &q.wheel;
        let mut filed = 0;
        for (level, &word) in wheel.occupied.iter().enumerate() {
            let mut digits = word;
            while digits != 0 {
                let chain = &wheel.slots[level * SLOTS + digits.trailing_zeros() as usize];
                digits &= digits - 1;
                assert!(chain.len > 0, "an occupied slot is empty");
                let blocks = chain.runs().count();
                assert_eq!(blocks, chain.len.div_ceil(BLOCK));
                filed += blocks;
            }
        }
        let counts = &wheel.pool.counts;
        assert_eq!(counts.in_use(), filed, "blocks in use");
        assert_eq!(counts.owned, counts.peak_in_use, "blocks owned");
    }

    /// A hold model over a backlog of sparse long timers, against the
    /// heap at every pop, starting `start` ms in and numbering its
    /// events from `seq`: 600 messages in flight, each re-sent 0–39 ms
    /// after delivery, so pushes land in the instant being popped, in
    /// the slots ahead of it and, where the next instant is more than
    /// a millisecond off, before it. Every fifth re-send is a timer
    /// instead, which arms the next message in turn. Runs until both
    /// queues are empty and returns the in-flight timers popped.
    fn hold_model(
        q: &mut EventQueue<u64>,
        heap: &mut reference::HeapQueue<u64>,
        start: u64,
        seq: &mut u64,
    ) -> u64 {
        let mut push = |q: &mut EventQueue<u64>,
                        heap: &mut reference::HeapQueue<u64>,
                        at,
                        src,
                        timer: bool| {
            let item = if timer {
                Item::Timer {
                    kind: (*seq % 3) as u16,
                    tag: *seq,
                }
            } else {
                Item::Payload(*seq)
            };
            q.push(key(at, src, *seq), item);
            heap.push(key(at, src, *seq), item);
            assert_blocks(q);
            *seq += 1;
        };
        for i in 0..2_000u64 {
            push(q, heap, start + i * 1_000, 1, true);
        }
        for i in 0..600u64 {
            push(q, heap, start + i % 40, 2, false);
        }
        let mut timers = 0;
        for step in 0..40_000u64 {
            let (k, item) = q.pop().expect("hold model keeps the queue full");
            assert_eq!(Some((k, item)), heap.pop(), "diverged at step {step}");
            assert_blocks(q);
            if k.src == 2 {
                let p = match item {
                    Item::Payload(p) => p,
                    Item::Timer { tag, .. } => {
                        timers += 1;
                        tag
                    }
                };
                let at = k.at.as_ms() + (p * 7 + step) % 40;
                push(q, heap, at, 2, step % 5 == 0);
            }
        }
        loop {
            let (a, b) = (q.pop(), heap.pop());
            assert_eq!(a, b, "diverged in the drain");
            assert_blocks(q);
            if a.is_none() {
                break;
            }
        }
        timers
    }

    #[test]
    fn hold_model_over_a_timer_backlog_matches_heap() {
        let mut q = EventQueue::new();
        let timers = hold_model(&mut q, &mut reference::HeapQueue::new(), 0, &mut 0);
        assert!(timers > 1_000, "{timers} in-flight timers");
        let paths = &q.wheel.paths;
        assert!(paths.cascades[2..].iter().sum::<u64>() > 0, "{paths:?}");
        assert!(paths.scans > 0, "{paths:?}");
        assert!(paths.spills > 0, "{paths:?}");
    }

    /// The blocks a pass drains stay in the pool and serve the next:
    /// the hold model run again on the same queue, from where the
    /// first left the clock, allocates none.
    #[test]
    fn a_second_pass_allocates_no_block() {
        let (mut q, mut heap, mut seq) = (EventQueue::new(), reference::HeapQueue::new(), 0);
        hold_model(&mut q, &mut heap, 0, &mut seq);
        let owned = q.wheel.pool.counts.owned;
        assert!(owned > 600 / BLOCK, "{owned} blocks after the first pass");
        assert_eq!(
            q.wheel.pool.counts.in_use(),
            0,
            "a drained wheel uses no block"
        );
        let clock = q.wheel.clock;
        hold_model(&mut q, &mut heap, clock, &mut seq);
        assert_eq!(
            q.wheel.pool.counts.owned, owned,
            "blocks owned after the second pass"
        );
    }

    #[test]
    fn deep_queue_drains_in_key_order() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(key((i * 37) % 4096, 1, i), i);
        }
        assert_eq!(q.len(), 10_000);
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
    use super::tests::assert_blocks;
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn key(at_ms: u64, src: u64, seq: u64) -> EventKey {
        EventKey {
            at: SimTime::from_ms(at_ms),
            src,
            seq,
        }
    }

    /// Event `id` on stream `src` as the engine queues it: a timer when
    /// `timer` is drawn and the stream is a node's (stream 0 injects
    /// only payloads), else a message carrying `(id, destination)`.
    fn item(id: usize, src: u64, timer: bool) -> Item<(usize, u64)> {
        if timer && src > 0 {
            Item::Timer {
                kind: (id % 5) as u16,
                tag: id as u64,
            }
        } else {
            Item::Payload((id, id as u64 * 7 % 11))
        }
    }

    /// `item` with its payload lent, as [`EventQueue::upcoming`] lends it.
    fn lent<T>(item: &Item<T>) -> Item<&T> {
        match item {
            Item::Payload(payload) => Item::Payload(payload),
            &Item::Timer { kind, tag } => Item::Timer { kind, tag },
        }
    }

    /// The id [`item`] gave an event, read back.
    fn id_of(item: Item<&(usize, u64)>) -> usize {
        match item {
            Item::Payload(&(id, _)) => id,
            Item::Timer { tag, .. } => tag as usize,
        }
    }

    /// The node an event is for, as the shard loop reads it: a
    /// message names it, a timer's is its emitter (stream − 1).
    fn destination(key: EventKey, item: Item<&(usize, u64)>) -> u64 {
        match item {
            Item::Payload(&(_, dst)) => dst,
            Item::Timer { .. } => key.src - 1,
        }
    }

    proptest! {
        /// The queue is a stable priority queue over full keys:
        /// popping yields non-decreasing keys, and within one source
        /// stream the per-stream sequence numbers come out in order.
        #[test]
        fn pop_order_is_sorted_by_key(entries in proptest::collection::vec((0u64..1000, 0u64..4, any::<bool>()), 0..200)) {
            let mut q = EventQueue::<(usize, u64)>::new();
            let mut seqs = [0u64; 4];
            for (i, &(t, src, timer)) in entries.iter().enumerate() {
                let seq = seqs[src as usize];
                seqs[src as usize] += 1;
                q.push(key(t, src, seq), item(i, src, timer));
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

        /// Reference parity: for an arbitrary insert sequence of
        /// messages and timers — narrow time range, so same-timestamp
        /// bursts across streams are common — the queue pops the exact
        /// `(key, item)` sequence the binary heap does.
        #[test]
        fn calendar_matches_heap_pop_order(entries in proptest::collection::vec((0u64..64, 0u64..6, any::<bool>()), 0..300)) {
            let mut q = EventQueue::<(usize, u64)>::new();
            let mut heap = HeapQueue::new();
            let mut seqs = [0u64; 6];
            for (i, &(t, src, timer)) in entries.iter().enumerate() {
                let seq = seqs[src as usize];
                seqs[src as usize] += 1;
                q.push(key(t, src, seq), item(i, src, timer));
                assert_blocks(&q);
                heap.push(key(t, src, seq), item(i, src, timer));
            }
            loop {
                let (a, b) = (q.pop(), heap.pop());
                prop_assert_eq!(a, b, "the wheel diverged from the heap");
                assert_blocks(&q);
                if a.is_none() {
                    break;
                }
            }
        }

        /// Reference parity under the engine's real call mix: each
        /// batch is a burst of message and timer pushes followed by
        /// epochs drained with `pop_if_before(limit)` — a refused pop
        /// opens the next epoch at the earliest pending event, as the
        /// barrier loop does — with `peek_key`, `peek_time`, `len` and
        /// `peak_len` compared at every step. The per-batch `stretch`
        /// scales the deltas from one level-0 ring (×1) to hours out
        /// (×125 000), so events file into every level up to the fifth
        /// and come back down through scans and cascades. Pushes are
        /// relative to the last pop, so those into the instant being
        /// drained and those between it and the head instant — the
        /// spills — are common; every one of the latter must take the
        /// spill path.
        ///
        /// The lookahead rides along as one more observation: before
        /// every pop, `upcoming(k)` for `k < 12` must be `Some` exactly
        /// for the entries left in the current instant, must carry the
        /// key its event was pushed under, must name the destination
        /// that event was pushed for, and must agree with `forecast` —
        /// the next pops as earlier looks predicted them, each push
        /// since filed where the key order puts it (ahead of entries
        /// already seen, when it lands among them). Every pop — the
        /// heap's too, by the comparison above it — must then take the
        /// forecast's front.
        #[test]
        fn calendar_matches_heap_interleaved(batches in proptest::collection::vec((proptest::collection::vec((0u64..48, 0u64..3, any::<bool>()), 0..200), 0usize..250, 0usize..4), 1..8)) {
            let mut q = EventQueue::<(usize, u64)>::new();
            let mut heap = HeapQueue::new();
            let mut seqs = [0u64; 3];
            let mut clock = 0u64; // keys must never be scheduled "past"
            let mut spills = 0u64;
            let mut keys: Vec<EventKey> = Vec::new(); // by id
            let mut dsts: Vec<u64> = Vec::new(); // by id
            let mut forecast: VecDeque<usize> = VecDeque::new();
            for (pushes, pops, stretch) in &batches {
                let scale = [1u64, 50, 2_500, 125_000][*stretch];
                for &(dt, src, timer) in pushes {
                    let seq = seqs[src as usize];
                    seqs[src as usize] += 1;
                    let (k, i) = (key(clock + dt * scale, src, seq), keys.len());
                    spills += u64::from(q.peek_time().is_some_and(|head| k.at < head));
                    let it = item(i, src, timer);
                    q.push(k, it);
                    assert_blocks(&q);
                    heap.push(k, it);
                    keys.push(k);
                    dsts.push(destination(k, lent(&it)));
                    if let Some(at) = forecast.iter().position(|seen| k < keys[*seen]) {
                        forecast.insert(at, i);
                    }
                }
                let window = 16 * scale;
                let mut limit = SimTime::from_ms(clock + window);
                for _ in 0..*pops {
                    prop_assert_eq!(q.peek_key(), heap.peek_key(), "heads diverged");
                    prop_assert_eq!(q.peek_time(), heap.peek_key().map(|k| k.at));
                    for ahead in 0..12 {
                        let seen = q.upcoming(ahead);
                        prop_assert_eq!(seen.is_some(), ahead < q.wheel.current.len());
                        let Some((k, it)) = seen else { break };
                        let id = id_of(it);
                        prop_assert_eq!(k, keys[id], "upcoming {} ahead: wrong key", ahead);
                        prop_assert_eq!(destination(k, it), dsts[id], "upcoming {} ahead: wrong node", ahead);
                        match forecast.get(ahead) {
                            Some(due) => prop_assert_eq!(id, *due, "forecast {} ahead moved", ahead),
                            None => forecast.push_back(id),
                        }
                    }
                    let (mut a, mut b) = (q.pop_if_before(limit), heap.pop_if_before(limit));
                    prop_assert_eq!(&a, &b, "diverged mid-epoch");
                    assert_blocks(&q);
                    if a.is_none() {
                        (a, b) = (q.pop(), heap.pop());
                        prop_assert_eq!(&a, &b, "diverged at the epoch boundary");
                        assert_blocks(&q);
                    }
                    prop_assert_eq!(q.len(), heap.len());
                    prop_assert_eq!(a.as_ref().map(|(_, it)| id_of(lent(it))), forecast.pop_front(), "not the event forecast");
                    let Some((k, _)) = a else { break };
                    if k.at >= limit {
                        limit = k.at + SimDuration::from_ms(window);
                    }
                    clock = k.at.as_ms();
                }
            }
            prop_assert_eq!(q.wheel.paths.spills, spills);
            loop {
                let (a, b) = (q.pop(), heap.pop());
                prop_assert_eq!(&a, &b, "diverged in the final drain");
                assert_blocks(&q);
                prop_assert_eq!(q.len(), heap.len());
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(q.peak_len(), heap.peak_len());
        }

        /// Reference parity for a hold model running hot over a
        /// backlog of sparse timers: `flight` messages, each popped and
        /// re-pushed `0..spread` ms later — delay 0 lands in the very
        /// instant being popped — with the heap compared at every pop.
        #[test]
        fn calendar_matches_heap_across_a_rate_change(
            timers in proptest::collection::vec(1u64..4_000, 40..120),
            flight in 64usize..400,
            spread in 1u64..24,
            delays in proptest::collection::vec(0u64..1_000, 64..128),
        ) {
            let mut q = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut seq = 0u64;
            let mut at = 0u64;
            for gap in &timers {
                at += gap * 50;
                let timer = Item::Timer { kind: 1, tag: seq };
                q.push(key(at, 1, seq), timer);
                assert_blocks(&q);
                heap.push(key(at, 1, seq), timer);
                seq += 1;
            }
            for i in 0..flight as u64 {
                q.push(key(i % spread, 2, seq), seq);
                assert_blocks(&q);
                heap.push(key(i % spread, 2, seq), seq);
                seq += 1;
            }
            for step in 0..6_000usize {
                prop_assert_eq!(q.peek_key(), heap.peek_key(), "heads diverged");
                let (a, b) = (q.pop(), heap.pop());
                prop_assert_eq!(&a, &b, "diverged at step {}", step);
                assert_blocks(&q);
                let Some((k, _)) = a else { break };
                if k.src == 2 {
                    let delay = delays[step % delays.len()] % spread;
                    q.push(key(k.at.as_ms() + delay, 2, seq), seq);
                    assert_blocks(&q);
                    heap.push(key(k.at.as_ms() + delay, 2, seq), seq);
                    seq += 1;
                }
                prop_assert_eq!(q.len(), heap.len());
            }
            loop {
                let (a, b) = (q.pop(), heap.pop());
                prop_assert_eq!(&a, &b, "diverged in the final drain");
                assert_blocks(&q);
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(q.peak_len(), heap.peak_len());
        }
    }
}
