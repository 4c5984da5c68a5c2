//! Injection-source parity: a stream attached with
//! [`Engine::attach_source`] must behave exactly as if every item had
//! been handed to [`Engine::schedule_at`] up front — the same
//! [`EventKey`]s popped in the same order on every shard — while
//! keeping only the near future resident. The pre-scheduled form is
//! the reference here and nowhere else: no build of the engine outside
//! these tests can schedule a source eagerly.

use rand::Rng;

use super::{Ctx, Engine, Event, Injection, Message, Node};
use crate::event::EventKey;
use crate::stats::TrafficClass;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology, TopologyConfig};

#[derive(Clone, Debug)]
enum Msg {
    /// Relay to a random node `hops` more times, then reply.
    Probe {
        hops: u8,
    },
    Reply,
}

impl Message for Msg {
    fn wire_size(&self) -> u32 {
        16
    }
    fn class(&self) -> TrafficClass {
        TrafficClass::QueryControl
    }
}

/// What a node saw, in order: `(instant, what)`.
#[derive(Default)]
struct Witness {
    seen: Vec<(u64, &'static str)>,
}

impl Node<Msg> for Witness {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        let what = match ev {
            Event::Recv {
                from,
                msg: Msg::Probe { hops },
            } => {
                if hops == 0 {
                    ctx.send(from, Msg::Reply);
                } else {
                    let n = ctx.num_nodes() as u32;
                    let next = NodeId(ctx.rng().gen_range(0..n));
                    ctx.send(next, Msg::Probe { hops: hops - 1 });
                    let delay = SimDuration::from_ms(ctx.rng().gen_range(1..900u64));
                    ctx.set_timer(delay, 1, 0);
                }
                "probe"
            }
            Event::Recv {
                msg: Msg::Reply, ..
            } => "reply",
            Event::Timer { .. } => "timer",
            Event::Undeliverable { .. } => "bounce",
            Event::NodeUp => "up",
        };
        self.seen.push((ctx.now().as_ms(), what));
    }
}

fn engine(shards: usize) -> Engine<Msg, Witness> {
    let topo = Topology::generate(&TopologyConfig::small_test(), 5);
    let nodes = (0..topo.num_nodes()).map(|_| Witness::default()).collect();
    Engine::with_shards(topo, nodes, 7, SimDuration::from_secs(10), shards)
}

fn probe(to: u32) -> Event<Msg> {
    Event::Recv {
        from: NodeId(to),
        msg: Msg::Probe { hops: 2 },
    }
}

/// A surge-shaped stream over the 30 nodes of `small_test`: a steady
/// trickle, a burst of many injections per millisecond in the middle
/// (equal instants, several to one node), and a silent tail.
fn stream() -> impl Iterator<Item = Injection<Msg>> + Clone + Send + 'static {
    (0..4_000u64).map(|i| {
        let at = match i {
            0..=999 => i * 7,
            1000..=2999 => 7_000 + (i - 1000) / 8,
            _ => 7_250 + (i - 3000) * 11,
        };
        let to = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 30;
        (SimTime::from_ms(at), NodeId(to as u32), probe(to as u32))
    })
}

type Outcome = (Vec<Vec<EventKey>>, Vec<Vec<(u64, &'static str)>>, u64);

fn outcome(e: &Engine<Msg, Witness>) -> Outcome {
    (
        e.shards.iter().map(|s| s.popped.clone()).collect(),
        e.topology()
            .node_ids()
            .map(|n| e.node(n).seen.clone())
            .collect(),
        e.events_processed(),
    )
}

/// Drive one engine over the stream — attached, or scheduled item by
/// item — in several `run_until` legs, with hand-scheduled events and
/// churn around it.
fn drive(shards: usize, streamed: bool) -> (Outcome, usize) {
    let mut e = engine(shards);
    e.schedule_at(SimTime::from_ms(3), NodeId(4), probe(9));
    e.schedule_down(SimTime::from_ms(7_100), NodeId(11));
    e.schedule_up(SimTime::from_ms(9_000), NodeId(11));
    if streamed {
        e.attach_source(stream());
    } else {
        for (at, node, ev) in stream() {
            e.schedule_at(at, node, ev);
        }
    }
    // The hand-scheduled probe and the two broadcast churn events.
    let depth_before_running = e.peak_queue_depth();
    for leg in [2_500u64, 7_049, 7_050, 20_000, 60_000] {
        e.run_until(SimTime::from_ms(leg));
        if streamed {
            let due = stream().filter(|(at, ..)| at.as_ms() <= leg).count() as u64;
            assert_eq!(e.source_injections(), due, "leg to {leg} ms");
        }
    }
    (outcome(&e), depth_before_running)
}

#[test]
fn streamed_source_pops_the_keys_of_the_prescheduled_one() {
    for shards in [1usize, 2, 3] {
        let (eager, eager_depth) = drive(shards, false);
        let (streamed, streamed_depth) = drive(shards, true);
        assert!(eager.2 > 10_000, "the stream must fan out into real work");
        assert_eq!(streamed.0, eager.0, "shards={shards}: popped keys diverged");
        assert_eq!(streamed.1, eager.1, "shards={shards}: node views diverged");
        assert_eq!(streamed.2, eager.2);
        assert!(
            eager_depth >= 4_000 / shards,
            "eager holds the whole stream"
        );
        assert_eq!(
            streamed_depth, 3,
            "streamed holds none of it before it is due"
        );
    }
    // And every layout sees what one shard sees.
    let reference = drive(1, true).0;
    // (Pop order is key order except where a same-instant self-send
    // slips in behind the head, hence the sort.)
    let mut one_shard_keys = reference.0[0].clone();
    one_shard_keys.sort_unstable();
    for shards in [2usize, 3] {
        let sharded = drive(shards, true).0;
        assert_eq!(sharded.1, reference.1, "shards={shards}");
        let mut keys: Vec<EventKey> = sharded.0.into_iter().flatten().collect();
        // Churn events are broadcast: one copy per shard.
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys, one_shard_keys, "shards={shards}");
    }
}

/// At a burst instant the source releases that whole instant into the
/// queue — every injection due at the head's instant, none due later —
/// so the lookahead sees a shard's submissions coming like any queued
/// event.
#[test]
fn the_source_releases_every_injection_of_the_head_instant_and_none_later() {
    for shards in [1usize, 2, 3] {
        let mut e = engine(shards);
        e.attach_source(stream());
        // Everything up to the burst's millisecond 7 010 (eight
        // injections) has run; nothing at 7 010 is queued yet.
        e.run_until(SimTime::from_ms(7_009));
        let mut released = 0;
        for s in &mut e.shards {
            s.pull_source(SimTime::from_ms(60_000), &e.place);
            let head = s.queue.peek_time().expect("the stream is not over");
            let due: Vec<u64> = stream()
                .enumerate()
                .filter(|(_, (at, node, _))| *at == head && e.place.shard(*node) == s.id)
                .map(|(i, _)| i as u64)
                .collect();
            // Nothing but the stream is keyed on stream 0 here, and
            // injection `i` carries sequence number `i`.
            let mut queued = Vec::new();
            while let Some((key, _)) = s.queue.pop() {
                if key.src == 0 {
                    assert_eq!(
                        key.at, head,
                        "shards={shards}: a later injection is resident"
                    );
                    queued.push(key.seq);
                }
            }
            assert_eq!(queued, due, "shards={shards}, shard {}", s.id);
            if head == SimTime::from_ms(7_010) {
                released += queued.len();
            }
        }
        assert_eq!(released, 8, "shards={shards}: the burst instant in all");
    }
}

/// The idle-shard hazard: a shard whose only pending work is still in
/// its source must not publish "idle" at the barrier. Here shard 1 has
/// nothing queued, ever; its one injection makes `c` probe-reply to
/// `a` on shard 0, which holds a far-future timer. Were shard 1 to
/// look idle, the next round would open at that timer, shard 0 would
/// fire it first — and the injection would never run at all.
#[test]
fn a_shard_with_only_source_injections_pending_is_not_idle() {
    let run = |shards: usize| {
        let mut e = engine(shards);
        let pick = |e: &Engine<Msg, Witness>, s: usize| {
            e.topology()
                .node_ids()
                .find(|n| e.place.shard(*n) == s)
                .expect("both shards populated")
        };
        // Chosen on the 2-shard layout, used on both.
        let layout = engine(2);
        let (a, c) = (pick(&layout, 0), pick(&layout, 1));
        e.schedule_at(SimTime::from_secs(50), a, Event::Timer { kind: 1, tag: 0 });
        let inject = move |at: u64| {
            (
                SimTime::from_ms(at),
                c,
                Event::Recv {
                    from: a,
                    msg: Msg::Probe { hops: 0 },
                },
            )
        };
        e.attach_source([100u64, 20_000].into_iter().map(inject));
        e.run_until(SimTime::from_secs(60));
        (e.node(a).seen.clone(), e.node(c).seen.clone())
    };
    let (a_seen, c_seen) = run(2);
    assert_eq!((a_seen.clone(), c_seen.clone()), run(1));
    assert_eq!(c_seen.len(), 2, "both injections ran");
    let order: Vec<&str> = a_seen.iter().map(|(_, what)| *what).collect();
    assert_eq!(order, ["reply", "reply", "timer"]);
}

/// Whatever is scheduled after the attachment sorts after every
/// injection of the stream due at the same instant — as it did when
/// the stream was scheduled up front.
#[test]
fn events_scheduled_after_the_attachment_follow_same_instant_injections() {
    let mut e = engine(1);
    let n = NodeId(2);
    e.attach_source((0..3u64).map(move |i| (SimTime::from_ms(40 + i), n, probe(2))));
    e.schedule_at(SimTime::from_ms(41), n, Event::Timer { kind: 9, tag: 0 });
    e.run_until(SimTime::from_ms(20));
    e.schedule_at(SimTime::from_ms(42), n, Event::Timer { kind: 9, tag: 0 });
    e.run_until(SimTime::from_ms(42));
    assert_eq!(
        e.node(n).seen,
        [
            (40, "probe"),
            (41, "probe"),
            (41, "timer"),
            (42, "probe"),
            (42, "timer")
        ]
    );
    assert_eq!(e.source_injections(), 3);
}

#[test]
#[should_panic(expected = "already attached")]
fn a_second_source_is_refused() {
    let mut e = engine(1);
    e.attach_source(std::iter::empty());
    e.attach_source(std::iter::empty());
}
