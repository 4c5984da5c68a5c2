//! Delivery parity: the batched per-(node, epoch) dispatch path must
//! be bit-identical to the one-event-at-a-time reference path (the
//! test-only `Shard::one_at_a_time` switch) — for every shard count,
//! under churn, and at scale. Batching is a wall-clock optimisation
//! only; any observable divergence is a bug in the batch-break
//! conditions (destination change, churn event, epoch bound).

use proptest::prelude::*;
use rand::Rng;

use super::{Ctx, Engine, Event, Message, Node};
use crate::churn::{ChurnConfig, ChurnScript};
use crate::stats::{SeriesPoint, ServedBy, TrafficClass};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology, TopologyConfig};

#[derive(Clone, Debug)]
enum Msg {
    Probe { hops: u8 },
    Reply,
}

impl Message for Msg {
    fn wire_size(&self) -> u32 {
        match self {
            Msg::Probe { .. } => 24,
            Msg::Reply => 16,
        }
    }
    fn class(&self) -> TrafficClass {
        match self {
            Msg::Probe { .. } => TrafficClass::QueryControl,
            Msg::Reply => TrafficClass::Transfer,
        }
    }
}

/// Relays probes to random peers, answers with replies, records query
/// metrics and a state digest — everything the batched path could
/// plausibly reorder or drop.
#[derive(Default)]
struct Chatter {
    digest: u64,
    replies: u32,
}

impl Chatter {
    fn mix(&mut self, x: u64) {
        self.digest = self
            .digest
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(x ^ 0x9E37_79B9);
    }
}

impl Node<Msg> for Chatter {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Recv {
                from,
                msg: Msg::Probe { hops },
            } => {
                self.mix(hops as u64 ^ ctx.now().as_ms());
                ctx.query_stats().on_submit();
                if hops == 0 {
                    let me = ctx.id();
                    let now = ctx.now();
                    let lat = ctx.latency_ms(me, from);
                    let served = if ctx.locality(me) == ctx.locality(from) {
                        ServedBy::LocalOverlay
                    } else {
                        ServedBy::RemoteOverlay
                    };
                    ctx.query_stats().on_resolved(now, me, lat, lat, served);
                    ctx.send(from, Msg::Reply);
                    return;
                }
                let n = ctx.num_nodes() as u32;
                let next = NodeId(ctx.rng().gen_range(0..n));
                ctx.send(next, Msg::Probe { hops: hops - 1 });
                let delay = SimDuration::from_ms(ctx.rng().gen_range(1..400u64));
                ctx.set_timer(delay, 1, hops as u64);
            }
            Event::Recv {
                msg: Msg::Reply, ..
            } => {
                self.replies += 1;
                let now = ctx.now();
                ctx.query_stats().on_join(now);
            }
            Event::Timer { tag, .. } => self.mix(tag),
            Event::Undeliverable { to, .. } => self.mix(to.0 as u64),
            Event::NodeUp => self.mix(0xDEAD),
        }
    }
}

/// Everything observable about a run, reduced to a comparable value.
type Fingerprint = (u64, u64, Vec<u64>, u64, String, Vec<SeriesPoint>);

fn fingerprint<F>(e: &Engine<Msg, Chatter>, digest: F) -> Fingerprint
where
    F: Fn(&Chatter) -> u64,
{
    let digests: Vec<u64> = e.topology().node_ids().map(|i| digest(e.node(i))).collect();
    let traffic: u64 = e
        .topology()
        .node_ids()
        .flat_map(|i| TrafficClass::ALL.iter().map(move |c| (i, *c)))
        .map(|(i, c)| e.traffic().sent_bytes(i, c) + e.traffic().recv_bytes(i, c))
        .fold(0u64, |a, b| a.wrapping_mul(1099511628211).wrapping_add(b));
    let q = e.query_stats();
    let qfp = format!(
        "{}/{} hit={:.12} lookup={:.6} cum={:?}",
        q.submitted(),
        q.resolved(),
        q.hit_ratio(),
        q.mean_lookup_ms(),
        q.cumulative_hit_series().last().copied(),
    );
    (
        e.events_processed(),
        e.traffic().messages(),
        digests,
        traffic,
        qfp,
        q.join_series().points(),
    )
}

/// How a run hands events to the nodes.
#[derive(Clone, Copy, Debug)]
enum Delivery {
    Batched,
    OneAtATime,
}

fn engine(topo: Topology, seed: u64, shards: usize, mode: Delivery) -> Engine<Msg, Chatter> {
    let nodes = (0..topo.num_nodes()).map(|_| Chatter::default()).collect();
    let mut e = Engine::with_shards(topo, nodes, seed, SimDuration::from_secs(10), shards);
    if let Delivery::OneAtATime = mode {
        e.deliver_one_at_a_time();
    }
    e
}

/// A full run with churn at the given shard count and delivery path.
fn run(shards: usize, seed: u64, mode: Delivery, injections: &[(u64, u32, u8)]) -> Fingerprint {
    let topo = Topology::generate(
        &TopologyConfig {
            nodes: 120,
            localities: 4,
            inter_locality_floor_ms: 50,
            ..Default::default()
        },
        seed,
    );
    let n = topo.num_nodes();
    let mut e = engine(topo, seed, shards, mode);
    for (at, origin, hops) in injections {
        e.schedule_at(
            SimTime::from_ms(*at),
            NodeId(origin % n as u32),
            Event::Recv {
                from: NodeId((origin.wrapping_mul(13) + 1) % n as u32),
                msg: Msg::Probe { hops: hops % 6 },
            },
        );
    }
    // Churn breaks delivery batches mid-epoch; a quarter of the
    // population flaps so batches end on Up/Down events too.
    let affected: Vec<NodeId> = (0..n as u32 / 4).map(NodeId).collect();
    let script = ChurnScript::generate(
        &ChurnConfig {
            start: SimTime::from_secs(2),
            end: SimTime::from_secs(40),
            mean_session: SimDuration::from_secs(6),
            mean_downtime: SimDuration::from_secs(2),
            permanent: false,
        },
        &affected,
        seed,
    );
    script.install(&mut e);
    e.run_until(SimTime::from_secs(45));
    fingerprint(&e, |c| c.digest.wrapping_add(c.replies as u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched delivery is bit-identical to one-at-a-time dispatch
    /// for every shard count, on arbitrary injection schedules.
    #[test]
    fn batched_dispatch_matches_single_for_every_shard_count(
        injections in proptest::collection::vec((0u64..30_000, any::<u32>(), any::<u8>()), 1..24),
        seed in any::<u64>(),
    ) {
        let reference = run(1, seed, Delivery::OneAtATime, &injections);
        for shards in [1usize, 2, 3] {
            prop_assert_eq!(
                run(shards, seed, Delivery::Batched, &injections),
                reference.clone(),
                "shards={} batched diverged from the single-dispatch reference",
                shards
            );
            if shards > 1 {
                prop_assert_eq!(
                    run(shards, seed, Delivery::OneAtATime, &injections),
                    reference.clone(),
                    "shards={} single diverged across shard counts",
                    shards
                );
            }
        }
    }
}

/// Seed-42 pin at 50 000 nodes: the batched and single paths agree at
/// scale, and the shared fingerprint matches the recorded constants —
/// any engine change that shifts event order at scale trips this.
#[test]
#[ignore = "runs multi-thousand-node simulations; use --release -- --ignored"]
fn seed_42_stat_pin_at_50k_nodes() {
    let run_50k = |mode: Delivery, shards: usize| -> Fingerprint {
        let topo = Topology::generate(
            &TopologyConfig {
                nodes: 50_000,
                localities: 8,
                inter_locality_floor_ms: 50,
                ..Default::default()
            },
            42,
        );
        let n = topo.num_nodes();
        let mut e = engine(topo, 42, shards, mode);
        for i in 0..4000u32 {
            e.schedule_at(
                SimTime::from_ms(i as u64 * 7),
                NodeId(i.wrapping_mul(97) % n as u32),
                Event::Recv {
                    from: NodeId(i.wrapping_mul(13).wrapping_add(1) % n as u32),
                    msg: Msg::Probe {
                        hops: (i % 7) as u8,
                    },
                },
            );
        }
        e.run_until(SimTime::from_secs(60));
        fingerprint(&e, |c| c.digest.wrapping_add(c.replies as u64))
    };
    let batched = run_50k(Delivery::Batched, 2);
    for (mode, shards) in [
        (Delivery::OneAtATime, 2),
        (Delivery::Batched, 1),
        (Delivery::Batched, 4),
    ] {
        assert_eq!(
            run_50k(mode, shards),
            batched,
            "{mode:?}/{shards} shards diverged at 50k nodes"
        );
    }
    // The pinned seed-42 statistics. If an intentional engine change
    // moves these, re-pin and say so in the commit message.
    assert_eq!(
        (batched.0, batched.1, batched.4.as_str()),
        (
            31988,
            15994,
            "15994/4000 hit=1.000000000000 lookup=169.922500 cum=Some((t+29304ms, 1.0))"
        ),
        "pinned seed-42 stats moved"
    );
}
