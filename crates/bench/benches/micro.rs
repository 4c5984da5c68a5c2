//! Micro-benchmarks of the hot paths: Bloom summaries, gossip view
//! operations, Chord lookup machinery, D-ring key handling, Zipf
//! sampling, and the event queue.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bloom::{BloomFilter, ContentSummary, MaintainedSummary, ObjectId};
use chord::{stable_ring, ChordConfig, ChordId, PeerRef};
use flower_core::id::KeyScheme;
use flower_core::idmap::SmallMap;
use flower_core::policy::DringPolicy;
use flower_core::{FlowerSystem, Query, SystemConfig};
use gossip::{View, ViewEntry};
use simnet::{NodeId, SimTime};
use workload::Zipf;

fn bench_bloom(c: &mut Criterion) {
    let mut g = c.benchmark_group("bloom");
    g.bench_function("insert_500", |b| {
        b.iter(|| {
            let mut f = BloomFilter::with_rate(500, 8);
            for k in 0..500u64 {
                f.insert(black_box(k));
            }
            f
        })
    });
    let mut filter = BloomFilter::with_rate(500, 8);
    for k in 0..500u64 {
        filter.insert(k);
    }
    g.bench_function("contains", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(0x9E37_79B9);
            black_box(filter.contains(black_box(k)))
        })
    });
    g.bench_function("summary_rebuild_500", |b| {
        let objs: Vec<ObjectId> = (0..500).map(ObjectId).collect();
        b.iter(|| ContentSummary::from_objects(500, black_box(&objs)))
    });
    // The maintain-vs-rebuild comparison behind the PR 5 hot-path
    // change: what a gossip exchange costs per summary under each
    // discipline. `snapshot` replaces `summary_rebuild_500` on the
    // gossip/push path; `maintain_churn` is the steady-state
    // insert+remove bookkeeping that pays for it.
    g.bench_function("summary_snapshot_500_cached", |b| {
        // Steady state: content unchanged since the last exchange —
        // the snapshot is an Arc bump.
        let mut m = MaintainedSummary::empty(500);
        for k in 0..500u64 {
            m.insert(ObjectId(k));
        }
        let _ = m.snapshot();
        b.iter(|| black_box(m.snapshot()))
    });
    g.bench_function("summary_snapshot_500_dirty", |b| {
        // Post-mutation: one churn cycle plus the O(words) rebuild of
        // the cached projection.
        let mut m = MaintainedSummary::empty(500);
        for k in 0..500u64 {
            m.insert(ObjectId(k));
        }
        let mut k = 0u64;
        b.iter(|| {
            m.remove(ObjectId(k % 500));
            m.insert(ObjectId(k % 500));
            k += 1;
            black_box(m.snapshot())
        })
    });
    g.bench_function("summary_maintain_churn", |b| {
        let mut m = MaintainedSummary::empty(500);
        for k in 0..500u64 {
            m.insert(ObjectId(k));
        }
        let mut k = 0u64;
        b.iter(|| {
            m.remove(ObjectId(k % 500));
            m.insert(ObjectId(k % 500));
            k += 1;
        })
    });
    g.finish();
}

fn bench_gossip_view(c: &mut Criterion) {
    let mut g = c.benchmark_group("gossip_view");
    let mut rng = StdRng::seed_from_u64(1);
    let make_view = || {
        let mut v: View<u32, u8> = View::new(50);
        for p in 0..50u32 {
            v.insert_fresh(p, 0);
        }
        v
    };
    let view = make_view();
    g.bench_function("select_subset_10_of_50", |b| {
        b.iter(|| view.select_subset(&mut rng, 10))
    });
    g.bench_function("merge_10_into_50", |b| {
        b.iter_batched(
            make_view,
            |mut v| {
                let subset: Vec<ViewEntry<u32, u8>> = (100..110u32)
                    .map(|p| ViewEntry {
                        peer: p,
                        age: 1,
                        data: 0,
                    })
                    .collect();
                v.merge(999, ViewEntry::fresh(50, 0), subset);
                v
            },
            criterion::BatchSize::SmallInput,
        )
    });
    // The gossip-exchange view merge as the engine actually runs it:
    // `Vgossip = 50` views whose entries carry `Option<ContentSummary>`
    // payloads (Table 1 sizing), folding an `Lgossip = 10` subset plus
    // the partner entry — the other profiled hot path next to the
    // summary rebuilds.
    g.bench_function("merge_summaries_10_into_50", |b| {
        let summary = |seed: u64| {
            let mut s = ContentSummary::empty(200);
            for k in 0..20u64 {
                s.insert(ObjectId(seed * 31 + k));
            }
            Some(s)
        };
        let make_view = || {
            let mut v: View<u32, Option<ContentSummary>> = View::new(50);
            for p in 0..50u32 {
                v.insert_fresh(p, summary(p as u64));
            }
            v
        };
        let subset: Vec<ViewEntry<u32, Option<ContentSummary>>> = (40..50u32)
            .map(|p| ViewEntry {
                peer: p,
                age: 0,
                data: summary(p as u64 + 100),
            })
            .collect();
        let partner = ViewEntry::fresh(77, summary(999));
        b.iter_batched(
            make_view,
            |mut v| {
                v.merge(999, partner.clone(), subset.clone());
                v
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_chord(c: &mut Criterion) {
    let mut g = c.benchmark_group("chord");
    let members: Vec<PeerRef> = (0..600u64)
        .map(|i| PeerRef {
            id: ChordId(chord::hash64(i)),
            node: NodeId(i as u32),
        })
        .collect();
    let states = stable_ring(&members, &ChordConfig::default());
    g.bench_function("stable_ring_600", |b| {
        b.iter(|| stable_ring(black_box(&members), &ChordConfig::default()))
    });
    g.bench_function("local_lookup", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
            black_box(states[0].local_lookup(ChordId(k)))
        })
    });
    // The mutation side of the maintained routing view, per
    // maintenance message (multiplier: `engine.recv_dht_maintenance`).
    // A converged ring's finger fixes and stabilize replies rewrite
    // what is already there ("unchanged": compare, no rebuild);
    // "changed" pays for the new view.
    let succ = states[0].successor().expect("600-member ring");
    let succ_at = members
        .iter()
        .position(|m| m.node == succ.node)
        .expect("successor is a member");
    let same_list = states[succ_at].successors().to_vec();
    let other_list = same_list[1..].to_vec();
    let top_finger = states[0].fingers().last().expect("converged fingers");
    g.bench_function("set_finger_unchanged", |b| {
        let mut st = states[0].clone();
        b.iter(|| st.set_finger(black_box(ChordId::BITS - 1), black_box(top_finger)))
    });
    g.bench_function("refresh_successor_list_unchanged", |b| {
        let mut st = states[0].clone();
        b.iter(|| st.refresh_successor_list(black_box(succ), black_box(&same_list)))
    });
    g.bench_function("refresh_successor_list_changed", |b| {
        let mut st = states[0].clone();
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let list = if flip { &other_list } else { &same_list };
            st.refresh_successor_list(black_box(succ), black_box(list))
        })
    });
    g.finish();
}

fn bench_dring(c: &mut Criterion) {
    let mut g = c.benchmark_group("dring");
    let scheme = KeyScheme::new(8, 0);
    g.bench_function("key_encode", |b| {
        b.iter(|| {
            scheme.key(
                black_box(workload::WebsiteId(42)),
                black_box(simnet::Locality(3)),
            )
        })
    });
    // Conditional local lookup over a realistic D-ring neighbourhood.
    let members: Vec<PeerRef> = (0..100u16)
        .flat_map(|ws| {
            (0..6u16).map(move |l| PeerRef {
                id: scheme.key(workload::WebsiteId(ws), simnet::Locality(l)),
                node: NodeId((ws * 6 + l) as u32),
            })
        })
        .collect();
    let states = stable_ring(&members, &ChordConfig::default());
    let policy = DringPolicy::new(scheme);
    let key = scheme.key(workload::WebsiteId(50), simnet::Locality(5));
    g.bench_function("conditional_local_lookup", |b| {
        b.iter(|| policy.conditional_local_lookup(black_box(&states[0]), black_box(key)))
    });
    g.finish();
}

/// Per-node protocol state (`flower_core::idmap`): the lookups every
/// event pays before any protocol work starts.
fn bench_core(c: &mut Criterion) {
    let mut g = c.benchmark_group("core");
    // A real content peer out of a one-minute miniature run: nearly
    // every gossip, keepalive, push and query event starts with this
    // lookup (multiply by `engine.events`).
    let mut cfg = SystemConfig::small_test();
    cfg.workload.duration_ms = 60_000;
    let (sys, _) = FlowerSystem::run(&cfg);
    let ws = workload::WebsiteId(0);
    let peer = sys
        .participants()
        .into_iter()
        .find(|n| sys.engine().node(*n).is_content_peer(ws))
        .expect("a minute of queries admits content peers");
    let node = sys.engine().node(peer);
    g.bench_function("role_lookup", |b| {
        b.iter(|| black_box(node.content_role(black_box(ws)).is_some()))
    });
    // One in-flight query registered at submission and retired by its
    // `ServeObject` (multiply by resolved queries). The value has the
    // shape of the node's private pending-query record.
    let query = Query {
        id: 0,
        origin: peer,
        origin_locality: simnet::Locality(0),
        website: ws,
        object: ObjectId(7),
        submitted_at: SimTime::ZERO,
        dir_hops: 0,
        holder_retries: 0,
    };
    let mut pending: SmallMap<u64, (Vec<NodeId>, Option<Query>, u8)> = SmallMap::default();
    let mut qid = 0u64;
    g.bench_function("pending_insert_remove", |b| {
        b.iter(|| {
            qid += 1;
            pending.insert(qid, (Vec::new(), Some(query), 0));
            black_box(pending.remove(black_box(&qid)))
        })
    });
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    let z = Zipf::new(500, 0.8);
    let mut rng = StdRng::seed_from_u64(2);
    g.bench_function("zipf_sample_500", |b| b.iter(|| z.sample(&mut rng)));
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("simnet");
    // Bulk fill-then-drain.
    g.bench_function("event_queue_calendar_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = simnet::event::EventQueue::new();
            for i in 0..1000u64 {
                let key = simnet::EventKey {
                    at: SimTime::from_ms((i * 7919) % 1000),
                    src: i % 7,
                    seq: i,
                };
                q.push(key, i);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            n
        })
    });
    // Steady-state hold pattern (the engine's actual profile): a deep
    // standing population with pop-one/push-one cycles — the regime
    // where the calendar's O(1) beat the retired heap's O(log n)
    // (66 vs 136 ns; see README).
    g.bench_function("event_queue_calendar_hold_16k", |b| {
        let mut q = simnet::event::EventQueue::new();
        let mut seq = 0u64;
        for _ in 0..16_384u64 {
            let key = simnet::EventKey {
                at: SimTime::from_ms((seq * 211) % 10_000),
                src: seq % 31,
                seq,
            };
            q.push(key, seq);
            seq += 1;
        }
        b.iter(|| {
            let (k, _) = q.pop().expect("standing population");
            q.push(
                simnet::EventKey {
                    at: k.at + simnet::SimDuration::from_ms((seq * 97) % 500),
                    src: seq % 31,
                    seq,
                },
                seq,
            );
            seq += 1;
            k
        })
    });
    g.finish();
}

fn bench_shard_exchange(c: &mut Criterion) {
    use simnet::MailboxGrid;
    use std::sync::Mutex;
    let mut g = c.benchmark_group("sync");
    // One epoch-boundary cross-shard exchange at the engine's real
    // shape: K shards, a staged batch of a few events per (sender,
    // receiver) pair, every round. The retired design appended each
    // batch into the receiver's `Mutex<Vec>` inbox and drained it
    // under the lock; the mailbox grid swaps whole buffers through
    // per-pair double-buffered slots. Measured single-threaded, so
    // the delta below is pure per-item handoff cost (lock + copy vs
    // swap) — under real contention the lock path only gets worse.
    const K: usize = 4;
    const BATCH: u64 = 8;
    g.bench_function("exchange_mutex_inbox", |b| {
        let inboxes: Vec<Mutex<Vec<(u64, u64)>>> = (0..K).map(|_| Mutex::new(Vec::new())).collect();
        let mut outbox: Vec<(u64, u64)> = Vec::new();
        b.iter(|| {
            for sender in 0..K {
                for (recv, inbox) in inboxes.iter().enumerate() {
                    if recv == sender {
                        continue;
                    }
                    for i in 0..BATCH {
                        outbox.push((sender as u64, i));
                    }
                    inbox.lock().unwrap().extend(outbox.drain(..));
                }
            }
            let mut n = 0;
            for inbox in &inboxes {
                n += inbox.lock().unwrap().drain(..).count();
            }
            n
        })
    });
    g.bench_function("exchange_mailbox_grid", |b| {
        let grid: MailboxGrid<(u64, u64)> = MailboxGrid::new(K);
        let mut outboxes: Vec<Vec<Vec<(u64, u64)>>> = vec![vec![Vec::new(); K]; K];
        let mut round = 0usize;
        b.iter(|| {
            let parity = round & 1;
            round += 1;
            for (sender, outbox) in outboxes.iter_mut().enumerate() {
                for (recv, batch) in outbox.iter_mut().enumerate() {
                    if recv == sender {
                        continue;
                    }
                    for i in 0..BATCH {
                        batch.push((sender as u64, i));
                    }
                }
                // SAFETY: single-threaded bench — trivially the unique
                // sender, and parity alternates per round as the
                // engine does it.
                unsafe { grid.publish(parity, sender, outbox) };
            }
            let mut n = 0;
            for recv in 0..K {
                // SAFETY: unique receiver, after all publishes.
                unsafe { grid.drain(parity, recv, |_| n += 1) };
            }
            n
        })
    });
    g.finish();
}

fn bench_dispatch_batched(c: &mut Criterion) {
    use simnet::{Ctx, Engine, Event, Node, Topology, TopologyConfig};

    // A hot-spot protocol: every peer pings node 0, node 0 answers —
    // so consecutive queue heads share a destination and the batched
    // delivery path amortises the node lookup and liveness check per
    // batch instead of per event.
    #[derive(Clone, Debug)]
    struct Ping(u8);
    impl simnet::Message for Ping {
        fn wire_size(&self) -> u32 {
            16
        }
        fn class(&self) -> simnet::TrafficClass {
            simnet::TrafficClass::QueryControl
        }
    }
    #[derive(Default)]
    struct Hot {
        seen: u64,
    }
    impl Node<Ping> for Hot {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Ping>, ev: Event<Ping>) {
            if let Event::Recv {
                from,
                msg: Ping(ttl),
            } = ev
            {
                self.seen += 1;
                if ttl > 0 {
                    let dst = if ctx.id() == NodeId(0) {
                        from
                    } else {
                        NodeId(0)
                    };
                    ctx.send(dst, Ping(ttl - 1));
                }
            }
        }
    }
    let build = || {
        let topo = Topology::generate(
            &TopologyConfig {
                nodes: 256,
                localities: 2,
                ..Default::default()
            },
            7,
        );
        let n = topo.num_nodes();
        let nodes = (0..n).map(|_| Hot::default()).collect();
        let mut e: Engine<Ping, Hot> = Engine::new(topo, nodes, 7);
        for i in 1..n as u32 {
            e.schedule_at(
                SimTime::from_ms(1 + (i as u64 % 40)),
                NodeId(i),
                Event::Recv {
                    from: NodeId(i),
                    msg: Ping(40),
                },
            );
        }
        e
    };
    let mut g = c.benchmark_group("dispatch");
    g.bench_function("batched", |b| {
        b.iter_batched(
            build,
            |mut e| {
                e.run_until(SimTime::from_secs(60));
                e.events_processed()
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_stats_streaming_vs_log_replay(c: &mut Criterion) {
    use simnet::stats::ServedBy;
    use simnet::{QueryStats, SimDuration};

    // The streaming cumulative-hit accumulator versus the design it
    // replaced: an unbounded per-resolution log replayed into the
    // curve at report time. Both record N resolutions and then
    // produce the cumulative hit series; the streaming side is O(N)
    // time and O(buckets) memory, the log is O(N) memory and pays a
    // sort at replay.
    const N: u64 = 20_000;
    let window = SimDuration::from_mins(30);
    let resolution = |i: u64| {
        let at = SimTime::from_ms((i.wrapping_mul(7919)) % window.as_ms());
        let served = if i.is_multiple_of(3) {
            ServedBy::OriginServer
        } else {
            ServedBy::LocalOverlay
        };
        (at, served)
    };
    let mut g = c.benchmark_group("stats_streaming_vs_log_replay");
    g.bench_function("streaming", |b| {
        b.iter(|| {
            let mut q = QueryStats::new(window);
            for i in 0..N {
                let (at, served) = resolution(i);
                q.on_submit();
                q.on_resolved(at, NodeId(0), 10, 20, served);
            }
            black_box(q.cumulative_hit_series())
        })
    });
    g.bench_function("log_replay", |b| {
        b.iter(|| {
            let mut log: Vec<(SimTime, bool)> = Vec::new();
            for i in 0..N {
                let (at, served) = resolution(i);
                log.push((at, served != ServedBy::OriginServer));
            }
            log.sort_by_key(|(at, _)| *at);
            let mut hits = 0u64;
            let mut total = 0u64;
            let out: Vec<(SimTime, f64)> = log
                .iter()
                .map(|(at, hit)| {
                    hits += u64::from(*hit);
                    total += 1;
                    (*at, hits as f64 / total as f64)
                })
                .collect();
            black_box(out)
        })
    });
    g.finish();
}

criterion_group!(
    micro,
    bench_bloom,
    bench_gossip_view,
    bench_chord,
    bench_dring,
    bench_core,
    bench_workload,
    bench_event_queue,
    bench_shard_exchange,
    bench_dispatch_batched,
    bench_stats_streaming_vs_log_replay
);
criterion_main!(micro);
