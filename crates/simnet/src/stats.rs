//! Measurement: traffic accounting, histograms, time series, and the
//! paper's four query metrics.
//!
//! §6 of the paper evaluates four metrics:
//!
//! * **Background traffic** — average bps per content/directory peer
//!   due to gossip and push exchanges;
//! * **Hit ratio** — fraction of queries satisfied from the P2P
//!   system;
//! * **Lookup latency** — average latency to resolve a query (reach
//!   the entity that will provide the object);
//! * **Transfer distance** — network distance (latency) between the
//!   querying peer and the provider.
//!
//! [`Traffic`] implements the first (background bytes per node, byte
//! totals per class, a windowed series), [`QueryStats`] the other three
//! (averages, fixed-width distributions as in Figures 7(b)/8(b), and
//! windowed series as in Figures 5–8(a), the overlay joins behind
//! Figure 5's per-peer normalisation among them). Message *counts* per
//! class are not kept here: they are the `engine_sent_*` /
//! `engine_recv_*` cells of the metric registry.
//!
//! ## Sharded accumulation
//!
//! The sharded engine keeps one instance of each accumulator per
//! shard and combines them at read time. All counters are integers
//! (or integer-valued `f64` sums, for which IEEE addition is exact),
//! so the merged totals are bit-equal no matter how the simulation
//! was partitioned — the merged [`QueryStats`] and [`Traffic`] compare
//! whole (`==`), and a shard layout must not change either. Per-shard
//! traffic lives in a [`ShardTraffic`] — one background-bytes word per
//! node the shard owns (dense local indices) and two per-class total
//! rows — which the engine folds into one global [`Traffic`] view on
//! demand. Every accumulator is O(nodes + windows), never O(events).

use crate::time::{SimDuration, SimTime};
use crate::topology::{Locality, NodeId};

/// Classification of simulated messages, used to separate the paper's
/// "background traffic" (gossip + push) from query processing and DHT
/// maintenance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TrafficClass {
    /// Periodic gossip exchanges within content overlays (Alg. 4).
    Gossip,
    /// One-way content pushes to the directory peer (Alg. 5).
    Push,
    /// Keepalive probes (Sec. 5.1).
    KeepAlive,
    /// DHT key-based routing hops (Alg. 1/2).
    DhtRouting,
    /// DHT maintenance: join, stabilize, fix-fingers.
    DhtMaintenance,
    /// Query control traffic: submissions, redirections, serve notices.
    QueryControl,
    /// Object payload transfers.
    Transfer,
}

impl TrafficClass {
    /// All classes, for iteration/reporting.
    pub const ALL: [TrafficClass; 7] = [
        TrafficClass::Gossip,
        TrafficClass::Push,
        TrafficClass::KeepAlive,
        TrafficClass::DhtRouting,
        TrafficClass::DhtMaintenance,
        TrafficClass::QueryControl,
        TrafficClass::Transfer,
    ];

    /// Dense index for array-backed accounting.
    pub fn index(self) -> usize {
        match self {
            TrafficClass::Gossip => 0,
            TrafficClass::Push => 1,
            TrafficClass::KeepAlive => 2,
            TrafficClass::DhtRouting => 3,
            TrafficClass::DhtMaintenance => 4,
            TrafficClass::QueryControl => 5,
            TrafficClass::Transfer => 6,
        }
    }

    /// True for the classes the paper counts as background traffic
    /// (gossip and push exchanges).
    pub fn is_background(self) -> bool {
        matches!(self, TrafficClass::Gossip | TrafficClass::Push)
    }
}

const N_CLASSES: usize = TrafficClass::ALL.len();

/// The merged read view of the traffic ledger: background bytes per
/// node, byte totals per class and the windowed background-bytes
/// series (for Figure 5), folded out of every shard's
/// [`ShardTraffic`].
#[derive(Clone, Debug, PartialEq)]
pub struct Traffic {
    /// `background[node]` = gossip + push bytes sent and received.
    background: Vec<u64>,
    /// Bytes sent, per class, over all nodes.
    sent: [u64; N_CLASSES],
    /// Bytes received, per class, over all nodes.
    recv: [u64; N_CLASSES],
    /// Background (gossip+push) bytes, windowed over time.
    background_series: TimeSeries,
    messages: u64,
}

impl Traffic {
    /// An empty view over `nodes` nodes with the given series window.
    pub fn new(nodes: usize, window: SimDuration) -> Self {
        Traffic {
            background: vec![0; nodes],
            sent: [0; N_CLASSES],
            recv: [0; N_CLASSES],
            background_series: TimeSeries::new(window),
            messages: 0,
        }
    }

    /// Total messages recorded.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Background bytes (gossip + push, sent + received) experienced
    /// by `node`.
    pub fn background_bytes(&self, node: NodeId) -> u64 {
        self.background[node.idx()]
    }

    /// Total bytes sent across all nodes in `class` (the side to sum
    /// system-wide: every message is sent once).
    pub fn total_sent(&self, class: TrafficClass) -> u64 {
        self.sent[class.index()]
    }

    /// Total bytes received across all nodes in `class`: at most
    /// [`Traffic::total_sent`], short of it by what was dropped,
    /// bounced or still in flight.
    pub fn total_recv(&self, class: TrafficClass) -> u64 {
        self.recv[class.index()]
    }

    /// The paper's background-traffic metric: average bits/second
    /// experienced per participant, over `participants` peers and
    /// `elapsed` simulated time.
    pub fn background_bps(&self, participants: &[NodeId], elapsed: SimDuration) -> f64 {
        if participants.is_empty() || elapsed.is_zero() {
            return 0.0;
        }
        let bytes: u64 = participants.iter().map(|n| self.background_bytes(*n)).sum();
        (bytes as f64 * 8.0) / participants.len() as f64 / elapsed.as_secs_f64()
    }

    /// Windowed background-bytes series (sum of bytes experienced per
    /// window across all peers). Use together with a participant-count
    /// series to produce Figure 5.
    pub fn background_series(&self) -> &TimeSeries {
        &self.background_series
    }

    /// Fold a shard's ledger into this global view. The shard's
    /// background column is indexed by its local node index; its
    /// member table maps each word back to the global id, and shards
    /// own disjoint nodes, so the fold is a scatter.
    pub fn absorb_shard(&mut self, shard: &ShardTraffic) {
        for (node, bytes) in shard.members.iter().zip(&shard.background) {
            self.background[node.idx()] += bytes;
        }
        for c in 0..N_CLASSES {
            self.sent[c] += shard.sent[c];
            self.recv[c] += shard.recv[c];
        }
        self.background_series.merge_from(&shard.background_series);
        self.messages += shard.messages;
    }
}

/// One shard's traffic ledger — the one place a wire message's bytes
/// are written: a background-bytes word for each of the shard's *own*
/// nodes, indexed by the dense local index the engine's placement
/// assigns, and the shard's byte totals per class. Send bytes are
/// recorded where the sender executes and receive bytes where the
/// wire message is delivered — both are, by construction, nodes of
/// the recording shard — so the column never indexes foreign nodes
/// and the fold into the global [`Traffic`] view
/// ([`Traffic::absorb_shard`]) is a disjoint scatter.
#[derive(Clone, Debug)]
pub struct ShardTraffic {
    /// Global node id of each local word: `members[local] = node`.
    members: Vec<NodeId>,
    /// `background[local]` = gossip + push bytes sent and received by
    /// the shard's node `local` — what the paper's metric reads.
    background: Vec<u64>,
    /// Bytes sent by the shard's nodes, per class.
    sent: [u64; N_CLASSES],
    /// Bytes received by the shard's nodes, per class.
    recv: [u64; N_CLASSES],
    /// Background (gossip+push) bytes, windowed; recorded at send
    /// time for both endpoints.
    background_series: TimeSeries,
    messages: u64,
}

impl ShardTraffic {
    /// Accounting for a shard owning `members` (local index order).
    pub fn new(members: Vec<NodeId>, window: SimDuration) -> Self {
        ShardTraffic {
            background: vec![0; members.len()],
            members,
            sent: [0; N_CLASSES],
            recv: [0; N_CLASSES],
            background_series: TimeSeries::new(window),
            messages: 0,
        }
    }

    /// The series window.
    pub fn window(&self) -> SimDuration {
        self.background_series.window()
    }

    /// Record one message of `bytes` bytes sent by local node `local`.
    /// Counts the message and, for background classes, both endpoints'
    /// bytes into the windowed series (the receiver's own word is
    /// updated at delivery time on the destination's shard via
    /// [`ShardTraffic::record_recv`]).
    #[inline]
    pub fn record_sent(&mut self, at: SimTime, local: usize, class: TrafficClass, bytes: u32) {
        self.sent[class.index()] += bytes as u64;
        self.messages += 1;
        if class.is_background() {
            self.background[local] += bytes as u64;
            // Both endpoints experience the bytes (the paper's metric
            // is "traffic experienced by a peer").
            self.background_series.record(at, 2.0 * bytes as f64);
        }
    }

    /// Record the receipt of a wire message by local node `local`.
    #[inline]
    pub fn record_recv(&mut self, local: usize, class: TrafficClass, bytes: u32) {
        self.recv[class.index()] += bytes as u64;
        if class.is_background() {
            self.background[local] += bytes as u64;
        }
    }

    /// Total messages recorded by this shard.
    pub fn messages(&self) -> u64 {
        self.messages
    }
}

/// A fixed-width-bucket histogram over `u64` values (milliseconds in
/// practice). The last bucket is an unbounded overflow bucket, which
/// directly expresses the paper's ">1050 ms" tail of Figure 7(b).
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bucket_width: u64,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Histogram {
    /// `buckets` finite buckets of `bucket_width` each plus an
    /// overflow bucket.
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        Histogram {
            bucket_width,
            counts: vec![0; buckets + 1],
            total: 0,
            sum: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = ((value / self.bucket_width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    /// Mean of all observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Fraction of observations `<= threshold`. `threshold` should be
    /// a bucket boundary; values inside a bucket count as below it
    /// only if their whole bucket is below.
    pub fn fraction_le(&self, threshold: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let full = (threshold / self.bucket_width) as usize;
        let c: u64 = self.counts.iter().take(full.min(self.counts.len())).sum();
        c as f64 / self.total as f64
    }

    /// Fraction of observations strictly greater than `threshold`.
    pub fn fraction_gt(&self, threshold: u64) -> f64 {
        1.0 - self.fraction_le(threshold)
    }

    /// `(bucket_start_inclusive, fraction)` rows, overflow last (its
    /// start is `buckets * width`).
    pub fn distribution(&self) -> Vec<(u64, f64)> {
        let t = self.total.max(1) as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, c)| (i as u64 * self.bucket_width, *c as f64 / t))
            .collect()
    }

    /// The configured bucket width.
    pub fn bucket_width(&self) -> u64 {
        self.bucket_width
    }

    /// Fold another histogram (same shape) into this one.
    pub fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "bucket widths differ"
        );
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "bucket counts differ"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

/// One reported point of a [`TimeSeries`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Start of the window.
    pub at: SimTime,
    /// Sum of recorded values in the window.
    pub sum: f64,
    /// Number of records in the window.
    pub count: u64,
}

impl SeriesPoint {
    /// Mean of the window's values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A windowed accumulator: values recorded at simulated times are
/// bucketed into fixed windows. Reproduces the paper's
/// "metric variation with time" plots (Figures 5, 7(a), 8(a)).
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    window: SimDuration,
    buckets: Vec<(f64, u64)>,
}

impl TimeSeries {
    /// A series with the given window width.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "series window must be positive");
        TimeSeries {
            window,
            buckets: Vec::new(),
        }
    }

    /// Record `value` at time `at`.
    pub fn record(&mut self, at: SimTime, value: f64) {
        let idx = (at.as_ms() / self.window.as_ms()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, (0.0, 0));
        }
        let b = &mut self.buckets[idx];
        b.0 += value;
        b.1 += 1;
    }

    /// The window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// All windows in time order (including empty ones).
    pub fn points(&self) -> Vec<SeriesPoint> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, (sum, count))| SeriesPoint {
                at: SimTime::from_ms(i as u64 * self.window.as_ms()),
                sum: *sum,
                count: *count,
            })
            .collect()
    }

    /// Fold another series (same window) into this one, bucket by
    /// bucket.
    pub fn merge_from(&mut self, other: &TimeSeries) {
        assert_eq!(self.window, other.window, "series windows differ");
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), (0.0, 0));
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }
}

/// Who ultimately served a query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServedBy {
    /// The requester's own cache — a P2P hit with no network transfer
    /// at all, therefore excluded from the transfer-distance metric
    /// ("the network distance from the querying peer to the peer that
    /// will provide the object" — there is no providing peer).
    OwnCache,
    /// A content peer of the requester's own locality's overlay.
    LocalOverlay,
    /// A content peer of another locality's overlay (directory
    /// summaries redirection).
    RemoteOverlay,
    /// The origin web server (a P2P miss).
    OriginServer,
}

impl ServedBy {
    /// Who served a query a provider answered — the one rule both
    /// compared systems sort their answers by for Figures 6–8: the
    /// origin server (`from_origin`), or a content peer of locality
    /// `provider`, which is in the requester's own overlay when that
    /// is the `requester` locality and in a remote one otherwise.
    pub fn of(from_origin: bool, provider: Locality, requester: Locality) -> ServedBy {
        if from_origin {
            ServedBy::OriginServer
        } else if provider == requester {
            ServedBy::LocalOverlay
        } else {
            ServedBy::RemoteOverlay
        }
    }
}

/// The paper's per-query metrics, aggregated.
///
/// Hit ratio, lookup latency and transfer distance are recorded at
/// query resolution time by the querying peer. Distributions use
/// 150 ms buckets for lookup latency and 100 ms buckets for transfer
/// distance, mirroring Figures 7(b) and 8(b).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryStats {
    submitted: u64,
    hits: u64,
    misses: u64,
    local_hits: u64,
    lookup_hist: Histogram,
    transfer_hist: Histogram,
    /// Transfer distances of P2P hits only (the paper: "used with
    /// queries satisfied from the P2P system").
    transfer_hits_hist: Histogram,
    hit_series: TimeSeries,
    lookup_series: TimeSeries,
    transfer_series: TimeSeries,
    /// One sample per overlay join; the running sum of the window
    /// counts is Figure 5's participant curve.
    join_series: TimeSeries,
    redirection_failures: u64,
}

impl QueryStats {
    /// Fresh statistics; `window` is the series window (the paper
    /// plots 24 h runs, so 30-minute windows work well).
    pub fn new(window: SimDuration) -> Self {
        QueryStats {
            submitted: 0,
            hits: 0,
            misses: 0,
            local_hits: 0,
            // 150 ms buckets up to 1050 ms + overflow (Fig. 7(b)).
            lookup_hist: Histogram::new(150, 7),
            // 100 ms buckets up to 500 ms + overflow (Fig. 8(b)).
            transfer_hist: Histogram::new(100, 5),
            transfer_hits_hist: Histogram::new(100, 5),
            hit_series: TimeSeries::new(window),
            lookup_series: TimeSeries::new(window),
            transfer_series: TimeSeries::new(window),
            join_series: TimeSeries::new(window),
            redirection_failures: 0,
        }
    }

    /// Note a query submission.
    pub fn on_submit(&mut self) {
        self.submitted += 1;
    }

    /// Record a resolved query.
    ///
    /// * `node` — the resolving (querying) peer (bucketed stats no
    ///   longer depend on it, but the signature keeps the recording
    ///   site honest about who resolved);
    /// * `lookup_ms` — latency from submission until the provider was
    ///   identified;
    /// * `transfer_ms` — link latency between requester and provider;
    /// * `served_by` — provider kind (peer ⇒ hit, server ⇒ miss).
    pub fn on_resolved(
        &mut self,
        at: SimTime,
        node: NodeId,
        lookup_ms: u64,
        transfer_ms: u64,
        served_by: ServedBy,
    ) {
        let _ = node;
        let hit = served_by != ServedBy::OriginServer;
        if hit {
            self.hits += 1;
            if served_by != ServedBy::RemoteOverlay {
                self.local_hits += 1;
            }
        } else {
            self.misses += 1;
        }
        self.lookup_hist.record(lookup_ms);
        self.lookup_series.record(at, lookup_ms as f64);
        self.hit_series.record(at, if hit { 1.0 } else { 0.0 });
        // Transfer distance: own-cache hits involve no transfer and
        // are excluded (Figure 8 measures actual transfers: peers and
        // the early server-dominated phase).
        if served_by != ServedBy::OwnCache {
            self.transfer_hist.record(transfer_ms);
            self.transfer_series.record(at, transfer_ms as f64);
            if hit {
                self.transfer_hits_hist.record(transfer_ms);
            }
        }
    }

    /// Note a redirection failure (stale directory entry; Sec. 5.1).
    pub fn on_redirection_failure(&mut self) {
        self.redirection_failures += 1;
    }

    /// Note that a peer joined a content overlay at `at`.
    pub fn on_join(&mut self, at: SimTime) {
        self.join_series.record(at, 1.0);
    }

    /// Queries submitted.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Queries resolved (hit or miss).
    pub fn resolved(&self) -> u64 {
        self.hits + self.misses
    }

    /// The paper's hit ratio: fraction of queries satisfied by the P2P
    /// system.
    pub fn hit_ratio(&self) -> f64 {
        let r = self.resolved();
        if r == 0 {
            0.0
        } else {
            self.hits as f64 / r as f64
        }
    }

    /// Fraction of hits served within the requester's own locality.
    pub fn local_hit_fraction(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            self.local_hits as f64 / self.hits as f64
        }
    }

    /// Mean lookup latency (ms).
    pub fn mean_lookup_ms(&self) -> f64 {
        self.lookup_hist.mean()
    }

    /// Mean transfer distance (ms).
    pub fn mean_transfer_ms(&self) -> f64 {
        self.transfer_hist.mean()
    }

    /// Lookup-latency distribution (Fig. 7(b)).
    pub fn lookup_hist(&self) -> &Histogram {
        &self.lookup_hist
    }

    /// Transfer-distance distribution (Fig. 8(b)).
    pub fn transfer_hist(&self) -> &Histogram {
        &self.transfer_hist
    }

    /// Mean transfer distance of P2P hits (ms).
    pub fn mean_transfer_hit_ms(&self) -> f64 {
        self.transfer_hits_hist.mean()
    }

    /// Windowed hit ratio over time (Figures 5/6): mean of the 0/1 hit
    /// indicator per window.
    pub fn hit_series(&self) -> &TimeSeries {
        &self.hit_series
    }

    /// Windowed mean lookup latency over time (Fig. 7(a)).
    pub fn lookup_series(&self) -> &TimeSeries {
        &self.lookup_series
    }

    /// Windowed mean transfer distance over time (Fig. 8(a)).
    pub fn transfer_series(&self) -> &TimeSeries {
        &self.transfer_series
    }

    /// Overlay joins per window; accumulated over time (plus the
    /// deployed directories) this is the participant count Figure 5
    /// divides the background bytes by.
    pub fn join_series(&self) -> &TimeSeries {
        &self.join_series
    }

    /// Redirection failures observed (Sec. 5.1).
    pub fn redirection_failures(&self) -> u64 {
        self.redirection_failures
    }

    /// Fold another shard's query metrics into this one.
    pub fn merge_from(&mut self, other: &QueryStats) {
        self.submitted += other.submitted;
        self.hits += other.hits;
        self.misses += other.misses;
        self.local_hits += other.local_hits;
        self.lookup_hist.merge_from(&other.lookup_hist);
        self.transfer_hist.merge_from(&other.transfer_hist);
        self.transfer_hits_hist
            .merge_from(&other.transfer_hits_hist);
        self.hit_series.merge_from(&other.hit_series);
        self.lookup_series.merge_from(&other.lookup_series);
        self.transfer_series.merge_from(&other.transfer_series);
        self.join_series.merge_from(&other.join_series);
        self.redirection_failures += other.redirection_failures;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_answer_is_sorted_by_the_provider_and_both_localities() {
        let (here, there) = (Locality(0), Locality(1));
        assert_eq!(ServedBy::of(true, here, here), ServedBy::OriginServer);
        assert_eq!(ServedBy::of(true, there, here), ServedBy::OriginServer);
        assert_eq!(ServedBy::of(false, here, here), ServedBy::LocalOverlay);
        assert_eq!(ServedBy::of(false, there, here), ServedBy::RemoteOverlay);
    }

    /// One shard owning nodes `0..nodes`, so local index = node id.
    fn whole_ledger(nodes: u32, window: SimDuration) -> ShardTraffic {
        ShardTraffic::new((0..nodes).map(NodeId).collect(), window)
    }

    /// One delivered message: the send and its receipt.
    fn wire(
        t: &mut ShardTraffic,
        at: SimTime,
        from: usize,
        to: usize,
        class: TrafficClass,
        bytes: u32,
    ) {
        t.record_sent(at, from, class, bytes);
        t.record_recv(to, class, bytes);
    }

    fn view(nodes: usize, shards: &[&ShardTraffic]) -> Traffic {
        let mut t = Traffic::new(nodes, shards[0].window());
        for s in shards {
            t.absorb_shard(s);
        }
        t
    }

    #[test]
    fn traffic_accounting_by_class() {
        let mut l = whole_ledger(3, SimDuration::from_mins(30));
        wire(&mut l, SimTime::ZERO, 0, 1, TrafficClass::Gossip, 100);
        wire(&mut l, SimTime::ZERO, 1, 0, TrafficClass::Push, 50);
        wire(&mut l, SimTime::ZERO, 0, 2, TrafficClass::DhtRouting, 10);
        // Sent and still in flight: counted on the send side only.
        l.record_sent(SimTime::ZERO, 2, TrafficClass::Transfer, 900);
        let t = view(3, &[&l]);
        for (class, sent, recv) in [
            (TrafficClass::Gossip, 100, 100),
            (TrafficClass::Push, 50, 50),
            (TrafficClass::DhtRouting, 10, 10),
            (TrafficClass::Transfer, 900, 0),
            (TrafficClass::KeepAlive, 0, 0),
        ] {
            assert_eq!(t.total_sent(class), sent, "{class:?} sent");
            assert_eq!(t.total_recv(class), recv, "{class:?} received");
        }
        assert_eq!(t.background_bytes(NodeId(0)), 150); // gossip sent + push recv
        assert_eq!(t.background_bytes(NodeId(1)), 150);
        assert_eq!(t.background_bytes(NodeId(2)), 0); // routing, transfer: not background
        assert_eq!(t.messages(), 4);
    }

    #[test]
    fn background_bps_definition() {
        let mut l = whole_ledger(2, SimDuration::from_mins(30));
        // 1000 bytes of gossip each way over 10 seconds between two peers.
        wire(&mut l, SimTime::ZERO, 0, 1, TrafficClass::Gossip, 1000);
        wire(&mut l, SimTime::ZERO, 1, 0, TrafficClass::Gossip, 1000);
        let t = view(2, &[&l]);
        let bps = t.background_bps(&[NodeId(0), NodeId(1)], SimDuration::from_secs(10));
        // Each peer experienced 2000 bytes = 16000 bits over 10 s = 1600 bps.
        assert!((bps - 1600.0).abs() < 1e-9, "bps = {bps}");
    }

    #[test]
    fn background_bps_empty_cases() {
        let t = Traffic::new(1, SimDuration::from_mins(1));
        assert_eq!(t.background_bps(&[], SimDuration::from_secs(10)), 0.0);
        assert_eq!(t.background_bps(&[NodeId(0)], SimDuration::ZERO), 0.0);
    }

    #[test]
    fn histogram_buckets_and_fractions() {
        let mut h = Histogram::new(150, 7);
        for v in [10, 140, 149, 150, 600, 2000] {
            h.record(v);
        }
        // <=150 counts only bucket [0,150): 3 observations.
        assert!((h.fraction_le(150) - 0.5).abs() < 1e-9);
        assert!((h.fraction_gt(1050) - (1.0 / 6.0)).abs() < 1e-9);
        let mean = (10 + 140 + 149 + 150 + 600 + 2000) as f64 / 6.0;
        assert!((h.mean() - mean).abs() < 1e-9);
    }

    #[test]
    fn histogram_distribution_sums_to_one() {
        let mut h = Histogram::new(100, 5);
        for v in 0..1000 {
            h.record(v * 3);
        }
        let total: f64 = h.distribution().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new(10, 3);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.fraction_le(10), 0.0);
    }

    #[test]
    fn series_windows() {
        let mut s = TimeSeries::new(SimDuration::from_secs(10));
        s.record(SimTime::from_secs(1), 1.0);
        s.record(SimTime::from_secs(9), 3.0);
        s.record(SimTime::from_secs(15), 10.0);
        let pts = s.points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].count, 2);
        assert!((pts[0].mean() - 2.0).abs() < 1e-9);
        assert!((pts[1].mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn query_stats_hit_ratio() {
        let mut q = QueryStats::new(SimDuration::from_mins(30));
        q.on_submit();
        q.on_submit();
        q.on_submit();
        q.on_resolved(
            SimTime::from_secs(1),
            NodeId(1),
            120,
            40,
            ServedBy::LocalOverlay,
        );
        q.on_resolved(
            SimTime::from_secs(2),
            NodeId(2),
            900,
            300,
            ServedBy::OriginServer,
        );
        q.on_resolved(
            SimTime::from_secs(3),
            NodeId(3),
            200,
            90,
            ServedBy::RemoteOverlay,
        );
        assert_eq!(q.submitted(), 3);
        assert_eq!(q.resolved(), 3);
        assert!((q.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
        assert!((q.local_hit_fraction() - 0.5).abs() < 1e-9);
        assert!((q.mean_lookup_ms() - (120.0 + 900.0 + 200.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn query_stats_are_insertion_order_independent() {
        // Recording order must not matter: every statistic is a sum
        // over fixed windows and buckets, not a log.
        let obs = [
            (2u64, NodeId(9), 300u64, ServedBy::OriginServer),
            (1, NodeId(5), 40, ServedBy::LocalOverlay),
            (2, NodeId(3), 0, ServedBy::OwnCache),
            (31, NodeId(1), 120, ServedBy::RemoteOverlay),
        ];
        let mut fwd = QueryStats::new(SimDuration::from_secs(30));
        let mut rev = QueryStats::new(SimDuration::from_secs(30));
        for (t, n, x, s) in obs {
            fwd.on_resolved(SimTime::from_secs(t), n, 10 * t, x, s);
        }
        for (t, n, x, s) in obs.into_iter().rev() {
            rev.on_resolved(SimTime::from_secs(t), n, 10 * t, x, s);
        }
        assert_eq!(fwd, rev);
        let windows: Vec<(u64, f64)> = fwd
            .hit_series()
            .points()
            .iter()
            .map(|p| (p.count, p.sum))
            .collect();
        assert_eq!(windows, [(3, 2.0), (1, 1.0)]);
    }

    #[test]
    fn shard_traffic_absorbs_into_global_view() {
        let w = SimDuration::from_mins(1);
        // Shard A owns nodes {0, 2}; shard B owns {1, 3}.
        let mut a = ShardTraffic::new(vec![NodeId(0), NodeId(2)], w);
        let mut b = ShardTraffic::new(vec![NodeId(1), NodeId(3)], w);
        // 0 → 1: gossip, 100 bytes (send on A, receipt on B).
        a.record_sent(SimTime::ZERO, 0, TrafficClass::Gossip, 100);
        b.record_recv(0, TrafficClass::Gossip, 100);
        // 3 → 2: push, 40 bytes (send on B, receipt on A).
        b.record_sent(SimTime::from_secs(70), 1, TrafficClass::Push, 40);
        a.record_recv(1, TrafficClass::Push, 40);
        // 2 → 3: a transfer, 900 bytes (send on A, receipt on B).
        a.record_sent(SimTime::from_secs(71), 1, TrafficClass::Transfer, 900);
        b.record_recv(1, TrafficClass::Transfer, 900);

        // The same history recorded unsharded.
        let mut whole = whole_ledger(4, w);
        wire(&mut whole, SimTime::ZERO, 0, 1, TrafficClass::Gossip, 100);
        wire(
            &mut whole,
            SimTime::from_secs(70),
            3,
            2,
            TrafficClass::Push,
            40,
        );
        wire(
            &mut whole,
            SimTime::from_secs(71),
            2,
            3,
            TrafficClass::Transfer,
            900,
        );

        let folded = view(4, &[&a, &b]);
        assert_eq!(folded, view(4, &[&whole]));
        let background: Vec<u64> = (0..4).map(|n| folded.background_bytes(NodeId(n))).collect();
        assert_eq!(background, [100, 100, 40, 40]);
        assert_eq!(folded.total_recv(TrafficClass::Transfer), 900);
        let points = folded.background_series().points();
        assert_eq!(points.len(), 2, "one window per background message");
        assert_eq!((points[0].sum, points[1].sum), (200.0, 80.0));
    }

    #[test]
    fn merged_stats_equal_unsharded_stats() {
        // Record the same observations into one accumulator and into
        // two "shards", then merge: every metric must agree exactly.
        let w = SimDuration::from_mins(1);
        let obs = [
            (1u64, NodeId(0), 120u64, 40u64, ServedBy::LocalOverlay),
            (2, NodeId(7), 900, 300, ServedBy::OriginServer),
            (3, NodeId(1), 200, 90, ServedBy::RemoteOverlay),
            (3, NodeId(4), 0, 0, ServedBy::OwnCache),
        ];
        let mut whole = QueryStats::new(w);
        let mut a = QueryStats::new(w);
        let mut b = QueryStats::new(w);
        for (i, (t, n, l, x, s)) in obs.into_iter().enumerate() {
            whole.on_submit();
            whole.on_resolved(SimTime::from_secs(t), n, l, x, s);
            let half = if i % 2 == 0 { &mut a } else { &mut b };
            half.on_submit();
            half.on_resolved(SimTime::from_secs(t), n, l, x, s);
            whole.on_join(SimTime::from_secs(70 * t));
            half.on_join(SimTime::from_secs(70 * t));
        }
        let mut merged = a.clone();
        merged.merge_from(&b);
        assert_eq!(merged, whole);
        assert_eq!(whole.join_series().points().len(), 4, "joins at 70–210 s");
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_width_rejected() {
        let _ = Histogram::new(0, 5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// fraction_le + fraction_gt partition the observations.
        #[test]
        fn histogram_fractions_partition(values in proptest::collection::vec(0u64..5000, 1..200), thr_buckets in 0u64..10) {
            let mut h = Histogram::new(150, 7);
            for v in &values {
                h.record(*v);
            }
            let thr = thr_buckets * 150;
            let le = h.fraction_le(thr);
            let gt = h.fraction_gt(thr);
            prop_assert!((le + gt - 1.0).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&le));
        }

        /// Histogram mean equals the arithmetic mean of inputs.
        #[test]
        fn histogram_mean_exact(values in proptest::collection::vec(0u64..10_000, 1..300)) {
            let mut h = Histogram::new(100, 20);
            for v in &values {
                h.record(*v);
            }
            let expect = values.iter().sum::<u64>() as f64 / values.len() as f64;
            prop_assert!((h.mean() - expect).abs() < 1e-6);
        }

        /// TimeSeries never loses records: counts sum to inputs.
        #[test]
        fn series_preserves_counts(records in proptest::collection::vec((0u64..100_000, -100.0f64..100.0), 0..200)) {
            let mut s = TimeSeries::new(SimDuration::from_secs(10));
            for (t, v) in &records {
                s.record(SimTime::from_ms(*t), *v);
            }
            let total: u64 = s.points().iter().map(|p| p.count).sum();
            prop_assert_eq!(total as usize, records.len());
        }
    }
}
