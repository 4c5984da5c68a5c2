//! Isolated probes: host time per call of each layer's public
//! functions, sized from the traced run's own operating point. One
//! file per layer; a probe that no longer compiles after a refactor
//! takes only the trace binary with it.

pub mod bloom;
pub mod chord;
pub mod content;
pub mod directory;
pub mod engine;
pub mod event;
pub mod fault;
pub mod gossip;
pub mod metrics;
pub mod stats;
pub mod sync;
pub mod topology;
pub mod workload;

use std::time::Instant;

use flower_core::SystemConfig;

/// Where on its cost curves the traced run operated; the probes size
/// their inputs from it.
pub struct OperatingPoint {
    /// The workload's simulation config.
    pub cfg: SystemConfig,
    /// High-water mark of any shard's event queue.
    pub peak_queue_depth: usize,
    /// Mean members per (website, locality) overlay at the horizon.
    pub petal_size: usize,
    /// Mean objects a content peer holds at the horizon.
    pub objects_per_peer: usize,
}

/// One probe result: metric name, value, unit.
pub type Probe = (&'static str, f64, &'static str);

/// Timed batches per probe; the median batch is reported.
const BATCHES: usize = 7;
/// Calls of the untimed first batch, which warms the probe up and
/// sizes the timed ones.
const WARMUP_CALLS: usize = 2_000;
/// Host time one timed batch aims for.
const BATCH_NS: f64 = 20e6;

/// Median nanoseconds per call of `op` over [`BATCHES`] batches of
/// about [`BATCH_NS`] each. `op` receives the call index within its
/// batch.
pub fn ns_per_call(mut op: impl FnMut(usize)) -> f64 {
    ns_per_prepared_call(|_| (), |(), i| op(i))
}

/// As [`ns_per_call`], with `prepare(calls)` building each batch's
/// input outside the timed region.
pub fn ns_per_prepared_call<S>(
    mut prepare: impl FnMut(usize) -> S,
    mut op: impl FnMut(&mut S, usize),
) -> f64 {
    let mut batch = |calls: usize| {
        let mut input = prepare(calls);
        let t = Instant::now();
        for i in 0..calls {
            op(&mut input, i);
        }
        t.elapsed().as_secs_f64() * 1e9 / calls as f64
    };
    let estimate = batch(WARMUP_CALLS).max(0.1);
    let calls = ((BATCH_NS / estimate) as usize).clamp(WARMUP_CALLS, 4_000_000);
    let mut samples: Vec<f64> = (0..BATCHES).map(|_| batch(calls)).collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// Median seconds of `op` over three calls.
pub fn secs_per_call<T>(mut op: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(op());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[1]
}

/// A small deterministic generator for probe inputs (SplitMix64), so
/// probe loops pay no `rand` cost inside the timed region.
pub struct Mix(pub u64);

impl Mix {
    /// Next 64 pseudo-random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A pseudo-random index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Run every probe at `at`.
pub fn all(at: &OperatingPoint) -> Vec<Probe> {
    let mut out = Vec::new();
    out.extend(event::probe(at));
    out.extend(engine::probe(at));
    out.extend(topology::probe(at));
    out.extend(sync::probe());
    out.extend(fault::probe(at));
    out.extend(stats::probe(at));
    out.extend(metrics::probe());
    out.extend(workload::probe(at));
    out.extend(bloom::probe(at));
    out.extend(gossip::probe(at));
    out.extend(content::probe(at));
    out.extend(chord::probe(at));
    out.extend(directory::probe(at));
    out
}
