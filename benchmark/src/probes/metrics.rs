//! `metrics`: one registry increment.

use metrics::{Counter, MetricSet};

use super::{ns_per_call, Probe};

pub fn probe() -> Vec<Probe> {
    let mut set = MetricSet::new();
    let cells = Counter::ALL;
    let incr_ns = ns_per_call(|i| {
        std::hint::black_box(&mut set).incr(cells[i % cells.len()]);
    });
    std::hint::black_box(set.counter(cells[0]));
    vec![("metrics.incr_ns", incr_ns, "ns")]
}
