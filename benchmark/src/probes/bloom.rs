//! `bloom`: membership tests, maintenance and snapshots of a content
//! peer's summary at the workload's mean cache size.

use std::hint::black_box;

use bloom::{ContentSummary, MaintainedSummary, ObjectId};

use super::{ns_per_call, OperatingPoint, Probe};

/// Object ids of a website, spread like the catalog's.
pub fn objects(n: usize) -> Vec<ObjectId> {
    (0..n as u64).map(|i| ObjectId(i * 7919 + 3)).collect()
}

pub fn probe(at: &OperatingPoint) -> Vec<Probe> {
    let capacity = at.cfg.catalog.objects_per_website;
    let universe = objects(capacity);
    let held = &universe[..at.objects_per_peer.min(capacity)];

    let summary = ContentSummary::from_objects(capacity, held);
    let contains_ns = ns_per_call(|i| {
        black_box(summary.might_contain(universe[i % capacity]));
    });

    let mut maintained = MaintainedSummary::empty(capacity);
    for o in held {
        maintained.insert(*o);
    }
    // An object the peer does not hold, admitted and evicted in turn.
    let extra = ObjectId(u64::MAX / 3);
    let mut present = false;
    let mut toggle = |summary: &mut MaintainedSummary| {
        if present {
            summary.remove(extra);
        } else {
            summary.insert(extra);
        }
        present = !present;
    };
    let maintain_ns = ns_per_call(|_| toggle(&mut maintained));
    let snapshot_cached_ns = ns_per_call(|_| {
        black_box(maintained.snapshot());
    });
    let mutate_and_snapshot_ns = ns_per_call(|_| {
        toggle(&mut maintained);
        black_box(maintained.snapshot());
    });
    vec![
        ("bloom.contains_ns", contains_ns, "ns"),
        ("bloom.snapshot_cached_ns", snapshot_cached_ns, "ns"),
        (
            "bloom.snapshot_dirty_ns",
            (mutate_and_snapshot_ns - maintain_ns).max(0.0),
            "ns",
        ),
        ("bloom.maintain_ns", maintain_ns, "ns"),
    ]
}
