//! `workload`: trace generation and the Zipf draw under it.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::zipf::Zipf;
use workload::{Catalog, QueryStream};

use super::{ns_per_call, secs_per_call, OperatingPoint, Probe};

pub fn probe(at: &OperatingPoint) -> Vec<Probe> {
    let catalog = Catalog::new(at.cfg.catalog.clone());
    let generate_s =
        secs_per_call(|| QueryStream::generate(&at.cfg.workload, &catalog, at.cfg.seed));
    let zipf = Zipf::new(catalog.objects_per_website(), at.cfg.workload.zipf_alpha);
    let mut rng = StdRng::seed_from_u64(at.cfg.seed);
    let zipf_sample_ns = ns_per_call(|_| {
        black_box(zipf.sample(&mut rng));
    });
    vec![
        ("workload.generate_s", generate_s, "s"),
        ("workload.zipf_sample_ns", zipf_sample_ns, "ns"),
    ]
}
