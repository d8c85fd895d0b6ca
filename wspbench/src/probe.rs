//! Layer probes for the traced run: the host cost of one simulated
//! access to the bare cache model (`CacheHierarchy::load_fast` /
//! `store_fast`) and to the persistent-memory overlay above it
//! (`PersistentMemory::read_u64` / `write_u64`), on a seeded address
//! stream spread over the workload's footprint. Multiplied by the
//! accesses a pass counts, they bound the cache model's share of the
//! pass's host time.

use std::hint::black_box;
use std::time::Instant;

use wsp_cache::{CacheHierarchy, CpuProfile};
use wsp_det::{DetRng, Rng};
use wsp_pheap::PersistentMemory;
use wsp_units::ByteSize;

use crate::stats;
use crate::{kv_foc, kv_lockfree, power_cycle, xshard, Workload};

/// Addresses in one probe stream.
const STREAM: usize = 100_000;
/// Timed repetitions; the median is reported.
const REPS: usize = 7;

/// Host ns per simulated access, per layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probes {
    /// Bare cache model.
    pub cache_ns: f64,
    /// Persistent-memory overlay (cache model included).
    pub mem_ns: f64,
}

/// Bytes of live data one heap (or region) of the workload addresses.
#[must_use]
pub fn footprint(workload: Workload) -> u64 {
    const LINE: u64 = 64;
    match workload {
        Workload::KvFoc => kv_foc::RECORDS_PER_SHARD * LINE,
        Workload::Xshard2pc => (xshard::ACCOUNTS as u64) * LINE,
        Workload::PowerCycle => power_cycle::RECORDS * LINE,
        Workload::KvLockfree => kv_lockfree::RECORDS * LINE,
    }
}

fn stream(bytes: u64, seed: u64) -> Vec<u64> {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x7072_6f62_6573);
    (0..STREAM)
        .map(|_| rng.gen_range(0..bytes / 8) * 8)
        .collect()
}

fn median_ns_per_access(mut run: impl FnMut()) -> f64 {
    run(); // warm the model and the host caches
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_nanos() as f64 / STREAM as f64
        })
        .collect();
    stats::median(&samples)
}

/// Measures both probes for `workload`.
#[must_use]
pub fn probe(workload: Workload, seed: u64) -> Probes {
    let bytes = footprint(workload);
    let addrs = stream(bytes, seed);
    let mut cache = CacheHierarchy::new(CpuProfile::intel_c5528());
    let cache_ns = median_ns_per_access(|| {
        for (i, &a) in addrs.iter().enumerate() {
            if i % 2 == 0 {
                black_box(cache.load_fast(black_box(a)));
            } else {
                black_box(cache.store_fast(black_box(a)));
            }
        }
    });
    let mut mem = PersistentMemory::new(ByteSize::new(bytes));
    let mem_ns = median_ns_per_access(|| {
        for (i, &a) in addrs.iter().enumerate() {
            if i % 2 == 0 {
                black_box(mem.read_u64(black_box(a)));
            } else {
                mem.write_u64(black_box(a), i as u64);
            }
        }
    });
    Probes { cache_ns, mem_ns }
}
