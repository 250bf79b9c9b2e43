//! Layer probes for the traced run: one crate's hot entry point called
//! directly, sized from the workload that is being traced.

use bionic_btree::tree::BTree;
use bionic_sim::rng::SplitMix64;
use bionic_sim::stats::Histogram;
use bionic_sim::time::SimTime;
use bionic_storage::{BufferPool, DiskManager};
use bionic_wal::manager::LogManager;
use bionic_wal::record::LogBodyRef;
use std::hint::black_box;
use std::time::Instant;

fn ns_per(n: u64, t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / n as f64
}

/// `BTree::get` on a tree bulk-loaded the way the engine loads its tables
/// (order 256, 80 % fill) from `keys`, probed by uniform draws over those
/// keys. ns per get.
pub fn btree_get_ns(keys: &[i64], seed: u64) -> f64 {
    let tree = BTree::bulk_load(keys.iter().map(|&k| (k, k as u64)).collect(), 256, 0.8);
    let mut rng = SplitMix64::new(seed);
    let probes: Vec<i64> = (0..200_000)
        .map(|_| keys[rng.below(keys.len() as u64) as usize])
        .collect();
    let t = Instant::now();
    for k in &probes {
        black_box(tree.get(black_box(k)));
    }
    ns_per(probes.len() as u64, t)
}

/// `LogManager::append_ref` of update records sized to the workload's
/// mean log bytes per append, 100k appends per fresh log. ns per append.
pub fn wal_append_ref_ns(bytes_per_append: f64) -> f64 {
    let mut probe = LogManager::new();
    let empty = LogBodyRef::Update {
        table: 0,
        rid: 0,
        before: &[],
        after: &[],
    };
    let (_, header) = probe.append_ref(1, empty);
    let image = ((bytes_per_append - header as f64) / 2.0).max(0.0) as usize;
    let buf = vec![0xA5u8; image];
    let rounds = 3u64;
    let per_round = 100_000u64;
    let mut total_ns = 0u128;
    for _ in 0..rounds {
        let mut log = LogManager::new();
        let t = Instant::now();
        for i in 0..per_round {
            let body = LogBodyRef::Update {
                table: 1,
                rid: i,
                before: &buf,
                after: &buf,
            };
            black_box(log.append_ref(1 + i % 64, body));
        }
        total_ns += t.elapsed().as_nanos();
        black_box(log.tail_lsn());
    }
    total_ns as f64 / (rounds * per_round) as f64
}

/// `BufferPool::with_page` on resident pages. ns per call.
pub fn page_hit_ns() -> f64 {
    let mut pool = BufferPool::new(64, DiskManager::new());
    let ids: Vec<_> = (0..32).map(|_| pool.allocate_page().0).collect();
    let n = 1_000_000u64;
    let t = Instant::now();
    for i in 0..n {
        let id = ids[(i % 32) as usize];
        black_box(pool.with_page(id, |p| p.bytes()[(i % 4096) as usize]));
    }
    ns_per(n, t)
}

/// `Histogram::new` (µs per construction) and `Histogram::record` (ns per
/// sample).
pub fn histogram_costs() -> (f64, f64) {
    let n_new = 2_000u64;
    let t = Instant::now();
    for _ in 0..n_new {
        black_box(Histogram::new());
    }
    let new_us = ns_per(n_new, t) / 1e3;

    let mut h = Histogram::new();
    let mut rng = SplitMix64::new(7);
    let samples: Vec<SimTime> = (0..1_000_000)
        .map(|_| SimTime::from_ps(1_000_000 + rng.below(200_000_000)))
        .collect();
    let t = Instant::now();
    for &s in &samples {
        h.record(black_box(s));
    }
    let record_ns = ns_per(samples.len() as u64, t);
    black_box(h.count());
    (new_us, record_ns)
}
