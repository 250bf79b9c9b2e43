//! The reference kernel: a fixed amount of ordered-map and hash-map
//! lookups written against `std` alone, so no change to the simulator
//! changes it.
//!
//! The host this benchmark runs on changes speed for seconds to minutes
//! at a time (other tenants share its cores' caches and execution units),
//! and pointer-chasing, branchy code like the simulator's slows most. The
//! kernel is code of that kind, timed around every repetition; the
//! end-to-end host metrics are scaled by its time, which cancels much of
//! the machine's drift while leaving every change to the simulator in
//! full (see `README.md`, "Host noise").

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the ordered map. With the hash map the kernel's data is
/// ~160 KB and stays in L2: what slows with the machine is the core
/// itself, and a kernel on L3- or DRAM-sized data tracked the workloads
/// less closely (`README.md`, "Host noise").
const MAP_KEYS: u64 = 8_000;
/// Entries of the hash map.
const HASH_KEYS: u64 = 2_000;
/// Lookups per timing.
const LOOKUPS: u64 = 8_000;

/// The kernel's time on the machine the host metrics are scaled to, ms:
/// a host metric reads as if the kernel had taken this long. It is a
/// fixed unit, not a measurement; changing it rescales every host metric.
pub const NOMINAL_MS: f64 = 1.0;

/// The kernel's data, built once per process.
pub struct Reference {
    map: BTreeMap<u64, u64>,
    hash: HashMap<u64, u64, BuildHasherDefault<std::collections::hash_map::DefaultHasher>>,
}

impl Reference {
    /// Build the kernel's maps (deterministic: fixed keys and a fixed
    /// hasher).
    pub fn new() -> Self {
        let map = (0..MAP_KEYS)
            .map(|i| (i * 2, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let hash = (0..HASH_KEYS).map(|i| ((i * 167) % (1 << 24), i)).collect();
        Reference { map, hash }
    }

    /// Time one fixed round of lookups, ms.
    pub fn time_ms(&self) -> f64 {
        let t = Instant::now();
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        let mut acc = 0u64;
        for _ in 0..black_box(LOOKUPS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if let Some((_, v)) = self.map.range(x % (2 * MAP_KEYS)..).next() {
                acc = acc.wrapping_add(*v);
            }
            if let Some(v) = self.hash.get(&(x >> 40)) {
                if v & 1 == 0 {
                    acc ^= v;
                } else {
                    acc = acc.rotate_left(5);
                }
            }
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}
