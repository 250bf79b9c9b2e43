//! A tiny deterministic PRNG for model-internal randomness.
//!
//! The memory models need cheap, reproducible coin flips (cache hit or miss?)
//! that must not perturb the workload generators' `rand` streams. SplitMix64
//! is two arithmetic operations per draw, passes BigCrush, and — crucially for
//! a simulator — makes every run bit-for-bit repeatable from a seed.

/// SplitMix64 PRNG (Steele, Lea & Flood, OOPSLA 2014 fast-splittable PRNG).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Identical seeds yield identical
    /// streams on every platform.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Split off an independent generator (the "splittable" in SplitMix64):
    /// the child is seeded from the parent's next draw, so parent and child
    /// streams stay decorrelated and both remain fully deterministic. The
    /// fault-injection planner uses this to derive per-concern substreams
    /// (workload shape, crash point, corruption sites) from one plan seed.
    #[inline]
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero (panics
    /// otherwise, in release builds too: a zero bound would silently
    /// return 0 from an empty range).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SplitMix64::below(0): empty range");
        // Lemire's multiply-shift rejection-free mapping is fine here: the
        // tiny modulo bias (< 2^-64 * bound) is irrelevant to cache modeling.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = SplitMix64::new(99);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut ca = a.split();
        let mut cb = b.split();
        for _ in 0..50 {
            assert_eq!(ca.next_u64(), cb.next_u64(), "same seed, same child");
        }
        // Child and parent streams differ.
        let mut p = SplitMix64::new(7);
        let mut c = p.split();
        assert_ne!(p.next_u64(), c.next_u64());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_panics() {
        SplitMix64::new(1).below(0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }
}
