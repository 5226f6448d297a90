//! Deterministic random number generation for workload synthesis.
//!
//! Every random quantity in the reproduction flows through [`SimRng`],
//! a seeded ChaCha8 stream, so that a `(workload, seed)` pair always
//! produces bit-identical traces — the determinism the integration tests
//! rely on and a prerequisite for meaningful simulator comparisons
//! (the same trace is replayed under every cache configuration).

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seeded deterministic RNG with the few distributions the workload
/// models need.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream, e.g. one per simulated process,
    /// so adding a process never perturbs the randomness of another.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let seed = self.inner.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::new(seed)
    }

    /// Uniform integer in `[lo, hi]` (inclusive). `lo == hi` is allowed.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_u64 range inverted: {lo} > {hi}");
        self.inner.gen_range(lo..=hi)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_f64 range inverted");
        if lo == hi {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli draw with probability `p` of `true`. `p` is clamped to
    /// `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen_bool(p)
    }

    /// A value jittered multiplicatively by up to `frac` around `base`
    /// (uniform in `[base*(1-frac), base*(1+frac)]`), never negative.
    ///
    /// The paper notes access sizes and cycle shapes are "relatively
    /// constant within programs" (§5.2); this models the small residual
    /// variation without destroying the constancy.
    pub fn jitter(&mut self, base: f64, frac: f64) -> f64 {
        assert!((0.0..=1.0).contains(&frac), "jitter fraction out of range");
        if base == 0.0 || frac == 0.0 {
            return base;
        }
        self.uniform_f64(base * (1.0 - frac), base * (1.0 + frac)).max(0.0)
    }

    /// Raw u64, for hashing-style uses.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams suspiciously correlated");
    }

    #[test]
    fn forked_streams_are_independent_of_later_parent_use() {
        let mut parent1 = SimRng::new(7);
        let mut child1 = parent1.fork(1);
        let mut parent2 = SimRng::new(7);
        let mut child2 = parent2.fork(1);
        // Consume different amounts from the parents afterwards.
        parent1.next_u64();
        for _ in 0..10 {
            parent2.next_u64();
        }
        for _ in 0..50 {
            assert_eq!(child1.next_u64(), child2.next_u64());
        }
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let v = rng.uniform_u64(10, 20);
            assert!((10..=20).contains(&v));
        }
        assert_eq!(rng.uniform_u64(5, 5), 5);
    }

    #[test]
    fn jitter_stays_in_band_and_zero_passthrough() {
        let mut rng = SimRng::new(11);
        for _ in 0..1000 {
            let v = rng.jitter(100.0, 0.25);
            assert!((75.0..=125.0).contains(&v), "jitter {v} escaped band");
        }
        assert_eq!(rng.jitter(0.0, 0.5), 0.0);
        assert_eq!(rng.jitter(42.0, 0.0), 42.0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(13);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range p is clamped rather than panicking.
        assert!(rng.chance(7.5));
        assert!(!rng.chance(-1.0));
    }
}
