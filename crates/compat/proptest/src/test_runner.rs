//! Case execution: configuration, the per-test RNG, failure type, and
//! the loop driving each `#[test]` generated by `proptest!`.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// How many cases to run, mirroring `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps the no-shrink stand-in's
        // suites quick while still exploring the space.
        ProptestConfig { cases: 64 }
    }
}

/// Why a single case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// A `prop_assert*` failed.
    Fail(String),
}

impl TestCaseError {
    /// Build a failure (the only kind this stand-in produces).
    pub fn fail(message: String) -> Self {
        TestCaseError::Fail(message)
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
        }
    }
}

/// Per-case deterministic randomness source handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: ChaCha8Rng,
}

impl TestRng {
    /// Seeded stream: same seed, same draws, every run and machine.
    pub fn new(seed: u64) -> Self {
        TestRng { inner: ChaCha8Rng::seed_from_u64(seed) }
    }

    /// Raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.inner.gen_range(range)
    }

    /// Uniform draw in `[lo, lo + span)` over `u64` arithmetic, with
    /// `span == 0` meaning the full 2^64 domain. Integer range
    /// strategies of every width funnel through this.
    pub fn int_in_u64_span(&mut self, lo: u64, span: u64) -> u64 {
        if span == 0 {
            return self.inner.next_u64();
        }
        lo.wrapping_add(((self.inner.next_u64() as u128 * span as u128) >> 64) as u64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.gen_range(lo..hi)
    }
}

/// Mix a case index into a well-spread 64-bit seed (SplitMix64 final
/// avalanche), so consecutive cases draw unrelated streams.
fn case_seed(test_name: &str, case: u32) -> u64 {
    let mut z = case as u64 ^ 0x50_52_4f_50_54_45_53_54; // "PROPTEST"
    for b in test_name.bytes() {
        z = (z ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The case count a `PROPTEST_CASES` value asks for, when it is a
/// positive number.
fn cases_from(value: Option<&str>) -> Option<u32> {
    value?.trim().parse().ok().filter(|&n| n > 0)
}

/// Drive `config.cases` generated cases, or as many as `PROPTEST_CASES`
/// asks for, panicking (like a failed `assert!`) on the first falsified
/// one.
pub fn run_cases<F>(config: ProptestConfig, test_name: &str, case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let cases = cases_from(std::env::var("PROPTEST_CASES").ok().as_deref());
    run_exactly(cases.unwrap_or(config.cases), test_name, case);
}

/// [`run_cases`] with a fixed case count.
pub(crate) fn run_exactly<F>(cases: u32, test_name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    for i in 0..cases {
        let mut rng = TestRng::new(case_seed(test_name, i));
        if let Err(e) = case(&mut rng) {
            panic!("proptest `{test_name}` falsified by case {i}/{cases}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::cases_from;

    #[test]
    fn case_override_takes_only_positive_counts() {
        assert_eq!(cases_from(Some("20000")), Some(20000));
        assert_eq!(cases_from(Some(" 7\n")), Some(7));
        assert_eq!(cases_from(Some("0")), None);
        assert_eq!(cases_from(Some("many")), None);
        assert_eq!(cases_from(None), None);
    }
}
