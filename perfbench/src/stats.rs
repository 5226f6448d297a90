//! Order statistics over timing samples.

/// Percentiles tried, highest first, when choosing the tail to report.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported tail percentile must leave beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// Linearly interpolated quantile `q` (0..=1) of ascending `sorted`
/// samples; `None` when there are none.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it; `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Compared in hundredths of a sample, with slack for `100 - 99.9`
    // not being exact in binary.
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) + 1e-6 >= 100.0 * TAIL_MIN_BEYOND as f64)
}

/// Median, quartiles and the supported tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The tail [`tail_percentile`] supports, with its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `samples` (any order); `None` when empty or when a
    /// sample is not finite.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| quantile(&sorted, q);
        Some(Summary {
            n: sorted.len(),
            q1: at(0.25)?,
            median: at(0.5)?,
            q3: at(0.75)?,
            tail: tail_percentile(sorted.len()).and_then(|p| at(p / 100.0).map(|v| (p, v))),
        })
    }
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}
