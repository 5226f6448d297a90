//! The order statistics every reported timing goes through.

use perfbench::stats::{median, quantile, tail_percentile, Summary};

#[test]
fn quantiles_interpolate_between_samples() {
    let s = [1.0, 2.0, 3.0, 4.0];
    assert_eq!(quantile(&s, 0.0), Some(1.0));
    assert_eq!(quantile(&s, 0.25), Some(1.75));
    assert_eq!(quantile(&s, 0.5), Some(2.5));
    assert_eq!(quantile(&s, 0.75), Some(3.25));
    assert_eq!(quantile(&s, 1.0), Some(4.0));
    assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
    assert_eq!(quantile(&[], 0.5), None);
}

#[test]
fn summary_sorts_counts_and_rejects_non_finite() {
    let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).expect("finite samples");
    assert_eq!(s.n, 5);
    assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
    assert_eq!(Summary::of(&[]), None);
    assert_eq!(Summary::of(&[1.0, f64::NAN]), None);
    assert_eq!(Summary::of(&[1.0, f64::INFINITY]), None);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(9_999), Some(99.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(999), Some(95.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(0), None);

    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let s = Summary::of(&samples).expect("finite samples");
    let (p, v) = s.tail.expect("1000 samples support a tail");
    assert_eq!(p, 99.0);
    assert!(samples.iter().filter(|&&x| x > v).count() >= 10);
}
