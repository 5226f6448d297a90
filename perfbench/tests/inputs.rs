//! Inputs are a pure function of the seed, and so are the outputs the
//! checks compare.

use experiments::modern::DeviceEra;
use experiments::{Scale, TraceStore};
use perfbench::check::fnv1a;
use perfbench::spans::{SpanId, SpanLog};
use perfbench::workloads::fig8::{fig8_point, Fig8Spec};
use perfbench::workloads::serve::{shuffled_stream, ServeMix, DUP};
use perfbench::workloads::trace_seed;
use serve::RequestBody;

fn stream(seed: u64, n: usize) -> Vec<RequestBody> {
    let mix = ServeMix::benchmark();
    (0..n).map(|i| mix.request_at(seed, i)).collect()
}

#[test]
fn same_seed_same_request_stream_and_another_seed_another() {
    let n = 3 * ServeMix::benchmark().epoch_len();
    assert_eq!(stream(7, n), stream(7, n));
    assert_ne!(stream(7, n), stream(8, n));
}

#[test]
fn every_epoch_repeats_each_distinct_request_dup_times() {
    let mix = ServeMix::benchmark();
    let epoch: Vec<String> = (0..mix.epoch_len())
        .map(|i| {
            serde_json::to_string(&mix.request_at(3, mix.epoch_len() + i)).expect("serializes")
        })
        .collect();
    let mut distinct = epoch.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), mix.distinct_per_epoch());
    for d in &distinct {
        assert_eq!(epoch.iter().filter(|e| *e == d).count(), DUP);
    }
}

#[test]
fn reference_sample_is_seeded_and_distinct() {
    let mix = ServeMix::benchmark();
    let sample = mix.reference_sample(7);
    assert_eq!(sample.len(), mix.reference_checks);
    assert_eq!(sample, mix.reference_sample(7));
    assert_ne!(sample, mix.reference_sample(8));
    let mut keys: Vec<String> = sample
        .iter()
        .map(|b| serde_json::to_string(b).expect("serializes"))
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), sample.len(), "no request is sampled twice");
}

#[test]
fn shuffle_is_seeded_and_a_permutation() {
    let a = shuffled_stream(30, 3, 11);
    assert_eq!(a, shuffled_stream(30, 3, 11));
    assert_ne!(a, shuffled_stream(30, 3, 12));
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..30).flat_map(|i| [i, i, i]).collect::<Vec<_>>());
}

#[test]
fn trace_seeds_start_at_the_run_seed_and_fit_in_32_bits() {
    assert_eq!(trace_seed(42, 0), 42);
    assert_eq!(trace_seed(u64::MAX, 0), u32::MAX as u64);
    assert_eq!(trace_seed(42, 3), trace_seed(42, 3));
    assert_ne!(trace_seed(42, 1), trace_seed(43, 1));
    assert!((1..8).all(|k| trace_seed(u64::MAX, k) <= u32::MAX as u64));
    let keys = |seed| {
        Fig8Spec::paper()
            .points(seed)
            .into_iter()
            .map(|p| p.key)
            .collect::<Vec<_>>()
    };
    assert_eq!(keys(42).len(), 4 * 14);
    assert_eq!(keys(42), keys(42));
    assert_ne!(keys(42), keys(43));
}

#[test]
fn same_point_same_digest_on_fresh_stores() {
    let point = fig8_point(DeviceEra::Era1991, 8, 4096, Scale(256), 5);
    let quiet = SpanLog::new(false);
    let digest = || {
        fnv1a(
            point
                .run(&TraceStore::new(), &quiet, SpanId::NONE, 0)
                .json
                .as_bytes(),
        )
    };
    assert_eq!(digest(), digest());
    let other = fig8_point(DeviceEra::Era1991, 8, 4096, Scale(256), 6);
    assert_ne!(
        digest(),
        fnv1a(
            other
                .run(&TraceStore::new(), &quiet, SpanId::NONE, 0)
                .json
                .as_bytes()
        )
    );
}
