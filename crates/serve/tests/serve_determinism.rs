//! The service's headline contract, held under adversarial schedules:
//! a shuffled, concurrent stream of requests — duplicates included —
//! produces responses byte-identical to sequential one-shot runs, at
//! every worker count; and overload answers queue-full instead of
//! buffering unboundedly.

use proptest::prelude::*;
use serve::engine::execute;
use serve::{
    CampaignPointSpec, Engine, EngineConfig, Fig8PointSpec, RequestBody, SubmitError,
};
use experiments::{StoreConfig, TraceStore};
use serde::Value;

/// The request pool cases draw from: small fig-8 points plus campaign
/// points, including a shard-count variant that must produce the same
/// bytes (sharding is a throughput knob, never a results knob).
fn request_pool() -> Vec<RequestBody> {
    let fig8 = |cache_mb, block| {
        RequestBody::Fig8Point(Fig8PointSpec { cache_mb, block, scale: 64, seed: 42 })
    };
    let campaign = |shards| {
        let mut c = CampaignPointSpec::datacenter(2, 4, shards);
        c.scale = 64;
        RequestBody::Campaign(c)
    };
    vec![fig8(4, 4096), fig8(8, 4096), fig8(16, 4096), fig8(8, 8192), campaign(1), campaign(3)]
}

/// The ground truth: each body run one-shot (fresh store, no serving
/// machinery), pretty-printed exactly like `mio sim --json` output.
fn sequential_baseline(pool: &[RequestBody]) -> Vec<String> {
    pool.iter()
        .map(|body| {
            let store = TraceStore::new();
            serde_json::to_string_pretty(&execute(&store, body)).expect("print")
        })
        .collect()
}

fn engine_with_workers(workers: usize) -> Engine {
    Engine::new(EngineConfig {
        workers,
        max_inflight: 64,
        result_cache: 16,
        store: StoreConfig::default(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Concurrency-4 shuffled streams against worker counts {1, 2, 7}:
    /// every response must equal its sequential one-shot bytes.
    fn shuffled_concurrent_streams_match_one_shot_runs(
        stream in proptest::collection::vec(0usize..6, 4..16),
    ) {
        let pool = request_pool();
        let baseline = sequential_baseline(&pool);
        for workers in [1usize, 2, 7] {
            let engine = engine_with_workers(workers);
            const CLIENTS: usize = 4;
            // Deal the stream round-robin onto 4 concurrent clients.
            let served: Vec<(usize, String)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let engine = &engine;
                        let pool = &pool;
                        let my: Vec<usize> = stream
                            .iter()
                            .copied()
                            .skip(c)
                            .step_by(CLIENTS)
                            .collect();
                        scope.spawn(move || {
                            let client = format!("client{c}");
                            my.into_iter()
                                .map(|i| {
                                    let ticket = engine
                                        .submit(&client, &pool[i])
                                        .expect("within max_inflight");
                                    let value = ticket.wait().expect("engine running");
                                    (i, serde_json::to_string_pretty(value.as_ref())
                                        .expect("print"))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().expect("client")).collect()
            });
            prop_assert_eq!(served.len(), stream.len());
            for (i, text) in &served {
                prop_assert_eq!(
                    text,
                    &baseline[*i],
                    "workers={} request={:?} diverged from its one-shot run",
                    workers,
                    &pool[*i]
                );
            }
        }
    }
}

#[test]
fn sharded_campaign_responses_are_byte_identical_across_shard_counts() {
    let store = TraceStore::new();
    let one = |shards| {
        let mut c = CampaignPointSpec::datacenter(2, 4, shards);
        c.scale = 64;
        serde_json::to_string_pretty(&execute(&store, &RequestBody::Campaign(c))).expect("print")
    };
    assert_eq!(one(1), one(3), "shard count must never change the report bytes");
}

#[test]
fn overload_answers_queue_full_instead_of_buffering() {
    // No workers: nothing drains, so the admission cap is the only
    // thing standing between a request flood and unbounded queues.
    let engine = Engine::new(EngineConfig {
        workers: 0,
        max_inflight: 3,
        result_cache: 16,
        store: StoreConfig::default(),
    });
    let body = |mb| RequestBody::Fig8Point(Fig8PointSpec {
        cache_mb: mb,
        block: 4096,
        scale: 64,
        seed: 42,
    });
    for mb in [1, 2, 3] {
        engine.submit("flood", &body(mb)).expect("under the cap");
    }
    let mut rejected = 0;
    for mb in 4..40 {
        match engine.submit("flood", &body(mb)) {
            Err(SubmitError::QueueFull) => rejected += 1,
            other => panic!("expected QueueFull past the cap, got {other:?}"),
        }
    }
    assert_eq!(rejected, 36);
    let stats = engine.stats_value();
    assert_eq!(stats.get("inflight"), Some(&Value::U64(3)), "queue never grew past the cap");
    assert_eq!(stats.get("rejected_queue_full"), Some(&Value::U64(36)));
    // Duplicates of admitted work coalesce even while full — they cost
    // nothing — and a full queue stays serviceable for them.
    assert!(engine.submit("other", &body(1)).expect("coalesces").cached);
}
