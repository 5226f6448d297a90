//! Streamed replay must be a pure memory optimization: pulling traces
//! through spilled frame-file cursors instead of in-memory slices may
//! not change a single byte of any report.
//!
//! Each test runs the same experiment twice — once against an
//! unbounded [`TraceStore`] (zero-copy shared slices), once against a
//! store with a zero-byte memory budget (everything spills, every
//! replay streams) — and compares the serialized reports
//! byte-for-byte. A budget of zero is the adversarial setting: every
//! trace round-trips through the binary frame codec and every process
//! walks block boundaries.

use buffer_cache::WritePolicy;
use experiments::figures::{fig8, two_venus_report};
use experiments::{run_campaign_in, CampaignSpec, RunConfig, Scale, StoreConfig, TraceStore};

const MB: u64 = 1024 * 1024;

fn streaming_store(name: &str) -> (TraceStore, std::path::PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("miller-streamdet-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::with_config(StoreConfig {
        mem_budget: Some(0),
        spill_dir: Some(dir.clone()),
    });
    (store, dir)
}

#[test]
fn fig6_and_fig7_sweeps_stream_byte_identically() {
    let in_memory = TraceStore::new();
    let (streamed, dir) = streaming_store("fig67");
    // The Figure 6 (32 MB) and Figure 7 (128 MB) cache points.
    for mb in [32u64, 128] {
        let a = two_venus_report(
            &in_memory,
            None,
            mb * MB,
            4096,
            true,
            WritePolicy::WriteBehind,
            Scale(32),
            42,
        );
        let b = two_venus_report(
            &streamed,
            None,
            mb * MB,
            4096,
            true,
            WritePolicy::WriteBehind,
            Scale(32),
            42,
        );
        assert_eq!(
            serde_json::to_string(&a).expect("serialize"),
            serde_json::to_string(&b).expect("serialize"),
            "streamed fig6/7 report at {mb} MB diverges from in-memory"
        );
    }
    assert!(streamed.footprint().spilled > 0, "budget store must actually stream");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig8_sweep_streams_byte_identically() {
    let in_memory = TraceStore::new();
    let (streamed, dir) = streaming_store("fig8");
    let cfg = RunConfig::default();
    let a = fig8(&in_memory, &cfg, Scale(16), 42);
    let b = fig8(&streamed, &cfg, Scale(16), 42);
    assert_eq!(
        serde_json::to_string(&a).expect("serialize"),
        serde_json::to_string(&b).expect("serialize"),
        "streamed fig8 sweep diverges from in-memory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_campaign_streams_byte_identically_at_any_shard_count() {
    let mut spec = CampaignSpec::datacenter(4, 5);
    spec.scale = Scale::quick(512);
    spec.shared_file_every = 4;
    spec.reads_per_shared = 6;

    let in_memory = TraceStore::new();
    let baseline =
        serde_json::to_string(&run_campaign_in(&in_memory, &spec, 1)).expect("serialize");

    let (streamed, dir) = streaming_store("campaign");
    for shards in [1usize, 4] {
        let report = run_campaign_in(&streamed, &spec, shards);
        assert_eq!(
            baseline,
            serde_json::to_string(&report).expect("serialize"),
            "streamed campaign at {shards} shard(s) diverges from in-memory 1-shard run"
        );
    }
    let f = streamed.footprint();
    assert!(f.spilled > 0, "campaign replays must stream in budget mode");
    assert_eq!(f.resident_bytes, 0, "all cursors are dropped after the runs");
    let _ = std::fs::remove_dir_all(&dir);
}
