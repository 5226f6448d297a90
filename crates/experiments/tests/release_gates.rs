//! Release-only gates: a trace-memory bound, a decode-rate floor and a
//! shard-scaling floor, each too slow or meaningless in a debug build
//! (the shard gate also needs a host with at least 8 cores). Each test
//! is `#[ignore]`d so a plain `cargo test` skips it; run them with
//!
//! ```text
//! cargo test --release -p experiments -p iotrace -- --ignored
//! ```

use experiments::{run_campaign_in, scaled_spec, CampaignSpec, Scale, StoreConfig, TraceStore};
use iotrace::{encode_frames, FrameFile, IoEvent};
use std::time::Instant;
use workload::{generate, AppKind};

const MB: usize = 1024 * 1024;

/// In-memory trace budget for the streamed 100x100 campaign.
const TRACE_BUDGET: usize = 64 * MB;

/// Floor on the frame decoder's rate: streamed replay reads every event
/// through it, so it must comfortably outrun the simulator's own event
/// rate for spilling to stay off the critical path.
const DECODE_FLOOR: f64 = 2_000_000.0;

/// Campaign traces for the cluster-scale gates: 1/512 of the paper's
/// run lengths keeps a 10k-process campaign to minutes.
const CAMPAIGN_SCALE: Scale = Scale(512);

/// The 100x100 datacenter campaign (10k processes) replayed entirely
/// from spilled `stream_v2` frame files under a 64 MB in-memory budget,
/// the flag-level `mio sim --campaign 100x100 --trace-mem-budget 64`.
/// Trace residency must stay bounded by the live cursors' decoded
/// blocks no matter how many processes replay.
#[test]
#[ignore = "release-only: a 10k-process campaign"]
fn streamed_100x100_campaign_stays_within_its_trace_budget() {
    let dir =
        std::env::temp_dir().join(format!("miller-release-gate-traces-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::with_config(StoreConfig {
        mem_budget: Some(TRACE_BUDGET),
        spill_dir: Some(dir.clone()),
    });
    let mut spec = CampaignSpec::datacenter(100, 100);
    spec.scale = CAMPAIGN_SCALE;
    let report = run_campaign_in(&store, &spec, 8);
    let footprint = store.footprint();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(report.ios_issued > 0, "the campaign ran");
    assert!(footprint.spilled > 0, "the budget must push traces to frame files: {footprint:?}");
    assert!(
        footprint.peak_bytes <= TRACE_BUDGET,
        "peak trace residency {:.1} MB exceeds the {} MB budget",
        footprint.peak_bytes as f64 / MB as f64,
        TRACE_BUDGET / MB
    );
}

/// One venus trace at 1/16 scale encoded into an in-memory frame
/// (4096-event blocks, the codec default) and decoded back through a
/// block cursor, enough repetitions to push ~2M events through the
/// decoder in one timed pass.
#[test]
#[ignore = "release-only: a throughput floor"]
fn frame_decode_outruns_two_million_events_per_second() {
    const TARGET_EVENTS: u64 = 2_000_000;
    let trace = generate(&scaled_spec(AppKind::Venus, 1, Scale(16)), 42);
    let events: Vec<IoEvent> = trace.events().cloned().collect();
    let per_rep = events.len() as u64;
    let reps = TARGET_EVENTS.div_ceil(per_rep);
    let file = FrameFile::from_bytes(encode_frames(&events, 4096)).expect("fresh frame parses");

    let start = Instant::now();
    let mut decoded = 0u64;
    for _ in 0..reps {
        let mut cur = file.cursor();
        while let Some(e) = cur.next().expect("fresh frame decodes") {
            std::hint::black_box(e.length);
            decoded += 1;
        }
    }
    let rate = decoded as f64 / start.elapsed().as_secs_f64();

    assert_eq!(decoded, reps * per_rep, "every encoded event decodes");
    eprintln!("frame decode: {rate:.0} events/s (floor {DECODE_FLOOR:.0})");
    assert!(rate >= DECODE_FLOOR, "decoded {rate:.0} events/s, floor {DECODE_FLOOR:.0}");
}

/// `shard_scale_10k`: 1000 groups x 10 processes x 1 disk through the
/// sharded engine at 1 shard and at 8, one shared-file reader per group.
/// Both runs produce the same report (the determinism tests pin that),
/// so the wall-time ratio is pure execution scaling. It only gates
/// where 8 shards can run in parallel.
#[test]
#[ignore = "release-only: a 10k-process campaign, twice"]
fn shard_scale_10k_speeds_up_3x_on_8_shards() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 8 {
        eprintln!(
            "shard_scale_10k: skipped, the >= 3x gate needs >= 8 cores and this host has {cores}"
        );
        return;
    }
    let mut spec = CampaignSpec::datacenter(1000, 10);
    spec.scale = CAMPAIGN_SCALE;
    spec.shared_file_every = 10;
    let store = TraceStore::new();
    let timed = |shards: usize| {
        let start = Instant::now();
        let ios = run_campaign_in(&store, &spec, shards).ios_issued;
        (ios, start.elapsed().as_secs_f64())
    };
    let (ios1, secs1) = timed(1);
    let (ios8, secs8) = timed(8);

    assert_eq!(ios1, ios8, "the shard count must not change the campaign");
    let speedup = secs1 / secs8;
    eprintln!(
        "shard_scale_10k: {speedup:.2}x at 8 shards on {cores} cores \
         ({secs1:.1} s vs {secs8:.1} s)"
    );
    assert!(speedup >= 3.0, "{speedup:.2}x at 8 shards on {cores} cores, gate >= 3x");
}
