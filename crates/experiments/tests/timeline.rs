//! Tentpole guard for the temporal-telemetry sampler: gauge timelines
//! must be a pure observer. With sampling enabled the result JSON stays
//! byte-identical to a plain run, and the timeline JSON itself is
//! byte-identical at any shard count.
//!
//! The sample interval is part of each run's config, but finished
//! timelines land in one process-wide store, so one `#[test]` runs every
//! phase in sequence and drains the store between them.

use experiments::{run_campaign_in, simulation, CampaignSpec, Scale, TraceStore, VENUS_PAIR};
use iosim::SimConfig;
use serde_json::to_string_pretty;

/// A fig8-style point, serialized exactly like `mio sim --json`.
fn fig8_json(store: &TraceStore, timeline_ns: Option<u64>) -> String {
    let config = SimConfig { timeline_ns, ..SimConfig::buffered(8 * sim_core::units::MB) };
    let r = simulation(store, config, &VENUS_PAIR, Scale(64), 42).run();
    to_string_pretty(&r).expect("serialize report")
}

fn campaign_json(store: &TraceStore, shards: usize, timeline_ns: Option<u64>) -> String {
    let spec = CampaignSpec { timeline_ns, ..CampaignSpec::datacenter(4, 4) };
    to_string_pretty(&run_campaign_in(store, &spec, shards)).expect("serialize report")
}

/// Rendered timeline JSON from everything the runs above published.
fn drain_timeline_json() -> String {
    obs::timeline::render_json(&obs::timeline::drain())
}

#[test]
fn timelines_never_perturb_results_and_are_shard_invariant() {
    let store = TraceStore::new();

    // Phase 1: baseline, sampling off.
    let fig8_plain = fig8_json(&store, None);
    let campaign_plain = campaign_json(&store, 1, None);
    assert!(obs::timeline::drain().is_empty(), "no timelines published while off");

    // Phase 2: sampling on — results must not move by a byte.
    let fig8_sampled = fig8_json(&store, Some(1_000_000)); // 1 ms grid
    let fig8_timeline = drain_timeline_json();
    assert_eq!(fig8_plain, fig8_sampled, "fig8 report changed with --timeline on");
    assert!(
        fig8_timeline.contains("cache_resident_blocks")
            && fig8_timeline.contains("procs_runnable")
            && fig8_timeline.contains("disk0_depth"),
        "timeline carries the engine gauges: {}",
        &fig8_timeline[..fig8_timeline.len().min(400)]
    );

    // Phase 3: the sharded engine — report and timeline are both pure
    // functions of the spec, never of the shard count.
    let grid = Some(100_000_000); // 100 ms grid
    let c1 = campaign_json(&store, 1, grid);
    let t1 = drain_timeline_json();
    let c4 = campaign_json(&store, 4, grid);
    let t4 = drain_timeline_json();
    assert_eq!(campaign_plain, c1, "campaign report changed with --timeline on");
    assert_eq!(c1, c4, "campaign report depends on shard count");
    assert_eq!(t1, t4, "merged timeline depends on shard count");
    assert!(t1.contains("\"timelines\":["), "rendered JSON shape");
}
