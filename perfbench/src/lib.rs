//! A seeded benchmark of the Miller I/O simulator, end to end and one
//! layer at a time.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload for a timed window, checks every output, and prints the
//! result as its last stdout line. Untraced runs print the end-to-end
//! metrics; traced runs print the per-layer metrics and write the
//! benchmark's own spans as Chrome trace JSON. See `README.md`.

pub mod check;
pub mod heap;
mod host;
mod layers;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod workloads;

use check::Golden;
use metrics::RunReport;
use workloads::campaign::CampaignShape;
use workloads::fig8::Fig8Spec;
use workloads::serve::ServeMix;
use workloads::{RunOptions, Workload};

/// Run `workload` at the benchmark's own sizes.
pub fn run(workload: Workload, opts: &RunOptions) -> RunReport {
    match workload {
        Workload::Fig8Paper => workloads::fig8::run(&Fig8Spec::paper(), workload.name(), opts),
        Workload::Fig8Modern => workloads::fig8::run(&Fig8Spec::modern(), workload.name(), opts),
        Workload::CampaignStreamed => workloads::campaign::run(&CampaignShape::benchmark(), opts),
        Workload::ServeMixed => workloads::serve::run(&ServeMix::benchmark(), opts),
    }
}

/// The report digests [`Golden`] holds, recomputed at the golden seed
/// for the benchmark's fig8 points and campaign.
pub fn golden_digests(spill_dir: &std::path::Path) -> Golden {
    let seed = check::GOLDEN_SEED;
    let mut g = Golden::default();
    let quiet = spans::SpanLog::new(false);
    for (name, spec) in [
        ("fig8_paper", Fig8Spec::paper()),
        ("fig8_modern", Fig8Spec::modern()),
    ] {
        let store = experiments::TraceStore::new();
        for p in spec.points(seed) {
            let r = p.run(&store, &quiet, spans::SpanId::NONE, 0);
            g.insert(name, &p.key, check::fnv1a(r.json.as_bytes()));
        }
    }
    let shape = CampaignShape::benchmark();
    let store = experiments::TraceStore::with_config(experiments::StoreConfig {
        mem_budget: Some(shape.mem_budget),
        spill_dir: Some(spill_dir.to_path_buf()),
    });
    for s in (0..shape.seeds).map(|k| workloads::trace_seed(seed, k)) {
        let report =
            experiments::run_campaign_in(&store, &shape.spec(s), workloads::campaign::SHARDS);
        let json = serde_json::to_string(&report).expect("report serializes");
        g.insert(
            "campaign_streamed",
            &shape.key(s),
            check::fnv1a(json.as_bytes()),
        );
    }
    g
}
