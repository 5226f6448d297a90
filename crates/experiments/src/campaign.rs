//! Cluster-scale campaigns: thousands of processes over hundreds of
//! groups, driven through the sharded engine.
//!
//! The paper's simulations multiprogram a handful of traced applications
//! on one CPU. A campaign asks the scaled-up question — what does a
//! whole machine room of such nodes look like? — by instantiating
//! `groups` independent node groups, each a full simulator instance
//! (CPU, cache partition, disks), and stocking every group with the
//! same mix of traced applications plus a sprinkling of readers hitting
//! *shared* files that route across groups through the epoch
//! coordinator.
//!
//! Group contents repeat on purpose: process `j` of every group replays
//! the same memoized trace (one generation, `groups` zero-copy
//! replays), so a 10 000-process campaign costs tens of trace
//! generations, not thousands. With a budgeted [`TraceStore`] the
//! replays stream from spilled frame files instead, bounding residency
//! to the live cursors' decoded blocks.
//! The report is a [`iosim::ClusterReport`], byte-identical at any
//! shard count and in either replay mode — the shard knob (`--shards`,
//! [`crate::RunConfig::shards`]) only changes how fast the answer
//! arrives.

use crate::runner::Scale;
use crate::trace_store::TraceStore;
use iosim::{ClusterReport, ProcessFeed, ShardedConfig, ShardedSimulation, SHARED_FILE_BIT};
use iotrace::{Direction, IoEvent};
use sim_core::units::MB;
use sim_core::{SimDuration, SimTime};
use std::sync::Arc;
use workload::{AppKind, ALL_APPS};

/// Shape of one campaign: how many groups, what runs in each, and how
/// the cluster-level knobs (cache budget, admission cap, epoch) are set.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CampaignSpec {
    /// Node groups (each its own simulator instance).
    pub groups: usize,
    /// Processes stocked into every group.
    pub procs_per_group: usize,
    /// Disks per group; the cluster total is `groups * disks_per_group`.
    pub disks_per_group: usize,
    /// Cluster-wide cache budget, split evenly across the groups via
    /// [`buffer_cache::CacheConfig::partitioned`].
    pub cache_budget: u64,
    /// Barrier spacing for the epoch coordinator.
    pub epoch: SimDuration,
    /// Global admission cap (`None` admits everything at time zero).
    pub max_active: Option<usize>,
    /// Every `k`-th process in a group is a shared-file reader instead
    /// of a traced application; `0` disables shared traffic entirely.
    pub shared_file_every: usize,
    /// Sequential 64 KiB reads each shared reader issues.
    pub reads_per_shared: usize,
    /// Trace scaling for the application processes.
    pub scale: Scale,
    /// Base seed for trace generation.
    pub seed: u64,
    /// Gauge-timeline sample interval for every group, in simulated
    /// nanoseconds ([`iosim::SimConfig::timeline_ns`]); `None` samples
    /// nothing. Never changes the report.
    pub timeline_ns: Option<u64>,
}

impl CampaignSpec {
    /// The 10k-campaign preset: `groups` single-CPU/single-disk nodes,
    /// `procs_per_group` processes each cycling through the paper's
    /// seven applications at 1/16 scale, a 2 MB cache partition per
    /// group, a cluster admission cap at 75% of the process count, and
    /// one shared-file reader per 16 processes.
    pub fn datacenter(groups: usize, procs_per_group: usize) -> CampaignSpec {
        let total = groups * procs_per_group;
        CampaignSpec {
            groups,
            procs_per_group,
            disks_per_group: 1,
            cache_budget: groups as u64 * 2 * MB,
            epoch: SimDuration::from_millis(250),
            max_active: Some((total * 3 / 4).max(1)),
            shared_file_every: 16,
            reads_per_shared: 32,
            scale: Scale::quick(16),
            seed: 42,
            timeline_ns: None,
        }
    }

    /// Total processes the campaign will simulate.
    pub fn total_processes(&self) -> usize {
        self.groups * self.procs_per_group
    }

    /// The per-group simulator config this spec describes.
    fn base_config(&self) -> iosim::SimConfig {
        let cache = buffer_cache::CacheConfig::buffered(self.cache_budget)
            .partitioned(self.groups.max(1));
        iosim::SimConfig {
            cache: Some(cache),
            n_disks: self.disks_per_group.max(1),
            timeline_ns: self.timeline_ns,
            ..Default::default()
        }
    }
}

/// The synthetic trace for one shared-file reader: sequential
/// synchronous 64 KiB reads against one of eight cluster-wide shared
/// files (tagged with [`SHARED_FILE_BIT`] so the engine routes them
/// through the coordinator to the striped owner group).
fn shared_reader_events(pid: u32, stream: u32, reads: usize) -> Arc<[IoEvent]> {
    const CHUNK: u64 = 64 * 1024;
    (0..reads as u64)
        .map(|i| {
            IoEvent::logical(
                Direction::Read,
                pid,
                SHARED_FILE_BIT | (stream % 8),
                i * CHUNK,
                CHUNK,
                SimTime::from_ticks(i * 1000),
                SimDuration::from_millis(5),
            )
        })
        .collect()
}

/// What sits in one roster slot, replicated across every group.
enum Slot {
    /// A synthetic shared-file reader: tiny, always an in-memory slice.
    Reader(Arc<[IoEvent]>),
    /// A traced application, fed from the store per group — a zero-copy
    /// shared slice normally, a streaming cursor in budget mode.
    App(AppKind),
}

/// Build and run the campaign from `store`'s traces on `shards` worker
/// threads.
///
/// Every group gets the identical process roster — process `j` is
/// either application `ALL_APPS[j % 7]` replaying the memoized trace
/// for `(kind, j + 1, seed, scale)`, or (every
/// [`CampaignSpec::shared_file_every`]-th slot) a shared-file reader —
/// so the result depends only on the spec, never on `shards`. With a
/// budgeted store every application process pulls its trace through a
/// streaming cursor, so campaign residency is bounded by the live
/// cursors' blocks (plus the tiny shared-reader slices) rather than the
/// roster size. The report stays byte-identical to the in-memory run.
pub fn run_campaign_in(store: &TraceStore, spec: &CampaignSpec, shards: usize) -> ClusterReport {
    assert!(spec.groups >= 1 && spec.procs_per_group >= 1, "campaign needs processes");
    let mut cfg = ShardedConfig::new(spec.groups, spec.base_config());
    cfg.epoch = spec.epoch;
    cfg.max_active = spec.max_active;
    let mut cluster = ShardedSimulation::new(cfg);

    // One roster, replicated into every group: slot j of group g replays
    // the same trace as slot j of group 0.
    let roster: Vec<(String, Slot)> = (0..spec.procs_per_group)
        .map(|j| {
            let pid = (j + 1) as u32;
            let shared =
                spec.shared_file_every > 0 && (j + 1) % spec.shared_file_every == 0;
            if shared {
                let stream = (j / spec.shared_file_every) as u32;
                (
                    format!("shared{stream}"),
                    Slot::Reader(shared_reader_events(pid, stream, spec.reads_per_shared.max(1))),
                )
            } else {
                let kind: AppKind = ALL_APPS[j % ALL_APPS.len()];
                (format!("{}#{}", kind.name(), j), Slot::App(kind))
            }
        })
        .collect();

    for g in 0..spec.groups {
        for (j, (name, slot)) in roster.iter().enumerate() {
            let pid = (j + 1) as u32;
            let feed = match slot {
                Slot::Reader(events) => ProcessFeed::Shared(Arc::clone(events)),
                Slot::App(kind) => store.feed(*kind, pid, spec.seed, spec.scale),
            };
            cluster
                .add_process_feed(g, pid, name.clone(), feed)
                .expect("campaign roster pids are unique per group and ids fit");
        }
    }
    cluster.run(shards)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignSpec {
        let mut spec = CampaignSpec::datacenter(4, 5);
        spec.scale = Scale::quick(512);
        spec.shared_file_every = 4;
        spec.reads_per_shared = 6;
        spec
    }

    #[test]
    fn campaign_report_is_shard_count_invariant() {
        let spec = tiny();
        let store = TraceStore::new();
        let baseline =
            serde_json::to_string(&run_campaign_in(&store, &spec, 1)).expect("serialize");
        for shards in [2, 3, 4, 8, 64] {
            let alt =
                serde_json::to_string(&run_campaign_in(&store, &spec, shards)).expect("serialize");
            assert_eq!(baseline, alt, "{shards} shards diverged from 1");
        }
    }

    #[test]
    fn campaign_runs_everything_and_shares_files() {
        let spec = tiny();
        let report = run_campaign_in(&TraceStore::new(), &spec, 2);
        assert_eq!(report.n_groups, 4);
        assert_eq!(report.total_processes, 20);
        assert_eq!(report.admissions, 20);
        // 1 shared reader per group x 6 reads, each routed cross-group.
        assert_eq!(report.remote_ops, 4 * 6);
        assert_eq!(report.remote_bytes, 4 * 6 * 64 * 1024);
        assert!(report.ios_issued > 0);
        assert_eq!(report.groups.len(), 4);
    }

    #[test]
    fn admission_cap_respected_in_report() {
        let mut spec = tiny();
        spec.max_active = Some(3);
        let report = run_campaign_in(&TraceStore::new(), &spec, 2);
        assert_eq!(report.admissions, 20, "everyone eventually runs");
        assert!(report.epochs > 0, "a capped run crosses barriers");
    }
}
