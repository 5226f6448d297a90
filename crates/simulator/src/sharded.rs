//! Sharded simulation: thousands of processes and disks per run,
//! deterministic at any shard count.
//!
//! The cluster is split into **groups** — each a full [`Simulation`]
//! with its own CPUs, cache partition, disk farm, and timing wheel.
//! Groups advance independently between **epoch barriers** (see
//! [`sim_core::EpochClock`]); at each barrier the coordinator:
//!
//! 1. drains every group's outbox of cross-group messages (process
//!    completions, shared-file requests) and services them in the
//!    deterministic `(time, seq, group)` merge order;
//! 2. admits parked processes while the global `max_active` admission
//!    cap has room, in FIFO order;
//! 3. picks the next barrier from the minimum pending event time.
//!
//! **Determinism at any shard count.** The semantic partition (groups)
//! is decoupled from the execution parallelism (shards): shard `w` of
//! `n` simply advances the groups with `group % n == w`, and groups
//! never interact between barriers, so which thread runs a group —
//! indeed how many threads exist — cannot change any group's state.
//! Everything cross-group happens on the coordinator thread in an order
//! that is a pure function of simulation state. `run(1)` and `run(64)`
//! therefore produce byte-identical reports, which
//! `tests/sharded_determinism.rs` pins with a proptest over shard
//! counts {1, 2, 3, 7, 16}.
//!
//! **Shared files.** Raw file ids with [`SHARED_FILE_BIT`] set bypass
//! the owning process's group: the request is routed at the next
//! barrier to the group owning that 1 MB stripe
//! ([`buffer_cache::range_owner`]) and serviced by its disks, uncached.
//! A synchronous requester blocks until barrier + the owner's device
//! latency — the conservative-parallel approximation: remote latency is
//! rounded up to the barrier, never missed.
//!
//! ```
//! use iosim::{ShardedConfig, ShardedSimulation, SimConfig};
//! use iotrace::{Direction, IoEvent, Trace};
//! use sim_core::{SimDuration, SimTime};
//!
//! let mut trace = Trace::new();
//! for i in 0..20u64 {
//!     trace.push(IoEvent::logical(
//!         Direction::Read, 1, 1, i * 65536, 65536,
//!         SimTime::from_ticks(i * 1000), SimDuration::from_millis(2),
//!     ));
//! }
//! let mut cluster = ShardedSimulation::new(ShardedConfig::new(4, SimConfig::buffered(1 << 23)));
//! for g in 0..4 {
//!     cluster.add_process(g, 1, format!("job{g}"), &trace).expect("valid");
//! }
//! let report = cluster.run(2);
//! assert_eq!(report.total_processes, 4);
//! assert_eq!(report.ios_issued, 80);
//! ```

use crate::config::SimConfig;
use crate::engine::{AddProcessError, OutMsg, Simulation};
use crate::process::ProcessFeed;
use buffer_cache::{range_owner, CacheStats};
use iotrace::Trace;
use serde::{Deserialize, Serialize};
use sim_core::{EpochClock, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use storage_model::DeviceStats;

/// Cluster shape and scheduling policy for a sharded run.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of groups (semantic partitions). Fixed by the experiment:
    /// changing it changes the simulated cluster; changing the *shard*
    /// count does not.
    pub groups: usize,
    /// Barrier spacing. Smaller epochs tighten the remote-latency
    /// rounding but cost more coordinator round-trips.
    pub epoch: SimDuration,
    /// Global admission cap: at most this many processes run at once
    /// across the whole cluster; the rest queue FIFO and are admitted at
    /// barriers as seats free up. `None` admits everything at time zero.
    pub max_active: Option<usize>,
    /// Per-group simulation config (CPUs, cache partition, disks). Use
    /// [`buffer_cache::CacheConfig::partitioned`] to split one cache
    /// budget across the groups.
    pub base: SimConfig,
}

impl ShardedConfig {
    /// A cluster of `groups` copies of `base` with a 250 ms epoch and no
    /// admission cap.
    pub fn new(groups: usize, base: SimConfig) -> ShardedConfig {
        ShardedConfig {
            groups: groups.max(1),
            epoch: SimDuration::from_millis(250),
            max_active: None,
            base,
        }
    }
}

/// A process waiting for admission (or for the run to begin).
#[derive(Debug)]
struct Parked {
    group: usize,
    pid: u32,
    name: String,
    feed: ProcessFeed,
}

/// Builder/driver for a sharded run: add processes (each pinned to a
/// group), then [`ShardedSimulation::run`] with a shard count.
#[derive(Debug)]
pub struct ShardedSimulation {
    cfg: ShardedConfig,
    parked: VecDeque<Parked>,
}

/// Coordinator-side counters for one sharded run.
#[derive(Debug, Clone, Copy, Default)]
struct CoordStats {
    epochs: u64,
    admissions: u64,
    remote_ops: u64,
    remote_bytes: u64,
}

/// One group's slice of a [`ClusterReport`]. Deliberately compact — no
/// time series — so a 1000-group campaign report stays manageable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupSummary {
    /// When the group's last process finished.
    pub wall_end: SimTime,
    /// Group CPU busy time.
    pub cpu_busy: SimDuration,
    /// Group CPU idle time.
    pub cpu_idle: SimDuration,
    /// Of `cpu_busy`, pure overhead.
    pub overhead: SimDuration,
    /// Processes that ran in this group.
    pub processes: usize,
    /// Requests they issued.
    pub ios_issued: u64,
    /// The group's cache partition statistics.
    pub cache: CacheStats,
    /// The group's disk-farm totals.
    pub disk_totals: DeviceStats,
}

/// Whole-cluster outcome of a sharded run. Every field is a pure
/// function of the simulated cluster (groups, traces, config) — nothing
/// depends on the shard count or thread scheduling, so serializing this
/// struct yields byte-identical JSON at any shard count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Number of groups simulated.
    pub n_groups: usize,
    /// Total CPUs across the cluster.
    pub n_cpus: usize,
    /// Barrier spacing used.
    pub epoch: SimDuration,
    /// Epoch barriers the coordinator ran.
    pub epochs: u64,
    /// Processes admitted by the global scheduler.
    pub admissions: u64,
    /// Shared-file requests routed cross-group.
    pub remote_ops: u64,
    /// Bytes moved by those requests.
    pub remote_bytes: u64,
    /// When the cluster's last process finished.
    pub wall_end: SimTime,
    /// Summed CPU busy time.
    pub cpu_busy: SimDuration,
    /// Summed CPU idle time.
    pub cpu_idle: SimDuration,
    /// Summed scheduling/FS overhead.
    pub overhead: SimDuration,
    /// Processes simulated across all groups.
    pub total_processes: usize,
    /// Requests issued across all groups.
    pub ios_issued: u64,
    /// Cluster-wide cache statistics (sum of the partitions).
    pub cache: CacheStats,
    /// Cluster-wide disk totals.
    pub disk_totals: DeviceStats,
    /// Merged per-subsystem observability counters.
    pub obs: obs::ObsReport,
    /// Per-group breakdown, in group order.
    pub groups: Vec<GroupSummary>,
}

impl ClusterReport {
    /// Cluster CPU utilization: summed busy time over summed per-group
    /// capacity (each group's CPUs x its own wall clock).
    pub fn utilization(&self) -> f64 {
        let per_group_cpus = self.n_cpus.checked_div(self.n_groups).unwrap_or(0);
        let capacity: u64 = self
            .groups
            .iter()
            .map(|g| g.wall_end.ticks() * per_group_cpus.max(1) as u64)
            .sum();
        if capacity == 0 {
            return 0.0;
        }
        self.cpu_busy.ticks() as f64 / capacity as f64
    }
}

impl ShardedSimulation {
    /// An empty cluster for `cfg`.
    pub fn new(cfg: ShardedConfig) -> ShardedSimulation {
        cfg.base.validate();
        assert!(cfg.max_active != Some(0), "max_active of 0 can never admit anything");
        ShardedSimulation { cfg, parked: VecDeque::new() }
    }

    /// The configured number of groups.
    pub fn groups(&self) -> usize {
        self.cfg.groups
    }

    /// Queue a process on `group`, replaying `trace`. Processes are
    /// admitted FIFO under the [`ShardedConfig::max_active`] cap; pids
    /// must be unique *within a group* (each group is its own pid/file
    /// namespace).
    ///
    /// # Errors
    ///
    /// * [`AddProcessError::UnknownGroup`] — `group >= self.groups()`.
    /// * [`AddProcessError::PidTooWide`], [`AddProcessError::DuplicatePid`],
    ///   [`AddProcessError::FileIdTooWide`] — same contract as
    ///   [`Simulation::add_process`], with the duplicate check covering
    ///   processes already queued on the group (admission would otherwise
    ///   collide mid-run, after the pid namespacing). The cluster is
    ///   unchanged on error.
    pub fn add_process(
        &mut self,
        group: usize,
        pid: u32,
        name: impl Into<String>,
        trace: &Trace,
    ) -> Result<(), AddProcessError> {
        let events = trace.events().copied().collect();
        self.add_process_feed(group, pid, name, ProcessFeed::Shared(events))
    }

    /// Queue a process replaying `feed`: a shared slice, or a streaming
    /// source (each queued process needs its own cursor; cursors over
    /// the same spilled trace share decoded blocks at the storage
    /// layer). Copies nothing; [`ShardedSimulation::add_process`] is the
    /// copying path for a hand-built [`Trace`].
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardedSimulation::add_process`].
    pub fn add_process_feed(
        &mut self,
        group: usize,
        pid: u32,
        name: impl Into<String>,
        feed: ProcessFeed,
    ) -> Result<(), AddProcessError> {
        if group >= self.cfg.groups {
            return Err(AddProcessError::UnknownGroup(group));
        }
        if pid >= 1 << 16 {
            return Err(AddProcessError::PidTooWide(pid));
        }
        if self.parked.iter().any(|q| q.group == group && q.pid == pid) {
            return Err(AddProcessError::DuplicatePid(pid));
        }
        if let Some(file_id) = feed.oversized_file_id() {
            return Err(AddProcessError::FileIdTooWide { pid, file_id });
        }
        self.parked.push_back(Parked { group, pid, name: name.into(), feed });
        Ok(())
    }

    /// Run the cluster on `shards` worker threads and report.
    ///
    /// `shards` is an execution knob only: it is clamped to
    /// `[1, groups]`, and every value produces the same report.
    /// `shards == 1` runs inline on the calling thread with no pool.
    pub fn run(self, shards: usize) -> ClusterReport {
        let ShardedSimulation { cfg, mut parked } = self;
        let clock = EpochClock::new(cfg.epoch);
        let mut sims: Vec<Simulation> =
            (0..cfg.groups).map(|_| Simulation::new(cfg.base.clone())).collect();
        for sim in &mut sims {
            sim.enable_cluster();
            sim.start();
        }
        let cells: Vec<Mutex<Simulation>> = sims.into_iter().map(Mutex::new).collect();
        let shards = shards.clamp(1, cfg.groups);

        let stats = if shards <= 1 {
            coordinate(&cells, clock, &mut parked, cfg.max_active, |t| {
                for cell in &cells {
                    lock(cell).advance_until(t);
                }
            })
        } else {
            // A persistent pool, two rendezvous per epoch: the first
            // releases the workers into the epoch, the second hands the
            // barrier back to the coordinator. Same shape as
            // `experiments::par_sweep`, but with sticky group->shard
            // assignment instead of work stealing — stickiness keeps each
            // group's cache partition and wheel hot in one core's cache.
            let rendezvous = Barrier::new(shards + 1);
            let target = AtomicU64::new(0);
            let running = AtomicBool::new(true);
            std::thread::scope(|scope| {
                for w in 0..shards {
                    let (cells, rendezvous, target, running) =
                        (&cells, &rendezvous, &target, &running);
                    scope.spawn(move || {
                        let track = obs::enabled()
                            .then(|| obs::register_track(obs::Domain::Host, format!("shard{w}")));
                        let mut epoch_idx = 0u64;
                        loop {
                            rendezvous.wait();
                            if !running.load(Ordering::Acquire) {
                                break;
                            }
                            let t = SimTime::from_ticks(target.load(Ordering::Acquire));
                            let t0 = obs::host_now_ns();
                            for (g, cell) in cells.iter().enumerate() {
                                if g % shards == w {
                                    lock(cell).advance_until(t);
                                }
                            }
                            if let Some(track) = track {
                                let t1 = obs::host_now_ns();
                                obs::complete(
                                    track,
                                    "epoch",
                                    t0,
                                    t1.saturating_sub(t0),
                                    Some(epoch_idx),
                                );
                            }
                            epoch_idx += 1;
                            rendezvous.wait();
                        }
                    });
                }
                let stats = coordinate(&cells, clock, &mut parked, cfg.max_active, |t| {
                    target.store(t.ticks(), Ordering::Release);
                    rendezvous.wait();
                    rendezvous.wait();
                });
                running.store(false, Ordering::Release);
                rendezvous.wait();
                stats
            })
        };

        // Serial fold in group order: the aggregation order is part of
        // the byte-identity guarantee.
        let mut report = ClusterReport {
            n_groups: cfg.groups,
            n_cpus: cfg.groups * cfg.base.n_cpus,
            epoch: clock.epoch(),
            epochs: stats.epochs,
            admissions: stats.admissions,
            remote_ops: stats.remote_ops,
            remote_bytes: stats.remote_bytes,
            wall_end: SimTime::ZERO,
            cpu_busy: SimDuration::ZERO,
            cpu_idle: SimDuration::ZERO,
            overhead: SimDuration::ZERO,
            total_processes: 0,
            ios_issued: 0,
            cache: CacheStats::default(),
            disk_totals: DeviceStats::default(),
            obs: obs::ObsReport::default(),
            groups: Vec::with_capacity(cfg.groups),
        };
        let mut group_timelines = Vec::new();
        for cell in cells {
            let mut sim = cell.into_inner().expect("group lock");
            if let Some(tl) = sim.take_timeline() {
                group_timelines.push(tl);
            }
            let r = sim.finalize();
            let ios: u64 = r.processes.iter().map(|p| p.ios_issued).sum();
            report.wall_end = report.wall_end.max(r.wall_end);
            report.cpu_busy += r.cpu_busy;
            report.cpu_idle += r.cpu_idle;
            report.overhead += r.overhead;
            report.total_processes += r.processes.len();
            report.ios_issued += ios;
            report.cache.merge(&r.cache);
            report.disk_totals.merge(&r.disk_totals);
            report.obs.merge(&r.obs);
            report.groups.push(GroupSummary {
                wall_end: r.wall_end,
                cpu_busy: r.cpu_busy,
                cpu_idle: r.cpu_idle,
                overhead: r.overhead,
                processes: r.processes.len(),
                ios_issued: ios,
                cache: r.cache,
                disk_totals: r.disk_totals,
            });
        }
        // One cluster-aggregate timeline per run: groups advance through
        // the same barrier grid, so their series align; merge order is
        // group order — deterministic at any shard count.
        if let Some(tl) = obs::timeline::merge(group_timelines) {
            obs::timeline::publish(tl);
        }
        report
    }
}

fn lock<'a>(cell: &'a Mutex<Simulation>) -> std::sync::MutexGuard<'a, Simulation> {
    cell.lock().expect("group lock poisoned")
}

/// The serial heart of a sharded run. `advance` moves every group up to
/// the given barrier (inline or via the pool); everything else here runs
/// on one thread in an order that depends only on simulation state.
fn coordinate<F>(
    cells: &[Mutex<Simulation>],
    clock: EpochClock,
    parked: &mut VecDeque<Parked>,
    max_active: Option<usize>,
    mut advance: F,
) -> CoordStats
where
    F: FnMut(SimTime),
{
    let n_groups = cells.len();
    let cap = max_active.unwrap_or(usize::MAX).max(1);
    let mut active = 0usize;
    let mut stats = CoordStats::default();
    let mut batch: Vec<(SimTime, u64, usize, OutMsg)> = Vec::new();
    let mut barrier = SimTime::ZERO;

    admit_ready(cells, parked, &mut active, cap, SimTime::ZERO, &mut stats);
    loop {
        let min = cells.iter().filter_map(|c| lock(c).peek_next_time()).min();
        if let Some(min) = min {
            barrier = clock.next_barrier(min);
            stats.epochs += 1;
            advance(barrier);
        } else if parked.is_empty() {
            break;
        }
        // Deterministic cross-group merge: collect every outbox, order by
        // (time, seq, group), service at the barrier.
        batch.clear();
        for (g, cell) in cells.iter().enumerate() {
            lock(cell).drain_outbox(g, &mut batch);
        }
        let drained = batch.len();
        batch.sort_unstable_by_key(|&(t, seq, g, _)| (t, seq, g));
        for &(_, _, g, msg) in batch.iter() {
            match msg {
                OutMsg::Done => active = active.saturating_sub(1),
                OutMsg::RemoteIo { slot, file_id, offset, length, kind, sync } => {
                    let owner = range_owner(file_id, offset, n_groups);
                    let d = lock(&cells[owner]).service_remote(barrier, kind, file_id, offset, length);
                    stats.remote_ops += 1;
                    stats.remote_bytes += length;
                    if sync {
                        lock(&cells[g]).complete_remote(slot, barrier + d);
                    }
                }
            }
        }
        admit_ready(cells, parked, &mut active, cap, barrier, &mut stats);
        if min.is_none() && drained == 0 {
            // Queues empty, nothing arrived, yet processes are parked:
            // the admission scheduler can never make progress again.
            assert!(
                parked.is_empty(),
                "sharded run stalled with {} parked processes (active {active}, cap {cap})",
                parked.len()
            );
            break;
        }
    }
    stats
}

/// Admit parked processes FIFO while the global cap has room.
fn admit_ready(
    cells: &[Mutex<Simulation>],
    parked: &mut VecDeque<Parked>,
    active: &mut usize,
    cap: usize,
    now: SimTime,
    stats: &mut CoordStats,
) {
    while *active < cap {
        let Some(p) = parked.pop_front() else { return };
        lock(&cells[p.group])
            .admit_process_at(now, p.pid, p.name, p.feed)
            .expect("process validated when queued");
        *active += 1;
        stats.admissions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SHARED_FILE_BIT;
    use iotrace::{Direction, IoEvent, Synchrony};
    use sim_core::units::{KB, MB};

    fn reader_trace(n: u64, io: u64, gap: SimDuration) -> Trace {
        let mut t = Trace::new();
        let mut wall = SimTime::ZERO;
        for i in 0..n {
            wall += gap;
            t.push(IoEvent::logical(Direction::Read, 1, 1, i * io, io, wall, gap));
        }
        t
    }

    fn shared_reader_trace(n: u64, io: u64, gap: SimDuration) -> Trace {
        let mut t = Trace::new();
        let mut wall = SimTime::ZERO;
        for i in 0..n {
            wall += gap;
            let mut e = IoEvent::logical(
                Direction::Read,
                1,
                SHARED_FILE_BIT | 3,
                i * io,
                io,
                wall,
                gap,
            );
            e.sync = Synchrony::Sync;
            t.push(e);
        }
        t
    }

    fn small_cluster() -> ShardedSimulation {
        let mut cfg = ShardedConfig::new(3, SimConfig::buffered(4 * MB));
        cfg.epoch = SimDuration::from_millis(50);
        let mut c = ShardedSimulation::new(cfg);
        for g in 0..3 {
            for p in 0..4u32 {
                c.add_process(
                    g,
                    p + 1,
                    format!("g{g}p{p}"),
                    &reader_trace(40, 64 * KB, SimDuration::from_millis(3)),
                )
                .expect("valid");
            }
        }
        c.add_process(1, 99, "sharer", &shared_reader_trace(25, 64 * KB, SimDuration::from_millis(4)))
            .expect("valid");
        c
    }

    #[test]
    fn shard_count_cannot_change_the_report() {
        let json: Vec<String> = [1usize, 2, 3]
            .iter()
            .map(|&s| serde_json::to_string(&small_cluster().run(s)).expect("serializes"))
            .collect();
        assert_eq!(json[0], json[1]);
        assert_eq!(json[0], json[2]);
        // Oversized shard counts clamp to the group count.
        let big = serde_json::to_string(&small_cluster().run(64)).expect("serializes");
        assert_eq!(json[0], big);
    }

    #[test]
    fn single_group_cluster_matches_plain_simulation() {
        // With one group, no shared files, and no admission cap, the
        // epoch-chunked engine must reproduce Simulation::run exactly.
        let trace_a = reader_trace(60, 128 * KB, SimDuration::from_millis(2));
        let trace_b = reader_trace(45, 64 * KB, SimDuration::from_millis(3));
        let plain = {
            let mut sim = Simulation::new(SimConfig::buffered(8 * MB));
            sim.add_process(1, "a", &trace_a).expect("valid");
            sim.add_process(2, "b", &trace_b).expect("valid");
            sim.run()
        };
        let mut cluster =
            ShardedSimulation::new(ShardedConfig::new(1, SimConfig::buffered(8 * MB)));
        cluster.add_process(0, 1, "a", &trace_a).expect("valid");
        cluster.add_process(0, 2, "b", &trace_b).expect("valid");
        let sharded = cluster.run(1);
        assert_eq!(sharded.wall_end, plain.wall_end);
        assert_eq!(sharded.cpu_busy, plain.cpu_busy);
        assert_eq!(sharded.cpu_idle, plain.cpu_idle);
        assert_eq!(sharded.overhead, plain.overhead);
        assert_eq!(sharded.ios_issued, plain.processes.iter().map(|p| p.ios_issued).sum::<u64>());
        assert_eq!(sharded.cache.hit_blocks, plain.cache.hit_blocks);
        assert_eq!(sharded.disk_totals.total_bytes(), plain.disk_totals.total_bytes());
        assert_eq!(sharded.obs.scheduler, plain.obs.scheduler);
    }

    #[test]
    fn admission_cap_limits_concurrency_and_admits_everyone() {
        let mut cfg = ShardedConfig::new(2, SimConfig::buffered(4 * MB));
        cfg.max_active = Some(3);
        cfg.epoch = SimDuration::from_millis(20);
        let mut c = ShardedSimulation::new(cfg);
        for g in 0..2 {
            for p in 0..5u32 {
                c.add_process(g, p + 1, format!("g{g}p{p}"), &reader_trace(20, 64 * KB, SimDuration::from_millis(2)))
                    .expect("valid");
            }
        }
        let r = c.run(2);
        assert_eq!(r.total_processes, 10, "every parked process must eventually run");
        assert_eq!(r.admissions, 10);
        assert_eq!(r.ios_issued, 10 * 20);
        // Later admissions stagger the finishes, so the cluster runs
        // longer than an uncapped run would.
        assert!(r.epochs > 1);
    }

    #[test]
    fn shared_files_generate_remote_traffic() {
        let r = small_cluster().run(3);
        assert_eq!(r.remote_ops, 25);
        assert_eq!(r.remote_bytes, 25 * 64 * KB);
        // The sharer blocked on every remote read (sync, cross-group).
        assert!(r.obs.scheduler.sync_blocks >= 25);
    }

    #[test]
    fn parked_pid_collision_is_an_error_not_a_panic() {
        // Regression: a second process with the same pid on the same
        // group used to surface only at admission time, mid-run, where
        // the engine's Result had nowhere to go but a panic. The
        // duplicate must be rejected up front, leaving the cluster
        // usable.
        let mut c = ShardedSimulation::new(ShardedConfig::new(2, SimConfig::buffered(4 * MB)));
        let t = reader_trace(5, 4 * KB, SimDuration::from_millis(1));
        c.add_process(0, 7, "first", &t).expect("valid");
        assert_eq!(c.add_process(0, 7, "dup", &t), Err(AddProcessError::DuplicatePid(7)));
        // Same pid on a DIFFERENT group is fine: groups are separate
        // namespaces.
        c.add_process(1, 7, "other-group", &t).expect("valid");
        let r = c.run(1);
        assert_eq!(r.total_processes, 2);
    }

    #[test]
    fn unknown_group_rejected() {
        let mut c = ShardedSimulation::new(ShardedConfig::new(2, SimConfig::buffered(4 * MB)));
        let t = reader_trace(1, KB, SimDuration::from_millis(1));
        assert_eq!(c.add_process(2, 1, "oops", &t), Err(AddProcessError::UnknownGroup(2)));
        assert!(format!("{}", AddProcessError::UnknownGroup(2)).contains("group 2"));
    }

    #[test]
    fn empty_cluster_reports_zeroes() {
        let r = ShardedSimulation::new(ShardedConfig::new(4, SimConfig::buffered(4 * MB))).run(2);
        assert_eq!(r.total_processes, 0);
        assert_eq!(r.epochs, 0);
        assert_eq!(r.wall_end, SimTime::ZERO);
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    fn empty_trace_processes_count_toward_admissions() {
        let mut cfg = ShardedConfig::new(1, SimConfig::buffered(4 * MB));
        cfg.max_active = Some(1);
        let mut c = ShardedSimulation::new(cfg);
        c.add_process(0, 1, "empty", &Trace::new()).expect("valid");
        c.add_process(0, 2, "real", &reader_trace(3, 4 * KB, SimDuration::from_millis(1)))
            .expect("valid");
        let r = c.run(1);
        assert_eq!(r.total_processes, 2);
        assert_eq!(r.admissions, 2);
        assert_eq!(r.ios_issued, 3);
    }
}
