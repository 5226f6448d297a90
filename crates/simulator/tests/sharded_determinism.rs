//! The sharded engine's headline contract: the report is a pure
//! function of the simulated cluster, never of the shard count. These
//! tests pin it bytewise — `serde_json::to_string(&ClusterReport)` must
//! be identical at shard counts {1, 2, 3, 7, 16} for arbitrary
//! well-formed workload mixes — plus the nastiest epoch alignment: a
//! barrier landing exactly on a timing-wheel level boundary.

use iosim::{DeviceSpec, ShardedConfig, ShardedSimulation, SimConfig, SHARED_FILE_BIT};
use iotrace::{Direction, IoEvent, Synchrony, Trace};
use proptest::prelude::*;
use sim_core::units::KB;
use sim_core::{SimDuration, SimTime};
use storage_model::{DiskParams, NvmeParams, TieredParams};

/// The device farms the invariance contract covers: the paper's
/// unqueued disk, FIFO and elevator queueing disks, the
/// NVMe multi-queue flash device, and the tiered hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DeviceKind {
    Paper,
    QueueingFifo,
    Elevator,
    Nvme,
    Tiered,
}

impl DeviceKind {
    fn spec(self) -> DeviceSpec {
        match self {
            DeviceKind::Paper => DeviceSpec::Disk(DiskParams::ymp()),
            DeviceKind::QueueingFifo => DeviceSpec::Disk(DiskParams::ymp_with_queueing()),
            DeviceKind::Elevator => DeviceSpec::Disk(DiskParams::ymp_with_elevator()),
            DeviceKind::Nvme => DeviceSpec::Nvme(NvmeParams::modern_2026()),
            DeviceKind::Tiered => DeviceSpec::Tiered(TieredParams::modern_2026()),
        }
    }
}

#[derive(Debug, Clone)]
struct ProcPlan {
    n_ios: u64,
    io_size: u64,
    gap_ms: u64,
    write_fraction: u8, // percent
    async_io: bool,
    shared_file: bool,
}

fn arb_plan() -> impl Strategy<Value = ProcPlan> {
    (
        1u64..40,
        prop::sample::select(vec![4u64 * KB, 64 * KB, 100_000]),
        0u64..8,
        0u8..=100,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(n_ios, io_size, gap_ms, write_fraction, async_io, shared_file)| ProcPlan {
            n_ios,
            io_size,
            gap_ms,
            write_fraction,
            async_io,
            shared_file,
        })
}

fn build_trace(pid: u32, plan: &ProcPlan) -> Trace {
    let mut t = Trace::new();
    let mut wall = SimTime::ZERO;
    for i in 0..plan.n_ios {
        let gap = SimDuration::from_millis(plan.gap_ms.max(1));
        wall += gap;
        // Shared-file traffic must stay read-only here: writes through
        // the remote path bypass the owner's cache by design, and this
        // test only cares about schedule invariance.
        let dir = if !plan.shared_file
            && (i * 100 / plan.n_ios.max(1)) < plan.write_fraction as u64
        {
            Direction::Write
        } else {
            Direction::Read
        };
        let file = if plan.shared_file { SHARED_FILE_BIT | (pid % 4) } else { 1 + pid % 3 };
        let mut e =
            IoEvent::logical(dir, pid, file, i * plan.io_size, plan.io_size, wall, gap);
        if plan.async_io {
            e.sync = Synchrony::Async;
        }
        t.push(e);
    }
    t
}

fn run_cluster(
    groups: usize,
    plans: &[ProcPlan],
    max_active: Option<usize>,
    epoch: SimDuration,
    shards: usize,
) -> String {
    run_cluster_on(groups, plans, max_active, epoch, shards, DeviceKind::Paper)
}

fn run_cluster_on(
    groups: usize,
    plans: &[ProcPlan],
    max_active: Option<usize>,
    epoch: SimDuration,
    shards: usize,
    device: DeviceKind,
) -> String {
    let mut base = SimConfig::buffered(4 * 1024 * 1024);
    base.device = device.spec();
    let mut cfg = ShardedConfig::new(groups, base);
    cfg.epoch = epoch;
    cfg.max_active = max_active;
    let mut cluster = ShardedSimulation::new(cfg);
    for (i, plan) in plans.iter().enumerate() {
        let pid = (i + 1) as u32;
        cluster
            .add_process(i % groups, pid, format!("p{pid}"), &build_trace(pid, plan))
            .expect("valid process");
    }
    serde_json::to_string(&cluster.run(shards)).expect("serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn report_is_bytewise_shard_count_invariant(
        plans in proptest::collection::vec(arb_plan(), 1..10),
        groups in 1usize..6,
        epoch_ms in prop::sample::select(vec![50u64, 250, 1000]),
        cap in prop::option::of(1usize..6),
    ) {
        let epoch = SimDuration::from_millis(epoch_ms);
        let baseline = run_cluster(groups, &plans, cap, epoch, 1);
        for shards in [2usize, 3, 7, 16] {
            let alt = run_cluster(groups, &plans, cap, epoch, shards);
            prop_assert_eq!(
                &baseline, &alt,
                "report diverged between 1 and {} shards", shards
            );
        }
    }

    #[test]
    fn queue_aware_devices_are_shard_count_invariant(
        plans in proptest::collection::vec(arb_plan(), 1..8),
        groups in 1usize..5,
        device in prop::sample::select(vec![
            DeviceKind::QueueingFifo,
            DeviceKind::Elevator,
            DeviceKind::Nvme,
            DeviceKind::Tiered,
        ]),
    ) {
        let epoch = SimDuration::from_millis(250);
        let baseline = run_cluster_on(groups, &plans, Some(4), epoch, 1, device);
        for shards in [2usize, 7] {
            let alt = run_cluster_on(groups, &plans, Some(4), epoch, shards, device);
            prop_assert_eq!(
                &baseline, &alt,
                "{:?} report diverged between 1 and {} shards", device, shards
            );
        }
    }
}

/// The timing wheel cascades at level boundaries (64^2 = 4096 ticks
/// between level-1 rollovers). Park the epoch barrier exactly on that
/// boundary and give processes tick-exact gaps (1024, 2048, 4096 —
/// some landing *on* barrier ticks, some straddling them) — if barrier
/// handling ever interacted with a cascade (popping a boundary event
/// on one side at one shard count and the other side at another), this
/// is where it would show.
#[test]
fn epoch_on_wheel_level_boundary_is_invariant() {
    let epoch = SimDuration::from_ticks(4096);
    let run = |shards: usize| {
        let mut cfg = ShardedConfig::new(4, SimConfig::buffered(4 * 1024 * 1024));
        cfg.epoch = epoch;
        cfg.max_active = Some(5);
        let mut cluster = ShardedSimulation::new(cfg);
        for (i, gap_ticks) in [512u64, 1024, 2048, 4096, 4096, 3000, 4095, 4097]
            .into_iter()
            .enumerate()
        {
            let pid = (i + 1) as u32;
            let mut t = Trace::new();
            let mut wall = SimTime::ZERO;
            for j in 0..30u64 {
                let gap = SimDuration::from_ticks(gap_ticks);
                wall += gap;
                let dir = if j % 5 == 0 { Direction::Write } else { Direction::Read };
                let file = if i % 3 == 0 { SHARED_FILE_BIT | (pid % 4) } else { 1 + pid % 3 };
                let mut e =
                    IoEvent::logical(dir, pid, file, j * 64 * KB, 64 * KB, wall, gap);
                if i % 2 == 0 {
                    e.sync = Synchrony::Async;
                }
                t.push(e);
            }
            cluster.add_process(i % 4, pid, format!("p{pid}"), &t).expect("valid process");
        }
        serde_json::to_string(&cluster.run(shards)).expect("serialize")
    };
    let baseline = run(1);
    for shards in [2usize, 3, 4] {
        assert_eq!(baseline, run(shards), "wheel-boundary epoch diverged at {shards} shards");
    }
}
