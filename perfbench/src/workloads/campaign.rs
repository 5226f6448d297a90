//! `campaign_streamed`: a datacenter campaign through the sharded engine,
//! its application traces replayed from spilled `stream_v2` frame files.
//!
//! `CampaignSpec::datacenter(2, 8)` with a shared-file reader every 8
//! processes: 2 groups, each running the seven paper applications once —
//! write-dominated gcm and upw beside the readers — and one shared-file
//! reader routed through the coordinator, behind 2 MB cache partitions.
//! The trace store has a 16 MB budget and a fresh spill directory, so
//! every replay decodes frame blocks. This is where the layers the fig8
//! workloads bypass do their work: frame decode, store residency, the
//! epoch loop and the coordinator merge.
//!
//! A campaign this size takes about 0.15 s, short enough that some of
//! its repetitions in a window run in one of the host's fast spells (see
//! [`Window`]); a campaign of 28 processes per group takes 0.6 s, and its
//! fastest repetition still moved by a quarter between runs.
//!
//! The timed campaigns run on one shard. Two shards put three threads
//! (two shards and the coordinator) through two barriers per epoch on
//! the host's two vCPUs; with other tenants on the host that makes one
//! campaign's time swing by a quarter from run to run, too much to gate
//! on. A traced run also runs the last campaign on two shards from a
//! resident store, checks the bytes match, and prints both times.

use super::{
    feed_len, trace_keys, trace_seed, Point, Proc, RunOptions, Sample, Setup, Steps, Window,
};
use crate::check::{fnv1a, Checker};
use crate::metrics::{RunReport, END_TO_END, PER_LAYER};
use crate::spans::SpanId;
use experiments::{run_campaign_in, CampaignSpec, Scale, StoreConfig, TraceStore};
use iosim::{ClusterReport, SimConfig};
use std::time::Instant;
use workload::ALL_APPS;

const MB: usize = 1024 * 1024;

/// Engine shards of every benchmark campaign, timed or served.
pub const SHARDS: usize = 1;

/// Shards of a traced run's cross-check of the last campaign.
const CROSS_CHECK_SHARDS: usize = 2;

/// A campaign's size and how it runs.
#[derive(Debug, Clone)]
pub struct CampaignShape {
    /// Node groups.
    pub groups: usize,
    /// Processes per group.
    pub procs: usize,
    /// Trace scale divisor.
    pub scale: Scale,
    /// One process in this many is a shared-file reader.
    pub shared_file_every: usize,
    /// Trace-store memory budget, bytes.
    pub mem_budget: usize,
    /// Trace seeds a run rotates through (see [`trace_seed`]).
    pub seeds: usize,
}

impl CampaignShape {
    /// The benchmark's campaign: 2 x 8 at scale 16 with one reader per
    /// group, 16 MB, two trace seeds.
    pub fn benchmark() -> CampaignShape {
        CampaignShape {
            groups: 2,
            procs: 8,
            scale: Scale(16),
            shared_file_every: 8,
            mem_budget: 16 * MB,
            seeds: 2,
        }
    }

    /// The campaign spec for trace seed `seed`.
    pub fn spec(&self, seed: u64) -> CampaignSpec {
        let mut spec = CampaignSpec::datacenter(self.groups, self.procs);
        spec.scale = self.scale;
        spec.shared_file_every = self.shared_file_every;
        spec.seed = seed;
        spec
    }

    /// Input key used by the output checks.
    pub fn key(&self, seed: u64) -> String {
        format!(
            "{}x{}/scale{}/seed{seed}",
            self.groups, self.procs, self.scale.0
        )
    }

    /// The roster's application processes, as `run_campaign_in` stocks
    /// every group: slot `j` replays `ALL_APPS[j % 7]` as pid `j + 1`,
    /// except every `shared_file_every`-th slot, a shared-file reader.
    pub fn roster(&self, seed: u64) -> Vec<Proc> {
        let spec = self.spec(seed);
        (0..spec.procs_per_group)
            .filter(|j| spec.shared_file_every == 0 || (j + 1) % spec.shared_file_every != 0)
            .map(|j| {
                let kind = ALL_APPS[j % ALL_APPS.len()];
                Proc {
                    pid: (j + 1) as u32,
                    name: format!("{}#{j}", kind.name()),
                    kind,
                    seed,
                }
            })
            .collect()
    }

    /// One group as a standalone simulation: its cache partition and
    /// disk, and the roster's application processes. Shared-file readers
    /// need the cluster coordinator and are left out.
    pub fn group_point(&self, seed: u64) -> Point {
        let spec = self.spec(seed);
        let cache =
            buffer_cache::CacheConfig::buffered(spec.cache_budget).partitioned(spec.groups.max(1));
        Point {
            key: format!("{}/group", self.key(seed)),
            config: SimConfig {
                cache: Some(cache),
                n_disks: spec.disks_per_group.max(1),
                ..Default::default()
            },
            procs: self.roster(seed),
            scale: self.scale,
        }
    }

    /// I/Os the campaign must issue: every roster trace once per group,
    /// plus every shared reader's reads.
    pub fn expected_ios(&self, seed: u64, store: &TraceStore) -> u64 {
        let spec = self.spec(seed);
        let roster = self.roster(seed);
        let apps: u64 = roster
            .iter()
            .map(|p| feed_len(&store.feed(p.kind, p.pid, seed, self.scale)))
            .sum();
        let readers = (spec.procs_per_group - roster.len()) as u64;
        spec.groups as u64 * (apps + readers * spec.reads_per_shared.max(1) as u64)
    }
}

/// A cluster report's invariants: the expected I/O count, group sums
/// that match the cluster totals, every process admitted, each group's
/// CPU time conserved, and every accessed cache block a hit or a miss.
fn cluster_invariants(r: &ClusterReport, expected_ios: u64) -> Result<(), String> {
    if r.ios_issued != expected_ios {
        return Err(format!(
            "{} I/Os issued, {expected_ios} expected",
            r.ios_issued
        ));
    }
    let group_ios: u64 = r.groups.iter().map(|g| g.ios_issued).sum();
    if group_ios != r.ios_issued {
        return Err(format!(
            "groups issued {group_ios} I/Os, cluster reports {}",
            r.ios_issued
        ));
    }
    if r.admissions != r.total_processes as u64 {
        return Err(format!(
            "{} admissions for {} processes",
            r.admissions, r.total_processes
        ));
    }
    let cpus = (r.n_cpus / r.n_groups.max(1)).max(1) as u64;
    if let Some(g) = r
        .groups
        .iter()
        .find(|g| (g.cpu_busy.ticks() + g.cpu_idle.ticks()).abs_diff(g.wall_end.ticks() * cpus) > 1)
    {
        return Err(format!(
            "group busy {} + idle {} != wall {}",
            g.cpu_busy.ticks(),
            g.cpu_idle.ticks(),
            g.wall_end.ticks()
        ));
    }
    let c = &r.cache;
    if c.hit_blocks + c.miss_blocks != c.accessed_blocks {
        return Err(format!(
            "{} hits + {} misses != {} accessed blocks",
            c.hit_blocks, c.miss_blocks, c.accessed_blocks
        ));
    }
    Ok(())
}

/// A budgeted store spilling into a fresh `dir`.
fn spilling_store(shape: &CampaignShape, dir: std::path::PathBuf) -> TraceStore {
    let _ = std::fs::remove_dir_all(&dir);
    TraceStore::with_config(StoreConfig {
        mem_budget: Some(shape.mem_budget),
        spill_dir: Some(dir),
    })
}

/// Run `campaign_streamed`: set up (generate and spill the roster's
/// traces into a fresh directory), then run campaigns, rotating through
/// the trace seeds, until the window closes, repeating the set-up as
/// [`Setup`] spreads it.
pub fn run(shape: &CampaignShape, opts: &RunOptions) -> RunReport {
    const NAME: &str = "campaign_streamed";
    let spans = &opts.spans;
    let seeds: Vec<u64> = (0..shape.seeds).map(|k| trace_seed(opts.seed, k)).collect();
    let mut checker = Checker::new(NAME, opts.seed, &opts.golden);

    // The first repetition's store serves the window; the later ones
    // share one directory, emptied each time.
    let mut setup = Setup::new(|rep, steps: &mut Steps, _: &mut Checker, _| {
        let dir = if rep == 0 { "spill" } else { "spill-again" };
        let store = spilling_store(shape, opts.run_dir.join(dir));
        for p in seeds.iter().flat_map(|&s| shape.roster(s)) {
            steps.time(|| drop(store.feed(p.kind, p.pid, p.seed, shape.scale)));
        }
        store
    });
    let store = setup.rep(spans, &mut checker);
    let expected: Vec<u64> = seeds
        .iter()
        .map(|&s| shape.expected_ios(s, &store))
        .collect();

    // One unit is a rotation: one campaign per trace seed.
    let mut window = Window::default();
    let t0 = Instant::now();
    let mut id = 0;
    let mut last = None;
    while window.units.is_empty() || t0.elapsed().as_secs_f64() < opts.seconds {
        if setup.due(t0.elapsed().as_secs_f64(), opts.seconds) {
            drop(setup.rep(spans, &mut checker));
        }
        let mut unit = Vec::with_capacity(seeds.len());
        for (k, &seed) in seeds.iter().enumerate() {
            let kernel_s = window.kernel.run();
            let span = spans.open("campaign", SpanId::NONE, id);
            let t = Instant::now();
            let report = spans.scope("run", span, id, |_| {
                run_campaign_in(&store, &shape.spec(seed), SHARDS)
            });
            let json = spans.scope("serialize", span, id, |_| {
                serde_json::to_string(&report).expect("report serializes")
            });
            let elapsed = t.elapsed().as_secs_f64();
            spans.close(span);
            checker.check(
                &shape.key(seed),
                fnv1a(json.as_bytes()),
                cluster_invariants(&report, expected[k]),
            );
            unit.push(Sample {
                latency_s: elapsed,
                ios: report.ios_issued,
                kernel_s,
            });
            last = Some((seed, report, json, elapsed));
            id += 1;
        }
        window.units.push(unit);
    }
    while setup.due(f64::INFINITY, opts.seconds) {
        drop(setup.rep(spans, &mut checker));
    }
    let (seed, report, json, timed_s) = last.expect("the window runs at least one campaign");
    let peak_store_mb = store.footprint().peak_bytes as f64 / MB as f64;

    if !opts.traced() {
        let values = window.end_to_end(&setup, Some(crate::heap::peak_bytes()));
        return RunReport {
            attempted: checker.attempted,
            failed: checker.failed,
            catalog: END_TO_END,
            values,
        };
    }

    // The same campaign on two shards from a resident store must give the
    // same bytes at any shard count and in either replay mode.
    let t = Instant::now();
    let again = spans.scope(
        "campaign_cross_check",
        SpanId::NONE,
        CROSS_CHECK_SHARDS as u64,
        |_| {
            serde_json::to_string(&run_campaign_in(
                &TraceStore::new(),
                &shape.spec(seed),
                CROSS_CHECK_SHARDS,
            ))
            .expect("report serializes")
        },
    );
    let other_s = t.elapsed().as_secs_f64();
    let digest_matches = fnv1a(again.as_bytes()) == fnv1a(json.as_bytes());
    checker.record(
        &shape.key(seed),
        (!digest_matches).then(|| {
            format!(
                "{CROSS_CHECK_SHARDS}-shard resident report differs from the {SHARDS}-shard streamed one"
            )
        }),
    );
    eprintln!(
        "perfbench: campaign {}: {SHARDS} shard(s) streamed {timed_s:.3} s, \
         {CROSS_CHECK_SHARDS} shard(s) resident {other_s:.3} s; {} epochs, {:.1} us per epoch",
        shape.key(seed),
        report.epochs,
        timed_s * 1e6 / report.epochs.max(1) as f64,
    );

    let mut values = window.traced();
    let ios = report.ios_issued.max(1) as f64;
    values.set("sharded.epochs_per_mio", report.epochs as f64 * 1e6 / ios);
    values.set(
        "sharded.remote_ops_per_kio",
        report.remote_ops as f64 * 1e3 / ios,
    );
    let group = [shape.group_point(seed)];
    values.extend(crate::layers::single_node(&group, &store, spans));
    values.extend(crate::layers::traces(
        &trace_keys(&group),
        &opts.run_dir,
        spans,
    ));
    values.set("trace_store.peak_mb", peak_store_mb);
    values.extend(crate::layers::obs_overhead(&group, &store, spans, 3));
    values.extend(crate::layers::bypassed(&crate::layers::SERVE));
    RunReport {
        attempted: checker.attempted,
        failed: checker.failed,
        catalog: PER_LAYER,
        values,
    }
}
