//! The fig6–8 questions rerun on 2026 hardware (`--devices modern`).
//!
//! The paper's headline buffering result (§6.3) is that a big enough
//! cache — the SSD used as one — drives CPU utilization above 99%
//! because the Y-MP's disks, not its CPU, were the bottleneck. On 2026
//! hardware the ratio flips: the CPU is ~500× faster while the storage
//! hierarchy (NVMe burst buffer over nearline disk over tape) is only
//! ~30–700× faster depending on tier, and cold data now pays a robot
//! mount. This module reruns the Figure 8 cache sweep under both
//! parameter sets and reports whether the ">99% with a big SSD" claim
//! survives when the flash is the *fast* tier of a deep hierarchy
//! rather than the whole store.
//!
//! Era configs:
//!
//! * **1991** — the paper-faithful setup every figure uses: Y-MP disks,
//!   no queueing, trace compute gaps replayed untouched.
//! * **2026** — the same traced workload on a [`TieredParams::modern_2026`]
//!   hierarchy (queue-aware NVMe + elevator disk + LTO tape) with
//!   compute gaps divided by [`MODERN_CPU_SPEEDUP`].
//!
//! The comparison also embeds a small sharded cluster run on the modern
//! devices: the CI guard re-runs it at `--shards 1` and `--shards 4`
//! and `cmp`s the JSON, extending the byte-identical contract to the
//! queue-aware models.

use crate::config::RunConfig;
use crate::par_sweep::par_sweep;
use crate::runner::Scale;
use crate::trace_store::TraceStore;
use buffer_cache::WritePolicy;
use iosim::{ClusterReport, DeviceSpec, ShardedConfig, ShardedSimulation, SimConfig, SimReport, Simulation};
use iotrace::{Direction, IoEvent, Synchrony, Trace};
use serde::{Deserialize, Serialize};
use sim_core::units::{KB, MB};
use sim_core::{SimDuration, SimTime};
use storage_model::TieredParams;
use workload::AppKind;

/// How much faster a 2026 CPU chews through the traced compute phases
/// than the 1991 Y-MP. Order-of-magnitude: ~3 sustained GFLOPS then,
/// ~1.5 TFLOPS per socket now.
pub const MODERN_CPU_SPEEDUP: u64 = 500;

/// Which parameter set a sweep point ran under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceEra {
    /// Paper-faithful Y-MP devices and CPU.
    Era1991,
    /// Tiered 2026 hierarchy and a 500× CPU.
    Era2026,
}

/// Build the simulator config for one era at one cache size.
pub fn era_config(era: DeviceEra, cache_bytes: u64) -> SimConfig {
    let mut config = SimConfig::buffered(cache_bytes);
    if era == DeviceEra::Era2026 {
        config.devices = Some(DeviceSpec::Tiered(TieredParams::modern_2026()));
        config.cpu_speedup = MODERN_CPU_SPEEDUP;
    }
    config
}

/// One cache size, one era.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EraPoint {
    /// Cache size in MB.
    pub cache_mb: u64,
    /// Idle seconds (Figure 8's y-axis).
    pub idle_secs: f64,
    /// Wall seconds.
    pub wall_secs: f64,
    /// CPU utilization.
    pub utilization: f64,
}

/// The 1991-vs-2026 answer set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModernComparison {
    /// Fig8-style cache sweep on paper hardware.
    pub era_1991: Vec<EraPoint>,
    /// The same sweep on the tiered 2026 hierarchy.
    pub era_2026: Vec<EraPoint>,
    /// Utilization at the biggest (256 MB, SSD-sized) cache, per era —
    /// the paper's ">99% CPU utilization" claim is `ssd_claim_1991 >
    /// 0.99`; `ssd_claim_2026` is what survives of it.
    pub ssd_claim_1991: f64,
    /// See [`ModernComparison::ssd_claim_1991`].
    pub ssd_claim_2026: f64,
    /// Observability counters merged across every 2026 sweep point:
    /// carries the queue-depth distribution of the NVMe/elevator devices
    /// and the tier traffic split.
    pub modern_obs: obs::ObsReport,
    /// A small sharded cluster run on the modern devices, byte-identical
    /// at any shard count (the CI guard cmp's shards {1,4}).
    pub cluster: ClusterReport,
}

fn venus_pair_report(
    store: &TraceStore,
    cfg: &RunConfig,
    era: DeviceEra,
    cache_mb: u64,
    scale: Scale,
    seed: u64,
) -> SimReport {
    let mut config = era_config(era, cache_mb * MB);
    config.timeline_ns = cfg.timeline_ns;
    {
        let c = config.cache.as_mut().expect("buffered config has a cache");
        c.block_size = 4096;
        c.read_ahead = true;
        c.write_policy = WritePolicy::WriteBehind;
    }
    let mut sim = Simulation::new(config);
    sim.add_process_feed(1, "venus#1", store.feed(AppKind::Venus, 1, seed, scale))
        .expect("valid process");
    sim.add_process_feed(2, "venus#2", store.feed(AppKind::Venus, 2, seed + 1, scale))
        .expect("valid process");
    sim.run()
}

/// A mixed staging workload for the embedded cluster run: sequential
/// writes (burst-buffer checkpoints) interleaved with re-reads.
fn staging_trace(pid: u32, n_ios: u64) -> Trace {
    let mut t = Trace::new();
    let mut wall = SimTime::ZERO;
    for i in 0..n_ios {
        let gap = SimDuration::from_millis(1 + (i % 3));
        wall += gap;
        let dir = if i % 4 == 3 { Direction::Read } else { Direction::Write };
        let mut e = IoEvent::logical(dir, pid, 1 + (pid % 3), (i % 64) * 256 * KB, 256 * KB, wall, gap);
        if i % 5 == 0 {
            e.sync = Synchrony::Async;
        }
        t.push(e);
    }
    t
}

/// The embedded sharded run: 4 groups × 3 staging processes on the
/// modern hierarchy, executed on `shards` worker threads.
fn modern_cluster(scale: Scale, shards: usize, timeline_ns: Option<u64>) -> ClusterReport {
    let mut base = SimConfig { timeline_ns, ..SimConfig::buffered(4 * MB) };
    base.devices = Some(DeviceSpec::Tiered(TieredParams::modern_2026()));
    base.cpu_speedup = MODERN_CPU_SPEEDUP;
    base.n_disks = 2;
    let mut cfg = ShardedConfig::new(4, base);
    cfg.max_active = Some(8);
    let mut cluster = ShardedSimulation::new(cfg);
    let ios = 400 / scale.0.max(1) as u64;
    for i in 0..12u32 {
        let pid = i + 1;
        cluster
            .add_process(i as usize % 4, pid, format!("stage{pid}"), &staging_trace(pid, ios))
            .expect("valid process");
    }
    cluster.run(shards)
}

/// Run the full 1991-vs-2026 comparison: the Figure 8 cache sweep under
/// both eras plus the embedded modern cluster run.
pub fn modern_comparison(
    store: &TraceStore,
    cfg: &RunConfig,
    scale: Scale,
    seed: u64,
) -> ModernComparison {
    let sizes = [4u64, 8, 16, 32, 64, 128, 256];
    let mut jobs = Vec::with_capacity(sizes.len() * 2);
    for era in [DeviceEra::Era1991, DeviceEra::Era2026] {
        for &s in &sizes {
            jobs.push((era, s));
        }
    }
    let reports = par_sweep(cfg.threads, cfg.progress, &jobs, |&(era, cache_mb)| {
        let r = venus_pair_report(store, cfg, era, cache_mb, scale, seed);
        (era, cache_mb, r)
    });

    let mut era_1991 = Vec::new();
    let mut era_2026 = Vec::new();
    let mut modern_obs = obs::ObsReport::default();
    for (era, cache_mb, r) in &reports {
        let point = EraPoint {
            cache_mb: *cache_mb,
            idle_secs: r.idle_secs(),
            wall_secs: r.wall_secs(),
            utilization: r.utilization(),
        };
        match era {
            DeviceEra::Era1991 => era_1991.push(point),
            DeviceEra::Era2026 => {
                modern_obs.merge(&r.obs);
                era_2026.push(point);
            }
        }
    }
    let claim = |points: &[EraPoint]| {
        points.iter().find(|p| p.cache_mb == 256).map(|p| p.utilization).unwrap_or(0.0)
    };
    ModernComparison {
        ssd_claim_1991: claim(&era_1991),
        ssd_claim_2026: claim(&era_2026),
        era_1991,
        era_2026,
        modern_obs,
        cluster: modern_cluster(scale, cfg.shards, cfg.timeline_ns),
    }
}

/// Bench entry: the 2026-era sweep alone, returning total I/Os issued —
/// `repro_bench` times this as `fig8_modern_sweep`, putting the
/// queue-aware device models (NVMe queues, elevator, tier residency) on
/// a gated hot path.
pub fn modern_sweep_ios(store: &TraceStore, cfg: &RunConfig, scale: Scale, seed: u64) -> u64 {
    let sizes = [4u64, 8, 16, 32, 64, 128, 256];
    let reports = par_sweep(cfg.threads, cfg.progress, &sizes, |&mb| {
        venus_pair_report(store, cfg, DeviceEra::Era2026, mb, scale, seed)
    });
    reports
        .iter()
        .map(|r| r.processes.iter().map(|p| p.ios_issued).sum::<u64>())
        .sum()
}

/// Render the comparison as text: the side-by-side sweep table, the
/// claim verdict, and the queue-depth / tier-traffic observability
/// lines.
pub fn render_modern(c: &ModernComparison) -> String {
    use crate::render::{num, TextTable};
    let mut t = TextTable::new(&[
        "cache MB",
        "1991 idle(s)",
        "1991 util%",
        "2026 idle(s)",
        "2026 util%",
    ]);
    for (old, new) in c.era_1991.iter().zip(&c.era_2026) {
        t.row(vec![
            old.cache_mb.to_string(),
            num(old.idle_secs),
            format!("{:.1}", old.utilization * 100.0),
            num(new.idle_secs),
            format!("{:.1}", new.utilization * 100.0),
        ]);
    }
    let mut out = format!(
        "Figure 8 rerun, 1991 Y-MP vs 2026 tiered hierarchy (2 x venus, 4K blocks)\n{}",
        t.render()
    );
    out.push_str(&format!(
        "paper claim (>99% CPU with SSD-sized cache): 1991 {:.1}% — {}; 2026 {:.1}% — {}\n",
        c.ssd_claim_1991 * 100.0,
        if c.ssd_claim_1991 > 0.99 { "holds" } else { "fails" },
        c.ssd_claim_2026 * 100.0,
        if c.ssd_claim_2026 > 0.99 { "holds" } else { "fails" },
    ));
    if let Some(h) = &c.modern_obs.disks.queue_depth {
        out.push_str(&format!(
            "device queue depth seen by arrivals: p50 {} p90 {} p99 {} ({} samples)\n",
            h.quantile(0.5).map(|v| v as u64).unwrap_or(0),
            h.quantile(0.9).map(|v| v as u64).unwrap_or(0),
            h.quantile(0.99).map(|v| v as u64).unwrap_or(0),
            h.total(),
        ));
    }
    if !c.modern_obs.disks.tier_hits.is_empty() {
        out.push_str(&format!(
            "tier traffic [ram, ssd, disk, tape]: {:?}, promotions {}, demotions {}\n",
            c.modern_obs.disks.tier_hits,
            c.modern_obs.disks.tier_promotions,
            c.modern_obs.disks.tier_demotions,
        ));
    }
    out.push_str(&format!(
        "embedded modern cluster: {} processes, {} I/Os, utilization {:.1}%\n",
        c.cluster.total_processes,
        c.cluster.ios_issued,
        c.cluster.utilization() * 100.0,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Scale = Scale(8);

    #[test]
    fn era_configs_differ_only_in_devices_and_cpu() {
        let old = era_config(DeviceEra::Era1991, 32 * MB);
        let new = era_config(DeviceEra::Era2026, 32 * MB);
        assert!(old.devices.is_none());
        assert_eq!(old.cpu_speedup, 1);
        assert!(matches!(new.devices, Some(DeviceSpec::Tiered(_))));
        assert_eq!(new.cpu_speedup, MODERN_CPU_SPEEDUP);
        assert_eq!(
            old.cache.as_ref().unwrap().capacity,
            new.cache.as_ref().unwrap().capacity
        );
    }

    #[test]
    fn comparison_answers_the_claim_question() {
        let c = modern_comparison(&TraceStore::new(), &RunConfig::default(), QUICK, 42);
        assert_eq!(c.era_1991.len(), 7);
        assert_eq!(c.era_2026.len(), 7);
        // The 1991 run reproduces the paper: near-full utilization at the
        // SSD-sized cache.
        assert!(c.ssd_claim_1991 > 0.9, "1991 claim broke: {}", c.ssd_claim_1991);
        // The modern rerun reports the queue-aware observability the
        // paper couldn't: a queue-depth distribution and tier traffic.
        assert!(c.modern_obs.disks.queue_depth.is_some());
        assert!(!c.modern_obs.disks.tier_hits.is_empty());
        let rendered = render_modern(&c);
        assert!(rendered.contains("paper claim"));
        assert!(rendered.contains("queue depth"));
    }

    #[test]
    fn modern_cluster_is_shard_count_invariant() {
        let run = |shards: usize| {
            serde_json::to_string(&modern_cluster(QUICK, shards, None)).expect("serialize")
        };
        assert_eq!(run(1), run(4), "modern cluster diverged across shard counts");
    }
}
