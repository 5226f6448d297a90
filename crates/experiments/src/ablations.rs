//! Ablations over the design choices DESIGN.md calls out: read-ahead,
//! write policy, block size, scheduler quantum, and the paper's admitted
//! disk-queueing simplification.

use crate::config::RunConfig;
use crate::figures::{combined_traffic, fig8_config};
use crate::par_sweep::par_sweep;
use crate::render::{num, pct, TextTable};
use crate::runner::{simulation, Scale, VENUS_PAIR};
use crate::trace_store::TraceStore;
use buffer_cache::WritePolicy;
use iosim::{DeviceSpec, SimConfig, SimReport};
use serde::{Deserialize, Serialize};
use sim_core::units::MB;
use sim_core::SimDuration;
use storage_model::DiskParams;
use trace_analysis::Burstiness;

/// One ablation data point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationPoint {
    /// Variant label.
    pub variant: String,
    /// Idle seconds.
    pub idle_secs: f64,
    /// CPU utilization.
    pub utilization: f64,
    /// Wall seconds.
    pub wall_secs: f64,
}

/// A named ablation sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationSweep {
    /// What is being varied.
    pub name: String,
    /// The data points, in sweep order.
    pub points: Vec<AblationPoint>,
}

impl AblationSweep {
    fn point(label: impl Into<String>, r: &SimReport) -> AblationPoint {
        AblationPoint {
            variant: label.into(),
            idle_secs: r.idle_secs(),
            utilization: r.utilization(),
            wall_secs: r.wall_secs(),
        }
    }
}

/// Read-ahead on/off for 2×venus at 128 MB.
pub fn readahead_ablation(
    store: &TraceStore,
    cfg: &RunConfig,
    scale: Scale,
    seed: u64,
) -> AblationSweep {
    let variants = [("read-ahead on", true), ("read-ahead off", false)];
    let points = par_sweep(cfg.threads, cfg.progress, &variants, |&(label, read_ahead)| {
        let mut config =
            SimConfig { timeline_ns: cfg.timeline_ns, ..SimConfig::buffered(128 * MB) };
        config.cache.as_mut().expect("cache").read_ahead = read_ahead;
        AblationSweep::point(label, &simulation(store, config, &VENUS_PAIR, scale, seed).run())
    });
    AblationSweep { name: "read-ahead".into(), points }
}

/// Write policies: through, behind, and Sprite's 30 s delay.
pub fn write_policy_ablation(
    store: &TraceStore,
    cfg: &RunConfig,
    scale: Scale,
    seed: u64,
) -> AblationSweep {
    let variants = [
        ("write-through", WritePolicy::WriteThrough),
        ("write-behind", WritePolicy::WriteBehind),
        ("sprite 30s delay", WritePolicy::sprite()),
    ];
    let points = par_sweep(cfg.threads, cfg.progress, &variants, |(label, policy)| {
        let mut config =
            SimConfig { timeline_ns: cfg.timeline_ns, ..SimConfig::buffered(128 * MB) };
        config.cache.as_mut().expect("cache").write_policy = *policy;
        AblationSweep::point(*label, &simulation(store, config, &VENUS_PAIR, scale, seed).run())
    });
    AblationSweep { name: "write policy".into(), points }
}

/// Block sizes at a fixed 32 MB cache (Figure 8 compares 4 KB and 8 KB;
/// we add 16 KB).
pub fn block_size_ablation(
    store: &TraceStore,
    cfg: &RunConfig,
    scale: Scale,
    seed: u64,
) -> AblationSweep {
    let sizes = [4096u64, 8192, 16384];
    let points = par_sweep(cfg.threads, cfg.progress, &sizes, |&b| {
        let config = SimConfig { timeline_ns: cfg.timeline_ns, ..fig8_config(32 * MB, b) };
        let r = simulation(store, config, &VENUS_PAIR, scale, seed).run();
        AblationSweep::point(format!("{} KB blocks", b / 1024), &r)
    });
    AblationSweep { name: "cache block size".into(), points }
}

/// Scheduler quantum sweep for 2×venus at 32 MB.
pub fn quantum_ablation(
    store: &TraceStore,
    cfg: &RunConfig,
    scale: Scale,
    seed: u64,
) -> AblationSweep {
    let quanta = [1u64, 16, 100];
    let points = par_sweep(cfg.threads, cfg.progress, &quanta, |&ms| {
        let mut config = SimConfig { timeline_ns: cfg.timeline_ns, ..SimConfig::buffered(32 * MB) };
        config.sched.quantum = SimDuration::from_millis(ms);
        let r = simulation(store, config, &VENUS_PAIR, scale, seed).run();
        AblationSweep::point(format!("quantum {ms} ms"), &r)
    });
    AblationSweep { name: "scheduler quantum".into(), points }
}

/// Disk queueing on/off — the simplification the paper acknowledges
/// (§6.2: the simulator "did not slow down disk access times when the
/// disks had many outstanding requests"). Also reports traffic
/// burstiness, the paper's explanation target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueingAblation {
    /// Idle seconds without queueing (the paper's model).
    pub idle_no_queueing: f64,
    /// Idle seconds with per-disk FIFO queueing.
    pub idle_queueing: f64,
    /// Disk-traffic CV without queueing.
    pub cv_no_queueing: f64,
    /// Disk-traffic CV with queueing.
    pub cv_queueing: f64,
}

/// Run the queueing ablation.
pub fn queueing_ablation(
    store: &TraceStore,
    cfg: &RunConfig,
    scale: Scale,
    seed: u64,
) -> QueueingAblation {
    let variants = [false, true];
    let mut reports = par_sweep(cfg.threads, cfg.progress, &variants, |&queueing| {
        let mut config = SimConfig { timeline_ns: cfg.timeline_ns, ..SimConfig::buffered(32 * MB) };
        let disk = if queueing { DiskParams::ymp_with_queueing() } else { DiskParams::ymp() };
        config.device = DeviceSpec::Disk(disk);
        simulation(store, config, &VENUS_PAIR, scale, seed).run()
    });
    let q = reports.pop().expect("two variants");
    let nq = reports.pop().expect("two variants");
    let cv = |r: &SimReport| {
        Burstiness::of(&combined_traffic(&r.disk_read_series, &r.disk_write_series)).cv
    };
    QueueingAblation {
        idle_no_queueing: nq.idle_secs(),
        idle_queueing: q.idle_secs(),
        cv_no_queueing: cv(&nq),
        cv_queueing: cv(&q),
    }
}

/// All sweeps bundled.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationReport {
    /// Read-ahead on/off.
    pub readahead: AblationSweep,
    /// Write policies.
    pub write_policy: AblationSweep,
    /// Block sizes.
    pub block_size: AblationSweep,
    /// Quanta.
    pub quantum: AblationSweep,
    /// Disk queueing.
    pub queueing: QueueingAblation,
}

/// Run every ablation.
pub fn all_ablations(
    store: &TraceStore,
    cfg: &RunConfig,
    scale: Scale,
    seed: u64,
) -> AblationReport {
    AblationReport {
        readahead: readahead_ablation(store, cfg, scale, seed),
        write_policy: write_policy_ablation(store, cfg, scale, seed),
        block_size: block_size_ablation(store, cfg, scale, seed),
        quantum: quantum_ablation(store, cfg, scale, seed),
        queueing: queueing_ablation(store, cfg, scale, seed),
    }
}

/// Render the ablation report.
pub fn render_ablations(r: &AblationReport) -> String {
    let mut out = String::new();
    for sweep in [&r.readahead, &r.write_policy, &r.block_size, &r.quantum] {
        out.push_str(&format!("Ablation: {}\n", sweep.name));
        let mut t = TextTable::new(&["variant", "idle(s)", "utilization", "wall(s)"]);
        for p in &sweep.points {
            t.row(vec![
                p.variant.clone(),
                num(p.idle_secs),
                pct(p.utilization),
                num(p.wall_secs),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(&format!(
        "Ablation: disk queueing — idle {}s (none) vs {}s (FIFO); traffic CV {} vs {}\n",
        num(r.queueing.idle_no_queueing),
        num(r.queueing.idle_queueing),
        num(r.queueing.cv_no_queueing),
        num(r.queueing.cv_queueing),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Scale = Scale(8);

    #[test]
    fn readahead_helps_venus() {
        let s = readahead_ablation(&TraceStore::new(), &RunConfig::default(), QUICK, 21);
        assert!(
            s.points[0].idle_secs < s.points[1].idle_secs,
            "read-ahead on ({}) should beat off ({})",
            s.points[0].idle_secs,
            s.points[1].idle_secs
        );
    }

    #[test]
    fn write_behind_beats_both_alternatives_or_ties_sprite() {
        let s = write_policy_ablation(&TraceStore::new(), &RunConfig::default(), QUICK, 21);
        let through = &s.points[0];
        let behind = &s.points[1];
        assert!(
            behind.idle_secs < through.idle_secs,
            "write-behind {} vs write-through {}",
            behind.idle_secs,
            through.idle_secs
        );
    }

    #[test]
    fn quantum_sweep_is_stable() {
        let s = quantum_ablation(&TraceStore::new(), &RunConfig::default(), QUICK, 21);
        assert_eq!(s.points.len(), 3);
        // The quantum must not change utilization wildly for these
        // I/O-bound workloads.
        let min = s.points.iter().map(|p| p.utilization).fold(f64::MAX, f64::min);
        let max = s.points.iter().map(|p| p.utilization).fold(0.0, f64::max);
        assert!(max - min < 0.3, "quantum sensitivity too high: {min}..{max}");
    }

    #[test]
    fn queueing_does_not_reduce_idle() {
        let q = queueing_ablation(&TraceStore::new(), &RunConfig::default(), QUICK, 21);
        assert!(
            q.idle_queueing >= q.idle_no_queueing * 0.95,
            "queueing should not make things faster: {} vs {}",
            q.idle_queueing,
            q.idle_no_queueing
        );
    }

    #[test]
    fn block_size_sweep_renders() {
        let s = block_size_ablation(&TraceStore::new(), &RunConfig::default(), QUICK, 21);
        assert_eq!(s.points.len(), 3);
        let report = AblationReport {
            readahead: s.clone(),
            write_policy: s.clone(),
            block_size: s.clone(),
            quantum: s,
            queueing: QueueingAblation {
                idle_no_queueing: 1.0,
                idle_queueing: 2.0,
                cv_no_queueing: 1.0,
                cv_queueing: 0.5,
            },
        };
        let text = render_ablations(&report);
        assert!(text.contains("KB blocks"));
        assert!(text.contains("queueing"));
    }
}
