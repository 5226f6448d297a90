//! Figures 3, 4, 6, 7 and 8.

use crate::config::RunConfig;
use crate::par_sweep::par_sweep;
use crate::render::ascii_plot;
use crate::runner::{simulation, Scale, VENUS_PAIR};
use crate::trace_store::TraceStore;
use iosim::{SimConfig, SimReport};
use serde::{Deserialize, Serialize};
use sim_core::units::MB;
use sim_core::{RateSeries, SimDuration};
use trace_analysis::{cpu_time_series, detect_cycles, Burstiness, CycleReport, Select};
use workload::AppKind;

/// A demand-over-CPU-time figure (Figures 3 and 4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DemandFigure {
    /// Application shown.
    pub app: String,
    /// Per-CPU-second data rates (MB/s per bin).
    pub rates_mb_per_s: Vec<f64>,
    /// Burstiness summary.
    pub peak_mb_per_s: f64,
    /// Mean rate (the paper labels venus ≈ 44, les ≈ 49.8).
    pub mean_mb_per_s: f64,
    /// Cycle analysis (§5.3: evenly spaced peaks).
    pub cycles: CycleReport,
    /// Rendered ASCII plot.
    pub plot: String,
}

fn demand_figure(store: &TraceStore, kind: AppKind, scale: Scale, seed: u64) -> DemandFigure {
    let trace = store.artifact(kind, 1, seed, scale).trace();
    let series = cpu_time_series(&trace, SimDuration::from_secs(1), Select::Both);
    let b = Burstiness::of(&series);
    let cycles = detect_cycles(&trace, SimDuration::from_secs(1));
    let plot = ascii_plot(
        &series,
        &format!("Figure: {} data rate over process CPU time", kind.name()),
        10,
        76,
    );
    DemandFigure {
        app: kind.name().to_string(),
        rates_mb_per_s: series.rates_per_second().iter().map(|r| r / MB as f64).collect(),
        peak_mb_per_s: b.peak / MB as f64,
        mean_mb_per_s: b.mean / MB as f64,
        cycles,
        plot,
    }
}

/// Figure 3: venus data rate over CPU time.
pub fn fig3(store: &TraceStore, scale: Scale, seed: u64) -> DemandFigure {
    demand_figure(store, AppKind::Venus, scale, seed)
}

/// Figure 4: les data rate over CPU time.
pub fn fig4(store: &TraceStore, scale: Scale, seed: u64) -> DemandFigure {
    demand_figure(store, AppKind::Les, scale, seed)
}

/// A two-venus buffering simulation result (Figures 6 and 7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TwoVenusFigure {
    /// Cache size in MB.
    pub cache_mb: u64,
    /// Wall seconds simulated.
    pub wall_secs: f64,
    /// CPU idle seconds.
    pub idle_secs: f64,
    /// CPU utilization.
    pub utilization: f64,
    /// Disk *read* MB/s per wall second (first 200 s).
    pub disk_read_mb_per_s: Vec<f64>,
    /// Disk *write* MB/s per wall second (first 200 s).
    pub disk_write_mb_per_s: Vec<f64>,
    /// Burstiness of the combined disk traffic — the paper's point is
    /// that buffering does *not* smooth it (§6.2).
    pub disk_burstiness_cv: f64,
    /// Rendered ASCII plot of combined disk traffic.
    pub plot: String,
}

/// The Figure 6–8 configuration: a read-ahead + write-behind cache of
/// `cache_bytes` with `block_size`-byte blocks.
pub fn fig8_config(cache_bytes: u64, block_size: u64) -> SimConfig {
    let mut config = SimConfig::buffered(cache_bytes);
    config.cache.as_mut().expect("buffered config has a cache").block_size = block_size;
    config
}

/// Run two venus copies against a cache of `cache_mb` megabytes with
/// read-ahead + write-behind (the Figure 6/7 setup).
pub fn two_venus(
    store: &TraceStore,
    cfg: &RunConfig,
    cache_mb: u64,
    scale: Scale,
    seed: u64,
) -> TwoVenusFigure {
    let config = SimConfig { timeline_ns: cfg.timeline_ns, ..SimConfig::buffered(cache_mb * MB) };
    let report = simulation(store, config, &VENUS_PAIR, scale, seed).run();
    summarize_two_venus(cache_mb, &report)
}

/// Disk reads plus writes per bin. The two series can have different
/// lengths (reads die out once the working set is cached), so the
/// shorter one is padded with zeros rather than the longer truncated.
pub(crate) fn combined_traffic(reads: &RateSeries, writes: &RateSeries) -> RateSeries {
    let mut combined = RateSeries::new(reads.bin_width());
    let n = reads.bins().len().max(writes.bins().len());
    for i in 0..n {
        let r = reads.bins().get(i).copied().unwrap_or(0.0);
        let w = writes.bins().get(i).copied().unwrap_or(0.0);
        combined.add(sim_core::SimTime::from_secs(i as u64), r + w);
    }
    combined
}

fn summarize_two_venus(cache_mb: u64, report: &SimReport) -> TwoVenusFigure {
    let window = 200;
    let reads = report.disk_read_series.truncated(window);
    let writes = report.disk_write_series.truncated(window);
    // Combined traffic for the burstiness measure and the plot.
    let combined = combined_traffic(&reads, &writes);
    let b = Burstiness::of(&combined);
    TwoVenusFigure {
        cache_mb,
        wall_secs: report.wall_secs(),
        idle_secs: report.idle_secs(),
        utilization: report.utilization(),
        disk_read_mb_per_s: reads.rates_per_second().iter().map(|r| r / MB as f64).collect(),
        disk_write_mb_per_s: writes.rates_per_second().iter().map(|r| r / MB as f64).collect(),
        disk_burstiness_cv: b.cv,
        plot: ascii_plot(
            &combined,
            &format!("2 x venus, {cache_mb} MB cache: disk traffic (first {window}s of wall time)"),
            10,
            76,
        ),
    }
}

/// Figure 6: 2×venus with a 32 MB cache.
pub fn fig6(store: &TraceStore, cfg: &RunConfig, scale: Scale, seed: u64) -> TwoVenusFigure {
    two_venus(store, cfg, 32, scale, seed)
}

/// Figure 7: 2×venus with a 128 MB cache.
pub fn fig7(store: &TraceStore, cfg: &RunConfig, scale: Scale, seed: u64) -> TwoVenusFigure {
    two_venus(store, cfg, 128, scale, seed)
}

/// One point of the Figure 8 sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Point {
    /// Cache size in MB.
    pub cache_mb: u64,
    /// Cache block size in bytes.
    pub block_size: u64,
    /// Idle seconds over the run (the figure's y-axis).
    pub idle_secs: f64,
    /// Wall seconds.
    pub wall_secs: f64,
    /// CPU utilization.
    pub utilization: f64,
}

/// The Figure 8 sweep result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Result {
    /// Sweep points (cache size × block size).
    pub points: Vec<Fig8Point>,
    /// Execution time with zero idle (the paper quotes 761 s for the
    /// full-scale run).
    pub no_idle_baseline_secs: f64,
}

/// The Figure 8 parameter grid: (cache MB, block size) in render order.
fn fig8_jobs() -> Vec<(u64, u64)> {
    let sizes = [4u64, 8, 16, 32, 64, 128, 256];
    let blocks = [4096u64, 8192];
    let mut jobs = Vec::with_capacity(sizes.len() * blocks.len());
    for &b in &blocks {
        for &s in &sizes {
            jobs.push((s, b));
        }
    }
    jobs
}

/// Figure 8: idle time of 2×venus vs cache size (4–256 MB), for 4 KB and
/// 8 KB blocks. Fans the sweep out over [`par_sweep`]; results stay in
/// grid order regardless of which point finishes first.
pub fn fig8(store: &TraceStore, cfg: &RunConfig, scale: Scale, seed: u64) -> Fig8Result {
    let jobs = fig8_jobs();
    let runs = par_sweep(cfg.threads, cfg.progress, &jobs, |&(cache_mb, block)| {
        let config =
            SimConfig { timeline_ns: cfg.timeline_ns, ..fig8_config(cache_mb * MB, block) };
        let r = simulation(store, config, &VENUS_PAIR, scale, seed).run();
        let point = Fig8Point {
            cache_mb,
            block_size: block,
            idle_secs: r.idle_secs(),
            wall_secs: r.wall_secs(),
            utilization: r.utilization(),
        };
        (point, r.cpu_busy)
    });
    // No-idle baseline: the busy time of the (256 MB, 4 KB) point (every
    // point has the same CPU demand).
    let baseline = runs
        .iter()
        .find(|(p, _)| (p.cache_mb, p.block_size) == (256, 4096))
        .map(|(_, busy)| busy.as_secs_f64())
        .expect("the grid has a 256 MB, 4 KB point");
    let points = runs.into_iter().map(|(p, _)| p).collect();
    Fig8Result { points, no_idle_baseline_secs: baseline }
}

/// Render the Figure 8 sweep as a table.
pub fn render_fig8(result: &Fig8Result) -> String {
    use crate::render::{num, TextTable};
    let mut t = TextTable::new(&["cache MB", "4K blocks idle(s)", "8K blocks idle(s)"]);
    let mut sizes: Vec<u64> = result.points.iter().map(|p| p.cache_mb).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for s in sizes {
        let find = |b: u64| {
            result
                .points
                .iter()
                .find(|p| p.cache_mb == s && p.block_size == b)
                .map(|p| num(p.idle_secs))
                .unwrap_or_else(|| "-".to_string())
        };
        t.row(vec![s.to_string(), find(4096), find(8192)]);
    }
    format!(
        "Figure 8: idle time, 2 x venus, varying cache size\n{}(no-idle execution time: {:.0}s)\n",
        t.render(),
        result.no_idle_baseline_secs
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Scale = Scale(8);

    #[test]
    fn fig3_venus_rates_have_paper_shape() {
        let f = fig3(&TraceStore::new(), QUICK, 3);
        // Mean near 44 MB/s (±20% at reduced scale), bursty peaks well
        // above the mean.
        assert!(
            (30.0..60.0).contains(&f.mean_mb_per_s),
            "venus mean {} MB/s off",
            f.mean_mb_per_s
        );
        assert!(f.peak_mb_per_s > 1.5 * f.mean_mb_per_s, "venus should be bursty");
        assert!(f.cycles.peaks >= 3, "cyclic peaks expected");
        assert!(f.plot.contains('#'));
    }

    #[test]
    fn fig4_les_rates_have_paper_shape() {
        let f = fig4(&TraceStore::new(), QUICK, 3);
        assert!(
            (35.0..70.0).contains(&f.mean_mb_per_s),
            "les mean {} MB/s off (paper labels 49.8)",
            f.mean_mb_per_s
        );
        assert!(f.peak_mb_per_s > 1.4 * f.mean_mb_per_s);
    }

    #[test]
    fn fig6_vs_fig7_idle_drops_with_cache_size() {
        let (store, cfg) = (TraceStore::new(), RunConfig::default());
        let f6 = fig6(&store, &cfg, QUICK, 5);
        let f7 = fig7(&store, &cfg, QUICK, 5);
        assert!(
            f7.idle_secs < f6.idle_secs,
            "128 MB idle {} should beat 32 MB idle {}",
            f7.idle_secs,
            f6.idle_secs
        );
        // Disk traffic stays bursty even with the big cache (the paper's
        // §6.2 observation).
        assert!(f7.disk_burstiness_cv > 0.5, "cv {}", f7.disk_burstiness_cv);
    }

    #[test]
    fn fig8_idle_monotonically_improves_with_cache() {
        let r = fig8(&TraceStore::new(), &RunConfig::default(), QUICK, 7);
        assert_eq!(r.points.len(), 14);
        for block in [4096u64, 8192] {
            let mut last = f64::INFINITY;
            for p in r.points.iter().filter(|p| p.block_size == block) {
                assert!(
                    p.idle_secs <= last * 1.15 + 1.0,
                    "idle should trend down with cache size: {} MB gives {}s after {}s",
                    p.cache_mb,
                    p.idle_secs,
                    last
                );
                last = p.idle_secs;
            }
            // The largest cache should be near-zero idle relative to the
            // smallest.
            let smallest = r.points.iter().find(|p| p.block_size == block && p.cache_mb == 4).unwrap();
            let largest = r.points.iter().find(|p| p.block_size == block && p.cache_mb == 256).unwrap();
            assert!(
                largest.idle_secs < smallest.idle_secs * 0.3,
                "knee missing: 4MB {}s vs 256MB {}s",
                smallest.idle_secs,
                largest.idle_secs
            );
        }
        assert!(r.no_idle_baseline_secs > 0.0);
        let rendered = render_fig8(&r);
        assert!(rendered.contains("256"));
    }
}
