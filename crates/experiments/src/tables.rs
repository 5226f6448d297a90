//! Tables 1 and 2: per-application characteristics, paper vs measured.

use crate::config::RunConfig;
use crate::par_sweep::par_sweep;
use crate::render::{num, TextTable};
use crate::runner::Scale;
use crate::trace_store::TraceStore;
use serde::{Deserialize, Serialize};
use trace_analysis::AppSummary;
use workload::{paper_targets, PaperTargets, ALL_APPS};

/// One application's paper-vs-measured comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppRow {
    /// Application name.
    pub app: String,
    /// The paper's (reconstructed) numbers.
    pub paper: PaperTargets,
    /// What our synthesized trace measures.
    pub measured: AppSummary,
}

impl AppRow {
    /// Worst relative error across the Table 1 columns (diagnostic).
    pub fn worst_rel_error(&self) -> f64 {
        let p = &self.paper;
        let m = &self.measured;
        [
            (m.cpu_secs, p.cpu_secs),
            (m.total_io_mb, p.total_io_mb),
            (m.num_ios as f64, p.num_ios as f64),
            (m.data_mb, p.data_mb),
        ]
        .iter()
        .map(|&(a, b)| if b == 0.0 { a.abs() } else { (a - b).abs() / b })
        .fold(0.0, f64::max)
    }
}

/// A full table result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableResult {
    /// Per-app rows, in the paper's order.
    pub rows: Vec<AppRow>,
}

fn build(store: &TraceStore, cfg: &RunConfig, scale: Scale, seed: u64) -> TableResult {
    // One trace generation + summarization per app, fanned out; row
    // order follows ALL_APPS (the paper's order) regardless of which
    // app finishes first.
    let rows = par_sweep(cfg.threads, cfg.progress, &ALL_APPS, |&kind| {
        let trace = store.artifact(kind, 1, seed, scale).trace();
        AppRow {
            app: kind.name().to_string(),
            paper: paper_targets(kind),
            measured: AppSummary::from_trace(&trace),
        }
    });
    TableResult { rows }
}

/// Reproduce Table 1 (per-app totals).
pub fn table1(store: &TraceStore, cfg: &RunConfig, scale: Scale, seed: u64) -> TableResult {
    build(store, cfg, scale, seed)
}

/// Reproduce Table 2 (per-direction request and data rates). Shares the
/// same traces as Table 1.
pub fn table2(store: &TraceStore, cfg: &RunConfig, scale: Scale, seed: u64) -> TableResult {
    build(store, cfg, scale, seed)
}

/// Render Table 1 in the paper's layout, paper value / measured value.
pub fn render_table1(result: &TableResult) -> String {
    let mut t = TextTable::new(&[
        "app", "time(s)", "data(MB)", "totIO(MB)", "#IOs", "avg(MB)", "MB/s", "IO/s",
    ]);
    for r in &result.rows {
        let p = &r.paper;
        let m = &r.measured;
        t.row(vec![
            r.app.clone(),
            format!("{}/{}", num(p.cpu_secs), num(m.cpu_secs)),
            format!("{}/{}", num(p.data_mb), num(m.data_mb)),
            format!("{}/{}", num(p.total_io_mb), num(m.total_io_mb)),
            format!("{}/{}", p.num_ios, m.num_ios),
            format!("{}/{}", num(p.avg_io_kb / 1024.0), num(m.avg_io_kb / 1024.0)),
            format!("{}/{}", num(p.mb_per_sec), num(m.mb_per_sec)),
            format!("{}/{}", num(p.ios_per_sec), num(m.ios_per_sec)),
        ]);
    }
    format!("Table 1: traced-application characteristics (paper/measured)\n{}", t.render())
}

/// Render Table 2 in the paper's layout.
pub fn render_table2(result: &TableResult) -> String {
    let mut t = TextTable::new(&[
        "app", "Rd MB/s", "Wr MB/s", "Rd IO/s", "Wr IO/s", "avg KB", "R/W",
    ]);
    for r in &result.rows {
        let m = &r.measured;
        t.row(vec![
            r.app.clone(),
            num(m.reads.mb_per_sec),
            num(m.writes.mb_per_sec),
            num(m.reads.ios_per_sec),
            num(m.writes.ios_per_sec),
            num(m.avg_io_kb),
            format!("{} (paper {})", num(r.measured.rw_data_ratio), num(r.paper.rw_data_ratio)),
        ]);
    }
    format!("Table 2: I/O request and data rates (measured; paper R/W shown)\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_table1_matches_paper_tightly() {
        let result = table1(&TraceStore::new(), &RunConfig::default(), Scale::FULL, 42);
        for row in &result.rows {
            assert!(
                row.worst_rel_error() < 0.06,
                "{}: worst error {:.3}",
                row.app,
                row.worst_rel_error()
            );
        }
    }

    #[test]
    fn rw_ratios_match_table2() {
        let result = table2(&TraceStore::new(), &RunConfig::default(), Scale::FULL, 42);
        for row in &result.rows {
            let rel = (row.measured.rw_data_ratio - row.paper.rw_data_ratio).abs()
                / row.paper.rw_data_ratio;
            assert!(rel < 0.08, "{}: R/W {} vs {}", row.app, row.measured.rw_data_ratio, row.paper.rw_data_ratio);
        }
    }

    #[test]
    fn renders_contain_every_app() {
        let result = table1(&TraceStore::new(), &RunConfig::default(), Scale::quick(8), 1);
        let t1 = render_table1(&result);
        let t2 = render_table2(&result);
        for app in ["bvi", "ccm", "forma", "gcm", "les", "venus", "upw"] {
            assert!(t1.contains(app), "table1 missing {app}");
            assert!(t2.contains(app), "table2 missing {app}");
        }
    }

    #[test]
    fn results_serialize_to_json() {
        let result = table1(&TraceStore::new(), &RunConfig::default(), Scale::quick(8), 1);
        let json = serde_json::to_string(&result).unwrap();
        assert!(json.contains("venus"));
        let back: TableResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows.len(), 7);
    }
}
