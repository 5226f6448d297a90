//! Supplementary tables beyond the paper's numbered exhibits: the
//! appendix's compression study and the §1/§5.1 Amdahl balance sheet.

use crate::render::{num, pct, TextTable};
use crate::runner::Scale;
use crate::trace_store::TraceStore;
use iotrace::{measure_compression, CompressionReport};
use serde::{Deserialize, Serialize};
use trace_analysis::{AmdahlReport, AppSummary, YMP_DEFAULT_MIPS};
use workload::ALL_APPS;

/// Per-application compression outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompressionRow {
    /// Application.
    pub app: String,
    /// The measured compression report.
    pub report: CompressionReport,
}

/// The appendix compression study over all seven applications.
pub fn compression_table(store: &TraceStore, scale: Scale, seed: u64) -> Vec<CompressionRow> {
    ALL_APPS
        .iter()
        .map(|&kind| {
            let trace = store.artifact(kind, 1, seed, scale).trace();
            CompressionRow {
                app: kind.name().to_string(),
                report: measure_compression(&trace).expect("generated traces encode"),
            }
        })
        .collect()
}

/// Render the compression study.
pub fn render_compression(rows: &[CompressionRow]) -> String {
    let mut t = TextTable::new(&[
        "app", "bytes/rec", "vs binary", "seq-inferred", "len-inferred", "short fields",
    ]);
    for r in rows {
        t.row(vec![
            r.app.clone(),
            num(r.report.bytes_per_record()),
            pct(r.report.savings_vs_binary()),
            pct(r.report.sequential_fraction()),
            pct(if r.report.records == 0 {
                0.0
            } else {
                r.report.no_length as f64 / r.report.records as f64
            }),
            pct(r.report.short_field_fraction()),
        ]);
    }
    format!(
        "Appendix compression study: ASCII format vs fixed 44-byte binary\n{}",
        t.render()
    )
}

/// Per-application Amdahl balance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AmdahlRow {
    /// Application.
    pub app: String,
    /// The balance report at the default MIPS rating.
    pub report: AmdahlReport,
}

/// The Amdahl balance sheet over all seven applications.
pub fn amdahl_table(store: &TraceStore, scale: Scale, seed: u64) -> Vec<AmdahlRow> {
    ALL_APPS
        .iter()
        .map(|&kind| {
            let trace = store.artifact(kind, 1, seed, scale).trace();
            let summary = AppSummary::from_trace(&trace);
            AmdahlRow {
                app: kind.name().to_string(),
                report: AmdahlReport::of(&summary, YMP_DEFAULT_MIPS),
            }
        })
        .collect()
}

/// Render the Amdahl balance sheet.
pub fn render_amdahl(rows: &[AmdahlRow]) -> String {
    let mut t = TextTable::new(&["app", "MB/s", "balance ratio", "verdict"]);
    for r in rows {
        t.row(vec![
            r.app.clone(),
            num(r.report.achieved_mb_per_sec),
            num(r.report.balance_ratio),
            if r.report.is_io_bound_by_amdahl() {
                "at/above Amdahl".to_string()
            } else {
                "below Amdahl".to_string()
            },
        ]);
    }
    format!(
        "Amdahl balance (§1: 1 Mbit/s per MIPS; {:.0} MIPS → {:.0} MB/s)\n{}",
        YMP_DEFAULT_MIPS,
        YMP_DEFAULT_MIPS / 8.0,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_beats_binary_for_every_app() {
        for row in compression_table(&TraceStore::new(), Scale(8), 3) {
            assert!(
                row.report.savings_vs_binary() > 0.3,
                "{}: only {:.2} saved",
                row.app,
                row.report.savings_vs_binary()
            );
            assert!(
                row.report.sequential_fraction() > 0.5,
                "{}: sequential inference {:.2}",
                row.app,
                row.report.sequential_fraction()
            );
        }
    }

    #[test]
    fn amdahl_separates_staging_from_compulsory_apps() {
        let rows = amdahl_table(&TraceStore::new(), Scale(8), 3);
        let find = |name: &str| {
            rows.iter().find(|r| r.app == name).expect("app present").report
        };
        // The heavy stagers exceed Amdahl's balance point…
        for app in ["forma", "venus", "les"] {
            assert!(find(app).is_io_bound_by_amdahl(), "{app} should be I/O bound");
        }
        // …the in-memory programs sit far below it.
        for app in ["gcm", "upw"] {
            assert!(find(app).balance_ratio < 0.05, "{app} should be compute bound");
        }
        // venus sits essentially at the balance point (44 MB/s vs 25):
        // §5.1's arithmetic said swap-driven apps track Amdahl.
        let v = find("venus").balance_ratio;
        assert!((1.0..4.0).contains(&v), "venus ratio {v}");
    }

    #[test]
    fn renders_include_every_app() {
        let c = render_compression(&compression_table(&TraceStore::new(), Scale(16), 3));
        let a = render_amdahl(&amdahl_table(&TraceStore::new(), Scale(16), 3));
        for app in ["bvi", "ccm", "forma", "gcm", "les", "venus", "upw"] {
            assert!(c.contains(app));
            assert!(a.contains(app));
        }
    }
}
