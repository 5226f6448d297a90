//! Parallel post-hoc DFG analysis over stored frame files.
//!
//! The analysis itself — the streaming directly-follows fold — lives in
//! [`trace_analysis::dfg`]; this module is the fan-out: it exports the
//! run's traces as `stream_v2` frame files through the
//! [`TraceStore`] (reusing spill files when the store already streams)
//! and then scans one file per [`par_sweep`] worker, each worker
//! holding a single decoded block at a time. The whole analysis is
//! post-hoc and bounded-memory: nothing about it requires the traces to
//! ever be resident.
//!
//! Output is deterministic — [`DfgReport`] orders processes by
//! `(source, pid)` and its `to_dot` rendering is byte-stable — so the
//! report JSON can be diffed across runs like every other artifact in
//! this crate.

use crate::par_sweep::par_sweep;
use crate::runner::Scale;
use crate::trace_store::TraceStore;
use std::path::{Path, PathBuf};
use trace_analysis::dfg::{dfg_of_frame_file, DfgReport};
use workload::AppKind;

/// One trace to analyze: `(app, pid, seed)` at the sweep's scale.
pub type DfgSubject = (AppKind, u32, u64);

/// Build the DFG report for a set of stored frame files, scanning one
/// file per worker thread (at most `threads` at once). Any unreadable or corrupt file fails the
/// whole analysis (frame checksums make corruption loud).
pub fn dfg_from_frame_files(threads: usize, paths: &[PathBuf]) -> std::io::Result<DfgReport> {
    let scans = par_sweep(threads, false, paths, |p| dfg_of_frame_file(p));
    let mut processes = Vec::new();
    for (scan, path) in scans.into_iter().zip(paths) {
        processes.extend(scan.map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("scanning {}: {e:?}", path.display()),
            )
        })?);
    }
    Ok(DfgReport::from_processes(processes))
}

/// Export each subject's trace as a frame file and fold its DFGs in
/// parallel on `threads` workers. This is what `mio sim --dfg-out` runs
/// over the traces the figure simulations replayed.
pub fn dfg_for_subjects(
    store: &TraceStore,
    threads: usize,
    subjects: &[DfgSubject],
    scale: Scale,
) -> std::io::Result<DfgReport> {
    let paths = subjects
        .iter()
        .map(|&(kind, pid, seed)| store.export_frame(kind, pid, seed, scale))
        .collect::<std::io::Result<Vec<_>>>()?;
    dfg_from_frame_files(threads, &paths)
}

/// The figure runs' subjects: the two venus instances of Figures 6–8.
pub fn figure_subjects(seed: u64) -> Vec<DfgSubject> {
    vec![(AppKind::Venus, 1, seed), (AppKind::Venus, 2, seed + 1)]
}

/// Write `report` as pretty JSON at `path` and as Graphviz DOT next to
/// it (same stem, `.dot` extension). Returns the DOT path.
pub fn write_dfg_outputs(report: &DfgReport, path: &Path) -> std::io::Result<PathBuf> {
    std::fs::write(path, serde_json::to_string_pretty(report).expect("serialize dfg report"))?;
    let dot = path.with_extension("dot");
    std::fs::write(&dot, report.to_dot())?;
    Ok(dot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_store::StoreConfig;

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("miller-dfg-exp-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn parallel_scan_is_deterministic_and_mode_independent() {
        let dir = test_dir("modes");
        let subjects = figure_subjects(42);
        let resident = TraceStore::with_config(StoreConfig {
            mem_budget: None,
            spill_dir: Some(dir.join("resident")),
        });
        let a = dfg_for_subjects(&resident, 2, &subjects, Scale(32)).expect("resident-mode dfg");
        let streaming = TraceStore::with_config(StoreConfig {
            mem_budget: Some(0),
            spill_dir: Some(dir.join("streaming")),
        });
        drop(streaming.feed(workload::AppKind::Venus, 1, 42, Scale(32))); // pre-spill one
        let b = dfg_for_subjects(&streaming, 2, &subjects, Scale(32)).expect("streaming-mode dfg");
        assert_eq!(a, b, "DFGs must not depend on the store's replay mode");
        assert_eq!(a.processes.len(), 2);
        assert!(a.total_events > 0);
        for p in &a.processes {
            assert!(!p.nodes.is_empty());
            let edge_total: u64 = p.edges.iter().map(|e| e.count).sum();
            assert_eq!(edge_total, p.events - 1, "a linear stream has n-1 transitions");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outputs_write_json_and_dot() {
        let dir = test_dir("outputs");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let store = TraceStore::with_config(StoreConfig {
            mem_budget: None,
            spill_dir: Some(dir.clone()),
        });
        let report =
            dfg_for_subjects(&store, 2, &figure_subjects(42), Scale(64)).expect("dfg report");
        let json = dir.join("dfg.json");
        let dot = write_dfg_outputs(&report, &json).expect("write outputs");
        let body = std::fs::read_to_string(&json).expect("read json back");
        let parsed: DfgReport = serde_json::from_str(&body).expect("parse json back");
        assert_eq!(parsed, report, "JSON round-trips");
        let dot_body = std::fs::read_to_string(&dot).expect("read dot");
        assert!(dot_body.starts_with("digraph dfg {"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
