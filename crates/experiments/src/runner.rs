//! Shared experiment plumbing: trace generation (optionally scaled down
//! for fast CI runs) and the canonical simulator setup, [`simulation`],
//! which every figure, claim, ablation, served point and campaign
//! builder replays its application traces through.

use crate::trace_store::TraceStore;
use iosim::{SimConfig, Simulation};
use sim_core::SimDuration;
use workload::{AppKind, AppSpec};

/// Run-length scaling. `Scale::FULL` reproduces the paper's full run
/// lengths; `Scale::quick(k)` divides cycle counts and CPU time by `k`
/// while preserving every *rate* and *pattern*, so shapes survive but
/// tests run fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Scale(pub u32);

impl Scale {
    /// The paper's full run lengths.
    pub const FULL: Scale = Scale(1);

    /// Shrink runs by `k`.
    pub fn quick(k: u32) -> Scale {
        assert!(k >= 1);
        Scale(k)
    }
}

/// The calibrated spec for `kind`, scaled.
pub fn scaled_spec(kind: AppKind, pid: u32, scale: Scale) -> AppSpec {
    let mut spec = kind.spec(pid);
    let k = scale.0.max(1);
    if k > 1 {
        spec.cpu_time = spec.cpu_time / k as u64;
        if spec.cycles > 0 {
            spec.cycles = (spec.cycles / k).max(4);
            // Keep per-cycle behavior identical; total work shrinks with
            // the cycle count. CPU must shrink by the same realized
            // factor to preserve rates.
            let realized = spec.cycles as f64 / (kind.spec(pid).cycles as f64);
            spec.cpu_time = SimDuration::from_secs_f64(
                kind.spec(pid).cpu_time.as_secs_f64() * realized,
            );
        } else {
            // Compulsory-only apps: shrink the transfers too.
            spec.init_read.0 /= k as u64;
            spec.final_write.0 /= k as u64;
        }
    }
    spec
}

/// The two venus copies of Figures 6–8, C1, C4 and the ablations.
pub const VENUS_PAIR: [AppKind; 2] = [AppKind::Venus, AppKind::Venus];

/// The trace keys `(app, pid, seed)` of a run of `apps`: process `i` is
/// pid `i + 1` and replays `seed + i`.
pub fn app_processes(
    apps: &[AppKind],
    seed: u64,
) -> impl Iterator<Item = (AppKind, u32, u64)> + '_ {
    (1u32..).zip(apps).map(move |(pid, &kind)| (kind, pid, seed + u64::from(pid - 1)))
}

/// A simulation under `config` with one process per entry of `apps`,
/// keyed by [`app_processes`] and named `{app}#{pid}`. Each replays
/// [`TraceStore::feed`]: a shared slice, or a streaming cursor when the
/// store has a memory budget; the report is the same either way. Add
/// hand-built traces at the next pids before running.
pub fn simulation(
    store: &TraceStore,
    config: SimConfig,
    apps: &[AppKind],
    scale: Scale,
    seed: u64,
) -> Simulation {
    let mut sim = Simulation::new(config);
    for (kind, pid, seed) in app_processes(apps, seed) {
        let feed = store.feed(kind, pid, seed, scale);
        sim.add_process_feed(pid, format!("{}#{pid}", kind.name()), feed).expect("valid process");
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_store::{TraceArtifact, TraceStore};
    use std::sync::Arc;
    use trace_analysis::AppSummary;

    fn app_trace(kind: AppKind, pid: u32, seed: u64, scale: Scale) -> Arc<TraceArtifact> {
        TraceStore::new().artifact(kind, pid, seed, scale)
    }

    #[test]
    fn scaling_preserves_rates() {
        let full = AppSummary::from_trace(&app_trace(AppKind::Venus, 1, 7, Scale::FULL).trace());
        let quick =
            AppSummary::from_trace(&app_trace(AppKind::Venus, 1, 7, Scale::quick(8)).trace());
        assert!(quick.cpu_secs < full.cpu_secs / 4.0);
        let rel = (quick.mb_per_sec - full.mb_per_sec).abs() / full.mb_per_sec;
        assert!(rel < 0.05, "scaled rate {} vs full {}", quick.mb_per_sec, full.mb_per_sec);
    }

    #[test]
    fn scaling_compulsory_apps_shrinks_transfers() {
        let full = AppSummary::from_trace(&app_trace(AppKind::Upw, 1, 7, Scale::FULL).trace());
        let quick =
            AppSummary::from_trace(&app_trace(AppKind::Upw, 1, 7, Scale::quick(4)).trace());
        assert!(quick.total_io_mb < full.total_io_mb / 3.0);
    }

    #[test]
    fn full_scale_is_identity() {
        let a = app_trace(AppKind::Ccm, 2, 9, Scale::FULL);
        let b = workload::generate(&AppKind::Ccm.spec(2), 9);
        assert_eq!(a.trace(), b);
    }
}
