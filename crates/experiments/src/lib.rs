//! Experiment runners: one per table, figure, and headline claim of the
//! paper, plus the ablations DESIGN.md calls out.
//!
//! Each runner returns a serializable result struct and can render itself
//! as text (ASCII tables and plots). Every entry point takes the
//! [`TraceStore`] its traces come from and, where it sweeps or
//! simulates, the [`RunConfig`] the front end parsed; the `mio`
//! subcommands and `repro_bench` call the same entry points, so
//! "regenerating a figure" is always the same code path.
//!
//! | entry point | reproduces |
//! |---|---|
//! | [`tables::table1`] / [`tables::table2`] | Tables 1–2 |
//! | [`figures::fig3`] / [`figures::fig4`] | per-app demand over CPU time |
//! | [`figures::fig6`] / [`figures::fig7`] | 2×venus disk traffic vs cache size |
//! | [`figures::fig8`] | idle time vs cache size, 4 KB vs 8 KB blocks |
//! | [`claims`] | §6's quantitative claims C1–C5 |
//! | [`nplus1`] | the §2.2 "n+1 jobs keep n CPUs busy" rule |
//! | [`extras`] | appendix compression study + Amdahl balance sheet |
//! | [`ablations`] | read-ahead / write policy / quantum / queueing sweeps |
//! | [`campaign`] | cluster-scale sharded campaigns (beyond the paper) |
//! | [`dfg`] | parallel directly-follows-graph scan of stored frame files |
//! | [`modern`] | the fig8 cache sweep rerun on 2026 tiered hardware |

pub mod ablations;
pub mod campaign;
pub mod claims;
pub mod config;
pub mod dfg;
pub mod extras;
pub mod figures;
pub mod modern;
pub mod nplus1;
pub mod par_sweep;
pub mod render;
pub mod runner;
pub mod tables;
pub mod trace_store;

pub use campaign::{run_campaign_in, CampaignSpec};
pub use config::RunConfig;
pub use modern::{modern_comparison, render_modern, DeviceEra, ModernComparison};
pub use par_sweep::{par_sweep, serial_sweep};
pub use runner::{scaled_spec, Scale};
pub use trace_store::{
    SpilledCursor, StoreConfig, StoreFootprint, TraceArtifact, TraceStore, SPILL_BLOCK_EVENTS,
};
