//! Synthetic application models calibrated to the seven programs the
//! paper traced (§3, Tables 1–2).
//!
//! The original traces came from proprietary NASA Ames production codes
//! and are lost; what the paper's analysis and simulations actually
//! consume is the trace-visible behavior — request sizes, directions,
//! offsets, per-file streams, inter-I/O CPU time, and the cyclic phase
//! structure. These generators reproduce exactly those statistics
//! deterministically from a seed (see DESIGN.md §2 for the substitution
//! argument and §4 for the recovered calibration table).
//!
//! Three layers:
//!
//! * [`spec`] — the declarative application description: files, phases,
//!   cycles, request sizes, CPU budget, synchrony;
//! * [`generator`] — turns an [`AppSpec`] into an `iotrace::Trace`,
//!   maintaining wall/CPU clocks and per-file cursors;
//! * [`apps`] — the seven calibrated presets plus the paper's target
//!   numbers ([`PaperTargets`]) used by tests and EXPERIMENTS.md.

pub mod apps;
pub mod generator;
pub mod spec;

pub use apps::{paper_targets, AppKind, PaperTargets, ALL_APPS};
pub use generator::{generate, generate_parts, Comments};
pub use spec::{AppSpec, CheckpointDef, CycleDef, FileDef, LatencyModel, SweepOrder};
