//! `miller-core` — the one-stop public API for the Miller-1991
//! reproduction.
//!
//! The crate wires the subsystems together behind two builders:
//!
//! * [`Study`] — characterize an application the way §5 of the paper
//!   does: generate (or load) its trace, optionally push it through the
//!   `procstat` collection pipeline, and compute summaries,
//!   sequentiality, cycles, burstiness, and the I/O-type taxonomy.
//! * [`CampaignBuilder`] — run §6-style buffering simulations: pick a
//!   cache tier/size/policy, add application processes, and get idle
//!   time, utilization, and disk-traffic series back.
//!
//! ```
//! use miller_core::{AppKind, CampaignBuilder, Study};
//!
//! // Characterize venus (1/16 scale for a fast doctest).
//! let report = Study::app(AppKind::Venus).scale(16).seed(7).characterize();
//! assert!(report.summary.mb_per_sec > 30.0);
//! assert!(report.sequentiality.same_size_fraction() > 0.8);
//!
//! // Simulate two venus copies against a 32 MB buffered cache.
//! let sim = CampaignBuilder::buffered_mb(32)
//!     .app(AppKind::Venus)
//!     .app(AppKind::Venus)
//!     .scale(16)
//!     .run();
//! assert!(sim.utilization() > 0.2);
//! ```

pub use buffer_cache::{BlockCache, CacheConfig, CacheStats, WritePolicy};
pub use fs_map::{measure as measure_amplification, translate as translate_to_physical, Amplification, FsConfig, FsLayout};
pub use experiments::{
    ablations, claims, extras, figures, modern, nplus1, par_sweep, render, run_campaign_in,
    scaled_spec, serial_sweep, tables, CampaignSpec, ModernComparison, RunConfig, Scale,
    StoreConfig, StoreFootprint, TraceArtifact, TraceStore,
};
pub use iosim::{CacheTier, ClusterReport, DeviceSpec, SchedParams, SimConfig, SimReport, Simulation};
pub use iotrace::{
    encode_frames, measure_compression, read_trace, write_trace, CompressionReport, DataKind,
    Direction, FrameFile, IoEvent, Scope, Synchrony, Trace, TraceDecoder, TraceEncoder, TraceItem,
};
pub use procstat::{reconstruct, Collector, LibraryShim, Pipe, PipelineReport, ShimConfig};
pub use sim_core::{SimDuration, SimRng, SimTime};
pub use storage_model::{
    AnyDevice, BlockDevice, DiskModel, DiskParams, DiskSched, NvmeModel, NvmeParams, TapeModel,
    TapeParams, TieredDevice, TieredParams,
};
pub use trace_analysis::{
    amdahl::{AmdahlReport, YMP_DEFAULT_MIPS},
    analyze_seeks, analyze_sequentiality, classify_trace, cpu_time_series, detect_cycles, wall_time_series,
    AppSummary, Burstiness, ClassifiedIo, CycleReport, IoClass, SeekReport, Select,
    SequentialityReport,
};
pub use workload::{
    generate, paper_targets, AppKind, AppSpec, CheckpointDef, CycleDef, FileDef, PaperTargets,
    SweepOrder, ALL_APPS,
};

use sim_core::units::MB;

/// A §5-style characterization of one application trace.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// The trace analyzed.
    pub trace: Trace,
    /// Table 1/2-style totals and rates.
    pub summary: AppSummary,
    /// Sequentiality and size constancy (§5.2).
    pub sequentiality: SequentialityReport,
    /// Cycle structure (§5.3).
    pub cycles: CycleReport,
    /// Required / checkpoint / data-swap taxonomy (§5.1).
    pub classes: ClassifiedIo,
    /// Burstiness of the per-CPU-second demand.
    pub burstiness: Burstiness,
}

/// Builder for application characterizations.
#[derive(Debug, Clone)]
pub struct Study {
    kind: AppKind,
    seed: u64,
    scale: u32,
    through_procstat: bool,
}

impl Study {
    /// Characterize `kind`.
    pub fn app(kind: AppKind) -> Study {
        Study { kind, seed: 42, scale: 1, through_procstat: false }
    }

    /// Workload seed (default 42).
    pub fn seed(mut self, seed: u64) -> Study {
        self.seed = seed;
        self
    }

    /// Shrink run length by `k` while preserving rates (default 1 =
    /// full paper scale).
    pub fn scale(mut self, k: u32) -> Study {
        self.scale = k;
        self
    }

    /// Route the trace through the emulated `procstat` collection
    /// pipeline (packetize → pipe → collector → reconstruct) before
    /// analysis, exactly as the paper's traces were gathered.
    pub fn through_procstat(mut self) -> Study {
        self.through_procstat = true;
        self
    }

    /// Generate the trace.
    pub fn trace(&self) -> Trace {
        let artifact =
            TraceStore::new().artifact(self.kind, 1, self.seed, experiments::Scale(self.scale));
        if !self.through_procstat {
            return artifact.trace();
        }
        let pipe = Pipe::new();
        let mut shim = LibraryShim::new(ShimConfig::default(), pipe.clone());
        let mut collector = Collector::new(pipe);
        for e in artifact.events().iter() {
            shim.on_io(*e);
        }
        shim.close_all();
        collector.drain();
        let (events, _report) =
            reconstruct(collector.packets()).expect("pipeline reconstruction");
        let mut out = Trace::new();
        for (_, text) in artifact.comments() {
            out.push_comment(text.clone());
        }
        for e in events {
            out.push(e);
        }
        out
    }

    /// Run the full characterization.
    pub fn characterize(&self) -> Characterization {
        let trace = self.trace();
        let summary = AppSummary::from_trace(&trace);
        let sequentiality = analyze_sequentiality(&trace);
        let cycles = detect_cycles(&trace, SimDuration::from_secs(1));
        let classes = classify_trace(&trace);
        let series = cpu_time_series(&trace, SimDuration::from_secs(1), Select::Both);
        let burstiness = Burstiness::of(&series);
        Characterization { trace, summary, sequentiality, cycles, classes, burstiness }
    }
}

/// Builder for buffering-simulation campaigns.
#[derive(Debug)]
pub struct CampaignBuilder {
    config: SimConfig,
    apps: Vec<AppKind>,
    traces: Vec<(String, Trace)>,
    seed: u64,
    scale: u32,
}

impl CampaignBuilder {
    /// Start from an explicit simulator configuration.
    pub fn new(config: SimConfig) -> CampaignBuilder {
        CampaignBuilder { config, apps: Vec::new(), traces: Vec::new(), seed: 42, scale: 1 }
    }

    /// A main-memory buffered cache of `mb` megabytes with the paper's
    /// best policies (read-ahead + write-behind).
    pub fn buffered_mb(mb: u64) -> CampaignBuilder {
        CampaignBuilder::new(SimConfig::buffered(mb * MB))
    }

    /// The per-CPU SSD share as the cache (§6.3).
    pub fn ssd() -> CampaignBuilder {
        CampaignBuilder::new(SimConfig::ssd())
    }

    /// No cache: every request goes to disk.
    pub fn uncached() -> CampaignBuilder {
        CampaignBuilder::new(SimConfig::uncached())
    }

    /// Add one instance of a calibrated application. Instances of the
    /// same app get distinct seeds and data sets.
    pub fn app(mut self, kind: AppKind) -> CampaignBuilder {
        self.apps.push(kind);
        self
    }

    /// Add a custom pre-generated trace.
    pub fn trace(mut self, name: impl Into<String>, trace: Trace) -> CampaignBuilder {
        self.traces.push((name.into(), trace));
        self
    }

    /// Workload seed (default 42).
    pub fn seed(mut self, seed: u64) -> CampaignBuilder {
        self.seed = seed;
        self
    }

    /// Shrink run length by `k` (default 1).
    pub fn scale(mut self, k: u32) -> CampaignBuilder {
        self.scale = k;
        self
    }

    /// Mutate the simulator configuration in place.
    pub fn configure(mut self, f: impl FnOnce(&mut SimConfig)) -> CampaignBuilder {
        f(&mut self.config);
        self
    }

    /// Run the simulation.
    ///
    /// # Panics
    ///
    /// Panics if a pid or a custom trace's file ids overflow the
    /// simulator's 16-bit namespaces (see [`iosim::AddProcessError`]);
    /// the builder's own numbering never does.
    pub fn run(self) -> SimReport {
        let mut sim = Simulation::new(self.config);
        let store = TraceStore::new();
        let mut pid = 1u32;
        for (i, kind) in self.apps.iter().enumerate() {
            let events = store.events(
                *kind,
                pid,
                self.seed + i as u64,
                experiments::Scale(self.scale),
            );
            sim.add_process_shared(pid, format!("{}#{}", kind.name(), i + 1), events)
                .expect("valid process");
            pid += 1;
        }
        for (name, trace) in &self.traces {
            sim.add_process(pid, name.clone(), trace).expect("valid process");
            pid += 1;
        }
        sim.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_characterizes_venus() {
        let c = Study::app(AppKind::Venus).scale(16).characterize();
        assert!(c.summary.files_touched >= 6);
        assert!(c.sequentiality.modal_size_fraction() > 0.8);
        assert!(c.burstiness.peak_to_mean > 1.3);
        // venus's six data files are all swap files.
        let swaps = c
            .classes
            .file_class
            .values()
            .filter(|&&cl| cl == IoClass::DataSwap)
            .count();
        assert!(swaps >= 6, "venus staging files should classify as swap");
    }

    #[test]
    fn study_through_procstat_preserves_events() {
        let direct = Study::app(AppKind::Ccm).scale(16).seed(3);
        let piped = direct.clone().through_procstat();
        let a: Vec<_> = direct.trace().events().cloned().collect();
        let b: Vec<_> = piped.trace().events().cloned().collect();
        assert_eq!(a, b, "the collection pipeline must be lossless");
    }

    #[test]
    fn campaign_runs_mixed_apps() {
        let r = CampaignBuilder::buffered_mb(16)
            .app(AppKind::Gcm)
            .app(AppKind::Upw)
            .scale(16)
            .run();
        r.check_time_conservation();
        assert_eq!(r.processes.len(), 2);
        assert!(r.utilization() > 0.5, "compulsory-only apps should run well");
    }

    #[test]
    fn campaign_accepts_custom_traces() {
        let custom = Study::app(AppKind::Upw).scale(16).trace();
        let r = CampaignBuilder::uncached().trace("custom-upw", custom).run();
        assert_eq!(r.processes.len(), 1);
        assert_eq!(r.processes[0].name, "custom-upw");
    }

    #[test]
    fn configure_hook_applies() {
        let r = CampaignBuilder::buffered_mb(8)
            .configure(|c| {
                c.cache.as_mut().unwrap().write_policy = WritePolicy::WriteThrough;
            })
            .app(AppKind::Upw)
            .scale(16)
            .run();
        // Write-through means no dirty data ever buffered.
        assert_eq!(r.cache.dirty_evictions, 0);
    }
}
