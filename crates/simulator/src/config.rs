//! Simulator configuration: scheduler, cache tier, and disk farm.

use buffer_cache::CacheConfig;
use serde::{Deserialize, Serialize};
use sim_core::SimDuration;
use storage_model::{AnyDevice, DiskModel, DiskParams, NvmeModel, NvmeParams, TieredDevice, TieredParams};

/// Scheduler parameters (§6.1: quantum, process-switch overhead, file
/// system code overhead, interrupt service time).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedParams {
    /// Round-robin quantum.
    pub quantum: SimDuration,
    /// CPU cost of a context switch (charged on every dispatch).
    pub ctx_switch: SimDuration,
    /// CPU cost of file-system code per I/O request. Tuned so that two
    /// venus copies with no idle time take ≈ 761 s, the paper's Figure 8
    /// baseline.
    pub fs_overhead: SimDuration,
    /// CPU cost of servicing a device interrupt (charged per device
    /// operation completion).
    pub interrupt_service: SimDuration,
}

impl Default for SchedParams {
    fn default() -> Self {
        SchedParams {
            quantum: SimDuration::from_millis(16),
            ctx_switch: SimDuration::from_micros(25),
            fs_overhead: SimDuration::from_micros(30),
            interrupt_service: SimDuration::from_micros(10),
        }
    }
}

/// Which memory technology backs the cache; the SSD adds a per-access
/// transfer penalty (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheTier {
    /// Main-memory file cache: no per-access penalty beyond FS code.
    MainMemory,
    /// Solid-state disk used as an OS-managed cache: setup + 1 µs/KB per
    /// access.
    Ssd,
}

impl CacheTier {
    /// Extra latency for moving `bytes` through this tier.
    pub fn access_penalty(self, bytes: u64) -> SimDuration {
        match self {
            CacheTier::MainMemory => SimDuration::ZERO,
            CacheTier::Ssd => {
                SimDuration::from_micros(20)
                    + SimDuration::from_secs_f64(
                        bytes as f64
                            / (sim_core::units::SSD_GB_PER_SEC * sim_core::units::GB as f64),
                    )
            }
        }
    }
}

/// Which device model backs the farm. The default is the paper's
/// unqueued Y-MP disk, which every figure uses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DeviceSpec {
    /// The paper's disk model (any queueing/scheduler mode).
    Disk(DiskParams),
    /// A multi-queue NVMe flash device.
    Nvme(NvmeParams),
    /// The RAM → NVMe → disk → tape hierarchy.
    Tiered(TieredParams),
}

impl DeviceSpec {
    /// Build device `index` of the farm.
    pub fn build(&self, index: usize) -> AnyDevice {
        match self {
            DeviceSpec::Disk(p) => {
                AnyDevice::Disk(DiskModel::new(format!("disk{index}"), p.clone()))
            }
            DeviceSpec::Nvme(p) => {
                AnyDevice::Nvme(NvmeModel::new(format!("nvme{index}"), p.clone()))
            }
            DeviceSpec::Tiered(p) => {
                AnyDevice::Tiered(Box::new(TieredDevice::new(format!("tiered{index}"), p.clone())))
            }
        }
    }

    /// Per-device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        match self {
            DeviceSpec::Disk(p) => p.capacity,
            DeviceSpec::Nvme(p) => p.capacity,
            DeviceSpec::Tiered(p) => p.tape.capacity,
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Cache configuration; `None` runs every request straight to disk.
    pub cache: Option<CacheConfig>,
    /// Memory technology of the cache.
    pub tier: CacheTier,
    /// Scheduler parameters.
    pub sched: SchedParams,
    /// Device model of every device in the farm.
    pub device: DeviceSpec,
    /// CPU-speed divisor applied to every compute phase: 1 (default)
    /// replays the trace's Y-MP compute times untouched; a 2026 rerun
    /// uses a large divisor because the same arithmetic now takes a
    /// fraction of the time while the I/O volume is unchanged.
    pub cpu_speedup: u64,
    /// Number of CPUs sharing the ready queue. The paper's simulator
    /// models one CPU (§6.1); more are an extension for reproducing the
    /// §2.2 "n+1 jobs keep n processors busy" rule of thumb.
    pub n_cpus: usize,
    /// Number of disks; files are distributed round-robin (the NASA
    /// system's "many high-speed disks", §2.2).
    pub n_disks: usize,
    /// Max bytes pulled from the cache per flusher batch.
    pub flush_batch: u64,
    /// Wall-clock bin width for the traffic series (Figures 6–7 use 1 s).
    pub series_bin: SimDuration,
    /// Gauge-timeline sample interval in simulated nanoseconds; `None`
    /// (the default) samples nothing. A pure observer: the report is
    /// byte-identical with or without it.
    pub timeline_ns: Option<u64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cache: Some(CacheConfig::buffered(32 * sim_core::units::MB)),
            tier: CacheTier::MainMemory,
            sched: SchedParams::default(),
            device: DeviceSpec::Disk(DiskParams::ymp()),
            cpu_speedup: 1,
            n_cpus: 1,
            n_disks: 8,
            flush_batch: 4 * sim_core::units::MB,
            series_bin: SimDuration::from_secs(1),
            timeline_ns: None,
        }
    }
}

impl SimConfig {
    /// The paper's best configuration: a buffered cache of `capacity`
    /// bytes in main memory.
    pub fn buffered(capacity: u64) -> SimConfig {
        SimConfig { cache: Some(CacheConfig::buffered(capacity)), ..Default::default() }
    }

    /// The per-CPU SSD share used as an OS-managed cache (§6.3).
    pub fn ssd() -> SimConfig {
        SimConfig {
            cache: Some(CacheConfig::buffered(sim_core::units::YMP_SSD_PER_CPU_BYTES)),
            tier: CacheTier::Ssd,
            ..Default::default()
        }
    }

    /// No cache at all: every logical request is a disk request.
    pub fn uncached() -> SimConfig {
        SimConfig { cache: None, ..Default::default() }
    }

    /// Build device `index` of the farm.
    pub fn build_device(&self, index: usize) -> AnyDevice {
        self.device.build(index)
    }

    /// Per-device capacity of the farm's device model.
    pub fn device_capacity(&self) -> u64 {
        self.device.capacity()
    }

    /// Basic validation.
    pub fn validate(&self) {
        assert!(self.n_cpus > 0, "need at least one CPU");
        assert!(self.cpu_speedup > 0, "cpu_speedup is a divisor; must be >= 1");
        assert!(self.n_disks > 0, "need at least one disk");
        assert!(self.flush_batch > 0, "flush batch must be positive");
        assert!(!self.sched.quantum.is_zero(), "quantum must be positive");
        if let Some(c) = &self.cache {
            c.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::units::{KB, MB};

    #[test]
    fn ssd_penalty_is_one_microsecond_per_kb() {
        let p = CacheTier::Ssd.access_penalty(100 * KB);
        // 20 µs setup + 100 µs transfer = 12 ticks.
        assert_eq!(p.ticks(), 12);
        assert_eq!(CacheTier::MainMemory.access_penalty(100 * KB), SimDuration::ZERO);
    }

    #[test]
    fn presets_validate() {
        SimConfig::default().validate();
        SimConfig::buffered(16 * MB).validate();
        SimConfig::ssd().validate();
        SimConfig::uncached().validate();
        assert_eq!(SimConfig::ssd().cache.unwrap().capacity, 256 * MB);
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_rejected() {
        let c = SimConfig { n_disks: 0, ..Default::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "cpu_speedup")]
    fn zero_speedup_rejected() {
        let c = SimConfig { cpu_speedup: 0, ..Default::default() };
        c.validate();
    }

    #[test]
    fn default_devices_are_paper_disks() {
        use storage_model::{AnyDevice, BlockDevice, DiskSched};
        let c = SimConfig::default();
        let d = c.build_device(3);
        assert!(matches!(&d, AnyDevice::Disk(m) if m.params().scheduler == DiskSched::Unqueued));
        assert_eq!(d.name(), "disk3");
        assert_eq!(c.device_capacity(), DiskParams::ymp().capacity);
    }

    #[test]
    fn device_specs_build_their_models() {
        use storage_model::{AnyDevice, NvmeParams, TieredParams};
        let nvme = DeviceSpec::Nvme(NvmeParams::modern_2026());
        assert!(matches!(nvme.build(0), AnyDevice::Nvme(_)));
        assert_eq!(nvme.capacity(), NvmeParams::modern_2026().capacity);
        let tiered = DeviceSpec::Tiered(TieredParams::modern_2026());
        assert!(matches!(tiered.build(0), AnyDevice::Tiered(_)));
        assert_eq!(tiered.capacity(), TieredParams::modern_2026().tape.capacity);
    }
}
