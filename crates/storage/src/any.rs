//! Enum dispatch over the device models the simulator can drive.
//!
//! The engine stores its disk farm as `Vec<AnyDevice>`: static dispatch
//! on the hot path (no vtable, the paper-mode `DiskModel` arm inlines
//! exactly as before) while configs pick the model at run time.

use crate::device::{AccessKind, BlockDevice, DeviceGauges, DeviceStats};
use crate::disk::DiskModel;
use crate::nvme::NvmeModel;
use crate::tiered::TieredDevice;
use sim_core::{SimDuration, SimTime};

/// Any device model the simulator can place files on.
// DiskModel dominates the size (its inline seek-bucket array), but it is
// also the paper-mode arm every figure drives on every access — boxing it
// would trade a few hundred bytes per farm entry (a farm is ~8 devices)
// for an extra indirection on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AnyDevice {
    /// The paper's disk (optionally with FIFO/elevator queueing).
    Disk(DiskModel),
    /// A multi-queue NVMe flash device.
    Nvme(NvmeModel),
    /// The RAM → NVMe → disk → tape hierarchy. Boxed: it embeds three
    /// inner models and would otherwise double the size of every
    /// paper-mode farm entry.
    Tiered(Box<TieredDevice>),
}

impl AnyDevice {
    /// Observability counters for the `obs` report section.
    pub fn obs_counters(&self) -> obs::DiskCounters {
        match self {
            AnyDevice::Disk(d) => d.obs_counters(),
            AnyDevice::Nvme(d) => d.obs_counters(),
            AnyDevice::Tiered(d) => d.obs_counters(),
        }
    }
}

impl BlockDevice for AnyDevice {
    fn name(&self) -> &str {
        match self {
            AnyDevice::Disk(d) => d.name(),
            AnyDevice::Nvme(d) => d.name(),
            AnyDevice::Tiered(d) => d.name(),
        }
    }

    fn capacity(&self) -> u64 {
        match self {
            AnyDevice::Disk(d) => d.capacity(),
            AnyDevice::Nvme(d) => d.capacity(),
            AnyDevice::Tiered(d) => d.capacity(),
        }
    }

    #[inline]
    fn access(
        &mut self,
        now: SimTime,
        kind: AccessKind,
        offset: u64,
        length: u64,
    ) -> SimDuration {
        match self {
            AnyDevice::Disk(d) => d.access(now, kind, offset, length),
            AnyDevice::Nvme(d) => d.access(now, kind, offset, length),
            AnyDevice::Tiered(d) => d.access(now, kind, offset, length),
        }
    }

    fn stats(&self) -> &DeviceStats {
        match self {
            AnyDevice::Disk(d) => d.stats(),
            AnyDevice::Nvme(d) => d.stats(),
            AnyDevice::Tiered(d) => d.stats(),
        }
    }

    fn gauges(&self, now: SimTime) -> DeviceGauges {
        match self {
            AnyDevice::Disk(d) => d.gauges(now),
            AnyDevice::Nvme(d) => d.gauges(now),
            AnyDevice::Tiered(d) => d.gauges(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskParams;
    use sim_core::units::MB;

    #[test]
    fn dispatch_matches_inner_model() {
        let mut plain = DiskModel::new("d", DiskParams::ymp());
        let mut wrapped = AnyDevice::Disk(DiskModel::new("d", DiskParams::ymp()));
        let a = plain.access(SimTime::ZERO, AccessKind::Read, 100 * MB, 4096);
        let b = wrapped.access(SimTime::ZERO, AccessKind::Read, 100 * MB, 4096);
        assert_eq!(a, b);
        assert_eq!(wrapped.capacity(), plain.capacity());
        assert_eq!(wrapped.stats().reads, 1);
    }

    #[test]
    fn every_variant_reports_obs_counters() {
        let mut devices = [
            AnyDevice::Disk(DiskModel::new("d", DiskParams::ymp_with_elevator())),
            AnyDevice::Nvme(NvmeModel::modern()),
            AnyDevice::Tiered(Box::new(TieredDevice::modern())),
        ];
        for d in &mut devices {
            d.access(SimTime::ZERO, AccessKind::Read, 0, 4096);
            assert!(d.obs_counters().queue_depth.is_some(), "{} reports depth", d.name());
        }
    }
}
