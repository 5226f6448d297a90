//! Nearline tape model for the Mass Storage System (MSS).
//!
//! §2.2: "several terabytes of nearline and offline tape storage … a
//! nearline storage facility called the Mass Storage System (MSS), which
//! can automatically mount tapes with requested data". The buffering
//! simulations never touch tape, but the storage-hierarchy example uses
//! this model to show why staging through disk/SSD matters: a cold access
//! pays a robot mount measured in seconds.

use crate::device::{clamp_extent, AccessKind, BlockDevice, DeviceStats};
use serde::{Deserialize, Serialize};
use sim_core::units::{GB, MB};
use sim_core::{SimDuration, SimTime};

/// Tunable tape parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TapeParams {
    /// Capacity of one cartridge in bytes.
    pub capacity: u64,
    /// Robot pick + thread + load time for a cartridge not currently
    /// mounted.
    pub mount: SimDuration,
    /// Time to wind between positions, proportional to distance; this is
    /// the full end-to-end wind time.
    pub full_wind: SimDuration,
    /// Streaming rate in MB/s once positioned.
    pub transfer_mb_per_sec: f64,
    /// How long a mounted cartridge stays loaded with no activity before
    /// the robot unloads it.
    pub dismount_after: SimDuration,
}

impl Default for TapeParams {
    fn default() -> Self {
        TapeParams {
            capacity: 2 * GB,
            mount: SimDuration::from_secs(12),
            full_wind: SimDuration::from_secs(60),
            transfer_mb_per_sec: 3.0,
            dismount_after: SimDuration::from_secs(120),
        }
    }
}

impl TapeParams {
    /// A 2026 LTO-class cartridge in a robot library: 18 TB native,
    /// ~300 MB/s streaming, faster robotics than the MSS but still
    /// seconds per mount and a long full-tape wind.
    pub fn lto_2026() -> Self {
        TapeParams {
            capacity: 18 * 1024 * GB,
            mount: SimDuration::from_secs(20),
            full_wind: SimDuration::from_secs(90),
            transfer_mb_per_sec: 300.0,
            dismount_after: SimDuration::from_secs(300),
        }
    }
}

/// A nearline tape drive with robot-mounted cartridges.
#[derive(Debug, Clone)]
pub struct TapeModel {
    params: TapeParams,
    name: String,
    /// Position of the head along the tape (byte address), `None` when no
    /// cartridge is mounted.
    position: Option<u64>,
    /// Last activity, for dismount-on-idle.
    last_use: SimTime,
    stats: DeviceStats,
    mounts: u64,
}

impl TapeModel {
    /// A drive with the given parameters.
    pub fn new(name: impl Into<String>, params: TapeParams) -> Self {
        TapeModel {
            params,
            name: name.into(),
            position: None,
            last_use: SimTime::ZERO,
            stats: DeviceStats::default(),
            mounts: 0,
        }
    }

    /// The default MSS-class drive.
    pub fn mss() -> Self {
        TapeModel::new("mss-tape", TapeParams::default())
    }

    /// Number of robot mounts performed.
    pub fn mounts(&self) -> u64 {
        self.mounts
    }

    /// Parameters in use.
    pub fn params(&self) -> &TapeParams {
        &self.params
    }

    fn wind_time(&self, from: u64, to: u64) -> SimDuration {
        let frac = from.abs_diff(to) as f64 / self.params.capacity.max(1) as f64;
        SimDuration::from_secs_f64(self.params.full_wind.as_secs_f64() * frac.min(1.0))
    }
}

impl BlockDevice for TapeModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn capacity(&self) -> u64 {
        self.params.capacity
    }

    fn access(
        &mut self,
        now: SimTime,
        kind: AccessKind,
        offset: u64,
        length: u64,
    ) -> SimDuration {
        let (offset, length) = clamp_extent(&self.name, offset, length, self.params.capacity);
        // Idle dismount: if too long since the last use, the cartridge was
        // put away and must be re-mounted.
        if self.position.is_some()
            && now.saturating_since(self.last_use) > self.params.dismount_after
        {
            self.position = None;
        }
        let mut service = SimDuration::ZERO;
        let from = match self.position {
            Some(p) => p,
            None => {
                service += self.params.mount;
                self.mounts += 1;
                0
            }
        };
        service += self.wind_time(from, offset);
        let secs = length as f64 / (self.params.transfer_mb_per_sec * MB as f64);
        service += SimDuration::from_secs_f64(secs);
        self.position = Some(offset + length);
        self.last_use = now + service;
        self.stats.note(kind, length, service);
        service
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_pays_mount() {
        let mut t = TapeModel::mss();
        let cold = t.access(SimTime::ZERO, AccessKind::Read, 0, 1024);
        assert!(cold >= t.params().mount);
        assert_eq!(t.mounts(), 1);
    }

    #[test]
    fn warm_sequential_access_streams() {
        let mut t = TapeModel::mss();
        t.access(SimTime::ZERO, AccessKind::Read, 0, MB);
        let warm = t.access(SimTime::from_secs(1), AccessKind::Read, MB, MB);
        // 1 MB at 3 MB/s ≈ 0.333 s, no mount, no wind.
        assert!(warm < SimDuration::from_millis(400), "warm access {warm}");
        assert_eq!(t.mounts(), 1);
    }

    #[test]
    fn idle_cartridge_is_dismounted() {
        let mut t = TapeModel::mss();
        t.access(SimTime::ZERO, AccessKind::Read, 0, 1024);
        let much_later = SimTime::from_secs(10_000);
        let cold_again = t.access(much_later, AccessKind::Read, 2048, 1024);
        assert!(cold_again >= t.params().mount);
        assert_eq!(t.mounts(), 2);
    }

    #[test]
    fn wind_cost_scales_with_distance() {
        let mut t = TapeModel::mss();
        t.access(SimTime::ZERO, AccessKind::Read, 0, 1024);
        let t_clone = t.clone();
        let near = t.access(SimTime::from_secs(1), AccessKind::Read, 10 * MB, 1024);
        let mut far_drive = t_clone;
        let far = far_drive.access(SimTime::from_secs(1), AccessKind::Read, GB, 1024);
        assert!(far > near);
    }

    #[test]
    fn lto_2026_is_bigger_and_faster() {
        let old = TapeParams::default();
        let new = TapeParams::lto_2026();
        assert!(new.capacity > old.capacity);
        assert!(new.transfer_mb_per_sec > old.transfer_mb_per_sec);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exceeds device capacity"))]
    fn out_of_range_access_is_clamped() {
        let mut t = TapeModel::mss();
        let cap = t.capacity();
        t.access(SimTime::ZERO, AccessKind::Read, cap - 100, 1024);
        // Debug builds assert; release builds truncate to the device tail.
        assert_eq!(t.stats().bytes_read, 100);
    }
}
