//! Storage device models for the Cray Y-MP era I/O system the paper
//! simulates against (§2.2, §6.1, §6.3) — plus the queue-aware 2026
//! models the paper's rerun uses.
//!
//! Paper-era devices:
//!
//! * [`DiskModel`] — a 9.6 MB/s disk whose access time depends only on the
//!   request's distance from the previous request, exactly the
//!   simplification the paper used ("the completion time of a specific I/O
//!   was dependent only on the location of the I/O and how 'close' the I/O
//!   was to the previous I/O"). Optional queueing modes model the delay
//!   the paper acknowledged omitting: FIFO, or an elevator (SCAN)
//!   scheduler ([`DiskSched`]).
//! * [`TapeModel`] — the Mass Storage System's nearline tape: a large mount
//!   penalty, then streaming.
//!
//! Modern (2026) devices:
//!
//! * [`NvmeModel`] — a multi-queue flash device with bounded per-queue
//!   depth, per-command submission overhead, and aggregate bandwidth
//!   saturation.
//! * [`TieredDevice`] — a RAM → NVMe → disk → tape hierarchy with
//!   segment-granular inclusive staging and burst-buffer writes.
//!
//! All devices implement [`BlockDevice`], the interface the buffering
//! simulator drives; [`AnyDevice`] is the enum the engine's disk farm
//! stores so configs pick the model at run time without dynamic
//! dispatch.

pub mod any;
pub mod device;
pub mod disk;
pub mod nvme;
pub mod tape;
pub mod tiered;

pub use any::AnyDevice;
pub use device::{clamp_extent, AccessKind, BlockDevice, DeviceGauges, DeviceStats};
pub use disk::{DiskModel, DiskParams, DiskSched};
pub use nvme::{NvmeModel, NvmeParams};
pub use tape::{TapeModel, TapeParams};
pub use tiered::{TieredDevice, TieredParams};
