#![warn(missing_docs)]

//! Deterministic disk simulation substrate for the LFS reproduction.
//!
//! The paper's evaluation (USENIX 1990) ran on a WREN IV SCSI disk
//! (1.3 MB/s maximum transfer bandwidth, 17.5 ms average seek) attached to a
//! Sun-4/260. Every result in the paper is a function of *access-pattern
//! economics*: sequential transfers amortise one seek over a long transfer,
//! random transfers pay a seek plus rotational latency per request, and
//! synchronous writes couple application progress to disk latency.
//!
//! This crate reproduces those economics with a deterministic simulator:
//!
//! * [`Clock`] — a shared virtual clock (nanosecond resolution) that also
//!   hosts a simple CPU cost model, so experiments can sweep CPU speed the
//!   way §3.1 of the paper does (0.9 MIPS MicroVax vs 14 MIPS DECStation).
//! * [`BlockDevice`] — the sector-addressed device interface file systems
//!   program against.
//! * [`SimDisk`] — a mechanical disk model (seek + rotation + transfer)
//!   that advances the clock for synchronous requests and tracks a device
//!   busy-horizon for asynchronous ones.
//! * [`IoStats`] / [`AccessTrace`] — per-request accounting used by the
//!   Figure 1/2 reproduction (count of random/sequential and sync/async
//!   accesses) and the throughput figures.
//! * [`CrashPlan`] — write-stream fault injection (drop, tear, or lose a
//!   reorder window of writes after a trigger point) used by the
//!   crash-recovery experiments.
//! * [`MediaFaultPlan`] — seeded per-sector media faults (latent sector
//!   errors, transient errors that clear after K retries, silent bit-rot)
//!   used by the end-to-end integrity experiments.
//! * Submit/complete queueing — [`SimDisk::submit_read`],
//!   [`SimDisk::submit_write`], and [`SimDisk::complete`] expose the device
//!   queue to an external I/O scheduler (see the `engine` crate), which may
//!   reorder and coalesce requests before they are serviced.

//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use sim_disk::{BlockDevice, Clock, DiskGeometry, SimDisk};
//!
//! let clock = Clock::new();
//! let mut disk = SimDisk::new(DiskGeometry::wren_iv(), Arc::clone(&clock));
//!
//! // A synchronous write stalls the (virtual) CPU for seek + rotation +
//! // transfer time; an asynchronous one only occupies the device.
//! disk.write(0, &vec![0u8; 512], true).unwrap();
//! let after_sync = clock.now_ns();
//! assert!(after_sync > 0);
//! disk.write(1, &vec![0u8; 512], false).unwrap();
//! assert_eq!(clock.now_ns(), after_sync);
//! ```

pub mod clock;
pub mod device;
pub mod fault;
pub mod geometry;
pub mod ram;
pub mod sim;
pub mod stats;

pub use clock::{Clock, CpuCost, CpuModel};
pub use device::{check_request, effective_fanout, read_batch, BlockDevice, DiskError, DiskResult};
pub use fault::{CrashPlan, FailSlowProfile, FaultMode, MediaFault, MediaFaultPlan};
pub use geometry::DiskGeometry;
pub use ram::RamDisk;
pub use sim::{IoCompletion, SimDisk, SubmittedIo};
pub use stats::{AccessKind, AccessRecord, AccessTrace, IoStats};

/// Size of one disk sector in bytes. All devices in this workspace use
/// 512-byte sectors, matching the SCSI disks of the paper's era.
pub const SECTOR_SIZE: usize = 512;
