//! Multi-spindle striped volumes.
//!
//! The paper's log-structured design turns the file system's write
//! stream into large sequential segment writes — exactly the pattern
//! that scales with the number of spindles, because consecutive
//! segments can land on different disks whose mechanical work overlaps
//! in time. This crate provides that scaling layer: a [`StripedVolume`]
//! owning N independent simulated spindles (each with its own
//! mechanical model and request engine, all on one virtual clock)
//! behind the same [`sim_disk::BlockDevice`] trait the file systems
//! already mount, so LFS, FFS, the multi-client engine, and the
//! crash/fault harnesses run unchanged on 1..N disks.
//!
//! One chunked [`StripeLayout`] serves three chunk rules (see
//! [`policy`]): segment-granular round-robin — the natural match for
//! LFS, keeping each spindle purely sequential — classic RAID-0 block
//! interleave with a configurable chunk size, and per-segment parity,
//! which survives the loss of any one spindle: reads reconstruct by XOR
//! across the survivors and a swapped-in replacement is rebuilt online
//! (see [`rebuild`]).

#![warn(missing_docs)]

pub mod health;
pub mod policy;
pub mod rebuild;
pub mod volume;

pub use health::{HealthEvent, HealthMonitor, HealthPolicy, HealthState};
pub use policy::{StripeLayout, StripePolicyKind, SubRequest};
pub use rebuild::{RebuildPolicy, RebuildProgress, RebuildRun, SpindleState};
pub use volume::{StripedVolume, VolumeConfig, VolumeDisk};
