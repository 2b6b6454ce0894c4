#![warn(missing_docs)]

//! An update-in-place BSD-FFS-style file system, the paper's comparator.
//!
//! The LFS paper (§3, §5) compares against SunOS 4.0.3's version of the
//! BSD fast file system. This crate reproduces the behaviour that matters
//! for those comparisons:
//!
//! * **Fixed metadata locations**: the disk is divided into cylinder
//!   groups, each with a bitmap block and a fixed inode table. Inodes
//!   never move.
//! * **Synchronous metadata writes**: `create` and `unlink` write the
//!   affected inode-table block and directory data block synchronously —
//!   the "small, non-sequential, and synchronous" accesses of §3.1 and
//!   Figure 1 that couple application speed to disk latency. The
//!   operations themselves are [`vfs::namespace`], shared with LFS; the
//!   writes are this crate's `persist_inode` and `persist_dir_range`
//!   hooks of [`vfs::namespace::NodeStore`], which LFS leaves empty.
//! * **Update-in-place data**: file blocks are allocated near their inode
//!   (with a sequential-allocation hint) and always rewritten at the same
//!   address, so random writes stay random at the disk.
//! * **Delayed data write-back**: file data sits in the same
//!   [`mem_mgr::MemMgr`] file cache used by LFS and is written back on age
//!   threshold, cache pressure, or sync — matching the SunOS file cache.
//! * **Scan-based recovery**: a volume that was not cleanly unmounted is
//!   repaired at mount by a whole-disk scan (`fsck`), which is what makes
//!   FFS recovery time proportional to disk size (§4.4).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use ffs_baseline::{Ffs, FfsConfig};
//! use sim_disk::{Clock, DiskGeometry, SimDisk};
//! use vfs::FileSystem;
//!
//! let clock = Clock::new();
//! let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
//! let mut fs = Ffs::format(disk, FfsConfig::small_test(), clock).unwrap();
//!
//! let sync_before = fs.device().stats().sync_writes;
//! fs.write_file("/report", b"quarterly numbers").unwrap();
//! // The create performed synchronous metadata writes — the paper's
//! // Figure 1 behaviour.
//! assert!(fs.device().stats().sync_writes > sync_before);
//! assert_eq!(fs.read_file("/report").unwrap(), b"quarterly numbers");
//! ```

pub mod alloc;
pub mod config;
pub mod fs;
pub mod fsck;
pub mod layout;

#[cfg(test)]
mod fs_tests;
mod file;
mod ops;

pub use config::FfsConfig;
pub use fs::{Ffs, FfsStats};
pub use fsck::FfsFsckReport;
