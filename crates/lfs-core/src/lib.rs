#![warn(missing_docs)]

//! The LFS storage manager.
//!
//! This crate implements the log-structured file system described in
//! *The LFS Storage Manager* (Rosenblum & Ousterhout, USENIX 1990): the
//! disk is a **segmented append-only log**. All modifications — file data,
//! directories, inodes, and the inode map — accumulate in the file cache
//! and reach disk in large sequential segment writes. Nothing is ever
//! updated in place except the two fixed checkpoint regions.
//!
//! The major pieces, mapped to the paper:
//!
//! | Paper section | Module |
//! |---|---|
//! | §4.1 file writing (segment packing) | [`log`] |
//! | §4.2.1 inode map | [`imap`], [`layout::imap_block`] |
//! | §4.2 inodes & indirect blocks | [`layout::inode`], [`fs`] |
//! | §4.3.1 segment summary blocks | [`layout::summary`] |
//! | §4.3.2–4.3.4 segment cleaning | [`cleaner`], [`usage`] |
//! | §4.3.5 segment write timing | [`mem_mgr::WritebackPolicy`] + [`fs`] |
//! | §4.4 checkpoints & crash recovery | [`checkpoint`], [`recovery`] |
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use lfs_core::{Lfs, LfsConfig};
//! use sim_disk::{Clock, DiskGeometry, SimDisk};
//! use vfs::FileSystem;
//!
//! let clock = Clock::new();
//! let disk = SimDisk::new(DiskGeometry::tiny_test(131_072), Arc::clone(&clock));
//! let mut fs = Lfs::format(disk, LfsConfig::small_test(), clock).unwrap();
//! fs.mkdir("/dir1").unwrap();
//! fs.write_file("/dir1/file1", b"hello, log-structured world").unwrap();
//! fs.sync().unwrap();
//! assert_eq!(fs.read_file("/dir1/file1").unwrap(), b"hello, log-structured world");
//! ```

pub mod checkpoint;
pub mod cleaner;
pub mod cleaner_run;
#[cfg(test)]
mod cleaner_tests;
pub mod config;
pub mod fs;
pub mod fsck;
mod gather;
pub mod imap;
pub mod layout;
pub mod log;
pub mod recovery;
pub mod scrub;
pub mod stats;
pub mod types;
pub mod usage;
pub mod util;

pub use cleaner::{AsyncCleanerPolicy, CleanerConfig, CleanerPolicy, CleanerRunMode};
pub use cleaner_run::{CleanerRun, CleanerStepOutcome};
pub use config::LfsConfig;
pub use fs::Lfs;
pub use fsck::FsckReport;
pub use scrub::ScrubReport;
pub use stats::LfsStats;
pub use types::{BlockAddr, SegNo};

// Re-export the cache crate under the name used in module docs.
pub use mem_mgr;
