#![warn(missing_docs)]

//! Common file-system interface for the LFS reproduction.
//!
//! The paper compares two storage managers — the log-structured LFS and the
//! update-in-place SunOS/BSD FFS — under identical workloads. This crate
//! defines the [`FileSystem`] trait both implementations expose so every
//! benchmark, example, and test can be written once and run against either.
//!
//! It also hosts the pieces the two file systems genuinely share:
//!
//! * [`namespace`] — the UNIX namespace and file operations themselves:
//!   directory streams, path walks, `create`/`unlink`/`rename`/`link`,
//!   the read loop and the per-operation histograms, written once and
//!   generic over [`namespace::NodeStore`], the hooks in which LFS and
//!   FFS differ (inode allocation, block placement, and what must be on
//!   disk when a call returns).
//! * [`dirent`] — the directory-entry wire format (the paper notes LFS
//!   keeps "the formats of directories and inodes ... the same as in the
//!   BSD example").
//! * [`blockmap`] — direct/single-indirect/double-indirect block-index
//!   arithmetic for UNIX-style inodes, the indirect-block pointer codec
//!   and the cache-index ranges of indirect blocks.
//! * [`path`] — absolute-path parsing and validation.
//! * [`model::ModelFs`] — an in-memory reference implementation used as the
//!   oracle in property-based tests. It deliberately does not use
//!   [`namespace`]: an oracle that shared the code under test would agree
//!   with its bugs.

pub mod blockmap;
pub mod dirent;
pub mod error;
pub mod fs;
pub mod model;
pub mod namespace;
#[cfg(test)]
mod namespace_tests;
pub mod path;
pub mod types;
pub mod wire;

pub use error::{FsError, FsResult};
pub use fs::FileSystem;
pub use types::{DirEntry, FileKind, FsStats, Ino, Metadata};
