#![warn(missing_docs)]

//! Umbrella crate for the LFS Storage Manager reproduction.
//!
//! Re-exports the workspace crates so examples and integration tests can
//! depend on a single package.

pub use ffs_baseline;
pub use lfs_core;
pub use mem_mgr;
pub use obs;
pub use sim_disk;
pub use vfs;
pub use workload;
