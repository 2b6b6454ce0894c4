//! The benchmark as a library, so its self-tests can drive it.

pub mod bench;
pub mod drill;
pub mod ffs_arm;
pub mod gen;
pub mod host;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod run;
pub mod spanfs;
pub mod workload;
