#![warn(missing_docs)]

//! Workload generators for the paper's evaluation (§5).
//!
//! Every generator drives any [`vfs::FileSystem`], so each experiment runs
//! identically against LFS and the FFS baseline. Timing uses the shared
//! virtual [`sim_disk::Clock`] via [`Stopwatch`].
//!
//! # Examples
//!
//! ```
//! use vfs::model::ModelFs;
//! use workload::small_files::{create_phase, read_phase, SmallFileSpec};
//!
//! let mut fs = ModelFs::new();
//! let spec = SmallFileSpec::scaled(100, 1024);
//! create_phase(&mut fs, &spec).unwrap();
//! read_phase(&mut fs, &spec).unwrap();
//! ```

pub mod hotcold;
pub mod large_file;
pub mod office;
pub mod small_files;
pub mod utilization;

use std::sync::Arc;

use sim_disk::Clock;

/// Measures virtual elapsed time over the shared clock.
#[derive(Debug)]
pub struct Stopwatch {
    clock: Arc<Clock>,
    start_ns: u64,
}

impl Stopwatch {
    /// Starts measuring now.
    pub fn start(clock: Arc<Clock>) -> Self {
        let start_ns = clock.now_ns();
        Self { clock, start_ns }
    }

    /// Virtual seconds since start.
    pub fn elapsed_secs(&self) -> f64 {
        (self.clock.now_ns() - self.start_ns) as f64 / 1e9
    }

    /// Virtual nanoseconds since start.
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns() - self.start_ns
    }

    /// Restarts the stopwatch and returns the previous elapsed seconds.
    pub fn lap_secs(&mut self) -> f64 {
        let elapsed = self.elapsed_secs();
        self.start_ns = self.clock.now_ns();
        elapsed
    }
}

/// Deterministic pseudo-random payload of `len` bytes.
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    // A small xorshift keeps payload generation cheap and reproducible
    // without threading an RNG through every call site.
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_tracks_virtual_time() {
        let clock = Clock::new();
        let mut watch = Stopwatch::start(Arc::clone(&clock));
        clock.advance_ns(2_500_000_000);
        assert!((watch.elapsed_secs() - 2.5).abs() < 1e-9);
        assert!((watch.lap_secs() - 2.5).abs() < 1e-9);
        assert_eq!(watch.elapsed_ns(), 0);
    }

    #[test]
    fn payload_is_deterministic_and_seed_sensitive() {
        assert_eq!(payload(1, 64), payload(1, 64));
        assert_ne!(payload(1, 64), payload(2, 64));
        assert_eq!(payload(9, 100).len(), 100);
    }
}
