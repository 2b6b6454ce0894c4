//! Operational counters for experiments and debugging.
//!
//! The live counters are registry-backed [`obs`] instruments held in
//! [`LfsObs`]; [`LfsStats`] is the point-in-time snapshot the accessor
//! [`Lfs::stats`](crate::Lfs::stats) assembles from them, so existing
//! `fs.stats().field` call sites keep working while every count is also
//! visible through the shared metrics registry (and hence the JSON
//! export).

use obs::{Counter, Registry};
use vfs::namespace::OpHists;

/// Counters accumulated by a mounted LFS.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LfsStats {
    /// Log chunks written (each is one sequential disk transfer).
    pub chunks_written: u64,
    /// Chunks that did not fill their segment (partial segment writes).
    pub partial_chunks: u64,
    /// Segments sealed (filled and closed).
    pub segments_sealed: u64,
    /// File data blocks written to the log.
    pub data_blocks_written: u64,
    /// Indirect blocks written to the log.
    pub indirect_blocks_written: u64,
    /// Inode blocks written to the log.
    pub inode_blocks_written: u64,
    /// Inode-map blocks written to the log.
    pub imap_blocks_written: u64,
    /// Usage-table blocks written to the log.
    pub usage_blocks_written: u64,
    /// Summary blocks written (log overhead).
    pub summary_blocks_written: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
    /// Segments processed by the cleaner.
    pub segments_cleaned: u64,
    /// Live blocks the cleaner copied back into the cache.
    pub cleaner_blocks_copied: u64,
    /// Live inodes the cleaner re-dirtied.
    pub cleaner_inodes_copied: u64,
    /// Bytes of whole-segment reads performed by the cleaner.
    pub cleaner_bytes_read: u64,
    /// Cleaner passes that ran.
    pub cleaner_passes: u64,
    /// Incremental async-cleaner steps executed.
    pub async_steps: u64,
    /// Async cleaner runs started (low watermark crossed).
    pub async_runs_started: u64,
    /// Async cleaner runs that reached the high watermark or ran dry.
    pub async_runs_completed: u64,
    /// Victims abandoned mid-run because their segment state changed.
    pub async_victims_aborted: u64,
    /// Async victims selected off the log head's spindle.
    pub async_offspindle_victims: u64,
    /// Emergency synchronous passes taken while in async mode (the
    /// host stepped too slowly and the log neared its floor).
    pub async_emergency_passes: u64,
    /// Log chunks replayed by roll-forward at the last mount.
    pub rollforward_chunks: u64,
    /// Inodes recovered by roll-forward at the last mount.
    pub rollforward_inodes: u64,
    /// Spindle partitions that did recovery work at the last parallel
    /// roll-forward (0 when recovery ran sequentially).
    pub recovery_partitions: u64,
    /// Whole-segment reads recovery issued through the asynchronous
    /// read facade (overlapped across spindles).
    pub recovery_parallel_reads: u64,
    /// Metadata blocks the recovery gather phase prefetched into the
    /// cache ahead of the serial repair passes.
    pub recovery_prefetched_blocks: u64,
    /// Log reads verified against their per-block checksum.
    pub verified_reads: u64,
    /// Checksum mismatches detected on the read path.
    pub corruptions_detected: u64,
    /// Segments walked by the scrub pass.
    pub scrub_segments: u64,
    /// Blocks whose checksums the scrub pass verified.
    pub scrub_blocks_verified: u64,
    /// Bad or rotten live blocks the scrub pass detected.
    pub scrub_bad_blocks: u64,
    /// Bad live blocks the scrub pass rewrote to the log head.
    pub scrub_relocated: u64,
    /// Bad live blocks the scrub pass could not recover.
    pub scrub_unrecoverable: u64,
}

impl LfsStats {
    /// Total blocks written to the log, including summary overhead.
    pub fn total_log_blocks(&self) -> u64 {
        self.data_blocks_written
            + self.indirect_blocks_written
            + self.inode_blocks_written
            + self.imap_blocks_written
            + self.usage_blocks_written
            + self.summary_blocks_written
    }

    /// Fraction of written blocks that were summary overhead.
    pub fn summary_overhead(&self) -> f64 {
        let total = self.total_log_blocks();
        if total == 0 {
            0.0
        } else {
            self.summary_blocks_written as f64 / total as f64
        }
    }
}

/// Registry-backed instruments for a mounted LFS: one [`Counter`] per
/// [`LfsStats`] field plus per-operation latency histograms. All handles
/// point into the stack's shared [`Registry`], so the same numbers appear
/// in `fs.stats()`, in `Registry::snapshot`, and in the exported JSON.
pub(crate) struct LfsObs {
    pub registry: Registry,
    pub chunks_written: Counter,
    pub partial_chunks: Counter,
    pub segments_sealed: Counter,
    pub data_blocks_written: Counter,
    pub indirect_blocks_written: Counter,
    pub inode_blocks_written: Counter,
    pub imap_blocks_written: Counter,
    pub usage_blocks_written: Counter,
    pub summary_blocks_written: Counter,
    pub checkpoints: Counter,
    pub segments_cleaned: Counter,
    pub cleaner_blocks_copied: Counter,
    pub cleaner_inodes_copied: Counter,
    pub cleaner_bytes_read: Counter,
    pub cleaner_passes: Counter,
    pub async_steps: Counter,
    pub async_runs_started: Counter,
    pub async_runs_completed: Counter,
    pub async_victims_aborted: Counter,
    pub async_offspindle_victims: Counter,
    pub async_emergency_passes: Counter,
    pub rollforward_chunks: Counter,
    pub rollforward_inodes: Counter,
    pub recovery_partitions: Counter,
    pub recovery_parallel_reads: Counter,
    pub recovery_prefetched_blocks: Counter,
    pub verified_reads: Counter,
    pub corruptions_detected: Counter,
    pub scrub_segments: Counter,
    pub scrub_blocks_verified: Counter,
    pub scrub_bad_blocks: Counter,
    pub scrub_relocated: Counter,
    pub scrub_unrecoverable: Counter,
    pub ops: OpHists,
}

impl LfsObs {
    /// Registers every LFS instrument in `registry`.
    pub fn new(registry: Registry) -> Self {
        let c = |name: &str| registry.counter(name);
        LfsObs {
            chunks_written: c("log.chunks_written"),
            partial_chunks: c("log.partial_chunks"),
            segments_sealed: c("log.segments_sealed"),
            data_blocks_written: c("log.data_blocks_written"),
            indirect_blocks_written: c("log.indirect_blocks_written"),
            inode_blocks_written: c("log.inode_blocks_written"),
            imap_blocks_written: c("log.imap_blocks_written"),
            usage_blocks_written: c("log.usage_blocks_written"),
            summary_blocks_written: c("log.summary_blocks_written"),
            checkpoints: c("log.checkpoints"),
            segments_cleaned: c("cleaner.segments_cleaned"),
            cleaner_blocks_copied: c("cleaner.blocks_copied"),
            cleaner_inodes_copied: c("cleaner.inodes_copied"),
            cleaner_bytes_read: c("cleaner.bytes_read"),
            cleaner_passes: c("cleaner.passes"),
            async_steps: c("cleaner.async.steps"),
            async_runs_started: c("cleaner.async.runs_started"),
            async_runs_completed: c("cleaner.async.runs_completed"),
            async_victims_aborted: c("cleaner.async.victims_aborted"),
            async_offspindle_victims: c("cleaner.async.offspindle_victims"),
            async_emergency_passes: c("cleaner.async.emergency_passes"),
            rollforward_chunks: c("recovery.rollforward_chunks"),
            rollforward_inodes: c("recovery.rollforward_inodes"),
            recovery_partitions: c("recovery.partitions"),
            recovery_parallel_reads: c("recovery.parallel_reads"),
            recovery_prefetched_blocks: c("recovery.prefetched_blocks"),
            verified_reads: c("integrity.verified_reads"),
            corruptions_detected: c("integrity.corruptions_detected"),
            scrub_segments: c("scrub.segments"),
            scrub_blocks_verified: c("scrub.blocks_verified"),
            scrub_bad_blocks: c("scrub.bad_blocks"),
            scrub_relocated: c("scrub.relocated"),
            scrub_unrecoverable: c("scrub.unrecoverable"),
            ops: OpHists::new(&registry),
            registry,
        }
    }

    /// Assembles the [`LfsStats`] snapshot from the live counters.
    pub fn stats(&self) -> LfsStats {
        LfsStats {
            chunks_written: self.chunks_written.get(),
            partial_chunks: self.partial_chunks.get(),
            segments_sealed: self.segments_sealed.get(),
            data_blocks_written: self.data_blocks_written.get(),
            indirect_blocks_written: self.indirect_blocks_written.get(),
            inode_blocks_written: self.inode_blocks_written.get(),
            imap_blocks_written: self.imap_blocks_written.get(),
            usage_blocks_written: self.usage_blocks_written.get(),
            summary_blocks_written: self.summary_blocks_written.get(),
            checkpoints: self.checkpoints.get(),
            segments_cleaned: self.segments_cleaned.get(),
            cleaner_blocks_copied: self.cleaner_blocks_copied.get(),
            cleaner_inodes_copied: self.cleaner_inodes_copied.get(),
            cleaner_bytes_read: self.cleaner_bytes_read.get(),
            cleaner_passes: self.cleaner_passes.get(),
            async_steps: self.async_steps.get(),
            async_runs_started: self.async_runs_started.get(),
            async_runs_completed: self.async_runs_completed.get(),
            async_victims_aborted: self.async_victims_aborted.get(),
            async_offspindle_victims: self.async_offspindle_victims.get(),
            async_emergency_passes: self.async_emergency_passes.get(),
            rollforward_chunks: self.rollforward_chunks.get(),
            rollforward_inodes: self.rollforward_inodes.get(),
            recovery_partitions: self.recovery_partitions.get(),
            recovery_parallel_reads: self.recovery_parallel_reads.get(),
            recovery_prefetched_blocks: self.recovery_prefetched_blocks.get(),
            verified_reads: self.verified_reads.get(),
            corruptions_detected: self.corruptions_detected.get(),
            scrub_segments: self.scrub_segments.get(),
            scrub_blocks_verified: self.scrub_blocks_verified.get(),
            scrub_bad_blocks: self.scrub_bad_blocks.get(),
            scrub_relocated: self.scrub_relocated.get(),
            scrub_unrecoverable: self.scrub_unrecoverable.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_block_kinds() {
        let stats = LfsStats {
            data_blocks_written: 10,
            indirect_blocks_written: 2,
            inode_blocks_written: 3,
            imap_blocks_written: 1,
            usage_blocks_written: 1,
            summary_blocks_written: 3,
            ..LfsStats::default()
        };
        assert_eq!(stats.total_log_blocks(), 20);
        assert!((stats.summary_overhead() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn overhead_of_nothing_is_zero() {
        assert_eq!(LfsStats::default().summary_overhead(), 0.0);
    }
}
