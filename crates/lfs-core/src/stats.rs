//! Operational counters for experiments and debugging.
//!
//! The live counters are registry-backed [`obs`] instruments held in
//! `LfsObs`; [`LfsStats`] is the point-in-time view the accessor
//! [`Lfs::stats`](crate::Lfs::stats) reads from them, so
//! `fs.stats().field` call sites and the shared metrics registry (and
//! hence the JSON export) show the same numbers. Both structs are
//! generated from the one declaration below.

obs::instruments! {
    /// Registry-backed instruments for a mounted LFS: one counter per
    /// [`LfsStats`] field, in the stack's shared registry, so the same
    /// numbers appear in `fs.stats()`, in `Registry::snapshot`, and in the
    /// exported JSON.
    pub(crate) struct LfsObs {}
    /// Counters accumulated by a mounted LFS.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LfsStats {
        chunks_written, Counter, "log.chunks_written", "Log chunks written (each is one sequential disk transfer).";
        partial_chunks, Counter, "log.partial_chunks", "Chunks that did not fill their segment (partial segment \
            writes).";
        segments_sealed, Counter, "log.segments_sealed", "Segments sealed (filled and closed).";
        data_blocks_written, Counter, "log.data_blocks_written", "File data blocks written to the log.";
        indirect_blocks_written, Counter, "log.indirect_blocks_written", "Indirect blocks written to the log.";
        inode_blocks_written, Counter, "log.inode_blocks_written", "Inode blocks written to the log.";
        imap_blocks_written, Counter, "log.imap_blocks_written", "Inode-map blocks written to the log.";
        usage_blocks_written, Counter, "log.usage_blocks_written", "Usage-table blocks written to the log.";
        summary_blocks_written, Counter, "log.summary_blocks_written", "Summary blocks written (log overhead).";
        checkpoints, Counter, "log.checkpoints", "Checkpoints completed.";
        segments_cleaned, Counter, "cleaner.segments_cleaned", "Segments processed by the cleaner.";
        cleaner_blocks_copied, Counter, "cleaner.blocks_copied", "Live blocks the cleaner copied back into the cache.";
        cleaner_inodes_copied, Counter, "cleaner.inodes_copied", "Live inodes the cleaner re-dirtied.";
        cleaner_bytes_read, Counter, "cleaner.bytes_read", "Bytes of whole-segment reads performed by the cleaner.";
        cleaner_passes, Counter, "cleaner.passes", "Cleaner passes that ran.";
        async_steps, Counter, "cleaner.async.steps", "Incremental async-cleaner steps executed.";
        async_runs_started, Counter, "cleaner.async.runs_started", "Async cleaner runs started (low watermark \
            crossed).";
        async_runs_completed, Counter, "cleaner.async.runs_completed", "Async cleaner runs that reached the high \
            watermark or ran dry.";
        async_victims_aborted, Counter, "cleaner.async.victims_aborted", "Victims abandoned mid-run because \
            their segment state changed.";
        async_offspindle_victims, Counter, "cleaner.async.offspindle_victims", "Async victims selected off the \
            log head's spindle.";
        async_emergency_passes, Counter, "cleaner.async.emergency_passes", "Emergency synchronous passes taken \
            while in async mode (the host stepped too slowly and the log neared its floor).";
        rollforward_chunks, Counter, "recovery.rollforward_chunks", "Log chunks replayed by roll-forward at the \
            last mount.";
        rollforward_inodes, Counter, "recovery.rollforward_inodes", "Inodes recovered by roll-forward at the \
            last mount.";
        recovery_partitions, Counter, "recovery.partitions", "Spindle partitions that did recovery work at the \
            last parallel roll-forward (0 when recovery ran sequentially).";
        recovery_parallel_reads, Counter, "recovery.parallel_reads", "Whole-segment reads recovery issued \
            through the asynchronous read facade (overlapped across spindles).";
        recovery_prefetched_blocks, Counter, "recovery.prefetched_blocks", "Metadata blocks the recovery gather \
            phase prefetched into the cache ahead of the serial repair passes.";
        verified_reads, Counter, "integrity.verified_reads", "Log reads verified against their per-block checksum.";
        corruptions_detected, Counter, "integrity.corruptions_detected", "Checksum mismatches detected on the \
            read path.";
        scrub_segments, Counter, "scrub.segments", "Segments walked by the scrub pass.";
        scrub_blocks_verified, Counter, "scrub.blocks_verified", "Blocks whose checksums the scrub pass verified.";
        scrub_bad_blocks, Counter, "scrub.bad_blocks", "Bad or rotten live blocks the scrub pass detected.";
        scrub_relocated, Counter, "scrub.relocated", "Bad live blocks the scrub pass rewrote to the log head.";
        scrub_unrecoverable, Counter, "scrub.unrecoverable", "Bad live blocks the scrub pass could not recover.";
    }
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
