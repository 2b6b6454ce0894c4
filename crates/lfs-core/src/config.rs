//! File-system configuration.

use mem_mgr::{CachePolicy, WritebackPolicy};

use crate::cleaner::CleanerConfig;

/// Tunable parameters of an LFS file system.
///
/// [`LfsConfig::paper`] reproduces the configuration of the paper's §5
/// evaluation: 4 KB blocks, 1 MB segments, a ~15 MB file cache, 30-second
/// write-back and checkpoint intervals.
#[derive(Debug, Clone)]
pub struct LfsConfig {
    /// File-system block size in bytes. Must be a multiple of the sector
    /// size and a power of two.
    pub block_size: usize,
    /// Segment size in bytes. Must be a multiple of `block_size`.
    pub segment_bytes: usize,
    /// Maximum number of inodes (sets the inode-map size at format time).
    pub max_inodes: u32,
    /// File-cache capacity in bytes.
    pub cache_bytes: usize,
    /// Write-back policy (age threshold, dirty high-water mark).
    pub writeback: WritebackPolicy,
    /// Memory-manager policy: a single shared LRU over all cached
    /// blocks (the paper's file cache), or the adaptive split into a
    /// write buffer and a scan-resistant read cache with a tuned
    /// boundary between them.
    pub cache_policy: CachePolicy,
    /// Interval between automatic checkpoints, in virtual nanoseconds.
    pub checkpoint_interval_ns: u64,
    /// Segment-cleaner configuration.
    pub cleaner: CleanerConfig,
    /// Cap on the fraction of log capacity that live data may occupy,
    /// before the segment reserve comes off. §5.3's closing question —
    /// "how full LFS can allow the disk to become and still keep the
    /// cleaning cost down" — has a hard edge: above ~90 % the cleaner
    /// reclaims less per pass than its own checkpoints consume and the
    /// log wedges. Writes fail with `NoSpace` once live bytes would pass
    /// `floor(log capacity × this) − (reserve + 1) segments`, the reserve
    /// being 2 + the cache in segments (at most a quarter of the log):
    /// 63 segments of 1 MB and a 2 MB cache stop at 0.88 × 66,060,288 −
    /// 5 MiB = 52.9 MB, 78.8 % of a 64 MB disk, not at the cap itself.
    pub max_utilization: f64,
    /// Whether mount attempts roll-forward past the last checkpoint
    /// (the paper's "ultimately LFS will recover" design, §4.4.1).
    /// Without it `fsync` forces a checkpoint instead of a log flush,
    /// so synced data is recoverable either way.
    pub roll_forward: bool,
    /// Segment-align the fixed metadata regions at format time, so the
    /// superblock and each checkpoint region start on their own
    /// segment boundary (padding the gaps).
    ///
    /// On a parity volume whose stripe rows coincide with segments,
    /// this confines every in-place metadata rewrite to rows that hold
    /// nothing else. That closes half of the degraded-array write
    /// hole: a checkpoint write torn by a crash can stale only its own
    /// row's parity, so a later XOR reconstruction of a lost spindle
    /// can garble only the region being written — which its own
    /// checksum already rejects — never an unrelated committed block.
    /// The other half of the hole lives in the log itself and needs
    /// [`seal_on_flush`] as well.
    ///
    /// Off by default; single-disk layouts gain nothing from the
    /// padding.
    ///
    /// [`seal_on_flush`]: LfsConfig::seal_on_flush
    pub segment_align_metadata: bool,
    /// Seal the open segment at the end of every flush, so no later
    /// flush ever appends into a segment that already holds committed
    /// chunks.
    ///
    /// On a parity volume whose stripe rows coincide with segments,
    /// appending a chunk rewrites the row's parity in place. If the
    /// crash lands between the append's data writes and its parity
    /// write, the row's XOR is stale at every in-row offset the append
    /// changed — and if an *earlier, committed* chunk shares the row, a
    /// later reconstruction of a lost spindle garbles that committed
    /// chunk at the matching offsets. No write ordering fixes this
    /// (data-before-parity and parity-before-data are symmetric), so
    /// the fix is structural: with this knob each parity row only ever
    /// holds chunks of a single flush. A torn row then contains only
    /// that flush's uncommitted tail, which roll-forward's payload
    /// CRCs and chunk self-addresses already fence. Sealed rows are
    /// write-once until the cleaner reclaims the whole segment.
    ///
    /// The forced seal stamps a `next_seg` link in the flush's final
    /// chunk, so roll-forward can still follow the chain across the
    /// mid-segment boundary. Off by default: on a single disk it only
    /// costs segment-tail fragmentation (which the cleaner reclaims)
    /// without buying anything.
    pub seal_on_flush: bool,
    /// Recovery read fan-out: how many spindle partitions the recovery
    /// path (roll-forward, fsck's gather phase, scrub's gather phase)
    /// keeps in flight at once through the device's asynchronous read
    /// facade.
    ///
    /// `1` (the default) is strictly sequential — the recovery code
    /// takes the same synchronous path it always has. `0` means "ask
    /// the device": the fan-out becomes [`BlockDevice::fanout`], i.e.
    /// the spindle count of a striped volume. Any other value is used
    /// as-is. The recovered state is bit-identical at every setting;
    /// only the virtual time spent recovering changes.
    ///
    /// [`BlockDevice::fanout`]: sim_disk::BlockDevice::fanout
    pub recovery_fanout: usize,
}

impl LfsConfig {
    /// The configuration used in the paper's evaluation (§5).
    pub fn paper() -> Self {
        Self {
            block_size: 4096,
            segment_bytes: 1024 * 1024,
            max_inodes: 65_536,
            cache_bytes: 15 * 1024 * 1024,
            writeback: WritebackPolicy::paper(),
            cache_policy: CachePolicy::SharedLru,
            checkpoint_interval_ns: 30 * 1_000_000_000,
            cleaner: CleanerConfig::default(),
            max_utilization: 0.88,
            roll_forward: true,
            segment_align_metadata: false,
            seal_on_flush: false,
            recovery_fanout: 1,
        }
    }

    /// A miniature configuration for fast unit tests on tiny disks:
    /// 512-byte blocks, 16 KB segments, 512 inodes, 64 KB cache.
    pub fn small_test() -> Self {
        Self {
            block_size: 512,
            segment_bytes: 16 * 1024,
            max_inodes: 512,
            cache_bytes: 64 * 1024,
            writeback: WritebackPolicy::paper(),
            cache_policy: CachePolicy::SharedLru,
            checkpoint_interval_ns: 30 * 1_000_000_000,
            cleaner: CleanerConfig::default(),
            max_utilization: 0.88,
            roll_forward: true,
            segment_align_metadata: false,
            seal_on_flush: false,
            recovery_fanout: 1,
        }
    }

    /// Blocks per segment.
    pub fn seg_blocks(&self) -> usize {
        self.segment_bytes / self.block_size
    }

    /// The natural striping unit for this configuration: one full
    /// segment, so each log segment lands on a single spindle and
    /// successive segments rotate round-robin across the array.
    pub fn stripe_chunk_bytes(&self) -> usize {
        self.segment_bytes
    }

    /// Cache capacity in blocks.
    pub fn cache_blocks(&self) -> usize {
        (self.cache_bytes / self.block_size).max(8)
    }

    /// Builder-style override of the block size.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Builder-style override of the segment size.
    pub fn with_segment_bytes(mut self, segment_bytes: usize) -> Self {
        self.segment_bytes = segment_bytes;
        self
    }

    /// Builder-style override of the cache size.
    pub fn with_cache_bytes(mut self, cache_bytes: usize) -> Self {
        self.cache_bytes = cache_bytes;
        self
    }

    /// Builder-style override of the memory-manager cache policy.
    pub fn with_cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// Builder-style override of the checkpoint interval (seconds).
    pub fn with_checkpoint_secs(mut self, secs: f64) -> Self {
        self.checkpoint_interval_ns = (secs * 1e9) as u64;
        self
    }

    /// Builder-style enable of [`segment_align_metadata`]
    /// (see that field for the parity write-hole rationale).
    ///
    /// [`segment_align_metadata`]: LfsConfig::segment_align_metadata
    pub fn with_segment_aligned_metadata(mut self) -> Self {
        self.segment_align_metadata = true;
        self
    }

    /// Builder-style override of [`recovery_fanout`]: `1` sequential,
    /// `0` match the device's spindle count, `n` explicit.
    ///
    /// [`recovery_fanout`]: LfsConfig::recovery_fanout
    pub fn with_recovery_fanout(mut self, fanout: usize) -> Self {
        self.recovery_fanout = fanout;
        self
    }

    /// Builder-style enable of [`seal_on_flush`]
    /// (see that field for the parity write-hole rationale).
    ///
    /// [`seal_on_flush`]: LfsConfig::seal_on_flush
    pub fn with_seal_on_flush(mut self) -> Self {
        self.seal_on_flush = true;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on an invalid configuration;
    /// called from `format`/`mount`.
    pub fn validate(&self) {
        assert!(
            self.block_size >= sim_disk::SECTOR_SIZE
                && self.block_size.is_multiple_of(sim_disk::SECTOR_SIZE),
            "block size must be a multiple of the sector size"
        );
        assert!(
            self.block_size.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(
            self.segment_bytes.is_multiple_of(self.block_size),
            "segment size must be a multiple of the block size"
        );
        assert!(
            self.seg_blocks() >= 4,
            "segments must hold at least 4 blocks (summary + data)"
        );
        assert!(self.max_inodes >= 2, "need at least the root inode");
    }
}

impl Default for LfsConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_5() {
        let cfg = LfsConfig::paper();
        assert_eq!(cfg.block_size, 4096);
        assert_eq!(cfg.segment_bytes, 1 << 20);
        assert_eq!(cfg.seg_blocks(), 256);
        assert_eq!(cfg.checkpoint_interval_ns, 30_000_000_000);
        cfg.validate();
    }

    #[test]
    fn small_test_config_is_valid() {
        let cfg = LfsConfig::small_test();
        cfg.validate();
        assert_eq!(cfg.seg_blocks(), 32);
    }

    #[test]
    #[should_panic(expected = "multiple of the block size")]
    fn validate_rejects_misaligned_segment() {
        LfsConfig::paper().with_segment_bytes(5000).validate();
    }

    #[test]
    fn builders_override_fields() {
        let cfg = LfsConfig::paper()
            .with_block_size(8192)
            .with_segment_bytes(2 << 20)
            .with_cache_bytes(1 << 20)
            .with_checkpoint_secs(5.0);
        assert_eq!(cfg.block_size, 8192);
        assert_eq!(cfg.seg_blocks(), (2 << 20) / 8192);
        assert_eq!(cfg.cache_blocks(), (1 << 20) / 8192);
        assert_eq!(cfg.checkpoint_interval_ns, 5_000_000_000);
    }
}
