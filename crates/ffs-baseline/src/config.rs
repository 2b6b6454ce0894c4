//! FFS configuration.

/// Tunable parameters of an FFS volume.
#[derive(Debug, Clone)]
pub struct FfsConfig {
    /// File-system block size in bytes (SunOS used 8 KB in the paper's
    /// tests).
    pub block_size: usize,
    /// Blocks per cylinder group.
    pub cg_blocks: usize,
    /// Inodes per cylinder group.
    pub inodes_per_cg: u32,
    /// File-cache capacity in bytes.
    pub cache_bytes: usize,
    /// How many inode-table reads the mount-time fsck scan keeps in
    /// flight. `1` (the default) is the classic sequential scan; `0`
    /// asks the device for its spindle count; larger values fan the
    /// per-cylinder-group reads out across the array through the
    /// asynchronous read facade. The rebuilt bitmaps and link counts
    /// are identical at every setting — the scan decodes results in
    /// `(cylinder group, table block)` order regardless of completion
    /// order.
    pub fsck_fanout: usize,
}

impl FfsConfig {
    /// The paper's SunOS configuration: 8 KB blocks, ~15 MB cache.
    pub fn paper() -> Self {
        Self {
            block_size: 8192,
            // 16 MB cylinder groups.
            cg_blocks: 2048,
            inodes_per_cg: 2048,
            cache_bytes: 15 * 1024 * 1024,
            fsck_fanout: 1,
        }
    }

    /// A miniature configuration for unit tests on tiny disks.
    pub fn small_test() -> Self {
        Self {
            block_size: 512,
            cg_blocks: 128,
            inodes_per_cg: 64,
            cache_bytes: 64 * 1024,
            fsck_fanout: 1,
        }
    }

    /// The natural striping unit for this configuration: one cylinder
    /// group, so allocation locality within a group maps to a single
    /// spindle and groups rotate round-robin across the array.
    pub fn stripe_chunk_bytes(&self) -> usize {
        self.cg_blocks * self.block_size
    }

    /// Builder-style override of the cache size.
    pub fn with_cache_bytes(mut self, cache_bytes: usize) -> Self {
        self.cache_bytes = cache_bytes;
        self
    }

    /// Builder-style override of the block size.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Builder-style override of the mount-time fsck fan-out
    /// (`0` = ask the device for its spindle count).
    pub fn with_fsck_fanout(mut self, fanout: usize) -> Self {
        self.fsck_fanout = fanout;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn validate(&self) {
        assert!(
            self.block_size >= sim_disk::SECTOR_SIZE
                && self.block_size.is_multiple_of(sim_disk::SECTOR_SIZE),
            "block size must be a multiple of the sector size"
        );
        assert!(self.cg_blocks >= 8, "cylinder groups must hold >= 8 blocks");
        assert!(self.inodes_per_cg >= 8, "need at least 8 inodes per group");
    }
}

impl Default for FfsConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        FfsConfig::paper().validate();
        FfsConfig::small_test().validate();
        assert_eq!(FfsConfig::paper().block_size, 8192);
    }

    #[test]
    #[should_panic(expected = "multiple of the sector size")]
    fn rejects_bad_block_size() {
        FfsConfig::paper().with_block_size(1000).validate();
    }
}
