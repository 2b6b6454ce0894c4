//! Point-in-time cache reports for tools and benches.

use crate::config::CachePolicy;

obs::instruments! {
    /// The manager's handles into its [`obs::Registry`]: traffic and
    /// tuner counters plus the pool gauges.
    #[derive(Debug)]
    pub(crate) struct CoreObs {
        ghost_hits, Counter, "cache.ghost_hits", "Misses that landed on a ghost entry.";
        promotions, Counter, "cache.promotions", "Probation-to-protected promotions.";
        boundary_moves, Counter, "cache.boundary_moves", "Times the adaptive boundary moved.";
        flush_bytes, Counter, "cache.flush_bytes", "Bytes the file system reported flushed.";
        flush_chunk_writes, Counter, "cache.flush_chunk_writes", "Segment-sized device writes those flushes took.";
        write_target_blocks, Gauge, "cache.write_target_blocks", "Write-buffer boundary in blocks.";
        read_target_blocks, Gauge, "cache.read_target_blocks", "Read-pool budget in blocks.";
        dirty_blocks, Gauge, "cache.dirty_blocks", "Current dirty (write-buffer) blocks.";
        clean_blocks, Gauge, "cache.clean_blocks", "Current clean blocks.";
        probation_blocks, Gauge, "cache.probation_blocks", "Clean blocks on probation.";
        protected_blocks, Gauge, "cache.protected_blocks", "Clean blocks in the protected pool.";
        ghost_blocks, Gauge, "cache.ghost_blocks", "Ghost entries (evicted keys still remembered).";
        reserved_blocks, Gauge, "cache.reserved_blocks", "Blocks' worth of the budget held outside the block map \
            (the inode table).";
        flush_eff_millis, Gauge, "cache.flush_eff_millis", "Last flush efficiency: bytes per segment write, in \
            milli-units of the flush unit (1000 = perfectly full segments).";
    }
    /// Aggregate cache counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats {
        hits, Counter, "cache.hits", "Lookups that found the block cached.";
        misses, Counter, "cache.misses", "Lookups that missed.";
        evictions, Counter, "cache.evictions", "Clean blocks evicted to make room.";
    }
}

obs::instruments! {
    /// One client's instruments, in a registry of their own that the
    /// manager mounts under `cache.client.<id>.`.
    #[derive(Debug)]
    pub(crate) struct ClientObs {
        hits, Counter, "hits", "Lookups by this client that found the block cached.";
        misses, Counter, "misses", "Lookups by this client that missed.";
        ghost_hits, Counter, "ghost_hits", "Misses by this client that landed on a ghost entry.";
        resident_blocks, Gauge, "resident_blocks", "Blocks currently charged to this client.";
    }
}

/// Per-client working-set accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientUsage {
    /// Lookups by this client that found the block cached.
    pub hits: u64,
    /// Lookups by this client that missed.
    pub misses: u64,
    /// Misses by this client that landed on a ghost entry.
    pub ghost_hits: u64,
    /// Blocks currently charged to this client.
    pub resident_blocks: u64,
}

impl ClientUsage {
    /// Hit rate in milli-units (hits * 1000 / lookups), 0 when idle.
    pub fn hit_rate_millis(&self) -> u64 {
        (self.hits * 1000)
            .checked_div(self.hits + self.misses)
            .unwrap_or(0)
    }
}

/// An inode table's occupancy and misses, part of a [`CacheReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InodeTableReport {
    /// Resident inodes.
    pub entries: usize,
    /// Inodes the table may hold.
    pub allowance: usize,
    /// Clean inodes dropped to stay within the allowance.
    pub evictions: u64,
    /// Inode blocks read from disk to load inodes, foreground I/O.
    pub block_reads: u64,
    /// The same under maintenance I/O.
    pub block_reads_maint: u64,
}

/// A point-in-time report of the manager's pools, boundary, counters and
/// per-client charges — what `lfs-tools --cache-stats` prints.
#[derive(Debug, Clone)]
pub struct CacheReport {
    /// Active replacement policy.
    pub policy: CachePolicy,
    /// Block size in bytes.
    pub block_size: usize,
    /// Total memory budget in blocks.
    pub capacity_blocks: usize,
    /// Write-buffer boundary: dirty blocks at/above this trigger a flush.
    /// Under shared LRU this is the fixed dirty high-water mark.
    pub write_target_blocks: usize,
    /// Read-pool budget (capacity minus boundary; the whole capacity
    /// under shared LRU, where clean blocks are only bounded by total).
    pub read_target_blocks: usize,
    /// Current dirty (write-buffer) blocks.
    pub dirty_blocks: usize,
    /// Current clean blocks.
    pub clean_blocks: usize,
    /// Clean blocks on probation (first touch, not yet re-referenced).
    pub probation_blocks: usize,
    /// Clean blocks in the protected pool (re-referenced).
    pub protected_blocks: usize,
    /// Ghost entries (evicted keys still remembered).
    pub ghost_blocks: usize,
    /// Blocks' worth of the budget held outside the block map.
    pub reserved_blocks: usize,
    /// The inode table the reservation pays for, when the report comes
    /// from a file system ([`crate::InodeTable::report_into`]).
    pub inodes: Option<InodeTableReport>,
    /// Hit/miss/eviction counters.
    pub stats: CacheStats,
    /// Misses that landed on a ghost entry.
    pub ghost_hits: u64,
    /// Probation-to-protected promotions.
    pub promotions: u64,
    /// Times the adaptive boundary moved.
    pub boundary_moves: u64,
    /// Last observed flush efficiency: bytes flushed per segment write,
    /// in milli-units of the flush unit (1000 = perfectly full segments).
    pub flush_eff_millis: u64,
    /// Per-client usage, sorted by client id.
    pub clients: Vec<(u32, ClientUsage)>,
}

impl CacheReport {
    /// Overall hit rate in milli-units.
    pub fn hit_rate_millis(&self) -> u64 {
        (self.stats.hits * 1000)
            .checked_div(self.stats.hits + self.stats.misses)
            .unwrap_or(0)
    }

    /// Renders the multi-line human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cache: policy={} capacity={} blocks x {} B\n",
            self.policy.as_str(),
            self.capacity_blocks,
            self.block_size
        ));
        out.push_str(&format!(
            "  boundary: write target {} / read target {} (moved {} times)\n",
            self.write_target_blocks, self.read_target_blocks, self.boundary_moves
        ));
        out.push_str(&format!(
            "  pools: dirty={} clean={} (probation={} protected={}) ghost={}\n",
            self.dirty_blocks,
            self.clean_blocks,
            self.probation_blocks,
            self.protected_blocks,
            self.ghost_blocks
        ));
        out.push_str(&format!(
            "  traffic: hits={} misses={} ({}.{:01}% hit) evictions={} ghost-hits={} promotions={}\n",
            self.stats.hits,
            self.stats.misses,
            self.hit_rate_millis() / 10,
            self.hit_rate_millis() % 10,
            self.stats.evictions,
            self.ghost_hits,
            self.promotions
        ));
        out.push_str(&format!(
            "  flush efficiency: {}.{:03} of flush unit\n",
            self.flush_eff_millis / 1000,
            self.flush_eff_millis % 1000
        ));
        out.push_str(&format!("  reserved: {} blocks\n", self.reserved_blocks));
        if let Some(t) = self.inodes {
            out.push_str(&format!(
                "  inode table: {} of {} entries, evictions={} block reads={} (+{} maintenance)\n",
                t.entries, t.allowance, t.evictions, t.block_reads, t.block_reads_maint
            ));
        }
        if self.clients.is_empty() {
            out.push_str("  clients: (none attributed)\n");
        } else {
            out.push_str("  clients:\n");
            for (id, usage) in &self.clients {
                out.push_str(&format!(
                    "    c{:03}: resident={} hits={} misses={} ghost-hits={} ({}.{:01}% hit)\n",
                    id,
                    usage.resident_blocks,
                    usage.hits,
                    usage.misses,
                    usage.ghost_hits,
                    usage.hit_rate_millis() / 10,
                    usage.hit_rate_millis() % 10
                ));
            }
        }
        out
    }
}
