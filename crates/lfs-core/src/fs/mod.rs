//! The mounted file system: state, the write path, and the segment writer.
//!
//! [`Lfs`] ties together the device, the file cache, the inode map, the
//! segment usage table, and the log position. The central routine is
//! `Lfs::flush`: it drains dirty blocks from the cache into log chunks —
//! data blocks, then indirect blocks (children before parents), then inode
//! blocks, then (at checkpoints) inode-map and usage-table blocks — exactly
//! the packing §4.1 describes, so that one burst of small file writes
//! becomes one large sequential disk transfer.
//!
//! Directories, path resolution and the file operations are not here:
//! they are [`vfs::namespace`], shared with the FFS baseline. `file.rs`
//! holds the block mapping and this file system's
//! [`vfs::namespace::NodeStore`] hooks (whose two persist hooks do
//! nothing — Figure 2); `ops.rs` forwards [`vfs::FileSystem`] to the
//! shared layer and adds `stat`, `fsync` and `sync`.

mod file;
mod ops;
#[cfg(test)]
mod tests;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mem_mgr::{BlockKey, CacheReport, FlushCause, MemConfig, MemMgr, Owner, WritebackTrigger};
use sim_disk::{BlockDevice, Clock, CpuCost, CpuModel};
use vfs::blockmap::{is_data_idx, IDX_DCHILD_BASE, IDX_DTOP, IDX_SINGLE};
use vfs::names::NameIndex;
use vfs::namespace::OpHists;
use vfs::{FileKind, FsError, FsResult, Ino};

use crate::config::LfsConfig;
use crate::imap::Imap;
use crate::layout::inode::{inode_block, Inode};
use crate::layout::summary::BlockKind;
use crate::layout::superblock::Superblock;
use crate::layout::usage_block::SegState;
use crate::log::{plan_chunk, ChunkBuilder, LogPosition};
use crate::stats::{LfsObs, LfsStats};
use crate::types::{BlockAddr, SegNo, INODE_SIZE};
use crate::usage::UsageTable;

/// Metadata cache namespace for inode blocks, keyed by disk address.
pub(crate) const NS_INODE_BLOCKS: u32 = 1;

/// An in-memory inode with its dirty flag.
#[derive(Debug, Clone)]
pub(crate) struct CachedInode {
    pub inode: Inode,
    pub dirty: bool,
}

/// A mounted log-structured file system over a block device.
///
/// Create one with [`Lfs::format`] (new volume) or [`Lfs::mount`]
/// (existing volume, with crash recovery). All file operations are
/// available through the [`vfs::FileSystem`] trait implementation.
pub struct Lfs<D: BlockDevice> {
    pub(crate) dev: D,
    pub(crate) sb: Superblock,
    pub(crate) cfg: LfsConfig,
    pub(crate) clock: Arc<Clock>,
    pub(crate) cpu: CpuModel,
    pub(crate) cache: MemMgr,
    pub(crate) imap: Imap,
    pub(crate) usage: UsageTable,
    /// The in-memory inode table, ordered by ino: every walk of it
    /// (flush order, the table bound's victims) is ascending, hence
    /// the same in every process.
    pub(crate) inodes: BTreeMap<Ino, CachedInode>,
    pub(crate) pos: LogPosition,
    pub(crate) cp_serial: u64,
    /// Next checkpoint goes to region B when true.
    pub(crate) cp_use_b: bool,
    pub(crate) last_cp_ns: u64,
    pub(crate) obs: LfsObs,
    pub(crate) ops: OpHists,
    /// The name index directory lookups go through (this mount's only).
    pub(crate) names: NameIndex,
    /// Reentrancy guard: automatic write-back is suppressed inside
    /// flush/cleaner/checkpoint work.
    pub(crate) in_maintenance: bool,
    /// Segments kept in reserve so a checkpoint can always complete.
    pub(crate) reserve_segments: usize,
    /// Expected end-to-end CRC-32C of every device block this mount has
    /// written or replayed, indexed by [`BlockAddr`]. `None` means the
    /// block's checksum is unknown (never seen), so its reads cannot be
    /// verified until a scrub or roll-forward records it.
    pub(crate) block_crc: Vec<Option<u32>>,
    /// Set when the file system has degraded to read-only: an
    /// unrecoverable corruption was found, or the mount could not reload
    /// its metadata. Mutating operations fail with [`FsError::ReadOnly`].
    pub(crate) read_only: bool,
    /// The incremental cleaning run in progress, when the cleaner runs
    /// in [`crate::CleanerRunMode::Async`] and a host is stepping it.
    pub(crate) cleaner_run: Option<crate::cleaner_run::CleanerRun>,
    /// Damping for the async cleaner: the clean+pending count at which
    /// the last run completed without cleaning anything. While the count
    /// is unchanged, starting another run would spin fruitlessly, so
    /// [`Lfs::cleaner_wants_step`] declines.
    pub(crate) cleaner_futile_at: Option<usize>,
    /// Files with blocks the cleaner re-dirtied and no user write since:
    /// survivors, hence probably cold. The next flush writes them ahead
    /// of fresh data so the two do not share segments.
    pub(crate) relocated: BTreeSet<Ino>,
}

/// In-progress chunk state during a flush.
#[derive(Default)]
pub(crate) struct FlushCtx {
    builder: Option<ChunkBuilder>,
    /// Set just before the flush's final [`Lfs::emit_chunk`] when
    /// [`LfsConfig::seal_on_flush`] is on: forces that chunk to link,
    /// and so to seal, its segment.
    seal_after: bool,
}

impl<D: BlockDevice> Lfs<D> {
    // ------------------------------------------------------------------
    // Construction.
    // ------------------------------------------------------------------

    /// Formats the device and mounts the new, empty file system.
    pub fn format(mut dev: D, cfg: LfsConfig, clock: Arc<Clock>) -> FsResult<Self> {
        let sb = Superblock::derive(&cfg, dev.capacity_bytes())?;
        // Write the superblock synchronously: format must be durable.
        let sb_bytes = sb.encode();
        dev.annotate("superblock");
        dev.write(0, &sb_bytes, true)?;
        let mut fs = Self::fresh(dev, sb, cfg, clock);

        // Create the root directory.
        fs.imap.allocate_specific(Ino::ROOT)?;
        let now = fs.clock.now_ns();
        let root = Inode::new(Ino::ROOT, FileKind::Directory, 0, now);
        fs.inodes.insert(
            Ino::ROOT,
            CachedInode {
                inode: root,
                dirty: true,
            },
        );
        // The initial checkpoint makes the empty file system mountable.
        fs.checkpoint()?;
        Ok(fs)
    }

    /// Builds the common in-memory state shared by format and mount.
    pub(crate) fn fresh(mut dev: D, sb: Superblock, cfg: LfsConfig, clock: Arc<Clock>) -> Self {
        let cpu = CpuModel::sun_4_260(Arc::clone(&clock));
        // One metrics registry covers the whole stack: the device and the
        // cache mount their registries in it so disk, cache, and
        // file-system counters share a single snapshot/export.
        let registry = obs::Registry::new();
        dev.attach_obs(&registry);
        let seg_bytes = sb.seg_blocks as u64 * sb.block_size as u64;
        // The flush unit is one segment: the memory manager's flush
        // efficiency and boundary tuning are both expressed relative to
        // segment-sized log writes.
        let mut cache = MemMgr::new(
            sb.block_size as usize,
            (cfg.cache_bytes / sb.block_size as usize).max(8),
            MemConfig::adaptive(cfg.writeback, seg_bytes).with_policy(cfg.cache_policy),
        );
        cache.attach_obs(&registry);
        let imap = Imap::new(sb.max_inodes, sb.imap_entries_per_block() as usize);
        let usage = UsageTable::new(
            sb.nsegments,
            seg_bytes,
            sb.usage_entries_per_block() as usize,
        );
        let reserve = 2 + cfg.cache_bytes.div_ceil(seg_bytes as usize);
        let reserve = reserve.min(sb.nsegments as usize / 4).max(1);
        let total_blocks = (dev.capacity_bytes() / sb.block_size as u64) as usize;
        let mut fs = Self {
            dev,
            sb,
            cfg,
            clock,
            cpu,
            cache,
            imap,
            usage,
            inodes: BTreeMap::new(),
            pos: LogPosition {
                seg: SegNo(0),
                offset: 0,
                partial: 0,
                seq: 1,
            },
            cp_serial: 0,
            cp_use_b: false,
            last_cp_ns: 0,
            obs: LfsObs::new(&registry),
            ops: OpHists::new(&registry),
            names: NameIndex::new(&registry),
            in_maintenance: false,
            reserve_segments: reserve,
            block_crc: vec![None; total_blocks],
            read_only: false,
            cleaner_run: None,
            cleaner_futile_at: None,
            relocated: BTreeSet::new(),
        };
        fs.usage.set_state(SegNo(0), SegState::Active);
        fs
    }

    /// Replaces the CPU model (e.g. for the CPU-scaling experiment).
    pub fn set_cpu_mips(&mut self, mips: f64) {
        self.cpu = CpuModel::new(Arc::clone(&self.clock), mips);
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// The file-system block size in bytes.
    pub fn block_size(&self) -> usize {
        self.sb.block_size as usize
    }

    /// The superblock (immutable geometry).
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// A point-in-time snapshot of the operational counters.
    pub fn stats(&self) -> LfsStats {
        self.obs.stats()
    }

    /// The stack's shared metrics registry (device + cache + file
    /// system), for snapshots, event dumps, and JSON export.
    pub fn obs(&self) -> &obs::Registry {
        &self.obs.registry
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// A point-in-time report of the memory manager: pool sizes, the
    /// write/read boundary, traffic counters, flush efficiency, and
    /// per-client residency/hit attribution.
    pub fn cache_report(&self) -> CacheReport {
        self.cache.report()
    }

    /// Forces the memory manager's write-buffer target to `blocks`
    /// (clamped to its internal bounds). Primarily a test hook: the
    /// adaptive tuner normally moves the boundary on its own.
    pub fn set_cache_boundary(&mut self, blocks: usize) {
        self.cache.set_boundary(blocks);
    }

    /// Borrows the underlying device (e.g. to inspect I/O statistics).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutably borrows the underlying device.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Unmounts without syncing and returns the device (crash testing).
    pub fn into_device(self) -> D {
        self.dev
    }

    /// The segment usage table (read-only view for experiments).
    pub fn usage_table(&self) -> &UsageTable {
        &self.usage
    }

    /// The inode map (read-only view for experiments and fsck).
    pub fn inode_map(&self) -> &Imap {
        &self.imap
    }

    /// Number of inodes currently held in the in-memory inode table.
    pub fn cached_inode_count(&self) -> usize {
        self.inodes.len()
    }

    /// Returns true if the file system has degraded to read-only.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Degrades the file system to read-only and records why.
    pub(crate) fn set_read_only(&mut self, why: &str) {
        if !self.read_only {
            self.read_only = true;
            self.obs
                .registry
                .event(self.clock.now_ns(), "read-only", why.to_string());
        }
    }

    /// Current virtual time.
    pub(crate) fn now(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Charges CPU work to the virtual clock.
    pub(crate) fn charge(&self, cost: CpuCost) {
        self.cpu.charge(cost);
    }

    /// Sector address of a block.
    pub(crate) fn sector_of(&self, addr: BlockAddr) -> u64 {
        addr.0 as u64 * (self.sb.block_size as u64 / sim_disk::SECTOR_SIZE as u64)
    }

    // ------------------------------------------------------------------
    // Raw block I/O.
    // ------------------------------------------------------------------

    /// Reads one block from disk (synchronous).
    pub(crate) fn read_block_raw(&mut self, addr: BlockAddr) -> FsResult<Vec<u8>> {
        let mut buf = vec![0u8; self.block_size()];
        self.dev.read(self.sector_of(addr), &mut buf)?;
        Ok(buf)
    }

    /// Reads a metadata block through the address-keyed cache.
    pub(crate) fn read_meta_block(&mut self, ns: u32, addr: BlockAddr) -> FsResult<Vec<u8>> {
        let key = BlockKey::meta(ns, addr.0 as u64);
        if let Some(data) = self.cache.get(key) {
            return Ok(data.to_vec());
        }
        let data = self.read_block_raw(addr)?;
        self.verify_block("metadata block", addr, &data)?;
        self.cache
            .insert_clean(key, data.clone().into_boxed_slice());
        Ok(data)
    }

    // ------------------------------------------------------------------
    // End-to-end block integrity.
    // ------------------------------------------------------------------

    /// Remembers the expected end-to-end checksum of block `addr`.
    pub(crate) fn record_block_crc(&mut self, addr: BlockAddr, crc: u32) {
        if let Some(slot) = self.block_crc.get_mut(addr.0 as usize) {
            *slot = Some(crc);
        }
    }

    /// The expected checksum of block `addr`, if known.
    pub(crate) fn expected_crc(&self, addr: BlockAddr) -> Option<u32> {
        self.block_crc.get(addr.0 as usize).copied().flatten()
    }

    /// Verifies a block just read from the log against its recorded
    /// end-to-end checksum. Blocks with no recorded checksum pass
    /// unverified; a mismatch is reported as a typed
    /// [`FsError::Corruption`], never returned silently.
    pub(crate) fn verify_block(
        &mut self,
        what: &'static str,
        addr: BlockAddr,
        data: &[u8],
    ) -> FsResult<()> {
        let Some(expected) = self.expected_crc(addr) else {
            return Ok(());
        };
        if crate::layout::summary::block_checksum(data) != expected {
            self.obs.corruptions_detected.inc();
            self.obs.registry.event(
                self.clock.now_ns(),
                "corruption",
                format!("what={what} addr={}", addr.0),
            );
            return Err(FsError::Corruption {
                what,
                addr: addr.0 as u64,
            });
        }
        self.obs.verified_reads.inc();
        Ok(())
    }

    /// Records that the only remaining copy of a live block failed its
    /// checksum: counts the loss and degrades the mount to read-only.
    pub(crate) fn note_unrecoverable(&mut self, what: &'static str, addr: BlockAddr) {
        self.obs.corruptions_detected.inc();
        self.obs.scrub_unrecoverable.inc();
        self.obs.registry.event(
            self.clock.now_ns(),
            "corruption",
            format!("unrecoverable {what} addr={}", addr.0),
        );
        self.set_read_only("unrecoverable corruption in live data");
    }

    // ------------------------------------------------------------------
    // Inode table.
    // ------------------------------------------------------------------

    /// Ensures `ino` is loaded in the inode table.
    pub(crate) fn ensure_inode(&mut self, ino: Ino) -> FsResult<()> {
        if self.inodes.contains_key(&ino) {
            return Ok(());
        }
        let entry = self.imap.get(ino)?;
        if !entry.allocated {
            return Err(FsError::NotFound);
        }
        if entry.addr.is_nil() {
            return Err(FsError::Corrupt("allocated inode was never written"));
        }
        let block = self.read_meta_block(NS_INODE_BLOCKS, entry.addr)?;
        let inode = inode_block::unpack_slot(&block, entry.slot as usize)?
            .ok_or(FsError::Corrupt("inode slot empty"))?;
        if inode.ino != ino {
            return Err(FsError::Corrupt("inode number mismatch"));
        }
        if inode.version != entry.version {
            return Err(FsError::Corrupt("inode version mismatch"));
        }
        self.inodes.insert(
            ino,
            CachedInode {
                inode,
                dirty: false,
            },
        );
        Ok(())
    }

    /// Returns a copy of an inode.
    pub(crate) fn inode(&mut self, ino: Ino) -> FsResult<Inode> {
        self.ensure_inode(ino)?;
        Ok(self.inodes[&ino].inode.clone())
    }

    /// Mutates an inode in place and marks it dirty.
    pub(crate) fn with_inode_mut<R>(
        &mut self,
        ino: Ino,
        f: impl FnOnce(&mut Inode) -> R,
    ) -> FsResult<R> {
        self.ensure_inode(ino)?;
        let slot = self.inodes.get_mut(&ino).unwrap();
        slot.dirty = true;
        Ok(f(&mut slot.inode))
    }

    /// The inodes with unwritten changes, in ascending ino order.
    fn dirty_inos(&self) -> impl Iterator<Item = Ino> + '_ {
        self.inodes
            .iter()
            .filter(|(_, cached)| cached.dirty)
            .map(|(&ino, _)| ino)
    }

    // ------------------------------------------------------------------
    // Usage accounting.
    // ------------------------------------------------------------------

    /// Records that `bytes` previously live at `addr` are now dead.
    pub(crate) fn retire(&mut self, addr: BlockAddr, bytes: u64) {
        if let Some((seg, _)) = self.sb.seg_of(addr) {
            self.usage.sub_live(seg, bytes);
        }
    }

    // ------------------------------------------------------------------
    // The segment writer.
    // ------------------------------------------------------------------

    /// Appends one payload block to the current chunk, opening and
    /// emitting chunks as needed. Returns the block's new disk address.
    pub(crate) fn chunk_add(
        &mut self,
        ctx: &mut FlushCtx,
        kind: BlockKind,
        version: u32,
        data: &[u8],
        live_bytes: u64,
    ) -> FsResult<BlockAddr> {
        if ctx.builder.as_ref().is_some_and(ChunkBuilder::is_full) {
            self.emit_chunk(ctx)?;
        }
        let builder = ctx.builder.get_or_insert_with(|| self.open_chunk());
        let addr = builder.add(kind, version, data);
        let seg = builder.seg();
        let now = self.now();
        self.usage.add_live(seg, live_bytes, now);
        Ok(addr)
    }

    /// Opens a new chunk at the current log position. There is always
    /// room for one: mount checks the checkpointed position, and a chunk
    /// that leaves less seals its segment ([`Lfs::emit_chunk`]).
    fn open_chunk(&self) -> ChunkBuilder {
        ChunkBuilder::new(
            self.pos.seg,
            self.sb.seg_block(self.pos.seg, 0),
            self.pos.offset,
            (self.sb.seg_blocks - self.pos.offset) as usize,
            self.block_size(),
        )
        .expect("a log position always has room for a chunk")
    }

    /// Writes the current chunk to disk (one sequential, asynchronous
    /// transfer) and advances the log position.
    ///
    /// A chunk after which no further chunk fits — or the final chunk of
    /// a seal-on-flush flush — links its segment to the next clean one
    /// (§4.3.1: segments are "formed into a linked list") and opens that
    /// segment before returning. This is the only place a segment seals,
    /// so a log position always has room for a chunk and a checkpoint
    /// records either such a position or the linked segment's start.
    pub(crate) fn emit_chunk(&mut self, ctx: &mut FlushCtx) -> FsResult<()> {
        let Some(builder) = ctx.builder.take() else {
            return Ok(());
        };
        if builder.is_empty() {
            // Nothing was added; release the reservation without writing.
            return Ok(());
        }
        let now = self.now();
        let offset_after = self.pos.offset + builder.blocks_used();
        let room_after = (self.sb.seg_blocks - offset_after) as usize;
        let seals = ctx.seal_after || plan_chunk(room_after, self.block_size()).is_none();
        let next = if seals {
            let next = self
                .usage
                .next_clean(SegNo((self.pos.seg.0 + 1) % self.sb.nsegments));
            if next.is_none() {
                // Nowhere to link: refuse before writing. The chunk's blocks
                // already have addresses in memory, so no checkpoint may
                // commit them: the mount stops writing.
                self.set_read_only("no clean segment for the log to link to");
                return Err(FsError::NoSpace);
            }
            next
        } else {
            None
        };
        let link = next.unwrap_or(SegNo::NIL);
        let chunk = builder.finish(self.pos.seq, self.pos.partial, now, link);
        // Remember what every block of this chunk should read back as:
        // summary blocks lose any stale checksum from a previous segment
        // incarnation, payload blocks get the freshly stamped one.
        for b in 0..chunk.blocks_used {
            if let Some(slot) = self.block_crc.get_mut((chunk.addr.0 + b) as usize) {
                *slot = None;
            }
        }
        for (i, &crc) in chunk.entry_crcs.iter().enumerate() {
            let addr = BlockAddr(chunk.addr.0 + chunk.summary_blocks + i as u32);
            self.record_block_crc(addr, crc);
        }
        self.dev.annotate("log-chunk");
        self.dev
            .write(self.sector_of(chunk.addr), &chunk.bytes, false)?;
        self.obs.chunks_written.inc();
        self.obs.summary_blocks_written.add(chunk.summary_blocks as u64);
        if offset_after < self.sb.seg_blocks {
            self.obs.partial_chunks.inc();
        }
        match next {
            Some(next) => self.seal_segment(next),
            None => {
                self.pos.offset = offset_after;
                self.pos.partial += 1;
            }
        }
        Ok(())
    }

    /// Test-only mutable access to the usage table.
    #[doc(hidden)]
    pub fn usage_mut_for_test(&mut self) -> &mut UsageTable {
        &mut self.usage
    }

    /// Test-only: points block `bno` of `ino` at `addr` with no
    /// accounting, to seed a defect for `fsck` to find.
    #[doc(hidden)]
    pub fn set_block_ptr_for_test(&mut self, ino: Ino, bno: u64, addr: u32) {
        self.set_block_ptr(ino, bno, BlockAddr(addr))
            .expect("a mappable block of a readable inode");
    }

    /// Seals the active segment and opens `next`, the clean segment its
    /// last chunk links to.
    fn seal_segment(&mut self, next: SegNo) {
        let cur = self.pos.seg;
        self.usage.set_state(cur, SegState::Dirty);
        self.obs.segments_sealed.inc();
        self.usage.set_state(next, SegState::Active);
        self.obs.registry.event(
            self.clock.now_ns(),
            "segment_sealed",
            format!("seg={} next={} seq={}", cur.0, next.0, self.pos.seq + 1),
        );
        // Purge address-keyed metadata cache entries for the reused
        // region: block addresses are being recycled.
        let base = self.sb.seg_block(next, 0).0 as u64;
        self.cache.remove_owner_index_range(
            Owner::Meta(NS_INODE_BLOCKS),
            base,
            base + self.sb.seg_blocks as u64,
        );
        self.pos = LogPosition {
            seg: next,
            offset: 0,
            partial: 0,
            seq: self.pos.seq + 1,
        };
    }

    // ------------------------------------------------------------------
    // Flush: drain dirty state into the log.
    // ------------------------------------------------------------------

    /// Writes dirty blocks to the log. `include_imap` additionally writes
    /// dirty inode-map blocks; `include_usage` writes the whole usage
    /// table (both normally only at checkpoints).
    pub(crate) fn flush(&mut self, include_imap: bool, include_usage: bool) -> FsResult<()> {
        self.flush_as(include_imap, include_usage, FlushCause::Sync)
    }

    /// [`Lfs::flush`] with an explicit cause, so the memory manager can
    /// attribute the flush's efficiency to the policy that forced it
    /// (cache pressure vs. age vs. sync) when tuning its write/read
    /// boundary.
    pub(crate) fn flush_as(
        &mut self,
        include_imap: bool,
        include_usage: bool,
        cause: FlushCause,
    ) -> FsResult<()> {
        let was_maintenance = std::mem::replace(&mut self.in_maintenance, true);
        let chunks_before = self.obs.chunks_written.get();
        let payload_before = self.payload_blocks_written();
        let result = self.flush_inner(include_imap, include_usage);
        self.in_maintenance = was_maintenance;
        // Report payload bytes per chunk write so the manager can track
        // flush efficiency (how full each log write ran relative to a
        // segment) and tune the write-buffer boundary.
        let chunk_writes = self.obs.chunks_written.get() - chunks_before;
        if chunk_writes > 0 {
            let payload = self.payload_blocks_written() - payload_before;
            self.cache
                .note_flush(payload * self.sb.block_size as u64, chunk_writes, cause);
        }
        result
    }

    /// Total payload (non-summary) blocks written to the log so far.
    fn payload_blocks_written(&self) -> u64 {
        self.obs.data_blocks_written.get()
            + self.obs.indirect_blocks_written.get()
            + self.obs.inode_blocks_written.get()
            + self.obs.imap_blocks_written.get()
            + self.obs.usage_blocks_written.get()
    }

    fn flush_inner(&mut self, include_imap: bool, include_usage: bool) -> FsResult<()> {
        let mut ctx = FlushCtx::default();

        // Which files have dirty state? In ascending ino order.
        let owners: BTreeSet<Ino> = self
            .cache
            .dirty_keys()
            .into_iter()
            .filter_map(|k| match k.owner {
                Owner::File(ino) => Some(ino),
                Owner::Meta(_) => None,
            })
            .chain(self.dirty_inos())
            .collect();
        // Age separation: the cleaner's survivors go first, oldest first,
        // so cold data fills segments of its own and the fresh (hot)
        // data behind it dies together. With nothing relocated this is
        // the ascending walk unchanged.
        let relocated = std::mem::take(&mut self.relocated);
        let mut survivors = Vec::with_capacity(relocated.len());
        for &ino in relocated.intersection(&owners) {
            survivors.push((self.inode(ino)?.mtime_ns, ino));
        }
        survivors.sort_unstable();
        let owners: Vec<Ino> = survivors
            .into_iter()
            .map(|(_, ino)| ino)
            .chain(owners.difference(&relocated).copied())
            .collect();

        // Phase 1: data blocks, grouped by file, ascending block index.
        for &ino in &owners {
            let version = self.imap.get(ino)?.version;
            let keys: Vec<BlockKey> = self
                .cache
                .dirty_keys_of(Owner::File(ino))
                .into_iter()
                .filter(|k| is_data_idx(k.index))
                .collect();
            for key in keys {
                let data = self
                    .cache
                    .get(key)
                    .expect("dirty block must be cached")
                    .to_vec();
                let bno = key.index as u32;
                let addr = self.chunk_add(
                    &mut ctx,
                    BlockKind::Data { ino, bno },
                    version,
                    &data,
                    self.block_size() as u64,
                )?;
                let old = self.set_block_ptr(ino, bno as u64, addr)?;
                self.retire(old, self.block_size() as u64);
                self.cache.mark_clean(key);
                self.obs.data_blocks_written.inc();
            }
        }

        // Phase 2: indirect blocks, children before parents (a parent's
        // content embeds its children's new addresses). Descending cache
        // index order guarantees this: double-children > double-top >
        // single.
        for &ino in &owners {
            let version = self.imap.get(ino)?.version;
            loop {
                let key = self
                    .cache
                    .dirty_keys_of(Owner::File(ino))
                    .into_iter()
                    .filter(|k| !is_data_idx(k.index))
                    .max_by_key(|k| k.index);
                let Some(key) = key else { break };
                let data = self
                    .cache
                    .get(key)
                    .expect("dirty block must be cached")
                    .to_vec();
                let kind = if key.index == IDX_SINGLE {
                    BlockKind::IndSingle { ino }
                } else if key.index == IDX_DTOP {
                    BlockKind::IndDoubleTop { ino }
                } else {
                    BlockKind::IndDoubleChild {
                        ino,
                        outer: (key.index - IDX_DCHILD_BASE) as u32,
                    }
                };
                let addr =
                    self.chunk_add(&mut ctx, kind, version, &data, self.block_size() as u64)?;
                let old = self.set_indirect_ptr(ino, key.index, addr)?;
                self.retire(old, self.block_size() as u64);
                self.cache.mark_clean(key);
                self.obs.indirect_blocks_written.inc();
            }
        }

        // Phase 3: inodes, packed into inode blocks.
        let dirty_inos: Vec<Ino> = self.dirty_inos().collect();
        let per_block = self.sb.inodes_per_block() as usize;
        for group in dirty_inos.chunks(per_block) {
            // Stamp each inode with its current imap version before
            // packing, so the on-disk copy self-identifies.
            for &ino in group {
                let version = self.imap.get(ino)?.version;
                let slot = self.inodes.get_mut(&ino).unwrap();
                slot.inode.version = version;
            }
            let inode_refs: Vec<&Inode> = group.iter().map(|ino| &self.inodes[ino].inode).collect();
            let block = inode_block::pack(&inode_refs, self.block_size());
            let live = (group.len() * INODE_SIZE) as u64;
            let addr = self.chunk_add(&mut ctx, BlockKind::InodeBlock, 0, &block, live)?;
            for (slot, &ino) in group.iter().enumerate() {
                let old = self.imap.get(ino)?;
                if old.addr.is_some() {
                    self.retire(old.addr, INODE_SIZE as u64);
                }
                self.imap.set_location(ino, addr, slot as u16)?;
                self.inodes.get_mut(&ino).unwrap().dirty = false;
            }
            // Keep the freshly written inode block readable without disk.
            self.cache.insert_clean(
                BlockKey::meta(NS_INODE_BLOCKS, addr.0 as u64),
                block.into_boxed_slice(),
            );
            self.obs.inode_blocks_written.inc();
        }

        // Phase 4: inode-map blocks (checkpoints only). Metadata blocks
        // are not counted as live bytes: the usage table is a cleaning
        // hint for *data*, and counting the table's own placement would
        // make its serialised form self-referential (the paper's "costly
        // exact crash recovery of this data structure is not needed").
        if include_imap {
            for index in self.imap.dirty_blocks() {
                let block = self.imap.encode_block(index, self.block_size());
                let addr = self.chunk_add(
                    &mut ctx,
                    BlockKind::ImapBlock {
                        index: index as u32,
                    },
                    0,
                    &block,
                    0,
                )?;
                self.imap.commit_block(index, addr);
                self.obs.imap_blocks_written.inc();
            }
        }

        // Phase 5: the whole segment-usage table (checkpoints only).
        // Like the inode map, the table's own blocks count zero live
        // bytes, so its serialised contents do not depend on their own
        // placement.
        if include_usage {
            for index in 0..self.usage.nblocks() {
                let block = self.usage.encode_block(index, self.block_size());
                let addr = self.chunk_add(
                    &mut ctx,
                    BlockKind::UsageBlock {
                        index: index as u32,
                    },
                    0,
                    &block,
                    0,
                )?;
                self.usage.commit_block(index, addr);
                self.obs.usage_blocks_written.inc();
            }
        }

        // Seal-on-flush: the final chunk links and seals, so no later
        // flush appends into a parity row that now holds committed
        // chunks (see [`LfsConfig::seal_on_flush`]). An empty flush
        // emits no chunk and seals nothing.
        ctx.seal_after = self.cfg.seal_on_flush;
        self.emit_chunk(&mut ctx)
    }

    /// Initiates one delayed write-back: packs all dirty blocks into log
    /// chunks and issues the (asynchronous) segment writes, without
    /// taking a checkpoint. This is the bare "segment write" of §4.1;
    /// [`Lfs::checkpoint`] and `sync` build on it.
    pub fn write_back(&mut self) -> FsResult<()> {
        self.flush(false, false)
    }

    // ------------------------------------------------------------------
    // Automatic write-back and space maintenance (§4.3.5).
    // ------------------------------------------------------------------

    /// Called at the end of every public operation: applies the paper's
    /// segment-write timing rules and keeps clean segments available.
    pub(crate) fn maybe_writeback(&mut self) -> FsResult<()> {
        if self.in_maintenance || self.read_only {
            return Ok(());
        }
        let now = self.now();

        // Periodic checkpoint (30 s in the paper).
        if now.saturating_sub(self.last_cp_ns) >= self.cfg.checkpoint_interval_ns {
            self.checkpoint()?;
            return Ok(());
        }

        // Cache-driven write-back: cache full or dirty data too old.
        if let Some(trigger) = self.cache.writeback_trigger(now) {
            let cause = match trigger {
                WritebackTrigger::CacheFull => FlushCause::CachePressure,
                WritebackTrigger::AgeThreshold => FlushCause::AgeThreshold,
            };
            self.flush_as(false, false, cause)?;
        }

        // Bound the in-memory inode table: clean entries reload from the
        // log via the inode map, so dropping them is free. The victims
        // are the lowest-numbered clean inodes — which ones go decides
        // the future read pattern (and thus every timing metric), so
        // the choice must not vary from process to process; the table
        // is ordered, so they are the first clean entries of a walk
        // that stops as soon as it has enough.
        let inode_cap = self.cache.capacity_blocks().max(1024);
        if self.inodes.len() > inode_cap {
            let victims: Vec<Ino> = self
                .inodes
                .iter()
                .filter(|(_, cached)| !cached.dirty)
                .map(|(&ino, _)| ino)
                .take(self.inodes.len() - inode_cap)
                .collect();
            for ino in victims {
                self.inodes.remove(&ino);
            }
        }

        // Cleaner activation: clean-segment count below threshold. The
        // floor covers the worst case of one full cache flush plus the
        // checkpoint that commits the cleaner's relocations. In async
        // mode the host-stepped run handles the normal watermarks, so
        // foreground operations only clean at the emergency floor — the
        // point below which the next flush could wedge the log.
        let async_mode = matches!(self.cfg.cleaner.run_mode, crate::CleanerRunMode::Async(_));
        let activate_below = if async_mode {
            self.reserve_segments + 2
        } else {
            self.cfg
                .cleaner
                .activate_below_clean
                .max(self.reserve_segments + 2)
        };
        if self.usage.clean_count() < activate_below {
            // An in-progress async run may be sitting on fully-cleaned
            // segments parked in CleanPending: committing them with a
            // checkpoint is far cheaper than synchronous cleaning, so
            // try that first.
            if async_mode
                && !self
                    .usage
                    .segments_in_state(SegState::CleanPending)
                    .is_empty()
            {
                self.dev.set_maintenance(true);
                let cp = self.checkpoint();
                self.dev.set_maintenance(false);
                cp?;
            }
            if self.usage.clean_count() < activate_below {
                if async_mode {
                    self.obs.async_emergency_passes.inc();
                }
                // Threshold cleaning is maintenance work even though a
                // foreground operation triggered it: tag its device I/O
                // so engine accounting bills the queue waits to the
                // maintenance class rather than the unlucky client.
                self.dev.set_maintenance(true);
                let result = self.clean_threshold_passes(activate_below);
                self.dev.set_maintenance(false);
                result?;
            }
        }
        Ok(())
    }

    /// The synchronous clean-on-threshold body: several passes sharing
    /// one relocation budget, then the checkpoint that commits them.
    /// The activation ends at the victim that brings clean + pending
    /// segments to its target, not at the end of that victim's pass: a
    /// foreground operation is waiting on it.
    fn clean_threshold_passes(&mut self, activate_below: usize) -> FsResult<()> {
        // Several passes share one relocation budget and one
        // checkpoint: on small segments a per-pass checkpoint would
        // cost more log space than a pass reclaims.
        self.in_maintenance = true;
        let target = activate_below + 2;
        let mut budget = self.relocation_budget();
        let mut result = Ok(());
        for _ in 0..4 {
            match self.clean_pass_toward(&mut budget, target) {
                Ok(outcome) if outcome.segments == 0 => break,
                Ok(_) => {}
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            if self.clean_and_pending() >= target {
                break;
            }
        }
        self.in_maintenance = false;
        result?;
        // Commit the relocations so cleaned segments become reusable.
        self.checkpoint()?;
        Ok(())
    }

    /// Returns [`FsError::NoSpace`] unless roughly `incoming` more bytes
    /// fit while preserving (a) the segment reserve a checkpoint needs
    /// and (b) the utilization headroom the cleaner needs to keep
    /// reclaiming more space per pass than its checkpoints consume.
    pub(crate) fn check_space(&self, incoming: u64) -> FsResult<()> {
        let seg_bytes = self.usage.seg_bytes();
        let capacity = self.sb.log_capacity_bytes();
        let reserve = self.reserve_segments as u64 * seg_bytes;
        let cap = (capacity as f64 * self.cfg.max_utilization) as u64;
        let budget = cap.saturating_sub(reserve + seg_bytes);
        if self.usage.total_live_bytes() + incoming > budget {
            return Err(FsError::NoSpace);
        }
        Ok(())
    }
}
