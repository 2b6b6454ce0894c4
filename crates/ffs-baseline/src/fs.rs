//! The mounted FFS volume: state, metadata I/O, and delayed write-back.

use std::collections::HashMap;
use std::sync::Arc;

use mem_mgr::{BlockKey, CacheReport, MemConfig, MemMgr, Owner, WritebackPolicy};
use sim_disk::{BlockDevice, Clock, CpuCost, CpuModel};
use vfs::blockmap;
use vfs::namespace::OpHists;
use vfs::{FileKind, FsError, FsResult, Ino};

use crate::alloc::Allocator;
use crate::config::FfsConfig;
use crate::layout::{FfsAddr, FfsInode, FfsSuperblock, INODE_SIZE, NIL};

/// Metadata cache namespace: inode-table and bitmap blocks, by address.
pub(crate) const NS_META: u32 = 1;

/// An in-memory inode with its dirty flag.
#[derive(Debug, Clone)]
pub(crate) struct CachedInode {
    pub inode: FfsInode,
    pub dirty: bool,
}

obs::instruments! {
    /// Registry-backed instruments: one counter per [`FfsStats`] field.
    pub(crate) struct FfsObs {}
    /// Operational counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FfsStats {
        sync_inode_writes, Counter, "ffs.sync_inode_writes", "Synchronous inode-table block writes (create/unlink/fsync).";
        sync_dir_writes, Counter, "ffs.sync_dir_writes", "Synchronous directory data block writes.";
        delayed_data_writes, Counter, "ffs.delayed_data_writes", "Delayed (asynchronous) data block writes.";
        delayed_inode_writes, Counter, "ffs.delayed_inode_writes", "Delayed inode-table block writes.";
        bitmap_writes, Counter, "ffs.bitmap_writes", "Bitmap block writes.";
        fsck_scans, Counter, "fsck.scans", "Whole-volume fsck scans performed at mount.";
        fsck_blocks_scanned, Counter, "fsck.blocks_scanned", "Blocks read by mount-time fsck scans.";
    }
}

/// A mounted FFS volume over a block device.
///
/// Create with [`Ffs::format`] or [`Ffs::mount`]; use through the
/// [`vfs::FileSystem`] trait.
pub struct Ffs<D: BlockDevice> {
    pub(crate) dev: D,
    pub(crate) sb: FfsSuperblock,
    pub(crate) cfg: FfsConfig,
    pub(crate) clock: Arc<Clock>,
    pub(crate) cpu: CpuModel,
    pub(crate) cache: MemMgr,
    pub(crate) alloc: Allocator,
    pub(crate) inodes: HashMap<Ino, CachedInode>,
    pub(crate) obs: FfsObs,
    /// Per-operation latency histograms, shared with LFS (same `op.*`
    /// names, so both export through one schema).
    pub(crate) ops: OpHists,
    pub(crate) in_maintenance: bool,
}

impl<D: BlockDevice> Ffs<D> {
    /// Formats the device and mounts the new, empty volume.
    pub fn format(mut dev: D, cfg: FfsConfig, clock: Arc<Clock>) -> FsResult<Self> {
        let sb = FfsSuperblock::derive(&cfg, dev.capacity_bytes())?;
        dev.annotate("superblock");
        dev.write(0, &sb.encode(), true)?;
        let mut fs = Self::fresh(dev, sb, cfg, clock);

        // Root directory: inode 1, written synchronously with its bitmap.
        let root = fs.alloc.alloc_inode(0)?;
        debug_assert_eq!(root, Ino::ROOT);
        let now = fs.clock.now_ns();
        fs.inodes.insert(
            Ino::ROOT,
            CachedInode {
                inode: FfsInode::new(Ino::ROOT, FileKind::Directory, now),
                dirty: true,
            },
        );
        fs.write_inode_to_table(Ino::ROOT, true)?;
        fs.flush_bitmaps(true)?;
        fs.mark_superblock(false)?;
        Ok(fs)
    }

    /// Mounts an existing volume.
    ///
    /// A cleanly unmounted volume loads its bitmaps directly; a dirty one
    /// (crash) pays for a whole-volume scan — the recovery-cost contrast
    /// at the heart of §4.4.
    pub fn mount(mut dev: D, cfg: FfsConfig, clock: Arc<Clock>) -> FsResult<Self> {
        let mut first = vec![0u8; sim_disk::SECTOR_SIZE];
        dev.read(0, &mut first)?;
        let sb = FfsSuperblock::decode(&first)?;
        if sb.block_size as usize != cfg.block_size {
            return Err(FsError::Corrupt("configuration does not match volume"));
        }
        let was_clean = sb.clean;
        let mut fs = Self::fresh(dev, sb, cfg, clock);
        if was_clean {
            for cg in 0..fs.sb.ncg {
                let addr = fs.sb.bitmap_block(cg);
                let block = fs.read_block_raw(addr)?;
                fs.alloc.load_bitmap_block(cg, &block);
            }
        } else {
            fs.fsck_scan()?;
        }
        fs.mark_superblock(false)?;
        Ok(fs)
    }

    /// Cleanly unmounts: syncs everything and marks the volume clean.
    pub fn unmount(mut self) -> FsResult<D> {
        use vfs::FileSystem;
        self.sync()?;
        self.mark_superblock(true)?;
        Ok(self.dev)
    }

    fn fresh(mut dev: D, sb: FfsSuperblock, cfg: FfsConfig, clock: Arc<Clock>) -> Self {
        let cpu = CpuModel::sun_4_260(Arc::clone(&clock));
        // One metrics registry covers device, cache, and file system.
        let registry = obs::Registry::new();
        dev.attach_obs(&registry);
        // The classic buffer cache: one shared LRU with the paper's
        // 30-second delayed write. FFS has no segment-sized flush unit,
        // so the manager tracks no flush efficiency.
        let mut cache = MemMgr::new(
            sb.block_size as usize,
            (cfg.cache_bytes / sb.block_size as usize).max(8),
            MemConfig::shared(WritebackPolicy::paper()),
        );
        cache.attach_obs(&registry);
        let alloc = Allocator::new(sb.clone());
        Self {
            dev,
            sb,
            cfg,
            clock,
            cpu,
            cache,
            alloc,
            inodes: HashMap::new(),
            obs: FfsObs::new(&registry),
            ops: OpHists::new(&registry),
            in_maintenance: false,
        }
    }

    fn mark_superblock(&mut self, clean: bool) -> FsResult<()> {
        self.sb.clean = clean;
        let bytes = self.sb.encode();
        self.dev.annotate("superblock");
        self.dev.write(0, &bytes, true)?;
        Ok(())
    }

    /// A point-in-time report of the memory manager: pool sizes,
    /// traffic counters, and per-client residency attribution.
    pub fn cache_report(&self) -> CacheReport {
        self.cache.report()
    }

    /// Replaces the CPU model (CPU-scaling experiments).
    pub fn set_cpu_mips(&mut self, mips: f64) {
        self.cpu = CpuModel::new(Arc::clone(&self.clock), mips);
    }

    /// The volume geometry.
    pub fn superblock(&self) -> &FfsSuperblock {
        &self.sb
    }

    /// The configuration this volume was mounted with.
    pub fn config(&self) -> &FfsConfig {
        &self.cfg
    }

    /// A point-in-time snapshot of the operational counters.
    pub fn stats(&self) -> FfsStats {
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

    /// Borrows the underlying device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutably borrows the underlying device.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Unmounts without syncing (crash testing) and returns the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// File-system block size in bytes.
    pub fn block_size(&self) -> usize {
        self.sb.block_size as usize
    }

    pub(crate) fn now(&self) -> u64 {
        self.clock.now_ns()
    }

    pub(crate) fn charge(&self, cost: CpuCost) {
        self.cpu.charge(cost);
    }

    pub(crate) fn sector_of(&self, addr: FfsAddr) -> u64 {
        addr as u64 * (self.sb.block_size as u64 / sim_disk::SECTOR_SIZE as u64)
    }

    // ------------------------------------------------------------------
    // Raw and metadata block I/O.
    // ------------------------------------------------------------------

    pub(crate) fn read_block_raw(&mut self, addr: FfsAddr) -> FsResult<Vec<u8>> {
        let mut buf = vec![0u8; self.block_size()];
        self.dev.read(self.sector_of(addr), &mut buf)?;
        Ok(buf)
    }

    /// Reads a metadata block through the address-keyed cache.
    pub(crate) fn read_meta_block(&mut self, addr: FfsAddr) -> FsResult<Vec<u8>> {
        let key = BlockKey::meta(NS_META, addr as u64);
        if let Some(data) = self.cache.get(key) {
            return Ok(data.to_vec());
        }
        let data = self.read_block_raw(addr)?;
        self.cache
            .insert_clean(key, data.clone().into_boxed_slice());
        Ok(data)
    }

    // ------------------------------------------------------------------
    // Inodes.
    // ------------------------------------------------------------------

    pub(crate) fn ensure_inode(&mut self, ino: Ino) -> FsResult<()> {
        if self.inodes.contains_key(&ino) {
            return Ok(());
        }
        if !self.alloc.is_inode_allocated(ino) {
            return Err(FsError::NotFound);
        }
        let (block_addr, offset) = self.sb.inode_slot(ino)?;
        let block = self.read_meta_block(block_addr)?;
        let inode = FfsInode::decode_slot(&block[offset..offset + INODE_SIZE])?
            .ok_or(FsError::Corrupt("allocated inode slot is empty"))?;
        if inode.ino != ino {
            return Err(FsError::Corrupt("FFS inode number mismatch"));
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

    pub(crate) fn inode(&mut self, ino: Ino) -> FsResult<FfsInode> {
        self.ensure_inode(ino)?;
        Ok(self.inodes[&ino].inode.clone())
    }

    pub(crate) fn with_inode_mut<R>(
        &mut self,
        ino: Ino,
        f: impl FnOnce(&mut FfsInode) -> R,
    ) -> FsResult<R> {
        self.ensure_inode(ino)?;
        let slot = self.inodes.get_mut(&ino).unwrap();
        slot.dirty = true;
        Ok(f(&mut slot.inode))
    }

    /// Writes an inode into its fixed table slot. With `sync`, this is
    /// the synchronous metadata write of Figure 1.
    pub(crate) fn write_inode_to_table(&mut self, ino: Ino, sync: bool) -> FsResult<()> {
        let (block_addr, offset) = self.sb.inode_slot(ino)?;
        let encoded = match self.inodes.get(&ino) {
            Some(cached) => cached.inode.encode(),
            // A freed inode: zero its slot.
            None => vec![0u8; INODE_SIZE],
        };
        let mut block = self.read_meta_block(block_addr)?;
        block[offset..offset + INODE_SIZE].copy_from_slice(&encoded);
        self.cache.insert_clean(
            BlockKey::meta(NS_META, block_addr as u64),
            block.clone().into_boxed_slice(),
        );
        self.dev.annotate(if sync { "inode-sync" } else { "inode" });
        self.dev.write(self.sector_of(block_addr), &block, sync)?;
        if sync {
            self.obs.sync_inode_writes.inc();
        } else {
            self.obs.delayed_inode_writes.inc();
        }
        if let Some(cached) = self.inodes.get_mut(&ino) {
            cached.dirty = false;
        }
        Ok(())
    }

    /// Writes a file's cached blocks covering `[start, end)` bytes to
    /// disk synchronously (directory updates in create/unlink).
    pub(crate) fn sync_file_range(&mut self, ino: Ino, start: u64, end: u64) -> FsResult<()> {
        if end <= start {
            return Ok(());
        }
        let bs = self.block_size() as u64;
        for bno in start / bs..end.div_ceil(bs) {
            let key = BlockKey::file(ino, bno);
            let Some(data) = self.cache.get(key).map(|d| d.to_vec()) else {
                continue;
            };
            let addr = blockmap::map_block(self, ino, bno)?;
            if addr == NIL {
                return Err(FsError::Corrupt("dirty block without an address"));
            }
            self.dev.annotate("dir-sync");
            self.dev.write(self.sector_of(addr), &data, true)?;
            self.cache.mark_clean(key);
            self.obs.sync_dir_writes.inc();
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Delayed write-back.
    // ------------------------------------------------------------------

    /// Writes all dirty state to its home locations (update in place).
    /// Writes are asynchronous; callers wanting durability follow with
    /// `dev.flush()`.
    pub(crate) fn flush_all(&mut self) -> FsResult<()> {
        let was = std::mem::replace(&mut self.in_maintenance, true);
        let result = self.flush_inner();
        self.in_maintenance = was;
        result
    }

    fn flush_inner(&mut self) -> FsResult<()> {
        // Data and indirect blocks, in (file, block) order.
        for key in self.cache.dirty_keys() {
            let Owner::File(ino) = key.owner else {
                continue;
            };
            let data = self
                .cache
                .get(key)
                .expect("dirty block must be cached")
                .to_vec();
            let addr = blockmap::block_addr(self, ino, key.index)?;
            if addr == NIL {
                return Err(FsError::Corrupt("dirty block without an address"));
            }
            self.dev.annotate("data");
            self.dev.write(self.sector_of(addr), &data, false)?;
            self.cache.mark_clean(key);
            self.obs.delayed_data_writes.inc();
        }

        // Dirty inodes, grouped by inode-table block so co-located inodes
        // cost one write (as the real FFS buffer cache would).
        let mut dirty_inos: Vec<Ino> = self
            .inodes
            .iter()
            .filter(|(_, c)| c.dirty)
            .map(|(&ino, _)| ino)
            .collect();
        dirty_inos.sort();
        let mut by_block: Vec<(FfsAddr, Vec<Ino>)> = Vec::new();
        for ino in dirty_inos {
            let (block_addr, _) = self.sb.inode_slot(ino)?;
            match by_block.last_mut() {
                Some((addr, inos)) if *addr == block_addr => inos.push(ino),
                _ => by_block.push((block_addr, vec![ino])),
            }
        }
        for (block_addr, inos) in by_block {
            let mut block = self.read_meta_block(block_addr)?;
            for &ino in &inos {
                let (_, offset) = self.sb.inode_slot(ino)?;
                let encoded = self.inodes[&ino].inode.encode();
                block[offset..offset + INODE_SIZE].copy_from_slice(&encoded);
            }
            self.cache.insert_clean(
                BlockKey::meta(NS_META, block_addr as u64),
                block.clone().into_boxed_slice(),
            );
            self.dev.annotate("inode");
            self.dev.write(self.sector_of(block_addr), &block, false)?;
            self.obs.delayed_inode_writes.inc();
            for ino in inos {
                if let Some(cached) = self.inodes.get_mut(&ino) {
                    cached.dirty = false;
                }
            }
        }

        // Dirty bitmaps.
        self.flush_bitmaps(false)?;
        Ok(())
    }

    /// Writes dirty bitmap blocks.
    pub(crate) fn flush_bitmaps(&mut self, sync: bool) -> FsResult<()> {
        for cg in self.alloc.dirty_groups() {
            let block = self.alloc.encode_bitmap_block(cg, self.block_size());
            let addr = self.sb.bitmap_block(cg);
            self.cache.insert_clean(
                BlockKey::meta(NS_META, addr as u64),
                block.clone().into_boxed_slice(),
            );
            self.dev.annotate("bitmap");
            self.dev.write(self.sector_of(addr), &block, sync)?;
            self.alloc.mark_clean(cg);
            self.obs.bitmap_writes.inc();
        }
        Ok(())
    }

    /// Applies the delayed-write policy after an operation.
    pub(crate) fn maybe_writeback(&mut self) -> FsResult<()> {
        if self.in_maintenance {
            return Ok(());
        }
        let now = self.now();
        if self.cache.writeback_trigger(now).is_some() {
            self.flush_all()?;
        }
        Ok(())
    }
}
