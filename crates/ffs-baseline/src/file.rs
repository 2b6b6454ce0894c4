//! FFS file data paths: eager block allocation, and the [`NodeStore`]
//! hooks through which the shared namespace layer reads, writes,
//! truncates and deletes.
//!
//! Unlike LFS, every block receives its permanent disk address at the
//! moment it is first written into the cache — update-in-place means the
//! address never changes afterwards, so random logical writes stay random
//! physical writes (the behaviour Figure 4's random-write comparison
//! exposes).

use std::ops::Range;

use mem_mgr::{BlockKey, Owner};
use sim_disk::{BlockDevice, CpuCost, CpuModel};
use vfs::blockmap::{self, idx_dchild, read_ptr, write_ptr, BlockPath, IDX_DTOP, IDX_SINGLE};
use vfs::namespace::{copy_cost, NodeStore, NodeView, OpHists};
use vfs::{FileKind, FsError, FsResult, Ino};

use crate::fs::{CachedInode, Ffs};
use crate::layout::{FfsAddr, FfsInode, NIL};

impl<D: BlockDevice> Ffs<D> {
    fn ptrs_per_block(&self) -> usize {
        self.block_size() / 4
    }

    /// Ensures an indirect block is cached, loading it from `disk_addr`
    /// or — with `create` — allocating a fresh one on disk immediately.
    /// Returns the block's disk address (NIL if absent and not created).
    fn ensure_indirect(
        &mut self,
        ino: Ino,
        idx: u64,
        disk_addr: FfsAddr,
        create: bool,
        hint: Option<FfsAddr>,
    ) -> FsResult<FfsAddr> {
        let key = BlockKey::file(ino, idx);
        if disk_addr != NIL {
            if !self.cache.contains(key) {
                let data = self.read_block_raw(disk_addr)?;
                self.charge(CpuCost::MapBlock);
                self.cache.insert_clean(key, data.into_boxed_slice());
            }
            return Ok(disk_addr);
        }
        if !create {
            return Ok(NIL);
        }
        let addr = self.alloc.alloc_block(hint)?;
        let data = vec![0xFFu8; self.block_size()].into_boxed_slice();
        let now = self.now();
        self.cache.insert_dirty(key, data, now);
        Ok(addr)
    }

    /// Reads pointer `slot` of the cached indirect block.
    fn indirect_get(&mut self, ino: Ino, idx: u64, slot: usize) -> FfsAddr {
        let block = self
            .cache
            .get(BlockKey::file(ino, idx))
            .expect("indirect block must be cached");
        read_ptr(block, slot)
    }

    fn indirect_set(&mut self, ino: Ino, idx: u64, slot: usize, addr: FfsAddr) -> FfsAddr {
        let now = self.now();
        let block = self
            .cache
            .get_mut(BlockKey::file(ino, idx), now)
            .expect("indirect block must be cached");
        let old = read_ptr(block, slot);
        write_ptr(block, slot, addr);
        old
    }

    /// Maps block `bno`, allocating it (and any needed indirect blocks)
    /// if absent. Returns `(address, freshly_allocated)` — a fresh block's
    /// on-disk contents are whatever a previous owner left there, so the
    /// caller must never read them.
    pub(crate) fn map_block_alloc(&mut self, ino: Ino, bno: u64) -> FsResult<(FfsAddr, bool)> {
        let existing = blockmap::map_block(self, ino, bno)?;
        if existing != NIL {
            return Ok((existing, false));
        }
        // Locality hint: previous block of the file, else the group of
        // the inode itself.
        let hint = if bno > 0 {
            match blockmap::map_block(self, ino, bno - 1)? {
                NIL => self.inode_home_hint(ino)?,
                prev => Some(prev),
            }
        } else {
            self.inode_home_hint(ino)?
        };
        let path = blockmap::resolve(bno, self.ptrs_per_block()).ok_or(FsError::FileTooLarge)?;
        let addr = self.alloc.alloc_block(hint)?;
        match path {
            BlockPath::Direct { slot } => {
                self.with_inode_mut(ino, |i| i.direct[slot] = addr)?;
            }
            BlockPath::Single { slot } => {
                let inode = self.inode(ino)?;
                let single =
                    self.ensure_indirect(ino, IDX_SINGLE, inode.single, true, Some(addr))?;
                if inode.single == NIL {
                    self.with_inode_mut(ino, |i| i.single = single)?;
                }
                self.indirect_set(ino, IDX_SINGLE, slot, addr);
            }
            BlockPath::Double { outer, inner } => {
                let inode = self.inode(ino)?;
                let dtop = self.ensure_indirect(ino, IDX_DTOP, inode.double, true, Some(addr))?;
                if inode.double == NIL {
                    self.with_inode_mut(ino, |i| i.double = dtop)?;
                }
                let child_idx = idx_dchild(outer as u32);
                let child_addr = self.indirect_get(ino, IDX_DTOP, outer);
                let child = self.ensure_indirect(ino, child_idx, child_addr, true, Some(addr))?;
                if child_addr == NIL {
                    self.indirect_set(ino, IDX_DTOP, outer, child);
                }
                self.indirect_set(ino, child_idx, inner, addr);
            }
        }
        Ok((addr, true))
    }

    /// Test-only: points direct block `bno` of `ino` at `addr` with no
    /// accounting, to seed a defect for `fsck` to find.
    #[doc(hidden)]
    pub fn set_block_ptr_for_test(&mut self, ino: Ino, bno: u64, addr: u32) {
        self.with_inode_mut(ino, |i| i.direct[bno as usize] = addr)
            .expect("a readable inode");
    }

    /// First-block placement hint: the start of the inode's group.
    fn inode_home_hint(&mut self, ino: Ino) -> FsResult<Option<FfsAddr>> {
        let (cg, _) = self.sb.ino_location(ino)?;
        Ok(Some(self.sb.data_start(cg)))
    }

    /// Frees one data block and clears its pointer.
    fn free_data_block(&mut self, ino: Ino, bno: u64) -> FsResult<()> {
        let addr = blockmap::map_block(self, ino, bno)?;
        if addr == NIL {
            return Ok(());
        }
        self.alloc.free_block(addr)?;
        self.cache.remove(BlockKey::file(ino, bno));
        let path = blockmap::resolve(bno, self.ptrs_per_block()).ok_or(FsError::FileTooLarge)?;
        match path.holder() {
            (None, slot) => self.with_inode_mut(ino, |i| i.direct[slot] = NIL)?,
            (Some(idx), slot) => {
                self.indirect_set(ino, idx, slot, NIL);
            }
        }
        Ok(())
    }

    /// Frees all indirect blocks of a file (truncate-to-zero / delete).
    fn free_indirect_blocks(&mut self, ino: Ino) -> FsResult<()> {
        let inode = self.inode(ino)?;
        if inode.double != NIL {
            self.ensure_indirect(ino, IDX_DTOP, inode.double, false, None)?;
            for outer in 0..self.ptrs_per_block() {
                let child = self.indirect_get(ino, IDX_DTOP, outer);
                if child != NIL {
                    self.alloc.free_block(child)?;
                }
                self.cache
                    .remove(BlockKey::file(ino, idx_dchild(outer as u32)));
            }
            self.alloc.free_block(inode.double)?;
            self.cache.remove(BlockKey::file(ino, IDX_DTOP));
            self.with_inode_mut(ino, |i| i.double = NIL)?;
        }
        let inode = self.inode(ino)?;
        if inode.single != NIL {
            self.alloc.free_block(inode.single)?;
            self.cache.remove(BlockKey::file(ino, IDX_SINGLE));
            self.with_inode_mut(ino, |i| i.single = NIL)?;
        }
        Ok(())
    }
}

/// What FFS puts behind the shared namespace layer.
impl<D: BlockDevice> NodeStore for Ffs<D> {
    fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    fn op_hists(&self) -> &OpHists {
        &self.ops
    }

    fn block_size(&self) -> usize {
        self.sb.block_size as usize
    }

    fn check_writable(&self) -> FsResult<()> {
        Ok(())
    }

    fn node(&mut self, ino: Ino) -> FsResult<NodeView> {
        self.ensure_inode(ino)?;
        Ok(self.inodes[&ino].inode.view())
    }

    fn set_nlink(&mut self, ino: Ino, nlink: u16) -> FsResult<()> {
        self.with_inode_mut(ino, |i| i.nlink = nlink)
    }

    /// The new inode goes in its parent directory's cylinder group.
    fn alloc_node(&mut self, parent: Ino, kind: FileKind) -> FsResult<Ino> {
        let (parent_cg, _) = self.sb.ino_location(parent)?;
        let ino = self.alloc.alloc_inode(parent_cg)?;
        let inode = FfsInode::new(ino, kind, self.now());
        self.inodes.insert(ino, CachedInode { inode, dirty: true });
        Ok(ino)
    }

    fn unalloc_node(&mut self, ino: Ino) {
        self.inodes.remove(&ino);
        let _ = self.alloc.free_inode(ino);
    }

    /// This and the next hook are where the paper's §3.1 behaviour
    /// lives: `create` and `unlink` perform small, random, *synchronous*
    /// writes of the inode-table block and the directory data block —
    /// the accesses Figure 1 draws and the reason FFS's small-file
    /// throughput cannot scale with CPU speed.
    fn persist_inode(&mut self, ino: Ino) -> FsResult<()> {
        self.write_inode_to_table(ino, true)
    }

    fn persist_dir_range(&mut self, dir: Ino, range: Range<u64>) -> FsResult<()> {
        self.sync_file_range(dir, range.start, range.end)
    }

    /// FFS keeps atime in the inode; updating it dirties the inode (one
    /// of the costs LFS's inode-map design avoids).
    fn touch_atime(&mut self, ino: Ino) -> FsResult<()> {
        let now = self.now();
        self.with_inode_mut(ino, |i| i.atime_ns = now)
    }

    fn after_op(&mut self) -> FsResult<()> {
        self.maybe_writeback()
    }

    /// FFS records no checksums: a loaded block is taken as read.
    fn indirect_ptr(&mut self, ino: Ino, idx: u64, addr: u32, slot: usize) -> FsResult<u32> {
        if self.ensure_indirect(ino, idx, addr, false, None)? == NIL {
            return Ok(NIL);
        }
        Ok(self.indirect_get(ino, idx, slot))
    }

    fn file_block(&mut self, ino: Ino, bno: u64) -> FsResult<Option<Vec<u8>>> {
        let key = BlockKey::file(ino, bno);
        if let Some(data) = self.cache.get(key) {
            return Ok(Some(data.to_vec()));
        }
        let addr = blockmap::map_block(self, ino, bno)?;
        if addr == NIL {
            return Ok(None);
        }
        self.dev.annotate("file-data");
        let data = self.read_block_raw(addr)?;
        self.cache
            .insert_clean(key, data.clone().into_boxed_slice());
        Ok(Some(data))
    }

    /// Allocates each block's permanent home as it is first written.
    fn do_write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let bs = self.block_size() as u64;
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(FsError::FileTooLarge)?;
        blockmap::resolve((end - 1) / bs, self.ptrs_per_block()).ok_or(FsError::FileTooLarge)?;

        let now = self.now();
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let bno = pos / bs;
            let within = (pos % bs) as usize;
            let n = (bs as usize - within).min(data.len() - done);
            self.charge(CpuCost::MapBlock);
            // Allocate the block's permanent home now.
            let (_, fresh) = self.map_block_alloc(ino, bno)?;
            let key = BlockKey::file(ino, bno);
            if within == 0 && n == bs as usize {
                let block = data[done..done + n].to_vec().into_boxed_slice();
                self.cache.insert_dirty(key, block, now);
            } else {
                // A freshly allocated block may hold a previous owner's
                // stale bytes on disk; start from zeros instead.
                let existing = if fresh {
                    None
                } else {
                    self.file_block(ino, bno)?
                };
                let mut block = existing.unwrap_or_else(|| vec![0u8; bs as usize]);
                block[within..within + n].copy_from_slice(&data[done..done + n]);
                self.cache.insert_dirty(key, block.into_boxed_slice(), now);
            }
            self.charge(copy_cost(n));
            done += n;
        }
        self.with_inode_mut(ino, |i| {
            i.size = i.size.max(end);
            i.mtime_ns = now;
        })?;
        Ok(done)
    }

    /// FFS keeps no space budget to exempt directories from: they are
    /// written like files, each new block getting its home at once.
    fn do_write_dir(&mut self, dir: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.do_write(dir, offset, data)
    }

    fn do_truncate(&mut self, ino: Ino, new_size: u64) -> FsResult<()> {
        let inode = self.inode(ino)?;
        let bs = self.block_size() as u64;
        if new_size < inode.size {
            let old_blocks = blockmap::blocks_for_size(inode.size, bs as usize);
            let new_blocks = blockmap::blocks_for_size(new_size, bs as usize);
            for bno in new_blocks..old_blocks {
                self.free_data_block(ino, bno)?;
            }
            if !new_size.is_multiple_of(bs) {
                let bno = new_size / bs;
                if let Some(mut block) = self.file_block(ino, bno)? {
                    let keep = (new_size % bs) as usize;
                    block[keep..].fill(0);
                    let now = self.now();
                    self.cache.insert_dirty(
                        BlockKey::file(ino, bno),
                        block.into_boxed_slice(),
                        now,
                    );
                }
            }
            if new_size == 0 {
                self.free_indirect_blocks(ino)?;
            }
        }
        let now = self.now();
        self.with_inode_mut(ino, |i| {
            i.size = new_size;
            i.mtime_ns = now;
        })?;
        Ok(())
    }

    /// The freed inode slot is zeroed on disk synchronously (Figure 1's
    /// unlink behaviour).
    fn destroy_node(&mut self, ino: Ino) -> FsResult<()> {
        self.do_truncate(ino, 0)?;
        self.inodes.remove(&ino);
        self.alloc.free_inode(ino)?;
        self.cache.remove_owner(Owner::File(ino));
        self.write_inode_to_table(ino, true)?;
        Ok(())
    }
}
