//! File data paths: block mapping, and the [`NodeStore`] hooks through
//! which the shared namespace layer reads, writes, truncates and deletes.
//!
//! The mapping structures are classic UNIX (§4.2.1): twelve direct
//! pointers, a single-indirect and a double-indirect block. Because LFS
//! never updates in place, changing any pointer dirties the containing
//! object (inode or indirect block), which the next flush rewrites at a
//! new log address.

use std::ops::Range;

use mem_mgr::{BlockKey, Owner};
use sim_disk::{BlockDevice, CpuCost, CpuModel};
use vfs::blockmap::{
    self, idx_dchild, read_ptr, write_ptr, BlockPath, IDX_DCHILD_BASE, IDX_DTOP, IDX_SINGLE,
    NDIRECT,
};
use vfs::names::NameIndex;
use vfs::namespace::{copy_cost, file_block, NodeStore, NodeView, OpHists};
use vfs::{FileKind, FsError, FsResult, Ino};

use super::Lfs;
use crate::layout::inode::Inode;
use crate::types::BlockAddr;

impl<D: BlockDevice> Lfs<D> {
    /// Ensures the indirect block with cache index `idx` is cached.
    ///
    /// `disk_addr` is its current on-disk address (NIL if never written).
    /// With `create`, a missing block is materialised as a fresh all-NIL
    /// block, dirty. Returns false if the block neither exists nor was
    /// created.
    fn ensure_indirect(
        &mut self,
        ino: Ino,
        idx: u64,
        disk_addr: BlockAddr,
        create: bool,
    ) -> FsResult<bool> {
        let key = BlockKey::file(ino, idx);
        if self.cache.contains(key) {
            return Ok(true);
        }
        if disk_addr.is_some() {
            let data = self.read_block_raw(disk_addr)?;
            self.verify_block("indirect block", disk_addr, &data)?;
            self.charge(CpuCost::MapBlock);
            self.cache.insert_clean(key, data.into_boxed_slice());
            return Ok(true);
        }
        if create {
            // NIL-filled: u32::MAX in every pointer slot.
            let data = vec![0xFFu8; self.block_size()].into_boxed_slice();
            let now = self.now();
            self.cache.insert_dirty(key, data, now);
            return Ok(true);
        }
        Ok(false)
    }

    /// Reads pointer `slot` of the cached indirect block `idx`.
    fn indirect_get(&mut self, ino: Ino, idx: u64, slot: usize) -> BlockAddr {
        let key = BlockKey::file(ino, idx);
        let block = self.cache.get(key).expect("indirect block must be cached");
        BlockAddr(read_ptr(block, slot))
    }

    /// Sets pointer `slot` of the cached indirect block `idx`, marking it
    /// dirty. Returns the old value.
    fn indirect_set(&mut self, ino: Ino, idx: u64, slot: usize, addr: BlockAddr) -> BlockAddr {
        let key = BlockKey::file(ino, idx);
        let now = self.now();
        let block = self
            .cache
            .get_mut(key, now)
            .expect("indirect block must be cached");
        let old = BlockAddr(read_ptr(block, slot));
        write_ptr(block, slot, addr.0);
        old
    }

    /// `bnos` (ascending) paired with their current disk addresses.
    fn resolved(&mut self, ino: Ino, bnos: &[u64]) -> FsResult<Vec<(u64, BlockAddr)>> {
        let addrs = blockmap::map_blocks(self, ino, bnos)?;
        Ok(bnos
            .iter()
            .zip(addrs)
            .map(|(&bno, addr)| (bno, BlockAddr(addr)))
            .collect())
    }

    /// Reads `targets` — `(block, address)` in block order, NIL for a
    /// hole — with one device request per run of contiguous addresses
    /// ([`blockmap::runs`]). One entry per target, `None` for a hole;
    /// nothing is verified or cached here.
    fn read_runs(&mut self, targets: &[(u64, BlockAddr)]) -> FsResult<Vec<Option<Vec<u8>>>> {
        let bs = self.block_size();
        let mut out = vec![None; targets.len()];
        for run in blockmap::runs(targets.iter().map(|&(_, addr)| addr.0)) {
            self.dev.annotate("file-data");
            let bytes = self.read_blocks_raw(BlockAddr(run.addr), run.len)?;
            self.obs.read_runs.inc();
            self.obs.read_run_blocks.add(run.len as u64);
            for (slot, block) in out[run.at..].iter_mut().zip(bytes.chunks_exact(bs)) {
                *slot = Some(block.to_vec());
            }
        }
        Ok(out)
    }

    /// Whether a range read with these misses (ascending) reads through
    /// the file's single-indirect block, and if so the block and how
    /// many of the misses — the last ones — it assumes right in front of
    /// it. The flush writes each file's data blocks and then its
    /// single-indirect block, so data the indirect block maps, flushed
    /// with it and running to the end of the file, ends exactly where
    /// the indirect block sits. That holds for the misses only if they
    /// are every block from the first of them in the indirect block's
    /// span to the file's last, and the block is worth reading only if
    /// it is not cached.
    fn read_through_plan(
        &mut self,
        ino: Ino,
        missing: &[u64],
    ) -> FsResult<Option<(BlockAddr, usize)>> {
        let n = missing
            .iter()
            .rev()
            .take_while(|&&bno| bno >= NDIRECT as u64)
            .count();
        if n == 0 {
            return Ok(None);
        }
        let inode = self.inode(ino)?;
        let nblocks = blockmap::blocks_for_size(inode.size, self.block_size());
        let span_end = (NDIRECT + self.sb.ptrs_per_block()) as u64;
        // Ascending and distinct, n of them from `first` to the file's
        // last block: every block in between.
        let through = missing[missing.len() - n..].first().is_some_and(|&first| {
            first + n as u64 == nblocks
                && missing.last() == Some(&(nblocks - 1))
                && nblocks <= span_end
                && inode.single.is_some()
                && inode.single.0 as usize >= n
                && !self.cache.contains(BlockKey::file(ino, IDX_SINGLE))
        });
        Ok(through.then_some((inode.single, n)))
    }

    /// Resolves a file block index to its current disk address (NIL for a
    /// hole or a block that has never been flushed).
    #[cfg(test)]
    pub(crate) fn map_block(&mut self, ino: Ino, bno: u64) -> FsResult<BlockAddr> {
        blockmap::map_block(self, ino, bno).map(BlockAddr)
    }

    /// Records the new disk address of data block `bno`, creating
    /// indirect blocks as needed (unless clearing to NIL). Returns the
    /// previous address.
    pub(crate) fn set_block_ptr(
        &mut self,
        ino: Ino,
        bno: u64,
        addr: BlockAddr,
    ) -> FsResult<BlockAddr> {
        let ppb = self.sb.ptrs_per_block();
        let path = blockmap::resolve(bno, ppb).ok_or(FsError::FileTooLarge)?;
        let create = addr.is_some();
        let inode = self.inode(ino)?;
        match path {
            BlockPath::Direct { slot } => {
                self.with_inode_mut(ino, |i| std::mem::replace(&mut i.direct[slot], addr))
            }
            BlockPath::Single { slot } => {
                if !self.ensure_indirect(ino, IDX_SINGLE, inode.single, create)? {
                    return Ok(BlockAddr::NIL);
                }
                Ok(self.indirect_set(ino, IDX_SINGLE, slot, addr))
            }
            BlockPath::Double { outer, inner } => {
                if !self.ensure_indirect(ino, IDX_DTOP, inode.double, create)? {
                    return Ok(BlockAddr::NIL);
                }
                let child = self.indirect_get(ino, IDX_DTOP, outer);
                if !self.ensure_indirect(ino, idx_dchild(outer as u32), child, create)? {
                    return Ok(BlockAddr::NIL);
                }
                Ok(self.indirect_set(ino, idx_dchild(outer as u32), inner, addr))
            }
        }
    }

    /// Records the new disk address of an indirect block (called by the
    /// flush when the block is written). Returns the previous address.
    pub(crate) fn set_indirect_ptr(
        &mut self,
        ino: Ino,
        idx: u64,
        addr: BlockAddr,
    ) -> FsResult<BlockAddr> {
        if idx == IDX_SINGLE {
            self.with_inode_mut(ino, |i| std::mem::replace(&mut i.single, addr))
        } else if idx == IDX_DTOP {
            self.with_inode_mut(ino, |i| std::mem::replace(&mut i.double, addr))
        } else {
            let outer = (idx - IDX_DCHILD_BASE) as usize;
            let inode = self.inode(ino)?;
            // The top block must exist if a child does.
            self.ensure_indirect(ino, IDX_DTOP, inode.double, true)?;
            Ok(self.indirect_set(ino, IDX_DTOP, outer, addr))
        }
    }

    /// Retires and forgets all indirect blocks of a file (truncate-to-zero
    /// and delete paths). Direct/data retirement happens via
    /// [`Lfs::set_block_ptr`] beforehand.
    fn free_indirect_blocks(&mut self, ino: Ino) -> FsResult<()> {
        let bs = self.block_size() as u64;
        let inode = self.inode(ino)?;
        if inode.double.is_some() || self.cache.contains(BlockKey::file(ino, IDX_DTOP)) {
            // Retire each existing child, reading the top block if needed.
            if self.ensure_indirect(ino, IDX_DTOP, inode.double, false)? {
                let ppb = self.sb.ptrs_per_block();
                for outer in 0..ppb {
                    let child = self.indirect_get(ino, IDX_DTOP, outer);
                    if child.is_some() {
                        self.retire(child, bs);
                    }
                    self.cache
                        .remove(BlockKey::file(ino, idx_dchild(outer as u32)));
                }
            }
            self.retire(inode.double, bs);
            self.cache.remove(BlockKey::file(ino, IDX_DTOP));
            self.with_inode_mut(ino, |i| i.double = BlockAddr::NIL)?;
        }
        if inode.single.is_some() || self.cache.contains(BlockKey::file(ino, IDX_SINGLE)) {
            self.retire(inode.single, bs);
            self.cache.remove(BlockKey::file(ino, IDX_SINGLE));
            self.with_inode_mut(ino, |i| i.single = BlockAddr::NIL)?;
        }
        Ok(())
    }
}

/// What LFS puts behind the shared namespace layer.
impl<D: BlockDevice> NodeStore for Lfs<D> {
    fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    fn mount_state(&mut self) -> (&OpHists, &mut NameIndex) {
        (&self.ops, &mut self.names)
    }

    fn block_size(&self) -> usize {
        self.sb.block_size as usize
    }

    /// Fails with [`FsError::ReadOnly`] if the file system has degraded.
    fn check_writable(&self) -> FsResult<()> {
        if self.read_only {
            Err(FsError::ReadOnly)
        } else {
            Ok(())
        }
    }

    fn node(&mut self, ino: Ino) -> FsResult<NodeView> {
        self.ensure_inode(ino)?;
        Ok(self.inodes.get(ino).expect("ensured").view())
    }

    fn set_nlink(&mut self, ino: Ino, nlink: u16) -> FsResult<()> {
        self.with_inode_mut(ino, |i| i.nlink = nlink)
    }

    fn alloc_node(&mut self, _parent: Ino, kind: FileKind) -> FsResult<Ino> {
        self.check_space(self.block_size() as u64)?;
        let ino = self.imap.allocate()?;
        let now = self.now();
        let version = self.imap.get(ino)?.version;
        let inode = Inode::new(ino, kind, version, now);
        self.inodes.insert(ino, inode, true);
        Ok(ino)
    }

    fn unalloc_node(&mut self, ino: Ino) {
        self.inodes.remove(ino);
        let _ = self.imap.free(ino);
    }

    /// Note what is *absent* here and in the next hook compared with the
    /// FFS baseline: no synchronous metadata writes. `create` and
    /// `unlink` mutate only the cache and the in-memory inode map;
    /// everything reaches disk later in segment-sized sequential
    /// transfers (§4.1, Figure 2).
    fn persist_inode(&mut self, _ino: Ino) -> FsResult<()> {
        Ok(())
    }

    fn persist_dir_range(&mut self, _dir: Ino, _range: Range<u64>) -> FsResult<()> {
        Ok(())
    }

    /// Access time lives in the inode map (paper footnote 2), so reads
    /// never dirty the inode itself.
    fn touch_atime(&mut self, ino: Ino) -> FsResult<()> {
        let now = self.now();
        self.imap.set_atime(ino, now)
    }

    fn after_op(&mut self) -> FsResult<()> {
        self.maybe_writeback()
    }

    /// Loading verifies the block against its recorded checksum.
    fn indirect_ptrs(
        &mut self,
        ino: Ino,
        idx: u64,
        addr: u32,
        first: usize,
        out: &mut [u32],
    ) -> FsResult<()> {
        if !self.ensure_indirect(ino, idx, BlockAddr(addr), false)? {
            out.fill(blockmap::NIL);
            return Ok(());
        }
        let block = self.cache.get(BlockKey::file(ino, idx));
        let block = block.expect("indirect block must be cached");
        for (i, ptr) in out.iter_mut().enumerate() {
            *ptr = read_ptr(block, first + i);
        }
        Ok(())
    }

    /// The misses are resolved through [`blockmap::map_blocks`], which
    /// loads an indirect block before any data is read — or, when they
    /// end the file behind an uncached single-indirect block, read
    /// *through* that block (`Lfs::read_through_plan`): one request
    /// fetches them and the indirect block, whose pointers must then
    /// name exactly the addresses assumed, or the assumed blocks are
    /// dropped and fetched again where the pointers say. Either way the
    /// indirect block is looked up once, after it is loaded, and every
    /// block read is verified against its checksum before it is cached.
    fn file_blocks(&mut self, ino: Ino, range: Range<u64>) -> FsResult<Vec<Option<Vec<u8>>>> {
        let mut blocks = Vec::with_capacity((range.end - range.start) as usize);
        let mut missing = Vec::new();
        for bno in range.clone() {
            let block = self.cache.get(BlockKey::file(ino, bno)).map(<[u8]>::to_vec);
            if block.is_none() {
                missing.push(bno);
            }
            blocks.push(block);
        }
        if missing.is_empty() {
            self.note_file_read(ino, range);
            return Ok(blocks);
        }
        let through = self.read_through_plan(ino, &missing)?;
        let (head, tail) = missing.split_at(missing.len() - through.map_or(0, |(_, n)| n));
        let mut targets = self.resolved(ino, head)?;
        if let Some((single, n)) = through {
            targets.extend((0..n).map(|i| (tail[i], BlockAddr(single.0 - (n - i) as u32))));
            // The indirect block itself, just past the file's end.
            targets.push((range.end, single));
        }
        let mut data = self.read_runs(&targets)?;
        if let Some((single, _)) = through {
            targets.pop();
            let block = data.pop().flatten().expect("the indirect block was read");
            self.verify_block("indirect block", single, &block)?;
            self.charge(CpuCost::MapBlock);
            let key = BlockKey::file(ino, IDX_SINGLE);
            self.cache.insert_clean(key, block.into_boxed_slice());
            let block = self.cache.get(key).expect("just cached");
            let assumed = targets[head.len()..]
                .iter()
                .all(|&(bno, addr)| read_ptr(block, (bno - NDIRECT as u64) as usize) == addr.0);
            self.obs.read_through.inc();
            if !assumed {
                self.obs.read_through_misses.inc();
                targets.truncate(head.len());
                data.truncate(head.len());
                let resolved = self.resolved(ino, tail)?;
                data.extend(self.read_runs(&resolved)?);
                targets.extend(resolved);
            }
        }
        for ((bno, addr), block) in targets.into_iter().zip(data) {
            let Some(block) = block else { continue };
            self.verify_block("file data block", addr, &block)?;
            self.cache
                .insert_clean(BlockKey::file(ino, bno), block.clone().into_boxed_slice());
            blocks[(bno - range.start) as usize] = Some(block);
        }
        self.note_file_read(ino, range);
        Ok(blocks)
    }

    fn do_write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.check_space(data.len() as u64 + self.block_size() as u64)?;
        self.do_write_dir(ino, offset, data)
    }

    /// The write path proper, without the space check: callers that
    /// grow the tree (create/mkdir) enforce the space budget themselves.
    fn do_write_dir(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let bs = self.block_size() as u64;
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(FsError::FileTooLarge)?;
        // Reject writes past the mappable range up front.
        blockmap::resolve((end - 1) / bs, self.sb.ptrs_per_block()).ok_or(FsError::FileTooLarge)?;

        self.ensure_inode(ino)?;
        let now = self.now();
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let bno = pos / bs;
            let within = (pos % bs) as usize;
            let n = (bs as usize - within).min(data.len() - done);
            let key = BlockKey::file(ino, bno);
            self.charge(CpuCost::MapBlock);
            if within == 0 && n == bs as usize {
                // Full-block overwrite: no read needed.
                let block = data[done..done + n].to_vec().into_boxed_slice();
                self.cache.insert_dirty(key, block, now);
            } else {
                // Read-modify-write (zero-filled for holes and beyond EOF).
                let mut block = match file_block(self, ino, bno)? {
                    Some(existing) => existing,
                    None => vec![0u8; bs as usize],
                };
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
        // Freshly written: no longer one of the cleaner's cold survivors.
        self.relocated.remove(&ino);
        Ok(done)
    }

    fn do_truncate(&mut self, ino: Ino, new_size: u64) -> FsResult<()> {
        let inode = self.inode(ino)?;
        let bs = self.block_size() as u64;
        if new_size < inode.size {
            let old_blocks = blockmap::blocks_for_size(inode.size, bs as usize);
            let new_blocks = blockmap::blocks_for_size(new_size, bs as usize);
            for bno in new_blocks..old_blocks {
                let old = self.set_block_ptr(ino, bno, BlockAddr::NIL)?;
                self.retire(old, bs);
                self.cache.remove(BlockKey::file(ino, bno));
            }
            // Zero the now-partial tail block so extension re-reads zeros.
            if !new_size.is_multiple_of(bs) {
                let bno = new_size / bs;
                if let Some(mut block) = file_block(self, ino, bno)? {
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
                // §4.2.1: the version number is updated every time the
                // file is truncated to length zero.
                self.imap.bump_version(ino)?;
            }
        }
        let now = self.now();
        self.with_inode_mut(ino, |i| {
            i.size = new_size;
            i.mtime_ns = now;
        })?;
        self.relocated.remove(&ino);
        Ok(())
    }

    /// Retires every block, frees the inode, and purges the cache.
    fn destroy_node(&mut self, ino: Ino) -> FsResult<()> {
        self.do_truncate(ino, 0)?;
        let entry = self.imap.get(ino)?;
        if entry.addr.is_some() {
            self.retire(entry.addr, crate::types::INODE_SIZE as u64);
        }
        self.imap.free(ino)?;
        self.inodes.remove(ino);
        self.cache.remove_owner(Owner::File(ino));
        Ok(())
    }
}
