//! The recovery path's fanned-out metadata gather.
//!
//! Roll-forward's serial repair passes ([`fix_directories`] and
//! [`recompute_usage`]) and `fsck`'s verify phases read metadata one
//! cache miss at a time: an inode block here, an indirect block there,
//! each a synchronous single-block read that leaves every other spindle
//! idle. This module front-loads those misses: it walks the recovered
//! inode map and prefetches the blocks the serial passes are about to
//! ask for — inode blocks, indirect roots, double-indirect children,
//! and directory data — in waves through the device's asynchronous
//! read facade, so the per-spindle queues overlap in virtual time.
//!
//! The gather is *quiet* by construction, so the serial passes behave
//! bit-identically whether or not it ran:
//!
//! * a prefetched block is inserted into the cache only after its
//!   end-to-end checksum verifies (counting `verified_reads` exactly
//!   as the serial read it replaces would have);
//! * a block that fails its read or its checksum is simply *not*
//!   inserted — the serial pass re-reads it through the normal path
//!   and raises the identical typed [`Corruption`]/IO error, with the
//!   identical counters and events, exactly once;
//! * cache lookups use [`MemMgr::peek`], so recency, hit/miss stats,
//!   and pool membership are untouched.
//!
//! [`fix_directories`]: crate::recovery
//! [`recompute_usage`]: crate::recovery
//! [`Corruption`]: vfs::FsError::Corruption
//! [`MemMgr::peek`]: mem_mgr::MemMgr::peek

use mem_mgr::BlockKey;
use sim_disk::BlockDevice;
use vfs::blockmap::{self, idx_dchild, read_ptr, IDX_DTOP, IDX_SINGLE, NDIRECT};
use vfs::{FileKind, Ino};

use crate::fs::{Lfs, NS_INODE_BLOCKS};
use crate::layout::inode::inode_block;
use crate::layout::summary;
use crate::recovery::read_batch;
use crate::types::BlockAddr;

impl<D: BlockDevice> Lfs<D> {
    /// Prefetches one wave of `(cache key, disk address)` targets with
    /// at most `window` reads in flight. Returns how many blocks were
    /// verified and inserted.
    fn gather_wave(&mut self, window: usize, mut targets: Vec<(BlockKey, BlockAddr)>) -> u64 {
        targets.retain(|&(key, addr)| addr.is_some() && !self.cache.contains(key));
        // Claim in ascending disk order: deterministic, and sequential
        // within each spindle's share of the address space.
        targets.sort_by_key(|&(_, addr)| addr.0);
        targets.dedup();
        let bs = self.block_size();
        let reqs: Vec<(u64, usize)> = targets
            .iter()
            .map(|&(_, addr)| (self.sector_of(addr), bs))
            .collect();
        let (results, _) = read_batch(&mut self.dev, "recovery-gather", window, &reqs);
        let mut inserted = 0u64;
        for ((key, addr), result) in targets.into_iter().zip(results) {
            let Ok(data) = result else {
                continue; // The serial pass re-reads and reports.
            };
            // An unknown checksum passes unverified, as on the serial path.
            if let Some(crc) = self.expected_crc(addr) {
                if summary::block_checksum(&data) != crc {
                    continue; // Ditto: re-read raises the corruption.
                }
                self.obs.verified_reads.inc();
            }
            self.cache.insert_clean(key, data.into_boxed_slice());
            inserted += 1;
        }
        inserted
    }

    /// Fans out the metadata reads the serial recovery/fsck passes are
    /// about to issue: wave 1 prefetches every allocated inode's inode
    /// block, wave 2 the indirect roots and direct directory data those
    /// inodes point at, wave 3 the double-indirect children and the
    /// single-indirect span of each directory. The number of blocks
    /// prefetched is added to `recovery.prefetched_blocks`. A window of
    /// one is the sequential case: nothing to overlap, so nothing is
    /// gathered and the serial passes take their misses as they come.
    pub(crate) fn gather_metadata(&mut self, window: usize) {
        if window <= 1 {
            return;
        }
        self.dev.set_maintenance(true);
        let bs = self.block_size();
        let ppb = self.sb.ptrs_per_block();
        let mut prefetched = 0u64;

        // Wave 1: inode blocks, straight off the inode map.
        let inos: Vec<Ino> = self.imap.allocated_inos().collect();
        let mut wave: Vec<(BlockKey, BlockAddr)> = Vec::new();
        for &ino in &inos {
            if let Ok(entry) = self.imap.get(ino) {
                if entry.allocated && entry.addr.is_some() {
                    wave.push((
                        BlockKey::meta(NS_INODE_BLOCKS, entry.addr.0 as u64),
                        entry.addr,
                    ));
                }
            }
        }
        prefetched += self.gather_wave(window, wave);

        // Wave 2: peek the now-cached inode blocks for each inode's
        // indirect roots and (for directories) direct data blocks. An
        // inode whose block did not land stays on the serial path.
        let mut wave: Vec<(BlockKey, BlockAddr)> = Vec::new();
        let mut dtops: Vec<Ino> = Vec::new();
        let mut dirs: Vec<(Ino, u64)> = Vec::new();
        for &ino in &inos {
            let Ok(entry) = self.imap.get(ino) else {
                continue;
            };
            if !entry.allocated || entry.addr.is_nil() {
                continue;
            }
            let key = BlockKey::meta(NS_INODE_BLOCKS, entry.addr.0 as u64);
            let Some(block) = self.cache.peek(key) else {
                continue;
            };
            let Ok(Some(inode)) = inode_block::unpack_slot(block, entry.slot as usize) else {
                continue;
            };
            if inode.ino != ino {
                continue;
            }
            wave.push((BlockKey::file(ino, IDX_SINGLE), inode.single));
            wave.push((BlockKey::file(ino, IDX_DTOP), inode.double));
            let nblocks = blockmap::blocks_for_size(inode.size, bs);
            if inode.kind == FileKind::Directory {
                for bno in 0..nblocks.min(NDIRECT as u64) {
                    wave.push((BlockKey::file(ino, bno), inode.direct[bno as usize]));
                }
                if inode.single.is_some() {
                    dirs.push((ino, nblocks));
                }
            }
            if inode.double.is_some() {
                dtops.push(ino);
            }
        }
        prefetched += self.gather_wave(window, wave);

        // Wave 3: second-level pointers now reachable through wave 2.
        let mut wave: Vec<(BlockKey, BlockAddr)> = Vec::new();
        for ino in dtops {
            let Some(block) = self.cache.peek(BlockKey::file(ino, IDX_DTOP)) else {
                continue;
            };
            let children: Vec<BlockAddr> = (0..ppb)
                .map(|slot| BlockAddr(read_ptr(block, slot)))
                .collect();
            for (outer, child) in children.into_iter().enumerate() {
                wave.push((BlockKey::file(ino, idx_dchild(outer as u32)), child));
            }
        }
        for (ino, nblocks) in dirs {
            let Some(block) = self.cache.peek(BlockKey::file(ino, IDX_SINGLE)) else {
                continue;
            };
            let hi = nblocks.min(NDIRECT as u64 + ppb as u64);
            let spans: Vec<(u64, BlockAddr)> = (NDIRECT as u64..hi)
                .map(|bno| {
                    let slot = (bno - NDIRECT as u64) as usize;
                    (bno, BlockAddr(read_ptr(block, slot)))
                })
                .collect();
            for (bno, addr) in spans {
                wave.push((BlockKey::file(ino, bno), addr));
            }
        }
        prefetched += self.gather_wave(window, wave);

        self.dev.set_maintenance(false);
        self.obs.recovery_prefetched_blocks.add(prefetched);
    }
}
