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
use sim_disk::{read_batch, BlockDevice};
use vfs::blockmap::{self, PrefetchTarget};
use vfs::namespace::NodeView;
use vfs::Ino;

use crate::fs::{Lfs, NS_INODE_BLOCKS};
use crate::layout::inode::inode_block;
use crate::layout::summary;
use crate::types::BlockAddr;

/// The shared plan's targets as this cache's keys and log addresses.
fn keyed(wave: Vec<PrefetchTarget>) -> Vec<(BlockKey, BlockAddr)> {
    let key = |(ino, idx, addr)| (BlockKey::file(ino, idx), BlockAddr(addr));
    wave.into_iter().map(key).collect()
}

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
    /// block, waves 2 and 3 are [`blockmap`]'s plan over those inodes —
    /// the indirect roots and direct directory data, then the
    /// double-indirect children and the single-indirect span of each
    /// directory. The number of blocks
    /// prefetched is added to `recovery.prefetched_blocks`. A window of
    /// one is the sequential case: nothing to overlap, so nothing is
    /// gathered and the serial passes take their misses as they come.
    pub(crate) fn gather_metadata(&mut self, window: usize) {
        if window <= 1 {
            return;
        }
        let bs = self.block_size();

        // Wave 1: inode blocks, straight off the inode map.
        let homes: Vec<(Ino, BlockKey, BlockAddr, usize)> = self
            .imap
            .allocated_inos()
            .filter_map(|ino| {
                let entry = self.imap.get(ino).ok()?;
                let key = BlockKey::meta(NS_INODE_BLOCKS, entry.addr.0 as u64);
                (entry.allocated && entry.addr.is_some()).then_some((
                    ino,
                    key,
                    entry.addr,
                    entry.slot as usize,
                ))
            })
            .collect();
        let wave = homes.iter().map(|&(_, key, addr, _)| (key, addr)).collect();
        let mut prefetched = self.gather_wave(window, wave);

        // Waves 2 and 3 follow the shared plan over the inodes whose
        // block landed; the others stay on the serial path.
        let nodes: Vec<(Ino, NodeView)> = homes
            .into_iter()
            .filter_map(|(ino, key, _, slot)| {
                let inode = inode_block::unpack_slot(self.cache.peek(key)?, slot).ok()??;
                (inode.ino == ino).then(|| (ino, inode.view()))
            })
            .collect();
        prefetched += self.gather_wave(window, keyed(blockmap::prefetch_roots(&nodes, bs)));
        let wave = blockmap::prefetch_children(&nodes, bs, |ino, idx| {
            self.cache.peek(BlockKey::file(ino, idx))
        });
        prefetched += self.gather_wave(window, keyed(wave));
        self.obs.recovery_prefetched_blocks.add(prefetched);
    }
}
