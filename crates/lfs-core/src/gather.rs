//! The fanned-out metadata gathers: roll-forward's repair, `fsck`, and
//! the flush.
//!
//! All three read metadata one cache miss at a time: an inode block
//! here, an indirect block there, each a synchronous single-block read
//! that leaves every other spindle idle. This module front-loads those
//! misses, prefetching the blocks the serial passes are about to ask
//! for in waves through the device's asynchronous read facade, so the
//! per-spindle queues overlap in virtual time:
//!
//! * for recovery and `fsck`, over a given set of inodes — the ones the
//!   tail touched at mount, every allocated one for `fsck` — the inode
//!   blocks, indirect roots, double-indirect children and directory
//!   data ([`Lfs::gather_metadata`]);
//! * for a flush, over the files with dirty state, the inode blocks and
//!   indirect blocks the flush must load to record its new addresses,
//!   before its first chunk write queues ([`Lfs::gather_for_flush`]).
//!
//! A window of one gathers nothing: with one spindle there is nothing
//! to overlap, and the serial passes take their misses as they come.
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
//! [`Corruption`]: vfs::FsError::Corruption
//! [`MemMgr::peek`]: mem_mgr::MemMgr::peek

use std::collections::BTreeSet;

use mem_mgr::{BlockKey, Owner};
use sim_disk::{read_batch, BlockDevice};
use vfs::blockmap::{
    self, idx_dchild, is_data_idx, read_ptr, BlockPath, PrefetchTarget, IDX_DTOP, IDX_SINGLE,
};
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
    /// at most `window` reads in flight, each annotated `label`. Returns
    /// how many blocks were verified and inserted.
    fn gather_wave(
        &mut self,
        label: &'static str,
        window: usize,
        mut targets: Vec<(BlockKey, BlockAddr)>,
    ) -> u64 {
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
        let results = read_batch(&mut self.dev, label, window, &reqs);
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

    /// Wave 1 of every gather: the inode block of each allocated one of
    /// `inos`, then the view of each whose block landed and holds it.
    /// Returns the views and how many blocks were inserted.
    fn gather_inodes(
        &mut self,
        label: &'static str,
        window: usize,
        inos: &[Ino],
    ) -> (Vec<(Ino, NodeView)>, u64) {
        let homes: Vec<(Ino, BlockKey, BlockAddr, usize)> = inos
            .iter()
            .filter_map(|&ino| {
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
        let gathered = self.gather_wave(label, window, wave);
        self.inodes.note_block_reads(gathered, self.dev.maintenance());
        // Inodes whose block did not land stay on the serial path.
        let nodes = homes
            .into_iter()
            .filter_map(|(ino, key, _, slot)| {
                let inode = inode_block::unpack_slot(self.cache.peek(key)?, slot).ok()??;
                (inode.ino == ino).then(|| (ino, inode.view()))
            })
            .collect();
        (nodes, gathered)
    }

    /// Fans out the metadata reads the serial repair/fsck passes are
    /// about to issue for `inos`: wave 1 prefetches each allocated one's
    /// inode block, waves 2 and 3 are [`blockmap`]'s plan over them —
    /// the indirect roots and direct directory data, then the
    /// double-indirect children and the single-indirect span of each
    /// directory. The batches run under the maintenance I/O class; the
    /// number of blocks prefetched is added to
    /// `recovery.prefetched_blocks`.
    pub(crate) fn gather_metadata(&mut self, window: usize, inos: &[Ino]) {
        if window <= 1 {
            return;
        }
        const LABEL: &str = "recovery-gather";
        let bs = self.block_size();
        self.dev.set_maintenance(true);
        let (nodes, mut prefetched) = self.gather_inodes(LABEL, window, inos);
        let roots = keyed(blockmap::prefetch_roots(&nodes, bs));
        prefetched += self.gather_wave(LABEL, window, roots);
        let wave = blockmap::prefetch_children(&nodes, bs, |ino, idx| {
            self.cache.peek(BlockKey::file(ino, idx))
        });
        prefetched += self.gather_wave(LABEL, window, keyed(wave));
        self.dev.set_maintenance(false);
        self.obs.recovery_prefetched_blocks.add(prefetched);
    }

    /// Fans out the reads a flush of `owners` would otherwise take one
    /// at a time while it records new block addresses, before its first
    /// chunk write queues: wave 1 the inode block of each owner not in
    /// the inode table, wave 2 the indirect roots its dirty blocks'
    /// pointers live in (the single-indirect block; the double-indirect
    /// top for a dirty block or child below it), wave 3 the
    /// double-indirect children holding dirty blocks' pointers. The
    /// window is the device's fan-out. The batches are billed to
    /// whatever I/O class the flush runs under; their wait counts into
    /// `log.flush_read_wait_ns` and the blocks into
    /// `log.flush_gathered_blocks`.
    pub(crate) fn gather_for_flush(&mut self, owners: &BTreeSet<Ino>) {
        let window = self.dev.fanout();
        if window <= 1 {
            return;
        }
        const LABEL: &str = "flush-gather";
        let start = self.now();
        let ppb = self.sb.ptrs_per_block();
        let missing: Vec<Ino> = (owners.iter())
            .filter(|&&ino| !self.inodes.contains(ino))
            .copied()
            .collect();
        let (mut nodes, mut gathered) = self.gather_inodes(LABEL, window, &missing);
        nodes.extend(owners.iter().filter_map(|ino| {
            Some((*ino, self.inodes.get(*ino)?.view()))
        }));

        // Which pointer blocks each owner's dirty blocks need: the
        // single-indirect block, the double-indirect top, and the
        // double-indirect children by `outer`.
        let mut roots = Vec::new();
        let mut children = BTreeSet::new();
        for &(ino, node) in &nodes {
            let (mut single, mut double) = (false, false);
            for key in self.cache.dirty_keys_of(Owner::File(ino)) {
                if !is_data_idx(key.index) {
                    // A dirty child records its address in the top.
                    double |= key.index > IDX_DTOP;
                    continue;
                }
                match blockmap::resolve(key.index, ppb) {
                    Some(BlockPath::Single { .. }) => single = true,
                    Some(BlockPath::Double { outer, .. }) => {
                        double = true;
                        children.insert((ino, outer));
                    }
                    _ => {}
                }
            }
            if single {
                roots.push((ino, IDX_SINGLE, node.roots.single));
            }
            if double {
                roots.push((ino, IDX_DTOP, node.roots.double));
            }
        }
        gathered += self.gather_wave(LABEL, window, keyed(roots));
        let wave = children
            .into_iter()
            .filter_map(|(ino, outer)| {
                let top = self.cache.peek(BlockKey::file(ino, IDX_DTOP))?;
                Some((ino, idx_dchild(outer as u32), read_ptr(top, outer)))
            })
            .collect();
        gathered += self.gather_wave(LABEL, window, keyed(wave));
        self.obs.flush_gathered_blocks.add(gathered);
        self.obs.flush_read_wait_ns.add(self.now() - start);
    }
}
