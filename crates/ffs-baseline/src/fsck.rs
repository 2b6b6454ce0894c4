//! FFS consistency checking and mount-time repair.
//!
//! §4.4: "Unlike the UNIX file system, which must scan the entire disk
//! after a crash to repair damage, LFS need only examine the tail of the
//! log." This module is the "scan the entire disk" half of that
//! comparison: `Ffs::fsck_scan` reads every inode-table block (and every
//! directory and indirect block it leads to) to rebuild the bitmaps after
//! an unclean shutdown. An [`fsck_fanout`] above 1 fans the
//! per-cylinder-group inode-table reads (and a prefetch of the indirect
//! and directory blocks the later passes walk) out across the array's
//! spindles; results are decoded in `(cylinder group, table block)`
//! order, so the rebuilt bitmaps and link counts are identical to the
//! sequential scan's. [`Ffs::fsck`] is the verification-only variant
//! used by tests.
//!
//! [`fsck_fanout`]: crate::FfsConfig::fsck_fanout

use std::collections::HashMap;

use mem_mgr::BlockKey;
use sim_disk::BlockDevice;
use vfs::blockmap::{self, PrefetchTarget};
use vfs::namespace::{self, Finding, NodeStore, NodeView};
use vfs::{FsResult, Ino};

use crate::fs::Ffs;
use crate::layout::{FfsInode, INODE_SIZE, NIL};

/// Verification result: the report type both file systems' checkers fill.
pub type FfsFsckReport = namespace::FsckReport;

impl<D: BlockDevice> Ffs<D> {
    /// Verification-only check: directory tree, link counts, bitmap
    /// agreement, double allocation.
    pub fn fsck(&mut self) -> FsResult<FfsFsckReport> {
        let mut report = FfsFsckReport::default();
        let mut census = namespace::census(
            self,
            |fs, ino| fs.alloc.is_inode_allocated(ino),
            namespace::dir_entries,
            |_| false,
        )?;

        // Every allocated inode must be referenced with the right count,
        // and every block claimed exactly once.
        let mut claimed: HashMap<u32, Ino> = HashMap::new();
        for index in 0..self.sb.max_inodes() {
            let ino = Ino(index + 1);
            if !self.alloc.is_inode_allocated(ino) || census.audit(self, ino).is_none() {
                continue;
            }
            blockmap::visit_file_blocks(self, ino, 0, |fs, _, addr| {
                if !fs.sb.is_data_block(addr) {
                    report
                        .errors
                        .push(format!("{ino} references metadata block {addr}"));
                    return;
                }
                if !fs.alloc.is_block_allocated(addr) {
                    report
                        .errors
                        .push(format!("{ino} references free block {addr}"));
                }
                if let Some(previous) = claimed.insert(addr, ino) {
                    report
                        .errors
                        .push(format!("block {addr} claimed by both {previous} and {ino}"));
                }
            })?;
        }
        report
            .errors
            .extend(census.findings.iter().map(Finding::to_string));
        Ok(report)
    }

    /// Mount-time repair after an unclean shutdown: scans the whole
    /// volume to rebuild both bitmaps and fix link counts. This is the
    /// O(disk size) recovery the paper contrasts with LFS's O(1)
    /// checkpoint read.
    pub(crate) fn fsck_scan(&mut self) -> FsResult<()> {
        self.obs.fsck_scans.inc();
        let start_ns = self.now();
        let fanout = sim_disk::effective_fanout(self.cfg.fsck_fanout, &self.dev);
        // Pass 1: read every inode-table block; rebuild the inode bitmap
        // from non-empty slots. With a fan-out above 1 the reads are
        // issued through the asynchronous facade, up to `fanout` in
        // flight, so cylinder groups on different spindles overlap in
        // virtual time; decoding runs over the results in
        // `(cylinder group, table block)` order, so `found` — and the
        // first propagated read error, if any — is identical to the
        // sequential scan's.
        let per_block = self.block_size() / INODE_SIZE;
        let mut found: Vec<FfsInode> = Vec::new();
        let table: Vec<(u32, u32)> = (0..self.sb.ncg)
            .flat_map(|cg| (0..self.sb.it_blocks()).map(move |tb| (cg, tb)))
            .collect();
        let mut prefetched = if fanout > 1 {
            let bs = self.block_size();
            let reqs: Vec<(u64, usize)> = table
                .iter()
                .map(|&(cg, tb)| (self.sector_of(self.sb.cg_base(cg) + 1 + tb), bs))
                .collect();
            let (results, _) = sim_disk::read_batch(&mut self.dev, "fsck-scan", fanout, &reqs);
            Some(results.into_iter())
        } else {
            None
        };
        for (cg, tb) in table {
            let block = match prefetched.as_mut().and_then(|iter| iter.next()) {
                Some(result) => result?,
                None => {
                    let addr = self.sb.cg_base(cg) + 1 + tb;
                    self.read_block_raw(addr)?
                }
            };
            self.obs.fsck_blocks_scanned.inc();
            for slot in 0..per_block {
                let bytes = &block[slot * INODE_SIZE..(slot + 1) * INODE_SIZE];
                if let Ok(Some(inode)) = FfsInode::decode_slot(bytes) {
                    let expected = self.sb.ino_at(cg, (tb as usize * per_block + slot) as u32);
                    if inode.ino == expected {
                        found.push(inode);
                    }
                }
            }
        }
        // Rebuild the allocator from scratch.
        self.alloc = crate::alloc::Allocator::new(self.sb.clone());
        for inode in &found {
            // Mark the inode bit.
            let (cg, _) = self.sb.ino_location(inode.ino)?;
            let _ = cg;
            // alloc_inode scans; instead poke via load path: re-mark by
            // allocating the specific bit through the bitmap round trip.
            self.mark_inode_allocated(inode.ino);
            self.inodes.insert(
                inode.ino,
                crate::fs::CachedInode {
                    inode: inode.clone(),
                    dirty: false,
                },
            );
        }
        // With a fan-out, front-load the cache misses passes 2 and 3
        // are about to take: indirect blocks and directory data, read
        // in overlapped waves. The passes themselves are untouched — a
        // block the gather could not fetch is re-read serially with
        // the identical error, so the rebuilt state does not change.
        self.gather_scan_metadata(fanout, &found);
        // Pass 2: walk every file's pointer tree to rebuild the block
        // bitmap (reads every indirect block — the expensive part).
        let inos: Vec<Ino> = found.iter().map(|i| i.ino).collect();
        for ino in inos {
            blockmap::visit_file_blocks(self, ino, 0, |fs, _, addr| {
                fs.mark_block_allocated(addr);
                fs.obs.fsck_blocks_scanned.inc();
            })?;
        }
        // Pass 3: fix directory reference counts.
        crate::fsck::fix_links(self)?;
        // Persist the rebuilt bitmaps.
        self.flush_bitmaps(true)?;
        let now = self.now();
        self.obs.registry.event(
            now,
            "fsck",
            format!(
                "blocks_scanned={} took_ns={}",
                self.obs.fsck_blocks_scanned.get(),
                now.saturating_sub(start_ns)
            ),
        );
        Ok(())
    }

    /// Issues one wave of prefetches with at most `window` reads in
    /// flight. Quiet: a read that fails is simply not inserted, leaving
    /// the serial pass to re-read and report it.
    fn gather_wave(&mut self, window: usize, mut targets: Vec<PrefetchTarget>) {
        targets.retain(|&(ino, idx, addr)| {
            addr != NIL && !self.cache.contains(BlockKey::file(ino, idx))
        });
        // Ascending disk order: deterministic, and sequential within
        // each spindle's share of the address space.
        targets.sort_by_key(|&(_, _, addr)| addr);
        targets.dedup();
        let bs = self.block_size();
        let reqs: Vec<(u64, usize)> = targets
            .iter()
            .map(|&(_, _, addr)| (self.sector_of(addr), bs))
            .collect();
        let (results, _) = sim_disk::read_batch(&mut self.dev, "fsck-gather", window, &reqs);
        for ((ino, idx, _), result) in targets.into_iter().zip(results) {
            if let Ok(data) = result {
                self.cache
                    .insert_clean(BlockKey::file(ino, idx), data.into_boxed_slice());
            }
        }
    }

    /// Prefetches the blocks passes 2 and 3 will walk, in the two waves
    /// of [`blockmap`]'s plan. A window of one is the sequential scan:
    /// nothing to overlap, so nothing is gathered.
    fn gather_scan_metadata(&mut self, window: usize, found: &[FfsInode]) {
        if window <= 1 {
            return;
        }
        let bs = self.block_size();
        let nodes: Vec<(Ino, NodeView)> = found.iter().map(|i| (i.ino, i.view())).collect();
        self.gather_wave(window, blockmap::prefetch_roots(&nodes, bs));
        let wave = blockmap::prefetch_children(&nodes, bs, |ino, idx| {
            self.cache.peek(BlockKey::file(ino, idx))
        });
        self.gather_wave(window, wave);
    }

    fn mark_inode_allocated(&mut self, ino: Ino) {
        // Encode/decode round trip through the bitmap block would be
        // wasteful; poke the allocator via its public API.
        if !self.alloc.is_inode_allocated(ino) {
            self.alloc.force_inode(ino);
        }
    }

    fn mark_block_allocated(&mut self, addr: u32) {
        if !self.alloc.is_block_allocated(addr) {
            self.alloc.force_block(addr);
        }
    }
}

/// Reads a directory, salvaging a crash-corrupted tail: the valid prefix
/// of entries is kept and the directory is truncated to it (what the
/// classic fsck's directory salvage pass does).
fn salvage_directory<D: BlockDevice>(
    fs: &mut Ffs<D>,
    dir: Ino,
) -> FsResult<Vec<vfs::dirent::RawEntry>> {
    let stream = match namespace::read_dir_stream(fs, dir) {
        Ok(stream) => stream,
        // Unreadable outright: empty the directory.
        Err(_) => {
            fs.do_truncate(dir, 0)?;
            return Ok(Vec::new());
        }
    };
    match vfs::dirent::parse(&stream) {
        Ok(entries) => Ok(entries),
        Err(_) => {
            let (entries, valid_len) = vfs::dirent::parse_prefix(&stream);
            fs.do_truncate(dir, valid_len as u64)?;
            fs.write_inode_to_table(dir, true)?;
            fs.sync_file_range(dir, 0, valid_len as u64)?;
            Ok(entries)
        }
    }
}

/// Fixes link counts and removes dangling entries after a scan. A fixed
/// inode goes back to its table slot with the delayed writes.
fn fix_links<D: BlockDevice>(fs: &mut Ffs<D>) -> FsResult<()> {
    let mut census = namespace::census(
        fs,
        |fs, ino| fs.alloc.is_inode_allocated(ino),
        salvage_directory,
        |finding| matches!(finding, Finding::Dangling { .. }),
    )?;
    for index in 0..fs.sb.max_inodes() {
        let ino = Ino(index + 1);
        if fs.alloc.is_inode_allocated(ino) {
            census.audit(fs, ino);
        }
    }
    census.repair(fs, |fs, ino| fs.write_inode_to_table(ino, false))
}
