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

use std::collections::{HashMap, HashSet, VecDeque};

use mem_mgr::BlockKey;
use sim_disk::BlockDevice;
use vfs::blockmap::{self, idx_dchild, read_ptr, IDX_DTOP, IDX_SINGLE, NDIRECT};
use vfs::namespace::{self, NodeStore};
use vfs::{FileKind, FsResult, Ino};

use crate::fs::Ffs;
use crate::layout::{FfsAddr, FfsInode, INODE_SIZE, NIL};

/// Verification result.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FfsFsckReport {
    /// Invariant violations.
    pub errors: Vec<String>,
    /// Suspicious but tolerated conditions.
    pub warnings: Vec<String>,
}

impl FfsFsckReport {
    /// Returns true if no errors were found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

impl std::fmt::Display for FfsFsckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() && self.warnings.is_empty() {
            return write!(f, "clean");
        }
        for e in &self.errors {
            writeln!(f, "error: {e}")?;
        }
        for w in &self.warnings {
            writeln!(f, "warning: {w}")?;
        }
        Ok(())
    }
}

impl<D: BlockDevice> Ffs<D> {
    /// Collects every block address a file references (data + indirect).
    fn file_blocks(&mut self, ino: Ino) -> FsResult<Vec<u32>> {
        let inode = self.inode(ino)?;
        let bs = self.block_size();
        let mut out = Vec::new();
        let nblocks = blockmap::blocks_for_size(inode.size, bs);
        for bno in 0..nblocks {
            let addr = self.map_block(ino, bno)?;
            if addr != NIL {
                out.push(addr);
            }
        }
        if inode.single != NIL {
            out.push(inode.single);
        }
        if inode.double != NIL {
            out.push(inode.double);
            for outer in 0..bs / 4 {
                let child = self.indirect_home(ino, idx_dchild(outer as u32))?;
                if child != NIL {
                    out.push(child);
                }
            }
        }
        Ok(out)
    }

    /// Verification-only check: directory tree, link counts, bitmap
    /// agreement, double allocation.
    pub fn fsck(&mut self) -> FsResult<FfsFsckReport> {
        let mut report = FfsFsckReport::default();

        let mut ref_counts: HashMap<Ino, u32> = HashMap::new();
        let mut visited: HashSet<Ino> = HashSet::new();
        let mut queue: VecDeque<(Ino, String)> = VecDeque::new();
        visited.insert(Ino::ROOT);
        queue.push_back((Ino::ROOT, "/".to_string()));
        while let Some((dir, path)) = queue.pop_front() {
            let entries = match namespace::dir_entries(self, dir) {
                Ok(entries) => entries,
                Err(e) => {
                    report
                        .errors
                        .push(format!("unreadable directory {path}: {e}"));
                    continue;
                }
            };
            for entry in entries {
                let child_path = format!("{}{}", path, entry.name);
                if !self.alloc.is_inode_allocated(entry.ino) {
                    report.errors.push(format!(
                        "dangling entry {child_path} -> unallocated {}",
                        entry.ino
                    ));
                    continue;
                }
                *ref_counts.entry(entry.ino).or_insert(0) += 1;
                match self.inode(entry.ino) {
                    Ok(inode) => {
                        if inode.kind != entry.kind {
                            report.errors.push(format!("kind mismatch at {child_path}"));
                        }
                        if inode.kind == FileKind::Directory {
                            if visited.insert(entry.ino) {
                                queue.push_back((entry.ino, format!("{child_path}/")));
                            } else {
                                report
                                    .errors
                                    .push(format!("directory {child_path} has multiple parents"));
                            }
                        }
                    }
                    Err(e) => report
                        .errors
                        .push(format!("unreadable inode for {child_path}: {e}")),
                }
            }
        }

        // Every allocated inode must be referenced with the right count,
        // and every block claimed exactly once.
        let mut claimed: HashMap<u32, Ino> = HashMap::new();
        for index in 0..self.sb.max_inodes() {
            let ino = Ino(index + 1);
            if !self.alloc.is_inode_allocated(ino) {
                continue;
            }
            let refs = ref_counts.get(&ino).copied().unwrap_or(0);
            if ino != Ino::ROOT && refs == 0 {
                report.errors.push(format!("orphaned inode {ino}"));
                continue;
            }
            let inode = match self.inode(ino) {
                Ok(inode) => inode,
                Err(e) => {
                    report.errors.push(format!("unreadable inode {ino}: {e}"));
                    continue;
                }
            };
            if ino != Ino::ROOT && inode.nlink as u32 != refs {
                report.errors.push(format!(
                    "{ino}: nlink {} but {} references",
                    inode.nlink, refs
                ));
            }
            for addr in self.file_blocks(ino)? {
                if !self.sb.is_data_block(addr) {
                    report
                        .errors
                        .push(format!("{ino} references metadata block {addr}"));
                    continue;
                }
                if !self.alloc.is_block_allocated(addr) {
                    report
                        .errors
                        .push(format!("{ino} references free block {addr}"));
                }
                if let Some(previous) = claimed.insert(addr, ino) {
                    report
                        .errors
                        .push(format!("block {addr} claimed by both {previous} and {ino}"));
                }
            }
        }
        Ok(report)
    }

    /// Mount-time repair after an unclean shutdown: scans the whole
    /// volume to rebuild both bitmaps and fix link counts. This is the
    /// O(disk size) recovery the paper contrasts with LFS's O(1)
    /// checkpoint read.
    pub(crate) fn fsck_scan(&mut self) -> FsResult<()> {
        self.obs.fsck_scans.inc();
        let start_ns = self.now();
        let fanout = match self.cfg.fsck_fanout {
            0 => self.dev.fanout(),
            n => n,
        };
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
            self.dev.set_maintenance(true);
            let (results, _) = sim_disk::read_batch(&mut self.dev, "fsck-scan", fanout, &reqs);
            self.dev.set_maintenance(false);
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
            for addr in self.file_blocks(ino)? {
                self.mark_block_allocated(addr);
                self.obs.fsck_blocks_scanned.inc();
            }
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

    /// Issues one wave of `(cache key, disk address)` prefetches with at
    /// most `window` reads in flight. Quiet: a read that fails is simply
    /// not inserted, leaving the serial pass to re-read and report it.
    fn gather_wave(&mut self, window: usize, mut targets: Vec<(BlockKey, FfsAddr)>) {
        targets.retain(|&(key, addr)| addr != NIL && !self.cache.contains(key));
        // Ascending disk order: deterministic, and sequential within
        // each spindle's share of the address space.
        targets.sort_by_key(|&(_, addr)| addr);
        targets.dedup();
        let bs = self.block_size();
        let reqs: Vec<(u64, usize)> = targets
            .iter()
            .map(|&(_, addr)| (self.sector_of(addr), bs))
            .collect();
        let (results, _) = sim_disk::read_batch(&mut self.dev, "fsck-gather", window, &reqs);
        for ((key, _), result) in targets.into_iter().zip(results) {
            if let Ok(data) = result {
                self.cache.insert_clean(key, data.into_boxed_slice());
            }
        }
    }

    /// Prefetches the blocks passes 2 and 3 will walk: wave 1 the
    /// indirect roots and direct directory data of every recovered
    /// inode, wave 2 the double-indirect children and each directory's
    /// single-indirect data span. A window of one is the sequential
    /// scan: nothing to overlap, so nothing is gathered.
    fn gather_scan_metadata(&mut self, window: usize, found: &[FfsInode]) {
        if window <= 1 {
            return;
        }
        self.dev.set_maintenance(true);
        let bs = self.block_size();
        let ppb = bs / 4;

        let mut wave: Vec<(BlockKey, FfsAddr)> = Vec::new();
        for inode in found {
            wave.push((BlockKey::file(inode.ino, IDX_SINGLE), inode.single));
            wave.push((BlockKey::file(inode.ino, IDX_DTOP), inode.double));
            if inode.kind == FileKind::Directory {
                let nblocks = blockmap::blocks_for_size(inode.size, bs);
                for bno in 0..nblocks.min(NDIRECT as u64) {
                    wave.push((BlockKey::file(inode.ino, bno), inode.direct[bno as usize]));
                }
            }
        }
        self.gather_wave(window, wave);

        let mut wave: Vec<(BlockKey, FfsAddr)> = Vec::new();
        for inode in found {
            if inode.double != NIL {
                if let Some(block) = self.cache.peek(BlockKey::file(inode.ino, IDX_DTOP)) {
                    let children: Vec<FfsAddr> =
                        (0..ppb).map(|slot| read_ptr(block, slot)).collect();
                    for (outer, child) in children.into_iter().enumerate() {
                        wave.push((BlockKey::file(inode.ino, idx_dchild(outer as u32)), child));
                    }
                }
            }
            if inode.kind == FileKind::Directory && inode.single != NIL {
                if let Some(block) = self.cache.peek(BlockKey::file(inode.ino, IDX_SINGLE)) {
                    let nblocks = blockmap::blocks_for_size(inode.size, bs);
                    let hi = nblocks.min(NDIRECT as u64 + ppb as u64);
                    let spans: Vec<(u64, FfsAddr)> = (NDIRECT as u64..hi)
                        .map(|bno| (bno, read_ptr(block, (bno - NDIRECT as u64) as usize)))
                        .collect();
                    for (bno, addr) in spans {
                        wave.push((BlockKey::file(inode.ino, bno), addr));
                    }
                }
            }
        }
        self.gather_wave(window, wave);
        self.dev.set_maintenance(false);
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

/// Fixes link counts and removes dangling entries after a scan.
fn fix_links<D: BlockDevice>(fs: &mut Ffs<D>) -> FsResult<()> {
    let mut ref_counts: HashMap<Ino, u32> = HashMap::new();
    let mut visited: HashSet<Ino> = HashSet::new();
    let mut queue: VecDeque<Ino> = VecDeque::new();
    visited.insert(Ino::ROOT);
    queue.push_back(Ino::ROOT);
    while let Some(dir) = queue.pop_front() {
        let entries = salvage_directory(fs, dir)?;
        let mut dangling = Vec::new();
        for entry in entries {
            if !fs.alloc.is_inode_allocated(entry.ino) {
                dangling.push(entry.name);
                continue;
            }
            *ref_counts.entry(entry.ino).or_insert(0) += 1;
            if entry.kind == FileKind::Directory && visited.insert(entry.ino) {
                queue.push_back(entry.ino);
            }
        }
        for name in dangling {
            namespace::dir_remove(fs, dir, &name)?;
        }
    }
    // Orphans and link counts.
    for index in 0..fs.sb.max_inodes() {
        let ino = Ino(index + 1);
        if ino == Ino::ROOT || !fs.alloc.is_inode_allocated(ino) {
            continue;
        }
        match ref_counts.get(&ino) {
            None => {
                fs.destroy_node(ino)?;
            }
            Some(&count) => {
                let nlink = fs.inode(ino)?.nlink as u32;
                if nlink != count {
                    fs.with_inode_mut(ino, |i| i.nlink = count as u16)?;
                    fs.write_inode_to_table(ino, false)?;
                }
            }
        }
    }
    Ok(())
}
