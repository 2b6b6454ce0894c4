//! File-system consistency checker.
//!
//! Verifies the invariants the rest of the crate maintains:
//!
//! * every directory entry points at an allocated inode of matching kind;
//! * every allocated inode (except the root) is reachable and its link
//!   count equals the number of entries referring to it;
//! * every live block address lies inside the log region and is claimed
//!   by exactly one owner;
//! * clean segments contain no live data, and each segment's usage-table
//!   estimate matches an exact recount.
//!
//! Used by integration and property tests after every scenario, and by
//! the `lfs-tools` `fsck` command.

use std::collections::{HashMap, HashSet, VecDeque};

use sim_disk::BlockDevice;
use vfs::{blockmap, namespace, FileKind, FsResult, Ino};

use crate::fs::Lfs;
use crate::layout::usage_block::SegState;
use crate::types::{BlockAddr, SegNo, INODE_SIZE};

/// The result of a consistency check.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Invariant violations.
    pub errors: Vec<String>,
    /// Suspicious but tolerated conditions.
    pub warnings: Vec<String>,
}

impl FsckReport {
    /// Returns true if no errors were found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

impl std::fmt::Display for FsckReport {
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

impl<D: BlockDevice> Lfs<D> {
    /// Runs a full consistency check.
    ///
    /// Read-only in effect (it reads through the cache but modifies no
    /// file-system state).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use lfs_core::{Lfs, LfsConfig};
    /// use sim_disk::{Clock, DiskGeometry, SimDisk};
    /// use vfs::FileSystem;
    ///
    /// let clock = Clock::new();
    /// let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
    /// let mut fs = Lfs::format(disk, LfsConfig::small_test(), clock)?;
    /// fs.write_file("/x", b"checked")?;
    /// let report = fs.fsck()?;
    /// assert!(report.is_clean(), "{report}");
    /// # Ok::<(), vfs::FsError>(())
    /// ```
    pub fn fsck(&mut self) -> FsResult<FsckReport> {
        // Gather phase: with a recovery fan-out configured, prefetch
        // the metadata the verify phases below will read — fanned out
        // across spindles through the async read facade. The verify
        // phases are untouched: a block the gather could not fetch (or
        // that failed its checksum) is simply re-read serially, so the
        // report is identical to a sequential check's.
        self.gather_metadata(crate::recovery::effective_fanout(self));
        let mut report = FsckReport::default();
        let bs = self.block_size() as u64;

        // Phase 1: walk the directory tree.
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
                if !self.imap.is_allocated(entry.ino) {
                    report.errors.push(format!(
                        "dangling entry {child_path} -> unallocated {}",
                        entry.ino
                    ));
                    continue;
                }
                let inode = match self.inode(entry.ino) {
                    Ok(inode) => inode,
                    Err(e) => {
                        report
                            .errors
                            .push(format!("unreadable inode for {child_path}: {e}"));
                        continue;
                    }
                };
                if inode.kind != entry.kind {
                    report.errors.push(format!(
                        "kind mismatch at {child_path}: entry says {}, inode says {}",
                        entry.kind, inode.kind
                    ));
                }
                *ref_counts.entry(entry.ino).or_insert(0) += 1;
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
        }

        // Phase 2: orphan and link-count checks; block ownership.
        let mut live: Vec<u64> = vec![0; self.sb.nsegments as usize];
        let mut claimed: HashMap<BlockAddr, String> = HashMap::new();
        let mut inode_slots: HashSet<(BlockAddr, u16)> = HashSet::new();

        let allocated: Vec<Ino> = self.imap.allocated_inos().collect();
        for ino in allocated {
            let refs = ref_counts.get(&ino).copied().unwrap_or(0);
            if ino != Ino::ROOT && refs == 0 {
                report.errors.push(format!("orphaned inode {ino}"));
                continue;
            }
            let entry = self.imap.get(ino)?;
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
            // The inode's own slot.
            if entry.addr.is_some() {
                self.account(&mut live, entry.addr, INODE_SIZE as u64, &mut report);
                if !inode_slots.insert((entry.addr, entry.slot)) {
                    report.errors.push(format!(
                        "{ino}: inode slot {}/{} double-claimed",
                        entry.addr, entry.slot
                    ));
                }
            } else if !self.inodes.get(&ino).map(|c| c.dirty).unwrap_or(false) {
                report
                    .errors
                    .push(format!("{ino}: allocated, never written, and not dirty"));
            }
            // Data blocks.
            let nblocks = blockmap::blocks_for_size(inode.size, bs as usize);
            for bno in 0..nblocks {
                let addr = self.map_block(ino, bno)?;
                if addr.is_some() {
                    self.claim(&mut claimed, addr, format!("{ino} data {bno}"), &mut report);
                    self.account(&mut live, addr, bs, &mut report);
                }
            }
            // Blocks mapped beyond the file size are leaks.
            let ppb = self.sb.ptrs_per_block() as u64;
            let max_mappable = (blockmap::NDIRECT as u64 + ppb + ppb * ppb).min(nblocks + 64);
            for bno in nblocks..max_mappable {
                let addr = self.map_block(ino, bno)?;
                if addr.is_some() {
                    report.errors.push(format!(
                        "{ino}: block {bno} mapped beyond size {}",
                        inode.size
                    ));
                }
            }
            // Indirect blocks.
            if inode.single.is_some() {
                self.claim(
                    &mut claimed,
                    inode.single,
                    format!("{ino} single"),
                    &mut report,
                );
                self.account(&mut live, inode.single, bs, &mut report);
            }
            if inode.double.is_some() {
                self.claim(
                    &mut claimed,
                    inode.double,
                    format!("{ino} dtop"),
                    &mut report,
                );
                self.account(&mut live, inode.double, bs, &mut report);
                for outer in 0..self.sb.ptrs_per_block() {
                    let child = self.indirect_child_addr(ino, inode.double, outer as u32)?;
                    if child.is_some() {
                        self.claim(
                            &mut claimed,
                            child,
                            format!("{ino} dchild {outer}"),
                            &mut report,
                        );
                        self.account(&mut live, child, bs, &mut report);
                    }
                }
            }
        }

        // Inode-map and usage-table blocks: checked for unique ownership
        // but not counted live (metadata placement is excluded from the
        // usage hint; see the flush's phase 4/5).
        for index in 0..self.imap.nblocks() {
            let addr = self.imap.block_addr(index);
            if addr.is_some() {
                self.claim(&mut claimed, addr, format!("imap {index}"), &mut report);
            }
        }
        for index in 0..self.usage.nblocks() {
            let addr = self.usage.block_addr(index);
            if addr.is_some() {
                self.claim(&mut claimed, addr, format!("usage {index}"), &mut report);
            }
        }

        // Phase 3: usage-table cross-check.
        for (i, &bytes) in live.iter().enumerate() {
            let seg = SegNo(i as u32);
            let entry = self.usage.get(seg);
            match entry.state {
                SegState::Clean => {
                    if bytes != 0 {
                        report
                            .errors
                            .push(format!("{seg} is clean but holds {bytes} live bytes"));
                    }
                    // Metadata blocks must never sit in a clean segment.
                    for (addr, owner) in &claimed {
                        if self.sb.seg_of(*addr).map(|(s, _)| s) == Some(seg)
                            && (owner.starts_with("imap") || owner.starts_with("usage"))
                        {
                            report
                                .errors
                                .push(format!("clean {seg} holds live metadata block: {owner}"));
                        }
                    }
                }
                SegState::CleanPending => {
                    // Relocations are in the cache but not yet committed;
                    // residual live bytes are expected.
                }
                SegState::Dirty | SegState::Active => {
                    if entry.live_bytes as u64 != bytes {
                        report.warnings.push(format!(
                            "{seg}: usage table says {} live bytes, recount says {bytes}",
                            entry.live_bytes
                        ));
                    }
                }
            }
        }
        Ok(report)
    }

    fn claim(
        &self,
        claimed: &mut HashMap<BlockAddr, String>,
        addr: BlockAddr,
        owner: String,
        report: &mut FsckReport,
    ) {
        if self.sb.seg_of(addr).is_none() {
            report
                .errors
                .push(format!("{owner}: address {addr} outside the log region"));
            return;
        }
        if let Some(previous) = claimed.insert(addr, owner.clone()) {
            report
                .errors
                .push(format!("{addr} claimed by both {previous} and {owner}"));
        }
    }

    fn account(&self, live: &mut [u64], addr: BlockAddr, bytes: u64, report: &mut FsckReport) {
        match self.sb.seg_of(addr) {
            Some((seg, _)) => live[seg.0 as usize] += bytes,
            None => report
                .errors
                .push(format!("live bytes at {addr} outside the log region")),
        }
    }
}
