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

use std::collections::{HashMap, HashSet};

use sim_disk::BlockDevice;
pub use vfs::namespace::FsckReport;
use vfs::namespace::{self, Finding};
use vfs::{blockmap, FsResult, Ino};

use crate::fs::Lfs;
use crate::layout::usage_block::SegState;
use crate::types::{BlockAddr, SegNo, INODE_SIZE};

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
        // A check reads what it must, not ahead of any reader.
        let armed = std::mem::replace(&mut self.readahead.armed, false);
        let report = self.fsck_inner();
        self.readahead.armed = armed;
        report
    }

    fn fsck_inner(&mut self) -> FsResult<FsckReport> {
        // Gather phase: with a recovery fan-out configured, prefetch
        // the metadata the verify phases below will read — fanned out
        // across spindles through the async read facade. The verify
        // phases are untouched: a block the gather could not fetch (or
        // that failed its checksum) is simply re-read serially, so the
        // report is identical to a sequential check's.
        let fanout = sim_disk::effective_fanout(self.cfg.recovery_fanout, &self.dev);
        let allocated: Vec<Ino> = self.imap.allocated_inos().collect();
        self.gather_metadata(fanout, &allocated);
        let mut report = FsckReport::default();
        let bs = self.block_size() as u64;

        // Phase 1: walk the directory tree. Phase 2, per inode: orphan
        // and link-count checks, then block ownership.
        let mut live: Vec<u64> = vec![0; self.sb.nsegments as usize];
        let mut claimed: HashMap<BlockAddr, String> = HashMap::new();
        let mut inode_slots: HashSet<(BlockAddr, u16)> = HashSet::new();
        let census = namespace::check(
            self,
            allocated,
            |fs, ino| fs.imap.is_allocated(ino),
            namespace::dir_entries,
            |_| false,
            |fs, ino, node| {
                // The inode's own slot.
                let entry = fs.imap.get(ino)?;
                if entry.addr.is_some() {
                    fs.account(&mut live, entry.addr, INODE_SIZE as u64, &mut report);
                    if !inode_slots.insert((entry.addr, entry.slot)) {
                        report.errors.push(format!(
                            "{ino}: inode slot {}/{} double-claimed",
                            entry.addr, entry.slot
                        ));
                    }
                } else if !fs.inodes.is_dirty(ino) {
                    report
                        .errors
                        .push(format!("{ino}: allocated, never written, and not dirty"));
                }
                // Data and indirect blocks; a data block mapped beyond the
                // file size is a leak.
                let nblocks = blockmap::blocks_for_size(node.size, bs as usize);
                blockmap::visit_file_blocks(fs, ino, 64, |fs, idx, addr| {
                    let what = blockmap::idx_label(idx);
                    if blockmap::is_data_idx(idx) && idx >= nblocks {
                        report
                            .errors
                            .push(format!("{ino}: {what} mapped beyond size {}", node.size));
                        return;
                    }
                    let addr = BlockAddr(addr);
                    fs.claim(&mut claimed, addr, format!("{ino} {what}"), &mut report);
                    fs.account(&mut live, addr, bs, &mut report);
                })
            },
        )?;
        report
            .errors
            .extend(census.findings.iter().map(Finding::to_string));

        // Inode-map and usage-table blocks: checked for unique ownership
        // but not counted live (metadata placement is excluded from the
        // usage hint; see the flush's phases 3 and 4).
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
