//! The segment scrubber: proactive end-to-end integrity checking.
//!
//! [`Lfs::scrub`] walks every segment that may hold live data (dirty or
//! active), re-reads each chunk, and checks every payload block against
//! the per-block CRC-32C stamped in its summary entry at log-write time.
//! A block the media can no longer produce correctly (latent sector
//! error, bit rot) is handled the LFS way: since the log never updates
//! in place, *recovery is relocation* — a surviving in-memory copy is
//! re-dirtied so the next flush rewrites it at the log head, and the bad
//! address simply becomes dead space for the cleaner. Only when no good
//! copy exists anywhere does the file system give up, counting the block
//! in `scrub.unrecoverable` and degrading the mount to read-only.
//!
//! The same walk doubles as the population pass for the in-memory
//! expected-checksum table: every block that verifies has its checksum
//! recorded, so subsequent reads through the normal paths are verified
//! too (blocks written before this mount are otherwise unknown).
//!
//! `lfs-tools verify` runs exactly this pass against an offline image.

use sim_disk::BlockDevice;
use vfs::{FsError, FsResult, Ino};

use crate::cleaner::file_block_key;
use crate::fs::Lfs;
use crate::layout::summary::{self, BlockKind, ChainEnd, ChunkCursor};
use crate::layout::usage_block::SegState;
use crate::types::{BlockAddr, SegNo};

/// How many times the scrubber re-reads a block that failed, to ride out
/// transient media errors before declaring the sector bad.
const SCRUB_READ_RETRIES: usize = 3;

/// Outcome of one scrub pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Segments walked (every dirty or active segment).
    pub segments: u64,
    /// Payload blocks checked against their summary checksum.
    pub blocks_verified: u64,
    /// Live blocks that were unreadable or failed their checksum.
    pub bad_blocks: u64,
    /// Bad live blocks recovered by rewriting a good copy to the log.
    pub relocated: u64,
    /// Bad live blocks with no surviving copy (data loss).
    pub unrecoverable: u64,
    /// Chunk summary areas that could not be read back at all.
    pub unreadable_chunks: u64,
}

impl ScrubReport {
    /// True when the scrub found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.bad_blocks == 0 && self.unreadable_chunks == 0
    }
}

impl<D: BlockDevice> Lfs<D> {
    /// Scrubs every live segment, relocating damaged-but-recoverable
    /// blocks and recording verified checksums for the read path.
    ///
    /// If anything was relocated (and the file system is still
    /// writable), the pass ends with a checkpoint so the relocations are
    /// durable and the bad addresses are dead on disk, not just in
    /// memory.
    pub fn scrub(&mut self) -> FsResult<ScrubReport> {
        let was = std::mem::replace(&mut self.in_maintenance, true);
        let result = self.scrub_inner();
        self.in_maintenance = was;
        let report = result?;
        if report.relocated > 0 && !self.read_only {
            self.checkpoint()?;
        }
        Ok(report)
    }

    fn scrub_inner(&mut self) -> FsResult<ScrubReport> {
        let mut report = ScrubReport::default();
        let victims: Vec<SegNo> = (0..self.sb.nsegments)
            .map(SegNo)
            .filter(|&seg| {
                matches!(self.usage.state(seg), SegState::Dirty | SegState::Active)
            })
            .collect();
        // Gather phase: with a recovery fan-out configured, the
        // whole-segment images are read up front through the async
        // facade, overlapping across spindles. The verify/repair phase
        // below then runs serially over the prefetched bytes in the
        // same ascending segment order; an image the gather could not
        // read falls back to the identical per-block retry path, so
        // every outcome (report, salvage, read-only degradation)
        // matches the sequential walk's.
        let fanout = sim_disk::effective_fanout(self.cfg.recovery_fanout, &self.dev);
        let mut images: Vec<Option<sim_disk::DiskResult<Vec<u8>>>> = Vec::new();
        if fanout > 1 {
            let bs = self.block_size();
            let seg_blocks = self.sb.seg_blocks as usize;
            let reqs: Vec<(u64, usize)> = victims
                .iter()
                .map(|&seg| (self.sector_of(self.sb.seg_block(seg, 0)), seg_blocks * bs))
                .collect();
            let (results, _) = sim_disk::read_batch(&mut self.dev, "scrub-read", fanout, &reqs);
            images = results.into_iter().map(Some).collect();
        }
        for (i, seg) in victims.iter().enumerate() {
            let prefetched = images.get_mut(i).and_then(Option::take);
            self.scrub_segment(*seg, prefetched, &mut report)?;
        }
        self.obs.scrub_segments.add(report.segments);
        self.obs.scrub_blocks_verified.add(report.blocks_verified);
        self.obs.scrub_bad_blocks.add(report.bad_blocks);
        self.obs.scrub_relocated.add(report.relocated);
        self.obs.scrub_unrecoverable.add(report.unrecoverable);
        self.obs.registry.event(
            self.now(),
            "scrub",
            format!(
                "segments={} verified={} bad={} relocated={} unrecoverable={} unreadable_chunks={}",
                report.segments,
                report.blocks_verified,
                report.bad_blocks,
                report.relocated,
                report.unrecoverable,
                report.unreadable_chunks
            ),
        );
        if report.unrecoverable > 0 || report.unreadable_chunks > 0 {
            self.set_read_only("scrub found unrecoverable damage");
        }
        Ok(report)
    }

    /// Scrubs one segment's chunk chain. `prefetched` carries the
    /// gather phase's whole-segment read when the fanned-out scrub is
    /// active; `None` reads synchronously in place.
    fn scrub_segment(
        &mut self,
        seg: SegNo,
        prefetched: Option<sim_disk::DiskResult<Vec<u8>>>,
        report: &mut ScrubReport,
    ) -> FsResult<()> {
        report.segments += 1;
        let bs = self.block_size();
        let seg_blocks = self.sb.seg_blocks as usize;
        let base = self.sb.seg_block(seg, 0);

        // Read the whole segment in one sequential transfer when the
        // media cooperates; fall back to per-block reads (with retries)
        // so one latent sector does not hide the rest of the segment.
        let whole = match prefetched {
            Some(result) => result,
            None => {
                let mut image = vec![0u8; seg_blocks * bs];
                self.dev.annotate("scrub-read");
                self.dev
                    .read(self.sector_of(base), &mut image)
                    .map(|_| image)
            }
        };
        let blocks: Vec<Option<Vec<u8>>> = match whole {
            Ok(image) => image.chunks(bs).map(|c| Some(c.to_vec())).collect(),
            Err(_) => (0..seg_blocks)
                .map(|b| self.read_block_retry(BlockAddr(base.0 + b as u32)))
                .collect(),
        };

        let mut cursor = ChunkCursor::new(base, seg_blocks, bs);
        loop {
            // Reassemble the summary area from consecutive readable
            // blocks; the decoder takes only what it needs.
            let mut buf: Vec<u8> = Vec::new();
            let mut readable = cursor.offset();
            while readable < seg_blocks {
                let Some(data) = blocks[readable].as_ref() else { break };
                buf.extend_from_slice(data);
                readable += 1;
            }
            let (chunk, payload_start) = match cursor.next_chunk(&buf) {
                Ok(next) => next,
                Err(end) => {
                    if end == ChainEnd::Undecodable && readable < seg_blocks {
                        // The summary area itself is unreadable: the rest of
                        // this segment's chain cannot even be enumerated.
                        report.unreadable_chunks += 1;
                    }
                    break;
                }
            };
            for (i, entry) in chunk.entries.iter().enumerate() {
                let block_off = payload_start + i;
                let addr = BlockAddr(base.0 + block_off as u32);
                report.blocks_verified += 1;
                let good = matches!(
                    blocks[block_off].as_deref(),
                    Some(data) if summary::block_checksum(data) == entry.crc
                );
                if good {
                    // Known-good: make future reads of it verified.
                    self.record_block_crc(addr, entry.crc);
                    continue;
                }
                if !self.scrub_is_live(entry.kind, entry.version, addr)? {
                    continue; // Dead blocks may rot in peace.
                }
                report.bad_blocks += 1;
                self.obs.registry.event(
                    self.now(),
                    "scrub",
                    format!("bad live block addr={} seg={}", addr.0, seg.0),
                );
                self.scrub_recover(entry.kind, addr, report)?;
            }
        }
        Ok(())
    }

    /// One block read with bounded retries (transient media errors).
    fn read_block_retry(&mut self, addr: BlockAddr) -> Option<Vec<u8>> {
        for _ in 0..SCRUB_READ_RETRIES {
            if let Ok(data) = self.read_block_raw(addr) {
                return Some(data);
            }
        }
        None
    }

    /// Is the logged block at `addr` still referenced? Never touches
    /// the block's payload — the payload is exactly what cannot be
    /// trusted here. Mapping failures (the path to the block is itself
    /// damaged) count as not live for this pass; the damaged parent
    /// surfaces separately.
    fn scrub_is_live(&mut self, kind: BlockKind, version: u32, addr: BlockAddr) -> FsResult<bool> {
        match kind {
            BlockKind::Data { .. }
            | BlockKind::IndSingle { .. }
            | BlockKind::IndDoubleTop { .. }
            | BlockKind::IndDoubleChild { .. } => {
                let key = file_block_key(kind).expect("a file block kind");
                match self.file_block_is_live(key, Some(version), addr) {
                    Err(FsError::Io(_)) | Err(FsError::Corruption { .. }) => Ok(false),
                    live => live,
                }
            }
            BlockKind::InodeBlock => {
                let residents: Vec<Ino> = self.imap.allocated_inos().collect();
                for ino in residents {
                    if self.imap.get(ino)?.addr == addr {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            BlockKind::ImapBlock { index } => {
                let index = index as usize;
                Ok(index < self.imap.nblocks() && self.imap.block_addr(index) == addr)
            }
            // Usage blocks are rewritten wholesale at every checkpoint.
            BlockKind::UsageBlock { .. } => Ok(false),
        }
    }

    /// Attempts to recover a bad live block from a surviving copy.
    fn scrub_recover(
        &mut self,
        kind: BlockKind,
        addr: BlockAddr,
        report: &mut ScrubReport,
    ) -> FsResult<()> {
        let now = self.now();
        match kind {
            BlockKind::Data { .. }
            | BlockKind::IndSingle { .. }
            | BlockKind::IndDoubleTop { .. }
            | BlockKind::IndDoubleChild { .. } => {
                let key = file_block_key(kind).expect("a file block kind");
                if self.cache.contains(key) {
                    // Re-dirty the cached copy: the next flush rewrites
                    // it at the log head and retires this address.
                    self.cache.get_mut(key, now);
                    report.relocated += 1;
                } else {
                    report.unrecoverable += 1;
                }
            }
            BlockKind::InodeBlock => {
                let (recovered, lost) = self.salvage_inode_block(addr)?;
                if recovered > 0 {
                    report.relocated += 1;
                }
                report.unrecoverable += lost;
            }
            BlockKind::ImapBlock { index } => {
                // The inode map is always fully in memory: re-dirty the
                // block so the next checkpoint rewrites it.
                self.imap.mark_block_dirty(index as usize);
                report.relocated += 1;
            }
            BlockKind::UsageBlock { .. } => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sim_disk::{Clock, DiskError, DiskGeometry, MediaFaultPlan, SimDisk};
    use vfs::{FileSystem, FsError};

    use crate::config::LfsConfig;
    use crate::fs::Lfs;

    fn rig() -> Lfs<SimDisk> {
        let clock = Clock::new();
        let disk = SimDisk::new(DiskGeometry::tiny_test(131_072), Arc::clone(&clock));
        Lfs::format(disk, LfsConfig::small_test(), clock).unwrap()
    }

    #[test]
    fn clean_reads_verify_against_recorded_checksums() {
        let mut fs = rig();
        let bs = fs.block_size();
        fs.write_file("/f", &vec![0x42u8; bs]).unwrap();
        fs.sync().unwrap();
        fs.drop_caches().unwrap();
        assert_eq!(fs.read_file("/f").unwrap(), vec![0x42u8; bs]);
        let stats = fs.stats();
        assert!(stats.verified_reads >= 1, "reads must be checksum-verified");
        assert_eq!(stats.corruptions_detected, 0);
    }

    #[test]
    fn bit_rot_on_live_data_is_detected_via_checksum() {
        let mut fs = rig();
        let bs = fs.block_size();
        fs.write_file("/f", &vec![0xABu8; bs]).unwrap();
        fs.sync().unwrap();
        let ino = fs.lookup("/f").unwrap();
        let addr = fs.map_block(ino, 0).unwrap();
        assert!(addr.is_some());
        let sector = fs.sector_of(addr);
        fs.device_mut()
            .inject_media_faults(MediaFaultPlan::new(7).rot(sector));
        fs.drop_caches().unwrap();
        let mut buf = vec![0u8; bs];
        let err = fs.read_at(ino, 0, &mut buf).unwrap_err();
        assert!(
            matches!(err, FsError::Corruption { .. }),
            "rot must surface as a typed corruption error, got {err:?}"
        );
        assert_eq!(fs.stats().corruptions_detected, 1);
    }

    #[test]
    fn latent_sector_error_surfaces_as_typed_io_error() {
        let mut fs = rig();
        let bs = fs.block_size();
        fs.write_file("/f", &vec![0x11u8; bs]).unwrap();
        fs.sync().unwrap();
        let ino = fs.lookup("/f").unwrap();
        let sector = {
            let addr = fs.map_block(ino, 0).unwrap();
            fs.sector_of(addr)
        };
        fs.device_mut()
            .inject_media_faults(MediaFaultPlan::new(5).latent(sector));
        fs.drop_caches().unwrap();
        let mut buf = vec![0u8; bs];
        let err = fs.read_at(ino, 0, &mut buf).unwrap_err();
        assert!(
            matches!(err, FsError::Io(DiskError::Unreadable { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn scrub_relocates_rotted_block_from_cached_copy() {
        let mut fs = rig();
        let bs = fs.block_size();
        fs.write_file("/f", &vec![0x5Au8; bs]).unwrap();
        fs.sync().unwrap();
        let ino = fs.lookup("/f").unwrap();
        let old = fs.map_block(ino, 0).unwrap();
        let sector = fs.sector_of(old);
        fs.device_mut()
            .inject_media_faults(MediaFaultPlan::new(9).rot(sector));
        let report = fs.scrub().unwrap();
        assert_eq!(report.bad_blocks, 1);
        assert_eq!(report.relocated, 1);
        assert_eq!(report.unrecoverable, 0);
        assert!(!fs.is_read_only());
        let new = fs.map_block(ino, 0).unwrap();
        assert_ne!(new, old, "the block must move to the log head");
        assert_eq!(fs.read_file("/f").unwrap(), vec![0x5Au8; bs]);
        assert_eq!(fs.stats().scrub_relocated, 1);
    }

    #[test]
    fn scrub_degrades_to_read_only_when_no_copy_survives() {
        let mut fs = rig();
        let bs = fs.block_size();
        fs.write_file("/f", &vec![0xEEu8; bs]).unwrap();
        fs.sync().unwrap();
        let ino = fs.lookup("/f").unwrap();
        let sector = {
            let addr = fs.map_block(ino, 0).unwrap();
            fs.sector_of(addr)
        };
        fs.drop_caches().unwrap();
        fs.device_mut()
            .inject_media_faults(MediaFaultPlan::new(11).rot(sector));
        let report = fs.scrub().unwrap();
        assert_eq!(report.bad_blocks, 1);
        assert_eq!(report.relocated, 0);
        assert_eq!(report.unrecoverable, 1);
        assert!(fs.is_read_only());
        assert_eq!(fs.stats().scrub_unrecoverable, 1);
        let err = fs.write_file("/g", b"nope").unwrap_err();
        assert!(matches!(err, FsError::ReadOnly), "got {err:?}");
    }

    #[test]
    fn scrub_of_a_healthy_volume_is_clean_and_idempotent() {
        let mut fs = rig();
        for i in 0..8 {
            fs.write_file(&format!("/f{i}"), &vec![i as u8; 5000]).unwrap();
        }
        fs.sync().unwrap();
        let report = fs.scrub().unwrap();
        assert!(report.is_clean(), "unexpected damage: {report:?}");
        assert!(report.blocks_verified > 0);
        assert_eq!(report.relocated, 0);
        let again = fs.scrub().unwrap();
        assert!(again.is_clean());
        assert!(!fs.is_read_only());
    }

    #[test]
    fn mount_degrades_to_read_only_when_imap_unreadable() {
        let clock = Clock::new();
        let disk = SimDisk::new(DiskGeometry::tiny_test(131_072), Arc::clone(&clock));
        let mut fs = Lfs::format(disk, LfsConfig::small_test(), Arc::clone(&clock)).unwrap();
        fs.write_file("/f", b"survives in the log").unwrap();
        fs.sync().unwrap();
        let imap_addr = fs.imap.block_addr(0);
        assert!(imap_addr.is_some());
        let sector = fs.sector_of(imap_addr);
        let mut dev = fs.into_device();
        dev.inject_media_faults(MediaFaultPlan::new(3).latent(sector));
        let mut fs = Lfs::mount(dev, LfsConfig::small_test(), clock).unwrap();
        assert!(fs.is_read_only(), "mount must degrade, not refuse");
        assert!(fs.stats().scrub_unrecoverable >= 1);
        let err = fs.write_file("/g", b"nope").unwrap_err();
        assert!(matches!(err, FsError::ReadOnly), "got {err:?}");
    }
}
