//! Checkpointing and mounting (§4.4.1).
//!
//! A checkpoint writes all dirty state to the log (data, indirect blocks,
//! inodes, the inode map, and the segment usage table) and then records
//! the positions of the metadata structures in one of the two fixed
//! checkpoint regions, alternating between them. "Crash recovery consists
//! of nothing more than the normal file system mount code that uses the
//! last checkpoint area to recover the file system state."

use std::sync::Arc;

use sim_disk::{BlockDevice, Clock};
use vfs::namespace::NodeStore;
use vfs::{FsError, FsResult};

use crate::config::LfsConfig;
use crate::fs::Lfs;
use crate::layout::checkpoint::CheckpointRegion;
use crate::layout::superblock::Superblock;
use crate::layout::usage_block::SegState;
use crate::log::{plan_chunk, LogPosition};
use crate::types::BlockAddr;

impl<D: BlockDevice> Lfs<D> {
    /// Takes a checkpoint: flushes everything and commits a new
    /// checkpoint region.
    pub fn checkpoint(&mut self) -> FsResult<()> {
        let was = std::mem::replace(&mut self.in_maintenance, true);
        let result = self.checkpoint_inner();
        self.in_maintenance = was;
        result
    }

    fn checkpoint_inner(&mut self) -> FsResult<()> {
        // A degraded (read-only) file system must not write to the log.
        self.check_writable()?;
        // 1. All file data, indirect blocks, inodes, and the inode map.
        self.flush(true, false)?;

        // 2. The usage table, reflecting the final segment states.
        self.flush(false, true)?;

        // 3. Everything must be on the platter before the region write.
        self.dev.flush()?;

        // 5. Commit: one synchronous write to the alternate fixed region.
        let now = self.now();
        let cp = CheckpointRegion {
            timestamp_ns: now,
            serial: self.cp_serial + 1,
            seq: self.pos.seq,
            cur_seg: self.pos.seg,
            next_block: self.pos.offset,
            partial: self.pos.partial,
            next_free_ino: self.imap.next_free_hint(),
            imap_addrs: self.imap.block_addrs().to_vec(),
            usage_addrs: self.usage.block_addrs().to_vec(),
        };
        let region_bytes = (self.sb.cp_blocks * self.sb.block_size) as usize;
        let bytes = cp.encode(region_bytes);
        let region = if self.cp_use_b {
            self.sb.cp_b
        } else {
            self.sb.cp_a
        };
        self.dev.annotate("checkpoint");
        self.dev.write(self.sector_of(region), &bytes, true)?;
        self.cp_use_b = !self.cp_use_b;
        self.cp_serial += 1;
        self.last_cp_ns = now;
        self.obs.checkpoints.inc();
        self.obs.registry.event(
            now,
            "checkpoint",
            format!(
                "serial={} region={} seg={} offset={}",
                self.cp_serial,
                if self.cp_use_b { "A" } else { "B" },
                self.pos.seg.0,
                self.pos.offset
            ),
        );

        // 5. Only now may cleaned segments be reused: the just-committed
        //    checkpoint no longer references their old contents, so a
        //    crash at any point finds either the old copies intact (old
        //    checkpoint) or the relocated ones (new checkpoint).
        self.usage.commit_pending();
        Ok(())
    }

    /// Mounts an existing volume.
    ///
    /// Reads the superblock, picks the newest valid checkpoint region,
    /// reloads the inode map and usage table from the log, and — when
    /// `cfg.roll_forward` is set — replays the log tail written after the
    /// checkpoint (§4.4.1's "ultimately LFS will..." design).
    pub fn mount(mut dev: D, cfg: LfsConfig, clock: Arc<Clock>) -> FsResult<Self> {
        // The superblock header fits in the first sector.
        let mut first = vec![0u8; sim_disk::SECTOR_SIZE];
        dev.read(0, &mut first)?;
        let sb = Superblock::decode(&first)?;
        if sb.block_size as usize != cfg.block_size || sb.seg_blocks as usize != cfg.seg_blocks() {
            return Err(FsError::Corrupt(
                "configuration does not match on-disk geometry",
            ));
        }
        let mut fs = Self::fresh(dev, sb, cfg, clock);

        // Pick the newest valid checkpoint.
        let region_bytes = (fs.sb.cp_blocks * fs.sb.block_size) as usize;
        let read_region = |fs: &mut Self, addr: BlockAddr| -> FsResult<CheckpointRegion> {
            let mut buf = vec![0u8; region_bytes];
            let sector = fs.sector_of(addr);
            fs.dev.read(sector, &mut buf)?;
            CheckpointRegion::decode(&buf)
        };
        let cp_a_addr = fs.sb.cp_a;
        let cp_b_addr = fs.sb.cp_b;
        let a = read_region(&mut fs, cp_a_addr);
        let b = read_region(&mut fs, cp_b_addr);
        let from_b = match (&a, &b) {
            (Ok(a), Ok(b)) => b.serial > a.serial,
            (Err(_), Ok(_)) => true,
            _ => false,
        };
        let cp = CheckpointRegion::newest(a, b)?;
        // The writer never records a spent log position (a chunk that
        // leaves no room seals its segment), so this one is forged.
        let room = fs.sb.seg_blocks.saturating_sub(cp.next_block) as usize;
        if cp.cur_seg.0 >= fs.sb.nsegments || plan_chunk(room, fs.block_size()).is_none() {
            return Err(FsError::Corrupt("checkpointed log position has no room"));
        }

        // Load the inode map.
        if cp.imap_addrs.len() != fs.imap.nblocks() || cp.usage_addrs.len() != fs.usage.nblocks() {
            return Err(FsError::Corrupt("checkpoint metadata counts mismatch"));
        }
        // A metadata block the media can no longer produce does not fail
        // the mount: the file system comes up degraded (read-only), with
        // whatever state the surviving blocks describe.
        let mut lost_metadata = 0u64;
        for (index, &addr) in cp.imap_addrs.iter().enumerate() {
            if addr.is_nil() {
                continue; // Block never written: all entries free.
            }
            match fs.read_block_raw(addr) {
                Ok(block) => fs.imap.load_block(index, addr, &block)?,
                Err(FsError::Io(_)) => lost_metadata += 1,
                Err(e) => return Err(e),
            }
        }
        // Load the usage table.
        for (index, &addr) in cp.usage_addrs.iter().enumerate() {
            if addr.is_nil() {
                continue;
            }
            match fs.read_block_raw(addr) {
                Ok(block) => fs.usage.load_block(index, addr, &block)?,
                Err(FsError::Io(_)) => lost_metadata += 1,
                Err(e) => return Err(e),
            }
        }

        fs.pos = LogPosition {
            seg: cp.cur_seg,
            offset: cp.next_block,
            partial: cp.partial,
            seq: cp.seq,
        };
        fs.imap.set_next_free_hint(cp.next_free_ino);
        fs.cp_serial = cp.serial;
        // Alternate away from the region we just trusted.
        fs.cp_use_b = !from_b;
        fs.usage.set_state(cp.cur_seg, SegState::Active);
        // Any CleanPending state in the loaded table was relocated by the
        // flush preceding this very checkpoint; promote it. Any *other*
        // segment still marked active is a stale mid-flush snapshot —
        // demote it to dirty so it can be cleaned.
        fs.usage.commit_pending();
        for i in 0..fs.sb.nsegments {
            let seg = crate::types::SegNo(i);
            if seg != cp.cur_seg && fs.usage.state(seg) == SegState::Active {
                fs.usage.set_state(seg, SegState::Dirty);
            }
        }
        // The segments holding the current inode-map and usage-table
        // blocks must not be writable: the table's own serialised state
        // predates their placement (it is encoded during the same flush),
        // so it may still call them clean.
        for &addr in cp.imap_addrs.iter().chain(cp.usage_addrs.iter()) {
            if let Some((seg, _)) = fs.sb.seg_of(addr) {
                if fs.usage.state(seg) == SegState::Clean {
                    fs.usage.set_state(seg, SegState::Dirty);
                }
            }
        }
        fs.last_cp_ns = fs.now();

        if lost_metadata > 0 {
            // Unrecoverable checkpoint metadata: mount read-only rather
            // than refuse service (or, worse, write against partial
            // state). Roll-forward is skipped — it ends in a checkpoint.
            fs.obs.scrub_unrecoverable.add(lost_metadata);
            fs.set_read_only("checkpoint metadata unreadable at mount");
        } else if fs.cfg.roll_forward {
            crate::recovery::roll_forward(&mut fs)?;
        }
        Ok(fs)
    }
}
