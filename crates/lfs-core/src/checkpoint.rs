//! Checkpointing and mounting (§4.4.1).
//!
//! A checkpoint writes all dirty state to the log and then records the
//! positions of the metadata structures in one of the two fixed
//! checkpoint regions, alternating between them. "Crash recovery
//! consists of nothing more than the normal file system mount code that
//! uses the last checkpoint area to recover the file system state."
//!
//! A checkpoint has two halves:
//!
//! 1. **Capture.** Flush all file data, indirect blocks, inodes and the
//!    inode map, then the usage table (reflecting the final segment
//!    states); encode the region from the resulting log position and
//!    metadata addresses; record which segments are `CleanPending`.
//!    Capture only issues asynchronous log writes.
//! 2. **Commit.** Wait until everything the capture wrote is on the
//!    platter (`BlockDevice::flush`), write the region synchronously to
//!    the alternate slot, and only then promote the recorded segments to
//!    clean: the committed region no longer references their old
//!    contents, so a crash at any point finds either the old copies
//!    intact (old region) or the relocated ones (new region).
//!
//! `sync`, `fsync` without roll-forward, cleaning commits, scrub, format
//! and the mount's recovery take both halves back to back and wait for
//! them. The periodic checkpoint is background work, as the paper has
//! it: the call that crosses the interval only captures and *parks* the
//! region; a later call commits it once the device reports every
//! accepted write durable ([`BlockDevice::writes_durable`]), or — if the
//! device never drains — blocking, when the next interval comes round.
//! A crash before a parked region lands loses nothing roll-forward
//! cannot replay: mount finds the previous region and the log tail. A
//! blocking checkpoint replaces any parked region, since its own capture
//! is newer.

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
use crate::types::{BlockAddr, SegNo};

/// Why a checkpoint was taken: the `cause=` of its `checkpoint` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CpCause {
    /// The interval timer; the only cause that parks.
    Periodic,
    /// `sync`, or an explicit [`Lfs::checkpoint`].
    Sync,
    /// `fsync` on a mount without roll-forward.
    Fsync,
    /// Committing cleaned (or scrubbed) segments.
    Clean,
    /// Format and recovery.
    Mount,
}

impl CpCause {
    fn name(self) -> &'static str {
        match self {
            CpCause::Periodic => "periodic",
            CpCause::Sync => "sync",
            CpCause::Fsync => "fsync",
            CpCause::Clean => "clean",
            CpCause::Mount => "mount",
        }
    }
}

/// A captured checkpoint whose region has not been written yet.
pub(crate) struct Capture {
    region: CheckpointRegion,
    /// The segments `CleanPending` at capture: exactly the ones the
    /// region's commit may promote.
    pending: Vec<SegNo>,
}

impl<D: BlockDevice> Lfs<D> {
    /// Takes a checkpoint and waits for it: flushes everything and
    /// commits a new checkpoint region.
    pub fn checkpoint(&mut self) -> FsResult<()> {
        self.checkpoint_as(CpCause::Sync)
    }

    /// [`Lfs::checkpoint`] with the cause its event records. Replaces
    /// any parked region.
    pub(crate) fn checkpoint_as(&mut self, cause: CpCause) -> FsResult<()> {
        self.parked = None;
        self.as_maintenance(|fs| {
            let cp = fs.capture()?;
            fs.commit(cp, cause)
        })
    }

    /// The periodic checkpoint: captures and parks the region without
    /// waiting. A region still parked from the previous interval (the
    /// device never drained) is committed first, blocking.
    pub(crate) fn park_checkpoint(&mut self) -> FsResult<()> {
        self.as_maintenance(|fs| {
            if let Some(stale) = fs.parked.take() {
                fs.commit(stale, CpCause::Periodic)?;
            }
            let cp = fs.capture()?;
            fs.last_cp_ns = cp.region.timestamp_ns;
            fs.obs.registry.event(
                cp.region.timestamp_ns,
                "checkpoint_parked",
                format!(
                    "serial={} seg={} offset={} pending={}",
                    cp.region.serial,
                    cp.region.cur_seg.0,
                    cp.region.next_block,
                    cp.pending.len()
                ),
            );
            fs.parked = Some(cp);
            Ok(())
        })
    }

    /// Commits the parked region if the device has drained; otherwise
    /// leaves it parked. Never waits on the device.
    pub(crate) fn commit_parked_if_durable(&mut self) -> FsResult<()> {
        if self.parked.is_none() || !self.dev.writes_durable() {
            return Ok(());
        }
        let cp = self.parked.take().expect("checked above");
        self.as_maintenance(|fs| fs.commit(cp, CpCause::Periodic))
    }

    /// Runs `f` with automatic write-back suppressed.
    fn as_maintenance(&mut self, f: impl FnOnce(&mut Self) -> FsResult<()>) -> FsResult<()> {
        let was = std::mem::replace(&mut self.in_maintenance, true);
        let result = f(self);
        self.in_maintenance = was;
        result
    }

    /// The capture half: flush, encode, record the pending set.
    fn capture(&mut self) -> FsResult<Capture> {
        // A degraded (read-only) file system must not write to the log.
        self.check_writable()?;
        // All file data, indirect blocks, inodes, and the inode map...
        self.flush(true, false)?;
        // ...then the usage table, reflecting the final segment states.
        self.flush(false, true)?;
        Ok(Capture {
            region: CheckpointRegion {
                timestamp_ns: self.now(),
                serial: self.cp_serial + 1,
                seq: self.pos.seq,
                cur_seg: self.pos.seg,
                next_block: self.pos.offset,
                partial: self.pos.partial,
                next_free_ino: self.imap.next_free_hint(),
                imap_addrs: self.imap.block_addrs().to_vec(),
                usage_addrs: self.usage.block_addrs().to_vec(),
            },
            pending: self.usage.segments_in_state(SegState::CleanPending),
        })
    }

    /// The commit half: wait for the capture's writes, write the region
    /// to the alternate slot, promote the recorded segments. A periodic
    /// checkpoint is dated by its capture; any other by this commit,
    /// when its caller's wait ends.
    fn commit(&mut self, mut cp: Capture, cause: CpCause) -> FsResult<()> {
        let captured_ns = cp.region.timestamp_ns;
        // Everything the region points at must be on the platter first.
        self.dev.flush()?;
        let now = self.now();
        if cause != CpCause::Periodic {
            cp.region.timestamp_ns = now;
            self.last_cp_ns = now;
        }
        let region_bytes = (self.sb.cp_blocks * self.sb.block_size) as usize;
        let bytes = cp.region.encode(region_bytes);
        let (slot, name) = if self.cp_use_b {
            (self.sb.cp_b, "B")
        } else {
            (self.sb.cp_a, "A")
        };
        self.dev.annotate("checkpoint");
        self.dev.write(self.sector_of(slot), &bytes, true)?;
        self.cp_use_b = !self.cp_use_b;
        self.cp_serial = cp.region.serial;
        self.obs.checkpoints.inc();
        self.obs.registry.event(
            now,
            "checkpoint",
            format!(
                "serial={} region={name} cause={} parked_ns={} seg={} offset={}",
                cp.region.serial,
                cause.name(),
                now - captured_ns,
                cp.region.cur_seg.0,
                cp.region.next_block
            ),
        );
        // Only now may the recorded cleaned segments be reused.
        self.usage.commit_pending(&cp.pending);
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
        let mut fs = Self::fresh(dev, sb, cfg, clock)?;

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
        let pending = fs.usage.segments_in_state(SegState::CleanPending);
        fs.usage.commit_pending(&pending);
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
        fs.readahead.armed = true;
        Ok(fs)
    }
}
