//! How full the log may get: the one space rule (§5.3).
//!
//! §5.3 leaves open "how full LFS can allow the disk to become". The
//! answer here is one [`SpaceRule`], derived once at mount from the
//! superblock and the cache size. Every headroom number the file system
//! uses comes from it: the reserve, the threshold cleaner's floor and
//! target, the margin its relocation budget keeps, the level at which a
//! hosted [`crate::CleanerTask`] starts a run, and the live bytes
//! `check_space` admits.
//!
//! The rule counts space in **segment payload**: a segment's blocks
//! less the summary blocks of a chunk that fills it.
//!
//! - The **reserve** holds the largest cache flush (every cache block as
//!   a data block, plus the inode blocks of as many files) together with
//!   one checkpoint's inode-map and usage-table blocks.
//! - The **floor** is the reserve plus the two-segment **relocation
//!   margin**. A foreground operation that leaves fewer clean segments
//!   than the floor cleans before it returns, until clean plus
//!   clean-pending segments reach the **target**, the floor plus two;
//!   so does a write `check_space` would otherwise refuse.
//! - A hosted run may **start** anywhere below the target, the level
//!   foreground cleaning restores, so a responsive host cleans before a
//!   foreground operation has to. (One segment above the floor would
//!   not do: a single flush of several segments jumps that band.)
//! - The floor's **relocation budget** is what its committing checkpoint
//!   can still write: the clean segments' payload and the log head's,
//!   less one block (the last chunk must find a clean segment to link
//!   to), less what that checkpoint writes anyway, less one segment for
//!   the inode and indirect blocks relocation dirties, at `block + inode`
//!   bytes a live block; above the margin, no more than the clean
//!   segments beyond it. What a victim frees (`SpaceRule::frees`) is its
//!   payload less that move, and the floor's first victim must free
//!   more than its checkpoint writes (`Lfs::next_victim`), or each
//!   activation can cost as much log as it reclaims.
//!
//! **Invariant.** `check_space` admits a create or write only while
//! (a) the live bytes, counting what the cache holds unflushed, fit
//! `(nsegments − target − 1)` segments of payload at `block + inode`
//! bytes a block, so the target plus the open segment stay free and
//! moving an average segment's data costs less log than it frees; and
//! (b) the log can take every block waiting for the next checkpoint plus
//! the write and still keep the reserve, the log head's segment counted
//! as one of it. So the floor's target stays
//! reachable, and no flush, cleaning pass or checkpoint meets a log with
//! no clean segment to link to: a write past the rule is refused with a
//! typed `NoSpace` while the mount stays writable. A volume too small to
//! admit anything under the rule is refused at format (and mount) with
//! `NoSpace`.

use vfs::{FsError, FsResult};

use crate::layout::superblock::Superblock;
use crate::log::plan_chunk;
use crate::types::INODE_SIZE;

/// The segments the relocation budget never spends (see the module doc).
const RELOCATION_MARGIN: usize = 2;

/// The space rule of one mount: every headroom number, derived once
/// from the volume's geometry and the cache size (module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceRule {
    block_size: u64,
    seg_bytes: u64,
    /// Payload blocks of a segment written as one chunk.
    payload: usize,
    reserve: usize,
    admit_bytes: u64,
}

impl SpaceRule {
    /// The rule for the volume `sb` under a cache of `cache_blocks`
    /// blocks, or [`FsError::NoSpace`] if the volume is too small to
    /// admit any live data under it.
    pub fn derive(sb: &Superblock, cache_blocks: usize) -> FsResult<Self> {
        let (bs, seg_blocks) = (sb.block_size as usize, sb.seg_blocks as usize);
        let (_, payload) = plan_chunk(seg_blocks, bs).ok_or(FsError::NoSpace)?;
        let flush = cache_blocks + cache_blocks.div_ceil(sb.inodes_per_block() as usize);
        let checkpoint = (sb.imap_blocks() + sb.usage_blocks()) as usize;
        let mut rule = Self {
            block_size: bs as u64,
            seg_bytes: (seg_blocks * bs) as u64,
            payload,
            reserve: (flush + checkpoint).div_ceil(payload),
            admit_bytes: 0,
        };
        let packed = (sb.nsegments as usize).saturating_sub(rule.target() + 1) * payload;
        rule.admit_bytes = rule.moved_bytes(packed);
        (packed > 0).then_some(rule).ok_or(FsError::NoSpace)
    }

    /// Segments that hold one full cache flush plus one checkpoint's
    /// inode-map and usage-table blocks.
    pub fn reserve(&self) -> usize {
        self.reserve
    }

    /// Segments the floor's relocation budget never spends.
    pub fn relocation_margin(&self) -> usize {
        RELOCATION_MARGIN
    }

    /// Fewer clean segments than this after a foreground operation and
    /// the operation cleans before it returns.
    pub fn floor(&self) -> usize {
        self.reserve + RELOCATION_MARGIN
    }

    /// Clean plus clean-pending segments the floor cleans up to.
    pub fn target(&self) -> usize {
        self.floor() + 2
    }

    /// Clean plus clean-pending segments below which a hosted run may
    /// start, whatever its policy's low watermark: the target.
    pub fn run_floor(&self) -> usize {
        self.target()
    }

    /// The most live bytes `check_space` admits.
    pub fn admit_bytes(&self) -> u64 {
        self.admit_bytes
    }

    /// The live bytes whose move fits `blocks` of payload: a moved block
    /// also rewrites its file's inode.
    fn moved_bytes(&self, blocks: usize) -> u64 {
        let bs = self.block_size;
        blocks as u64 * bs * bs / (bs + INODE_SIZE as u64)
    }

    /// Payload blocks cleaning a segment with `live` bytes frees, net of
    /// moving them (a moved block also rewrites its file's inode).
    pub(crate) fn frees(&self, live: u64) -> i64 {
        let bs = self.block_size;
        let moved = (live * (bs + INODE_SIZE as u64)).div_ceil(bs * bs);
        self.payload as i64 - moved as i64
    }

    /// Payload blocks the log can take before a chunk would fill its
    /// segment with no clean one left to link to: `clean` segments plus
    /// `open`, what a chunk opened at the log head would hold.
    fn room(&self, clean: usize, open: usize) -> usize {
        (clean * self.payload + open).saturating_sub(1)
    }

    /// Live bytes a cleaner may relocate with `clean` segments clean,
    /// `open` payload blocks left at the log head and `unwritten` blocks
    /// already waiting for the next checkpoint (module doc).
    pub(crate) fn relocation_budget(&self, room: (usize, usize, usize)) -> u64 {
        let (clean, open, unwritten) = room;
        let free = self.room(clean, open);
        let spare = free.saturating_sub(unwritten + self.payload);
        let beyond_margin = clean.checked_sub(RELOCATION_MARGIN).filter(|&n| n > 0);
        let cap = beyond_margin.map_or(u64::MAX, |n| n as u64 * self.seg_bytes);
        self.moved_bytes(spare).min(cap)
    }

    /// Whether a write of `incoming` bytes is admitted on top of `live`
    /// bytes, with `clean`, `open` and `unwritten` as for
    /// [`SpaceRule::relocation_budget`] (module doc, invariant).
    pub(crate) fn admits(&self, live: u64, incoming: u64, room: (usize, usize, usize)) -> bool {
        let (clean, open, unwritten) = room;
        let blocks =
            incoming.div_ceil(self.block_size) as usize + (self.reserve - 1) * self.payload;
        live + incoming <= self.admit_bytes && unwritten + blocks <= self.room(clean, open)
    }
}
