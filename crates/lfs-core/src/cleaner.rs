//! The segment cleaner (§4.3.2 – §4.3.4).
//!
//! Cleaning is "a form of incremental garbage collection where the
//! fragmented segments are compressed together to create space to write
//! new segments". It runs in two phases:
//!
//! 1. **Identify & read**: walk a victim's summary chunks, reading
//!    only their summary blocks, and judge every block live or dead. The
//!    fast path (§4.3.3 step 1) compares the version number recorded in
//!    the summary against the inode map — a mismatch means the file was
//!    deleted or truncated, so the block is dead without touching the
//!    inode. The slow path (step 2) maps the block through the inode and
//!    indirect blocks and compares addresses. Only the blocks
//!    classification looks at are then read, in runs of adjacent ones:
//!    live file blocks and inode blocks. A dead block costs no transfer,
//!    so an empty victim costs its summaries alone. Live blocks are put
//!    in the file cache, *dirty*.
//! 2. **Write**: the ordinary cache write-back code packs the relocated
//!    blocks into new segments.
//!
//! A cleaned segment is not reusable immediately: until the following
//! checkpoint commits, the on-disk metadata still references its old
//! contents, so a crash in between must find them intact. Cleaned
//! segments are parked in [`SegState::CleanPending`] and promoted by
//! [`Lfs::checkpoint`].
//!
//! Cleaning has the paper's two triggers and one mechanism, a cleaning
//! run (`crate::cleaner_run`), with four drivers. A foreground operation
//! that leaves fewer segments clean than the space rule's floor
//! ([`crate::SpaceRule`]) runs one inline to the rule's target before it
//! returns ("when the number of clean segments drops below a threshold
//! value"). A host with slack time ("at night or other times of slack
//! usage") calls [`Lfs::clean_until`], which runs one inline to the
//! level it is given and checkpoints, again while the clean count rises;
//! or it steps a [`crate::CleanerTask`] between its own operations so
//! the threshold is rarely reached; [`Lfs::clean_segment`] cleans one
//! named victim. No configuration switches between them: the host
//! decides by hosting the task or not. Whoever cleans, victims come one
//! at a time from one pick, `Lfs::next_victim`.

use std::cmp::Reverse;

use mem_mgr::{BlockKey, Owner};
use sim_disk::{BlockDevice, CpuCost};
use vfs::blockmap::{self, idx_dchild, IDX_DTOP, IDX_SINGLE};
use vfs::{FsError, FsResult, Ino};

use crate::checkpoint::CpCause;
use crate::fs::Lfs;
use crate::layout::inode::inode_block;
use crate::layout::summary::{self, BlockKind};
use crate::layout::usage_block::SegState;
use crate::log::plan_chunk;
use crate::types::{BlockAddr, SegNo};

/// Victim-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanerPolicy {
    /// Clean the segments with the most free space (the paper's §4.3.4:
    /// "it is desirable to choose the segments with the most free space").
    /// The paper's policy: the benches that restate a paper figure set
    /// it explicitly, and it is the ablation arm.
    Greedy,
    /// Weigh free space against data age: maximise
    /// `(1 - u) * age / (1 + u)`, empty segments first. The cost-benefit
    /// policy from the LFS line of work, and the default: under hot/cold
    /// churn greedy waits for a fresh hot segment to decay while the
    /// slack sits smeared over the cold segments; this spends early
    /// passes compacting old, mostly-live cold segments so hot data gets
    /// clean segments to age in.
    CostBenefit,
    /// Clean the least-recently-written segments first (FIFO baseline).
    Oldest,
}

/// Aggressiveness policy of a [`crate::CleanerTask`]: when its runs
/// start and stop, and how much one step may do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncCleanerPolicy {
    /// Start a cleaner run when clean + clean-pending segments drop
    /// below this count.
    pub low_watermark: usize,
    /// Stop cleaning once clean + clean-pending segments reach this
    /// count (hysteresis: must be > `low_watermark`).
    pub high_watermark: usize,
    /// Maximum blocks read from the victim segment per step — the
    /// cleaner's in-flight I/O cap, bounding how long one step can
    /// occupy the device ahead of a foreground request.
    pub max_step_read_blocks: usize,
    /// Maximum summary entries judged or classified per step (CPU bound
    /// per step).
    pub max_step_entries: usize,
    /// Idle-only gating: when set, the task wants a step only while the
    /// engine queue depth is at or below this bound (the paper's "clean
    /// during idle periods").
    pub idle_queue_depth: Option<u64>,
}

impl Default for AsyncCleanerPolicy {
    fn default() -> Self {
        Self {
            low_watermark: 6,
            high_watermark: 10,
            max_step_read_blocks: 8,
            max_step_entries: 32,
            idle_queue_depth: None,
        }
    }
}

impl AsyncCleanerPolicy {
    /// Builder-style override of the watermarks.
    pub fn with_watermarks(mut self, low: usize, high: usize) -> Self {
        self.low_watermark = low;
        self.high_watermark = high;
        self
    }

    /// Builder-style override of the per-step I/O and CPU caps.
    pub fn with_step_caps(mut self, read_blocks: usize, entries: usize) -> Self {
        self.max_step_read_blocks = read_blocks;
        self.max_step_entries = entries;
        self
    }

    /// Builder-style idle-only gating.
    pub fn with_idle_gate(mut self, queue_depth: u64) -> Self {
        self.idle_queue_depth = Some(queue_depth);
        self
    }
}

/// Candidates whose live fraction exceeds this are skipped ("segments
/// are cleaned until all segments are either clean or contain at least a
/// file-system-settable fraction of live blocks").
const MAX_CANDIDATE_UTILIZATION: f64 = 0.98;

/// How many of the best-ranked candidates a hosted run looks through for
/// one off the log head's spindle.
const OFF_SPINDLE_WINDOW: usize = 8;

/// Cleaner tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CleanerConfig {
    /// Victim-selection policy.
    pub policy: CleanerPolicy,
    /// Use the §4.3.3 step-1 fast path (summary version number vs inode
    /// map) to classify blocks without walking inodes. Disabled only by
    /// the liveness-fastpath ablation; correctness does not depend on it.
    pub use_version_fastpath: bool,
}

impl Default for CleanerConfig {
    fn default() -> Self {
        Self {
            policy: CleanerPolicy::CostBenefit,
            use_version_fastpath: true,
        }
    }
}

/// Why a segment was picked: what the policy saw when cleaning of it
/// began.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VictimReason {
    /// Live fraction of the segment.
    pub utilization: f64,
    /// Virtual time since the segment was last written.
    pub age_ns: u64,
    /// The policy's ranking key; higher is cleaned first.
    pub score: f64,
}

impl<D: BlockDevice> Lfs<D> {
    /// Every Dirty segment at or under the settable live fraction,
    /// best-ranked first (ties keep segment order).
    pub(crate) fn ranked_victims(&self) -> Vec<SegNo> {
        let now = self.now();
        let mut candidates: Vec<SegNo> = self
            .usage
            .segments_in_state(SegState::Dirty)
            .into_iter()
            .filter(|&seg| self.usage.utilization(seg) <= MAX_CANDIDATE_UTILIZATION)
            .collect();
        match self.cfg.cleaner.policy {
            CleanerPolicy::Greedy => {
                candidates.sort_by_key(|&seg| self.usage.get(seg).live_bytes);
            }
            CleanerPolicy::Oldest => {
                candidates.sort_by_key(|&seg| self.usage.get(seg).last_write_ns);
            }
            CleanerPolicy::CostBenefit => {
                let score = |seg| self.victim_reason(seg, now).score;
                candidates.sort_by(|&a, &b| {
                    score(b)
                        .partial_cmp(&score(a))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            }
        }
        candidates
    }

    /// The cleaner's one pick, taken one victim at a time by every
    /// cleaning run: the best-ranked candidate whose live bytes fit
    /// `budget`, which is charged for it. With `off_spindle` (a hosted
    /// run's, whose reads are asynchronous), the first of the
    /// `OFF_SPINDLE_WINDOW` best-ranked that fits and lies off that
    /// spindle wins; an inline run blocks on its read anyway.
    ///
    /// With `owed`, an inline run's pick, the checkpoint that commits
    /// the run is counted against its victims: the best-ranked fitting
    /// candidate that frees more payload than `owed` blocks
    /// (`SpaceRule::frees`), else the fitting one that frees the most,
    /// if it frees any. Otherwise a policy that ranks full segments
    /// first (oldest-first) can take one victim per activation whose
    /// checkpoint costs what it frees, and the clean count never rises.
    pub(crate) fn next_victim(
        &mut self,
        budget: &mut u64,
        off_spindle: Option<usize>,
        owed: Option<usize>,
    ) -> Option<SegNo> {
        let ranked = self.ranked_victims();
        let live = |seg: SegNo| self.usage.get(seg).live_bytes as u64;
        let off = off_spindle.and_then(|spindle| {
            let window = ranked.iter().take(OFF_SPINDLE_WINDOW);
            window
                .copied()
                .find(|&seg| live(seg) <= *budget && self.spindle_of_seg(seg) != spindle)
        });
        if off.is_some() {
            self.obs.async_offspindle_victims.inc();
        }
        let mut fits = ranked.into_iter().filter(|&seg| live(seg) <= *budget);
        let frees = |seg: SegNo| self.space.frees(live(seg));
        let seg = off.or_else(|| match owed {
            None => fits.next(),
            Some(owed) => {
                let fits: Vec<SegNo> = fits.collect();
                let paying = fits.iter().copied().find(|&seg| frees(seg) > owed as i64);
                let most = || fits.iter().copied().min_by_key(|&seg| Reverse(frees(seg)));
                paying.or_else(|| most().filter(|&seg| frees(seg) > 0))
            }
        })?;
        *budget -= live(seg);
        Some(seg)
    }

    /// Blocks a checkpoint writes whatever it commits: every inode-map
    /// block in use and the whole usage table.
    pub(crate) fn checkpoint_blocks(&self) -> usize {
        self.imap.blocks_in_use() + self.usage.nblocks()
    }

    /// The spindle holding `seg`'s first block.
    pub(crate) fn spindle_of_seg(&self, seg: SegNo) -> usize {
        self.dev.spindle_of(self.sector_of(self.sb.seg_block(seg, 0)))
    }

    /// What the policy sees in `seg` at `now`: the inputs of its ranking
    /// and the ranking key itself (higher is cleaned first). Recorded in
    /// the `victim` event when the segment is cleaned.
    pub(crate) fn victim_reason(&self, seg: SegNo, now: u64) -> VictimReason {
        let entry = self.usage.get(seg);
        let utilization = self.usage.utilization(seg);
        let age_ns = now.saturating_sub(entry.last_write_ns);
        let score = match self.cfg.cleaner.policy {
            CleanerPolicy::Greedy => 1.0 - utilization,
            CleanerPolicy::Oldest => age_ns as f64,
            // An empty segment has nothing left to decay and nothing to
            // copy: no age makes a part-live segment the better buy.
            CleanerPolicy::CostBenefit if entry.live_bytes == 0 => f64::INFINITY,
            CleanerPolicy::CostBenefit => (1.0 - utilization) * age_ns as f64 / (1.0 + utilization),
        };
        VictimReason {
            utilization,
            age_ns,
            score,
        }
    }

    /// The relocation budget: live bytes the next checkpoint can still
    /// carry into the clean segments, by the space rule.
    pub(crate) fn relocation_budget(&self) -> u64 {
        self.space.relocation_budget(self.log_room())
    }

    /// What the space rule weighs a relocation or a write against: the
    /// clean segments, the payload blocks a chunk opened at the log head
    /// would hold, and the blocks the next checkpoint writes before any
    /// relocation (dirty cache blocks, dirty inodes' blocks, every
    /// inode-map block in use and the whole usage table).
    pub(crate) fn log_room(&self) -> (usize, usize, usize) {
        let left = (self.sb.seg_blocks - self.pos.offset) as usize;
        let open = plan_chunk(left, self.block_size()).map_or(0, |(_, cap)| cap);
        let ipb = self.sb.inodes_per_block() as usize;
        let unwritten = self.cache.dirty_count()
            + self.inodes.dirty_count().div_ceil(ipb)
            + self.imap.blocks_in_use()
            + self.usage.nblocks();
        (self.usage.clean_count(), open, unwritten)
    }

    /// Cleans until at least `target` segments are clean, or the clean
    /// count stops rising: the user-level cleaning interface of §4.3.4
    /// ("cleaning to be initialized at night or other times of slack
    /// usage"). Each round is one inline cleaning run to `target` (it
    /// adopts a hosted run in progress) and one checkpoint. Returns the
    /// number of clean segments.
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
    /// // Churn, then compact overnight:
    /// for i in 0..20 {
    ///     fs.write_file(&format!("/f{i}"), &vec![0u8; 8_192])?;
    /// }
    /// for i in 0..18 {
    ///     fs.unlink(&format!("/f{i}"))?;
    /// }
    /// fs.sync()?;
    /// let clean = fs.clean_until(usize::MAX)?;
    /// assert!(clean > 0);
    /// # Ok::<(), vfs::FsError>(())
    /// ```
    pub fn clean_until(&mut self, target: usize) -> FsResult<usize> {
        let target = target.min(self.sb.nsegments as usize - 1);
        loop {
            let clean = self.usage.clean_count();
            if clean >= target {
                return Ok(clean);
            }
            self.dev.set_maintenance(true);
            let round = self.clean_inline(target);
            let cp = round.is_ok().then(|| self.checkpoint_as(CpCause::Clean));
            self.dev.set_maintenance(false);
            round?;
            cp.transpose()?;
            // Stop on no progress: either nothing was cleanable, or
            // compaction is only churning its own output (every victim's
            // free space went right back into rewriting its live data).
            if self.usage.clean_count() <= clean {
                return Ok(self.usage.clean_count());
            }
        }
    }

    /// Whether classifying the logged block at `addr` looks at its
    /// bytes, so the victim reader must fetch it: an inode block's
    /// always, a file block's while it is live, an inode-map or usage
    /// block's never (those are judged from the inode map alone). A file
    /// block judged dead here stays dead, since no pointer ever returns
    /// to an old address. The entry's CPU charge stays with
    /// [`Lfs::clean_entry`].
    pub(crate) fn entry_needs_bytes(
        &mut self,
        kind: BlockKind,
        version: u32,
        addr: BlockAddr,
    ) -> FsResult<bool> {
        match file_block_key(kind) {
            Some(key) => {
                // Fast path (§4.3.3 step 1): version mismatch = dead,
                // without touching the inode or indirect blocks.
                let version = self.cfg.cleaner.use_version_fastpath.then_some(version);
                self.file_block_is_live(key, version, addr)
            }
            None => Ok(kind == BlockKind::InodeBlock),
        }
    }

    /// Classifies one logged block and relocates it if live. `data` is
    /// the block's bytes when [`Lfs::entry_needs_bytes`] asked for them,
    /// and `None` for a file block it judged dead.
    ///
    /// `crc` is the block's end-to-end checksum from the summary entry:
    /// a live block whose disk bytes no longer match it is never copied
    /// forward (that would launder the corruption under a fresh
    /// checksum) — it is recovered from a cached copy when one exists,
    /// and otherwise reported as unrecoverable.
    pub(crate) fn clean_entry(
        &mut self,
        kind: BlockKind,
        version: u32,
        crc: u32,
        addr: BlockAddr,
        data: Option<&[u8]>,
    ) -> FsResult<(u64, u64)> {
        self.charge(CpuCost::MapBlock);
        match kind {
            BlockKind::Data { ino, .. }
            | BlockKind::IndSingle { ino }
            | BlockKind::IndDoubleTop { ino }
            | BlockKind::IndDoubleChild { ino, .. } => {
                let Some(data) = data else {
                    return Ok((0, 0));
                };
                // Live when planned; the file may have moved on since.
                if !self.entry_needs_bytes(kind, version, addr)? {
                    return Ok((0, 0));
                }
                let key = file_block_key(kind).expect("a file block kind");
                let is_data = matches!(kind, BlockKind::Data { .. });
                let now = self.now();
                if self.cache.contains(key) {
                    // Clean cached copy: just re-dirty it.
                    self.cache.get_mut(key, now);
                } else {
                    if summary::block_checksum(data) != crc {
                        let what = if is_data { "file data block" } else { "indirect block" };
                        self.note_unrecoverable(what, addr);
                        return Ok((0, 0));
                    }
                    self.cache
                        .insert_dirty(key, data.to_vec().into_boxed_slice(), now);
                }
                if is_data {
                    self.charge(CpuCost::Instructions(
                        CpuCost::CopyKb.instructions() * (data.len() as u64).div_ceil(1024),
                    ));
                }
                self.relocated.insert(ino);
                Ok((1, 0))
            }
            BlockKind::InodeBlock => {
                let Some(data) = data else {
                    return Err(FsError::Corrupt("inode block classified unread"));
                };
                if summary::block_checksum(data) != crc {
                    // Recover the inodes memory still holds; anything
                    // only the rotten block knew is lost.
                    let (recovered, lost) = self.salvage_inode_block(addr)?;
                    for _ in 0..lost {
                        self.note_unrecoverable("inode block", addr);
                    }
                    return Ok((0, recovered));
                }
                let mut live = 0u64;
                for (slot, inode) in inode_block::unpack_all(data)? {
                    let Ok(entry) = self.imap.get(inode.ino) else {
                        continue;
                    };
                    if !entry.allocated
                        || entry.addr != addr
                        || entry.slot as usize != slot
                        || entry.version != inode.version
                    {
                        continue;
                    }
                    live += 1;
                    if !self.inodes.mark_dirty(inode.ino) {
                        self.inodes.insert(inode.ino, inode, true);
                    }
                }
                Ok((0, live))
            }
            BlockKind::ImapBlock { index } => {
                let index = index as usize;
                if index < self.imap.nblocks() && self.imap.block_addr(index) == addr {
                    // Re-dirty so the next checkpoint rewrites it.
                    self.imap.mark_block_dirty(index);
                }
                Ok((0, 0))
            }
            // Usage blocks are rewritten wholesale at every checkpoint;
            // stale copies are simply dead.
            BlockKind::UsageBlock { .. } => Ok((0, 0)),
        }
    }

    /// Is the logged copy at `addr` of the file block cached under `key`
    /// still part of its file? Never looks at the copy's payload. The
    /// checks run cheapest first: the inode is allocated; its version is
    /// the logged `version` (when one is given — a mismatch means the
    /// file was deleted or truncated since); no newer copy is waiting in
    /// the cache; and (§4.3.3 step 2) the file's pointer tree still
    /// leads to `addr`.
    pub(crate) fn file_block_is_live(
        &mut self,
        key: BlockKey,
        version: Option<u32>,
        addr: BlockAddr,
    ) -> FsResult<bool> {
        let Owner::File(ino) = key.owner else {
            return Ok(false);
        };
        let Ok(entry) = self.imap.get(ino) else {
            return Ok(false);
        };
        if !entry.allocated || version.is_some_and(|v| v != entry.version) {
            return Ok(false);
        }
        if self.cache.is_dirty(key) {
            return Ok(false);
        }
        Ok(blockmap::block_addr(self, ino, key.index)? == addr.0)
    }

    /// Salvages a corrupt on-disk inode block: every live inode it held
    /// that is still in the in-memory table is re-dirtied (the next flush
    /// rewrites it at a new address). Returns `(recovered, lost)` inode
    /// counts; the caller decides how to account the losses.
    pub(crate) fn salvage_inode_block(&mut self, addr: BlockAddr) -> FsResult<(u64, u64)> {
        let residents: Vec<Ino> = self.imap.allocated_inos().collect();
        let mut recovered = 0u64;
        let mut lost = 0u64;
        for ino in residents {
            if self.imap.get(ino)?.addr != addr {
                continue;
            }
            if self.inodes.mark_dirty(ino) {
                recovered += 1;
            } else {
                lost += 1;
            }
        }
        Ok((recovered, lost))
    }
}

/// The cache key of the data or indirect block a summary entry names
/// (`None` for the metadata kinds, which are not cached per file).
pub(crate) fn file_block_key(kind: BlockKind) -> Option<BlockKey> {
    match kind {
        BlockKind::Data { ino, bno } => Some(BlockKey::file(ino, bno as u64)),
        BlockKind::IndSingle { ino } => Some(BlockKey::file(ino, IDX_SINGLE)),
        BlockKind::IndDoubleTop { ino } => Some(BlockKey::file(ino, IDX_DTOP)),
        BlockKind::IndDoubleChild { ino, outer } => Some(BlockKey::file(ino, idx_dchild(outer))),
        _ => None,
    }
}
