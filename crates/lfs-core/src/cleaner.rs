//! The segment cleaner (§4.3.2 – §4.3.4).
//!
//! Cleaning is "a form of incremental garbage collection where the
//! fragmented segments are compressed together to create space to write
//! new segments". It runs in two phases:
//!
//! 1. **Identify & read**: read candidate segments, walk their summary
//!    chunks, and classify every block live or dead. The fast path
//!    (§4.3.3 step 1) compares the version number recorded in the summary
//!    against the inode map — a mismatch means the file was deleted or
//!    truncated, so the block is dead without touching the inode. The slow
//!    path (step 2) maps the block through the inode and indirect blocks
//!    and compares addresses. Live blocks are put in the file cache,
//!    *dirty*.
//! 2. **Write**: the ordinary cache write-back code packs the relocated
//!    blocks into new segments.
//!
//! A cleaned segment is not reusable immediately: until the following
//! checkpoint commits, the on-disk metadata still references its old
//! contents, so a crash in between must find them intact. Cleaned
//! segments are parked in [`SegState::CleanPending`] and promoted by
//! [`Lfs::checkpoint`].

use mem_mgr::{BlockKey, Owner};
use sim_disk::{BlockDevice, CpuCost};
use vfs::blockmap::{self, idx_dchild, IDX_DTOP, IDX_SINGLE};
use vfs::{FsResult, Ino};

use crate::fs::{CachedInode, Lfs};
use crate::layout::inode::inode_block;
use crate::layout::summary::{self, BlockKind};
use crate::layout::usage_block::SegState;
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

/// How cleaning is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CleanerRunMode {
    /// Clean synchronously inside foreground operations whenever the
    /// clean-segment count drops below `activate_below_clean` (the
    /// original clean-on-threshold path).
    Sync,
    /// Incremental: foreground operations never clean (beyond an
    /// emergency floor that keeps the log from wedging); the host steps
    /// a resumable [`crate::CleanerRun`] between operations via
    /// [`crate::Lfs::cleaner_step`], typically as a dedicated engine
    /// client so cleaning I/O competes in the same request queues.
    Async(AsyncCleanerPolicy),
}

/// Aggressiveness policy for [`CleanerRunMode::Async`].
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
    /// Maximum summary entries classified per step (CPU bound per step).
    pub max_step_entries: usize,
    /// Idle-only gating: when set, [`crate::Lfs::cleaner_wants_step`]
    /// reports `true` only while the engine queue depth is at or below
    /// this bound (the paper's "clean during idle periods").
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

/// Cleaner tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CleanerConfig {
    /// Victim-selection policy.
    pub policy: CleanerPolicy,
    /// Start cleaning when fewer than this many segments are clean
    /// ("cleaning is activated when the number of clean segments drops
    /// below a threshold value").
    pub activate_below_clean: usize,
    /// Maximum segments processed per cleaning pass.
    pub segments_per_pass: usize,
    /// Use the §4.3.3 step-1 fast path (summary version number vs inode
    /// map) to classify blocks without walking inodes. Disabled only by
    /// the liveness-fastpath ablation; correctness does not depend on it.
    pub use_version_fastpath: bool,
    /// Synchronous clean-on-threshold or incremental host-driven
    /// cleaning; see [`CleanerRunMode`].
    pub run_mode: CleanerRunMode,
}

impl Default for CleanerConfig {
    fn default() -> Self {
        Self {
            policy: CleanerPolicy::CostBenefit,
            activate_below_clean: 4,
            segments_per_pass: 8,
            use_version_fastpath: true,
            run_mode: CleanerRunMode::Sync,
        }
    }
}

/// Outcome of one cleaning pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanOutcome {
    /// Segments processed.
    pub segments: usize,
    /// Live blocks copied back into the cache.
    pub live_blocks: u64,
    /// Live inodes re-dirtied.
    pub live_inodes: u64,
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
    /// Chooses up to `limit` victim segments according to the policy.
    pub(crate) fn pick_victims(&self, limit: usize) -> Vec<SegNo> {
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
        candidates.truncate(limit);
        candidates
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

    /// Runs one cleaning pass over up to `segments_per_pass` victims.
    ///
    /// Victims are additionally limited by a relocation budget: the live
    /// data they carry must fit in the clean segments currently available
    /// (minus a margin for metadata), or the checkpoint that commits the
    /// relocations could itself run out of space.
    ///
    /// The caller must follow up with a checkpoint to make the cleaned
    /// segments reusable.
    pub fn clean_pass(&mut self) -> FsResult<CleanOutcome> {
        let mut budget = self.relocation_budget();
        self.clean_pass_with_budget(&mut budget)
    }

    /// The default relocation budget: live bytes that can be rewritten
    /// into the currently clean segments, keeping a two-segment margin
    /// for checkpoint metadata.
    pub(crate) fn relocation_budget(&self) -> u64 {
        (self.usage.clean_count() as u64)
            .saturating_sub(2)
            .saturating_mul(self.usage.seg_bytes())
    }

    /// One cleaning pass drawing victims against a caller-managed budget
    /// (shared across several passes preceding one checkpoint, so the
    /// combined relocations still fit the available clean space).
    pub fn clean_pass_with_budget(&mut self, budget: &mut u64) -> FsResult<CleanOutcome> {
        self.clean_pass_toward(budget, usize::MAX)
    }

    /// [`Lfs::clean_pass_with_budget`] that takes no further victim once
    /// clean + clean-pending segments have reached `target`. Only the
    /// threshold activation passes a reachable target: it runs inside a
    /// foreground operation, so every victim past the one that restores
    /// the reserve is latency some client pays. Explicit cleaning
    /// ([`Lfs::clean_pass`], [`Lfs::clean_until`]) cleans all it is
    /// asked to.
    pub(crate) fn clean_pass_toward(
        &mut self,
        budget: &mut u64,
        target: usize,
    ) -> FsResult<CleanOutcome> {
        let victims = self.pick_victims(self.cfg.cleaner.segments_per_pass);
        let mut outcome = CleanOutcome::default();
        for seg in victims {
            if self.clean_and_pending() >= target {
                break;
            }
            let live = self.usage.get(seg).live_bytes as u64;
            if live > *budget {
                continue;
            }
            *budget -= live;
            let (blocks, inodes) = self.clean_segment(seg)?;
            outcome.segments += 1;
            outcome.live_blocks += blocks;
            outcome.live_inodes += inodes;
        }
        self.obs.cleaner_passes.inc();
        self.obs.registry.event(
            self.clock.now_ns(),
            "cleaner_pass",
            format!(
                "segments={} live_blocks={} live_inodes={}",
                outcome.segments, outcome.live_blocks, outcome.live_inodes
            ),
        );
        Ok(outcome)
    }

    /// Cleans segments and checkpoints until at least `target` segments
    /// are clean (or no progress can be made). The user-level cleaning
    /// interface of §4.3.4 ("cleaning to be initialized at night or other
    /// times of slack usage"). Returns the number of clean segments.
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
            self.in_maintenance = true;
            self.dev.set_maintenance(true);
            let outcome = self.clean_pass();
            let cp = outcome.is_ok().then(|| self.checkpoint());
            self.dev.set_maintenance(false);
            self.in_maintenance = false;
            let outcome = outcome?;
            cp.transpose()?;
            // Stop on no progress: either nothing was cleanable, or
            // compaction is only churning its own output (every victim's
            // free space went right back into rewriting its live data).
            if outcome.segments == 0 || self.usage.clean_count() <= clean {
                return Ok(self.usage.clean_count());
            }
        }
    }

    /// Classifies one logged block and relocates it if live.
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
        data: &[u8],
    ) -> FsResult<(u64, u64)> {
        self.charge(CpuCost::MapBlock);
        match kind {
            BlockKind::Data { ino, .. }
            | BlockKind::IndSingle { ino }
            | BlockKind::IndDoubleTop { ino }
            | BlockKind::IndDoubleChild { ino, .. } => {
                // Fast path (§4.3.3 step 1): version mismatch = dead,
                // without touching the inode or indirect blocks.
                let version = self.cfg.cleaner.use_version_fastpath.then_some(version);
                let key = file_block_key(kind).expect("a file block kind");
                if !self.file_block_is_live(key, version, addr)? {
                    return Ok((0, 0));
                }
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
                    match self.inodes.get_mut(&inode.ino) {
                        Some(cached) => cached.dirty = true,
                        None => {
                            self.inodes
                                .insert(inode.ino, CachedInode { inode, dirty: true });
                        }
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
            match self.inodes.get_mut(&ino) {
                Some(cached) => {
                    cached.dirty = true;
                    recovered += 1;
                }
                None => lost += 1,
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
