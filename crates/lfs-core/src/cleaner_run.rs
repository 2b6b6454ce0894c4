//! The incremental, resumable async cleaner (§4.3.4's "clean during
//! idle periods", driven from outside).
//!
//! [`CleanerRun`] cleans in small steps a host event loop can
//! interleave with foreground operations: each call to
//! [`Lfs::cleaner_step`] performs one bounded unit of work — claim or
//! issue one bounded segment read, classify a bounded number of summary
//! entries, or commit the finished relocations with a checkpoint — and
//! returns. The synchronous clean-on-threshold path is the same victim
//! machinery driven inline: [`Lfs::clean_segment`] reads the victim in
//! one transfer and classifies it without caps. Cleaner I/O is issued
//! with the device's maintenance class on (see
//! [`BlockDevice::set_maintenance`]), so on an engine-backed device it
//! competes in the same request queues as foreground clients while its
//! queue waits land in `engine.maintenance.disk_wait_ns` rather than
//! any client's account. Segment reads use the non-blocking
//! [`BlockDevice::start_read_async`] facade when the device offers one:
//! a read issued in one step is claimed in a later step, so foreground
//! traffic (especially on *other* spindles of a striped volume)
//! advances virtual time underneath it and the claim often costs no
//! additional time at all.
//!
//! The crash-safety protocol is unchanged from the synchronous cleaner:
//! a victim becomes [`SegState::CleanPending`] only after every live
//! block has been re-dirtied in the cache, and pending segments are
//! promoted to clean only by the checkpoint that also persists their
//! relocated contents. A crash at any step therefore finds either the
//! old copies intact or the checkpoint that supersedes them.

use sim_disk::BlockDevice;
use vfs::{FsError, FsResult};

use crate::cleaner::{AsyncCleanerPolicy, CleanerRunMode, VictimReason};
use crate::fs::Lfs;
use crate::layout::summary::{ChunkCursor, ChunkSummary};
use crate::layout::usage_block::SegState;
use crate::types::{BlockAddr, SegNo};

/// A segment read in flight between steps.
#[derive(Debug)]
struct PendingRead {
    /// Device token from [`BlockDevice::start_read_async`].
    token: u64,
    /// First block of the span, relative to the segment base.
    block_off: usize,
    /// Blocks in the span.
    nblocks: usize,
}

/// Progress on the victim currently being cleaned.
#[derive(Debug)]
struct VictimProgress {
    seg: SegNo,
    /// What the policy saw in the segment when cleaning of it began.
    reason: VictimReason,
    /// The segment image, filled front-to-back by the read steps.
    image: Vec<u8>,
    /// Blocks of the image that are valid.
    blocks_read: usize,
    pending_read: Option<PendingRead>,
    /// Where the chunk walk stands in the image.
    cursor: ChunkCursor,
    /// The chunk being classified (with its payload's block offset) and
    /// how many of its entries are done.
    chunk: Option<(ChunkSummary, usize)>,
    entry_cursor: usize,
    live_blocks: u64,
    live_inodes: u64,
}

/// The state of one incremental cleaning run, owned by [`Lfs`] between
/// steps.
#[derive(Debug)]
pub struct CleanerRun {
    policy: AsyncCleanerPolicy,
    /// Remaining relocation budget (live bytes that still fit the clean
    /// segments available when the run started).
    budget: u64,
    current: Option<VictimProgress>,
    /// Victims fully cleaned by this run so far.
    cleaned: usize,
}

impl CleanerRun {
    fn new(policy: AsyncCleanerPolicy, budget: u64) -> Self {
        Self {
            policy,
            budget,
            current: None,
            cleaned: 0,
        }
    }

}

/// What one [`Lfs::cleaner_step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanerStepOutcome {
    /// Nothing to do: sync mode, read-only, or watermarks satisfied with
    /// no run active.
    Idle,
    /// One bounded unit of work was performed; the run continues.
    Progress,
    /// The run just ended. If it cleaned any segment, the committing
    /// checkpoint has landed and the segments are reusable.
    Completed,
}

/// Internal result of one unit of run work.
enum StepWork {
    Continue,
    Finished,
}

impl<D: BlockDevice> Lfs<D> {
    /// Segments currently reusable or awaiting their commit: clean plus
    /// clean-pending.
    pub(crate) fn clean_and_pending(&self) -> usize {
        self.usage.clean_count() + self.usage.segments_in_state(SegState::CleanPending).len()
    }

    /// The run-start threshold, floored safely above the emergency
    /// cleaning floor (`reserve + 2`) so a responsive host always cleans
    /// asynchronously before a foreground operation is forced to.
    fn effective_low(&self, policy: &AsyncCleanerPolicy) -> usize {
        policy.low_watermark.max(self.reserve_segments + 3)
    }

    /// Whether a new run should start: the clean-plus-pending level is
    /// under the start threshold, and the last run did not find nothing
    /// to clean at this same level (until the segment population
    /// changes, another run won't either).
    fn run_should_start(&self, policy: &AsyncCleanerPolicy) -> bool {
        let level = self.clean_and_pending();
        level < self.effective_low(policy) && self.cleaner_futile_at != Some(level)
    }

    /// The run-stop threshold (hysteresis above the start threshold).
    fn effective_high(&self, policy: &AsyncCleanerPolicy) -> usize {
        policy.high_watermark.max(self.effective_low(policy) + 2)
    }

    /// Segments kept in reserve so a checkpoint can always complete —
    /// the base of the emergency cleaning floor. Hosts size async
    /// watermarks relative to this.
    pub fn reserve_segment_count(&self) -> usize {
        self.reserve_segments
    }

    /// True while an incremental cleaning run is in progress.
    pub fn cleaner_run_active(&self) -> bool {
        self.cleaner_run.is_some()
    }

    /// True while the active run has a segment read, issued through the
    /// device's async read facade, still unclaimed. Hosts use this to
    /// spend idle time letting the disk service the read, so the
    /// claiming step finds it complete instead of waiting synchronously.
    pub fn cleaner_read_pending(&self) -> bool {
        let victim = self.cleaner_run.as_ref().and_then(|run| run.current.as_ref());
        victim.is_some_and(|v| v.pending_read.is_some())
    }

    /// Whether the host should call [`Lfs::cleaner_step`] now.
    /// `queue_depth` is the engine's pending-request count (pass 0 for
    /// devices without a queue); an idle-gated policy declines while the
    /// queue is deeper than its bound. Always false in sync mode.
    pub fn cleaner_wants_step(&self, queue_depth: u64) -> bool {
        let CleanerRunMode::Async(policy) = self.cfg.cleaner.run_mode else {
            return false;
        };
        if self.read_only {
            return false;
        }
        if let Some(gate) = policy.idle_queue_depth {
            if queue_depth > gate {
                return false;
            }
        }
        self.cleaner_run.is_some() || self.run_should_start(&policy)
    }

    /// Performs one bounded unit of incremental cleaning: start a run if
    /// the low watermark is crossed, claim or issue one bounded segment
    /// read, classify a bounded number of summary entries, or — when the
    /// high watermark is reached or victims run out — commit the run's
    /// relocations with a checkpoint. Returns [`CleanerStepOutcome::Idle`]
    /// in sync mode, so hosts may call it unconditionally.
    pub fn cleaner_step(&mut self) -> FsResult<CleanerStepOutcome> {
        let CleanerRunMode::Async(policy) = self.cfg.cleaner.run_mode else {
            return Ok(CleanerStepOutcome::Idle);
        };
        if self.read_only {
            return Ok(CleanerStepOutcome::Idle);
        }
        if self.cleaner_run.is_none() {
            if !self.run_should_start(&policy) {
                return Ok(CleanerStepOutcome::Idle);
            }
            self.cleaner_run = Some(CleanerRun::new(policy, self.relocation_budget()));
            self.obs.async_runs_started.inc();
            self.obs.registry.event(
                self.clock.now_ns(),
                "cleaner_run",
                format!(
                    "start clean={} pending={} budget={}",
                    self.usage.clean_count(),
                    self.usage.segments_in_state(SegState::CleanPending).len(),
                    self.cleaner_run.as_ref().unwrap().budget,
                ),
            );
        }
        self.obs.async_steps.inc();
        let mut run = self.cleaner_run.take().expect("run just ensured");
        let was_maintenance = std::mem::replace(&mut self.in_maintenance, true);
        self.dev.set_maintenance(true);
        let work = self.run_step(&mut run);
        self.dev.set_maintenance(false);
        self.in_maintenance = was_maintenance;
        match work {
            Ok(StepWork::Continue) => {
                // Prepay write-back debt: once the cache is half dirty
                // (the run's re-dirtied live blocks plus foreground
                // writes), drain it from the cleaner's own time slice.
                // Otherwise the relocations sit in cache until some
                // foreground operation's write-back pays for them —
                // the cleaner's cost would land on foreground latency.
                // A plain data flush, not a checkpoint: promotion of the
                // run's clean-pending segments waits for the single
                // committing checkpoint when the run finishes. Skipped
                // once the clean count reaches the checkpoint reserve —
                // a direct flush bypasses the emergency commit-pending
                // path, so down there the foreground write path (which
                // has that escape hatch) must do the draining.
                if self.cache.dirty_count() * 2 >= self.cache.capacity_blocks()
                    && self.usage.clean_count() > self.reserve_segments
                {
                    self.dev.set_maintenance(true);
                    let fl = self.flush(false, false);
                    self.dev.set_maintenance(false);
                    fl?;
                }
                self.cleaner_run = Some(run);
                Ok(CleanerStepOutcome::Progress)
            }
            Ok(StepWork::Finished) => {
                if run.cleaned > 0 {
                    // Commit: persist the relocations and promote the
                    // pending segments. The checkpoint is still
                    // maintenance I/O; re-tag around it.
                    self.dev.set_maintenance(true);
                    let cp = self.checkpoint();
                    self.dev.set_maintenance(false);
                    cp?;
                }
                // Futility damping: a run that cleaned nothing (no
                // victim worth selecting — see the packing check in
                // `pick_async_victim`) must not restart at the same
                // segment population, or an eager host would spin.
                self.cleaner_futile_at = if run.cleaned == 0 {
                    Some(self.clean_and_pending())
                } else {
                    None
                };
                self.obs.async_runs_completed.inc();
                self.obs.registry.event(
                    self.clock.now_ns(),
                    "cleaner_run",
                    format!("finish cleaned={} clean={}", run.cleaned, self.usage.clean_count()),
                );
                Ok(CleanerStepOutcome::Completed)
            }
            Err(e) => Err(e),
        }
    }

    /// One unit of run work.
    fn run_step(&mut self, run: &mut CleanerRun) -> FsResult<StepWork> {
        if let Some(mut v) = run.current.take() {
            // A stale victim (its state changed under us — e.g. an
            // emergency synchronous pass cleaned it) is abandoned; any
            // in-flight read is claimed and discarded so no queue is
            // left holding it.
            if self.usage.state(v.seg) != SegState::Dirty {
                if let Some(p) = v.pending_read.take() {
                    let _ = self.dev.finish_read_async(p.token);
                }
                self.obs.async_victims_aborted.inc();
                return Ok(StepWork::Continue);
            }
            if v.pending_read.is_some() || v.blocks_read < self.sb.seg_blocks as usize {
                self.read_step(&mut v, &run.policy)?;
                run.current = Some(v);
                return Ok(StepWork::Continue);
            }
            if self.classify_step(&mut v, run.policy.max_step_entries.max(1))? {
                self.finish_victim(&v);
                run.cleaned += 1;
            } else {
                run.current = Some(v);
            }
            return Ok(StepWork::Continue);
        }
        // Between victims: reach the high watermark and stop, or select
        // the next victim within budget.
        if self.clean_and_pending() >= self.effective_high(&run.policy) {
            return Ok(StepWork::Finished);
        }
        match self.pick_async_victim(run) {
            Some(seg) => {
                run.current = Some(self.start_victim(seg));
                Ok(StepWork::Continue)
            }
            None => Ok(StepWork::Finished),
        }
    }

    /// Claims the in-flight read span, or issues the next bounded one.
    /// On devices without an async read path the span is read
    /// synchronously (still bounded per step).
    fn read_step(&mut self, v: &mut VictimProgress, policy: &AsyncCleanerPolicy) -> FsResult<()> {
        let bs = self.block_size();
        if let Some(p) = v.pending_read.take() {
            let data = self.dev.finish_read_async(p.token)?;
            v.image[p.block_off * bs..p.block_off * bs + data.len()].copy_from_slice(&data);
            v.blocks_read = p.block_off + p.nblocks;
            self.obs.cleaner_bytes_read.add(data.len() as u64);
            return Ok(());
        }
        let seg_blocks = self.sb.seg_blocks as usize;
        let n = (seg_blocks - v.blocks_read).min(policy.max_step_read_blocks.max(1));
        let addr = BlockAddr(self.sb.seg_block(v.seg, 0).0 + v.blocks_read as u32);
        let sector = self.sector_of(addr);
        self.dev.annotate("cleaner-read");
        match self.dev.start_read_async(sector, n * bs) {
            Some(token) => {
                v.pending_read = Some(PendingRead {
                    token,
                    block_off: v.blocks_read,
                    nblocks: n,
                });
            }
            None => {
                let mut buf = vec![0u8; n * bs];
                self.dev.read(sector, &mut buf)?;
                v.image[v.blocks_read * bs..(v.blocks_read + n) * bs].copy_from_slice(&buf);
                v.blocks_read += n;
                self.obs.cleaner_bytes_read.add(buf.len() as u64);
            }
        }
        Ok(())
    }

    /// Classifies up to `max_entries` summary entries of the fully-read
    /// victim image, resuming the chunk walk where the previous step
    /// stopped. Returns true when the walk is complete.
    fn classify_step(&mut self, v: &mut VictimProgress, max_entries: usize) -> FsResult<bool> {
        let bs = self.block_size();
        let base = self.sb.seg_block(v.seg, 0);
        let mut processed = 0usize;
        while processed < max_entries {
            if v.chunk.is_none() {
                match v.cursor.next_chunk(&v.image[v.cursor.offset() * bs..]) {
                    Ok(next) => v.chunk = Some(next),
                    Err(_) => return Ok(true),
                }
            }
            let (summary, payload_start) = v.chunk.as_ref().expect("chunk just ensured");
            while v.entry_cursor < summary.entries.len() && processed < max_entries {
                let entry = &summary.entries[v.entry_cursor];
                let block_off = payload_start + v.entry_cursor;
                let addr = BlockAddr(base.0 + block_off as u32);
                let data = &v.image[block_off * bs..(block_off + 1) * bs];
                let (blocks, inodes) =
                    self.clean_entry(entry.kind, entry.version, entry.crc, addr, data)?;
                v.live_blocks += blocks;
                v.live_inodes += inodes;
                v.entry_cursor += 1;
                processed += 1;
            }
            if v.entry_cursor == summary.entries.len() {
                v.chunk = None;
                v.entry_cursor = 0;
            }
        }
        Ok(false)
    }

    /// A victim whose image is still to be read.
    fn start_victim(&self, seg: SegNo) -> VictimProgress {
        let bs = self.block_size();
        let seg_blocks = self.sb.seg_blocks as usize;
        VictimProgress {
            seg,
            reason: self.victim_reason(seg, self.now()),
            image: vec![0u8; seg_blocks * bs],
            blocks_read: 0,
            pending_read: None,
            cursor: ChunkCursor::new(self.sb.seg_block(seg, 0), seg_blocks, bs),
            chunk: None,
            entry_cursor: 0,
            live_blocks: 0,
            live_inodes: 0,
        }
    }

    /// Retires a fully classified victim: every live block is dirty in
    /// the cache, so the segment waits only for the committing
    /// checkpoint. Returns `(blocks, inodes)` copied.
    fn finish_victim(&mut self, v: &VictimProgress) -> (u64, u64) {
        self.usage.set_state(v.seg, SegState::CleanPending);
        self.obs.segments_cleaned.inc();
        self.obs.registry.event(
            self.clock.now_ns(),
            "victim",
            format!(
                "seg={} util={:.3} age_ms={} score={:.4e} policy={:?} clean={} pending={} \
                 live_blocks={}",
                v.seg.0,
                v.reason.utilization,
                v.reason.age_ns / 1_000_000,
                v.reason.score,
                self.cfg.cleaner.policy,
                self.usage.clean_count(),
                self.usage.segments_in_state(SegState::CleanPending).len(),
                v.live_blocks,
            ),
        );
        self.obs.cleaner_blocks_copied.add(v.live_blocks);
        self.obs.cleaner_inodes_copied.add(v.live_inodes);
        (v.live_blocks, v.live_inodes)
    }

    /// Cleans one segment to completion, inline: phase 1 of §4.3.2
    /// (identify live blocks and read them into the cache, dirty). The
    /// synchronous cleaner is the incremental one with the victim read
    /// in a single transfer and no per-step caps. Returns
    /// `(blocks, inodes)` copied.
    pub fn clean_segment(&mut self, seg: SegNo) -> FsResult<(u64, u64)> {
        if self.usage.state(seg) != SegState::Dirty {
            return Err(FsError::Corrupt("cleaning a non-dirty segment"));
        }
        let mut v = self.start_victim(seg);
        self.dev.annotate("cleaner-read");
        self.dev
            .read(self.sector_of(self.sb.seg_block(seg, 0)), &mut v.image)?;
        self.obs.cleaner_bytes_read.add(v.image.len() as u64);
        let done = self.classify_step(&mut v, usize::MAX)?;
        debug_assert!(done, "an uncapped step walks the whole chain");
        Ok(self.finish_victim(&v))
    }

    /// Chooses the run's next victim within its remaining budget,
    /// preferring (when the device has more than one spindle) a segment
    /// on a spindle other than the log head's, so cleaner reads overlap
    /// foreground writes instead of queueing behind them.
    fn pick_async_victim(&mut self, run: &mut CleanerRun) -> Option<SegNo> {
        // Packing check: cleaning can only gain segments while the live
        // data occupies more segments than it strictly needs (plus one
        // for the active tail). At optimal packing every "victim" is
        // pure compaction — its relocated blocks recreate an equivalent
        // partial segment, a treadmill that reclaims nothing and would
        // run forever under an always-eager policy.
        let seg_bytes = self.usage.seg_bytes();
        let packed = self.usage.total_live_bytes().div_ceil(seg_bytes) as usize;
        let used = (self.usage.nsegments() as usize).saturating_sub(self.clean_and_pending());
        if used <= packed + 1 {
            return None;
        }
        let candidates = self.pick_victims(self.cfg.cleaner.segments_per_pass.max(1));
        let affordable: Vec<SegNo> = candidates
            .into_iter()
            .filter(|&seg| self.usage.get(seg).live_bytes as u64 <= run.budget)
            .collect();
        let spindle_of = |seg| self.dev.spindle_of(self.sector_of(self.sb.seg_block(seg, 0)));
        let off_head = if self.dev.fanout() > 1 {
            let head = spindle_of(self.pos.seg);
            affordable.iter().copied().find(|&seg| spindle_of(seg) != head)
        } else {
            None
        };
        if off_head.is_some() {
            self.obs.async_offspindle_victims.inc();
        }
        let chosen = off_head.or(affordable.first().copied());
        if let Some(seg) = chosen {
            run.budget -= self.usage.get(seg).live_bytes as u64;
        }
        chosen
    }
}
