//! The incremental, resumable async cleaner (§4.3.4's "clean during
//! idle periods", driven from outside).
//!
//! A [`CleanerTask`] is the cleaner a host loop steps between its
//! foreground operations ([`engine::Maintenance`]): each step performs
//! one bounded unit of a `CleanerRun` — claim or issue one bounded
//! segment read, classify a bounded number of summary entries, or
//! commit the finished relocations with a checkpoint — and returns,
//! paced by the stepping task's [`AsyncCleanerPolicy`]. A host that
//! steps no task still gets the threshold cleaning every foreground
//! operation does at the floor; hosting the task is what makes cleaning
//! asynchronous. The synchronous path is the same victim machinery
//! driven inline: [`Lfs::clean_segment`] reads the victim in one
//! transfer and classifies it without caps.
//!
//! A run takes its victims from the pick every cleaner uses
//! (`Lfs::next_victim`); two rules are its alone, the packing stop in
//! `run_step` and the off-spindle preference. Cleaner I/O is issued
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

use engine::{Maintenance, Step};
use sim_disk::BlockDevice;
use vfs::{FsError, FsResult};

use crate::checkpoint::CpCause;
use crate::cleaner::{AsyncCleanerPolicy, VictimReason};
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
    /// A synchronous pass cleaned the segment under the run; once the
    /// log reuses it, its state (Dirty again) alone would not say so.
    stale: bool,
}

/// The state of one incremental cleaning run, owned by [`Lfs`] between
/// steps.
#[derive(Debug)]
pub(crate) struct CleanerRun {
    /// Remaining relocation budget (live bytes that still fit the clean
    /// segments available when the run started).
    budget: u64,
    current: Option<VictimProgress>,
    /// Victims fully cleaned by this run so far.
    cleaned: usize,
}

/// Idle time granted to an in-flight cleaner segment read before the
/// claiming step: roughly one policy-default read span (32 KB) at WREN
/// IV sequential bandwidth, plus slack for the occasional seek.
const CLEANER_READ_SERVICE_NS: u64 = 30_000_000;

/// The async cleaner as a host-loop maintenance task: its policy
/// decides whether to take each offer (idle gating sees the live queue
/// depth), and a step that leaves a segment read in flight asks for the
/// read's service time to pass before the claiming step, so the read
/// overlaps foreground work as a real async cleaner's would.
///
/// Hosting one is the whole switch between synchronous and async
/// cleaning: the file system holds the run between steps, and each step
/// paces it by the policy of the task that offers it.
#[derive(Debug, Clone)]
pub struct CleanerTask {
    policy: AsyncCleanerPolicy,
}

impl CleanerTask {
    /// A task whose runs start, stop and pace themselves by `policy`.
    pub fn new(policy: AsyncCleanerPolicy) -> Self {
        Self { policy }
    }
}

impl<D: BlockDevice> Maintenance<Lfs<D>> for CleanerTask {
    fn wants_step(&self, fs: &Lfs<D>, queue_depth: u64) -> bool {
        fs.cleaner_wants_step(&self.policy, queue_depth)
    }

    fn step(&mut self, fs: &mut Lfs<D>) -> FsResult<Step> {
        fs.cleaner_step(&self.policy)
    }

    fn active(&self, fs: &Lfs<D>) -> bool {
        fs.cleaner_run_active()
    }

    fn settle_ns(&self, fs: &Lfs<D>) -> Option<u64> {
        fs.cleaner_read_pending().then_some(CLEANER_READ_SERVICE_NS)
    }
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

    /// The run-start threshold, floored at the space rule's run floor
    /// (the level foreground cleaning restores), so a responsive host
    /// cleans asynchronously before a foreground operation is forced to.
    fn effective_low(&self, policy: &AsyncCleanerPolicy) -> usize {
        policy.low_watermark.max(self.space.run_floor())
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

    /// True while an incremental cleaning run is in progress.
    pub(crate) fn cleaner_run_active(&self) -> bool {
        self.cleaner_run.is_some()
    }

    /// True while the active run has a segment read, issued through the
    /// device's async read facade, still unclaimed. Hosts use this to
    /// spend idle time letting the disk service the read, so the
    /// claiming step finds it complete instead of waiting synchronously.
    pub(crate) fn cleaner_read_pending(&self) -> bool {
        let victim = self.cleaner_run.as_ref().and_then(|run| run.current.as_ref());
        victim.is_some_and(|v| v.pending_read.is_some())
    }

    /// The hosted run as a `cleaner_floor` event reports it.
    pub(crate) fn cleaner_run_summary(&self) -> String {
        match &self.cleaner_run {
            None => "run=none".to_string(),
            Some(run) => match &run.current {
                Some(v) => format!("run=active run_victim={}", v.seg.0),
                None => "run=active run_victim=-".to_string(),
            },
        }
    }

    /// Whether a host should call [`Lfs::cleaner_step`] now.
    /// `queue_depth` is the engine's pending-request count (0 for
    /// devices without a queue); an idle-gated policy declines while the
    /// queue is deeper than its bound.
    pub(crate) fn cleaner_wants_step(&self, policy: &AsyncCleanerPolicy, queue_depth: u64) -> bool {
        if self.read_only {
            return false;
        }
        if let Some(gate) = policy.idle_queue_depth {
            if queue_depth > gate {
                return false;
            }
        }
        self.cleaner_run.is_some() || self.run_should_start(policy)
    }

    /// Performs one bounded unit of incremental cleaning: start a run if
    /// the low watermark is crossed, claim or issue one bounded segment
    /// read, classify a bounded number of summary entries, or — when the
    /// high watermark is reached or victims run out — commit the run's
    /// relocations with a checkpoint, all paced by `policy` (the
    /// stepping task's). [`Step::Completed`] means the committing
    /// checkpoint, if the run cleaned anything, has landed.
    pub(crate) fn cleaner_step(&mut self, policy: &AsyncCleanerPolicy) -> FsResult<Step> {
        if self.read_only {
            return Ok(Step::Idle);
        }
        if self.cleaner_run.is_none() {
            if !self.run_should_start(policy) {
                return Ok(Step::Idle);
            }
            let budget = self.relocation_budget();
            self.cleaner_run = Some(CleanerRun {
                budget,
                current: None,
                cleaned: 0,
            });
            self.obs.async_runs_started.inc();
            self.obs.registry.event(
                self.clock.now_ns(),
                "cleaner_run",
                format!(
                    "start clean={} pending={} budget={budget}",
                    self.usage.clean_count(),
                    self.usage.segments_in_state(SegState::CleanPending).len(),
                ),
            );
        }
        self.obs.async_steps.inc();
        let mut run = self.cleaner_run.take().expect("run just ensured");
        let was_maintenance = std::mem::replace(&mut self.in_maintenance, true);
        self.dev.set_maintenance(true);
        let work = self.run_step(&mut run, policy);
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
                // a direct flush bypasses the floor's commit-pending
                // path, so down there the foreground write path (which
                // has that escape hatch) must do the draining.
                if self.cache.dirty_count() * 2 >= self.cache.capacity_blocks()
                    && self.usage.clean_count() > self.space.reserve()
                {
                    self.dev.set_maintenance(true);
                    let fl = self.flush(false, false);
                    self.dev.set_maintenance(false);
                    fl?;
                }
                self.cleaner_run = Some(run);
                Ok(Step::Progress)
            }
            Ok(StepWork::Finished) => {
                if run.cleaned > 0 {
                    // Commit: persist the relocations and promote the
                    // pending segments. The checkpoint is still
                    // maintenance I/O; re-tag around it.
                    self.dev.set_maintenance(true);
                    let cp = self.checkpoint_as(CpCause::Clean);
                    self.dev.set_maintenance(false);
                    cp?;
                }
                // Futility damping: a run that cleaned nothing (no
                // victim worth selecting, or the packing check in
                // `run_step`) must not restart at the same segment
                // population, or an eager host would spin.
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
                Ok(Step::Completed)
            }
            Err(e) => Err(e),
        }
    }

    /// One unit of run work.
    fn run_step(
        &mut self,
        run: &mut CleanerRun,
        policy: &AsyncCleanerPolicy,
    ) -> FsResult<StepWork> {
        if let Some(mut v) = run.current.take() {
            // A stale victim (the floor or a `clean_pass` cleaned it
            // under us) is abandoned; any in-flight read is claimed and
            // discarded so no queue is left holding it.
            if v.stale {
                if let Some(p) = v.pending_read.take() {
                    let _ = self.dev.finish_read_async(p.token);
                }
                self.obs.async_victims_aborted.inc();
                return Ok(StepWork::Continue);
            }
            if v.pending_read.is_some() || v.blocks_read < self.sb.seg_blocks as usize {
                self.read_step(&mut v, policy.max_step_read_blocks.max(1))?;
                run.current = Some(v);
                return Ok(StepWork::Continue);
            }
            if self.classify_step(&mut v, policy.max_step_entries.max(1))? {
                self.finish_victim(&v);
                run.cleaned += 1;
            } else {
                run.current = Some(v);
            }
            return Ok(StepWork::Continue);
        }
        // Between victims: stop at the high watermark, or once the live
        // data is packed — the segments in use hold at most one
        // segment's slack, so every victim is compaction that reclaims
        // nothing, a treadmill under an eager policy. The space rule
        // keeps the floor away from that state (admission leaves the
        // target plus one segment free), but a host's high watermark may
        // ask for more clean segments than admission guarantees, and
        // this stop is what ends such a run.
        let packed = self.usage.total_live_bytes().div_ceil(self.usage.seg_bytes()) as usize;
        let used = (self.usage.nsegments() as usize).saturating_sub(self.clean_and_pending());
        if self.clean_and_pending() >= self.effective_high(policy) || used <= packed + 1 {
            return Ok(StepWork::Finished);
        }
        // Its reads are asynchronous: one off the log head's spindle
        // overlaps foreground writes instead of queueing behind them.
        let off_spindle = (self.dev.fanout() > 1).then(|| self.spindle_of_seg(self.pos.seg));
        match self.next_victim(&mut run.budget, off_spindle) {
            Some(seg) => {
                run.current = Some(self.start_victim(seg));
                Ok(StepWork::Continue)
            }
            None => Ok(StepWork::Finished),
        }
    }

    /// Claims the in-flight read span, or issues the next one of at most
    /// `max_blocks`. On devices without an async read path the span is
    /// read synchronously (still bounded per step).
    fn read_step(&mut self, v: &mut VictimProgress, max_blocks: usize) -> FsResult<()> {
        let bs = self.block_size();
        if let Some(p) = v.pending_read.take() {
            let data = self.dev.finish_read_async(p.token)?;
            v.image[p.block_off * bs..p.block_off * bs + data.len()].copy_from_slice(&data);
            v.blocks_read = p.block_off + p.nblocks;
            self.obs.cleaner_bytes_read.add(data.len() as u64);
            return Ok(());
        }
        let seg_blocks = self.sb.seg_blocks as usize;
        let n = (seg_blocks - v.blocks_read).min(max_blocks);
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
            stale: false,
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
        if let Some(current) = self.cleaner_run.as_mut().and_then(|r| r.current.as_mut()) {
            current.stale |= current.seg == seg;
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
}
