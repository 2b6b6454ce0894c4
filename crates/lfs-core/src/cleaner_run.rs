//! The cleaning run, the one loop every cleaner drives (§4.3.4), and
//! the task that steps it during idle periods.
//!
//! A `CleanerRun` takes victims one at a time against one relocation
//! budget until clean plus clean-pending segments reach its stop level,
//! then its driver commits the relocations with one checkpoint. Four
//! callers drive it:
//!
//! - the floor runs one inline to the space rule's target inside the
//!   foreground operation that crossed it;
//! - [`Lfs::clean_until`] runs one inline to the level it is given;
//! - a hosted [`CleanerTask`] steps one between a host loop's
//!   foreground operations ([`engine::Maintenance`]): each step performs
//!   one bounded unit — claim or issue one bounded victim read, judge or
//!   classify a bounded number of summary entries, or commit with a
//!   checkpoint — paced by the stepping task's [`AsyncCleanerPolicy`];
//! - [`Lfs::clean_segment`] cleans one named victim with the same
//!   reader.
//!
//! An inline run takes no step caps and waits on its reads. An inline
//! caller that finds a hosted run in progress adopts it (`clean_inline`):
//! it finishes the run's current victim, whose reads are already paid,
//! re-derives the budget less what that victim carries, and stops at its
//! own level; the run ends there. So no victim is ever read twice or
//! abandoned. A host that steps no task still gets the threshold
//! cleaning every foreground operation does at the floor; hosting the
//! task is what makes cleaning asynchronous.
//!
//! A victim is read through the log reader (`log_reader.rs`), which
//! never reads a whole segment: per chunk the header block, the rest of
//! the summary span, then the blocks the cleaner's predicate wants
//! (`Lfs::entry_needs_bytes`), in maximal runs of adjacent ones; the
//! cleaner then classifies the chunk. A block judged dead stays dead
//! (no pointer returns to an old address, and a victim is not reused
//! while it is cleaned), so the plan holds across a run's steps; a block
//! judged live is judged again when it is classified. A failed read
//! fails the victim.
//!
//! A run takes its victims from the pick every cleaner uses
//! (`Lfs::next_victim`); three rules in `run_step` are a hosted run's
//! alone: the packing stop, the off-spindle preference, and the cut of
//! its budget to what the log can carry now. One is an inline run's: its
//! first victim must free more than the checkpoint that commits the run
//! writes. Cleaner I/O is issued with
//! the device's maintenance class on (see
//! [`BlockDevice::set_maintenance`]), so on an engine-backed device it
//! competes in the same request queues as foreground clients while its
//! queue waits land in `engine.maintenance.disk_wait_ns` rather than
//! any client's account. A hosted run's reads use the non-blocking
//! [`BlockDevice::start_read_async`] facade when the device offers one:
//! a read issued in one step is claimed in a later step, so foreground
//! traffic (especially on *other* spindles of a striped volume)
//! advances virtual time underneath it and the claim often costs no
//! additional time at all; a striped volume's token may span spindles.
//!
//! Every driver keeps one crash-safety protocol: a victim becomes
//! [`SegState::CleanPending`] only after every live block has been
//! re-dirtied in the cache, and pending segments are promoted to clean
//! only by the checkpoint that also persists their relocated contents. A crash at any step therefore finds either the
//! old copies intact or the checkpoint that supersedes them.

use engine::{Maintenance, Step};
use sim_disk::BlockDevice;
use vfs::{FsError, FsResult};

use crate::checkpoint::CpCause;
use crate::cleaner::{AsyncCleanerPolicy, VictimReason};
use crate::fs::Lfs;
use crate::layout::summary::SummaryEntry;
use crate::layout::usage_block::SegState;
use crate::log_reader::{LogReader, StepCaps};
use crate::types::{BlockAddr, SegNo};

/// Progress on the victim currently being cleaned.
#[derive(Debug)]
struct VictimProgress {
    seg: SegNo,
    /// What the policy saw in the segment when cleaning of it began.
    reason: VictimReason,
    /// The victim's chain, read summaries first, then wanted blocks.
    reader: LogReader,
    /// Entries of the reader's front chunk classified.
    classified: usize,
    live_blocks: u64,
    live_inodes: u64,
}

/// The state of one cleaning run: held by [`Lfs`] between a hosted
/// task's steps, or driven to its end inline.
#[derive(Debug)]
pub(crate) struct CleanerRun {
    /// Remaining relocation budget (live bytes that still fit the clean
    /// segments available when the run started).
    budget: u64,
    /// The clean-plus-pending level at which the run stops between
    /// victims.
    stop: usize,
    current: Option<VictimProgress>,
    /// Victims fully cleaned by this run so far.
    cleaned: usize,
}

/// Idle time granted to an in-flight victim read before the
/// claiming step: roughly one policy-default read span (32 KB) at WREN
/// IV sequential bandwidth, plus slack for the occasional seek.
const CLEANER_READ_SERVICE_NS: u64 = 30_000_000;

/// The async cleaner as a host-loop maintenance task: its policy
/// decides whether to take each offer (idle gating sees the live queue
/// depth), and a step that leaves a victim read in flight asks for the
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
    /// The victim in hand went clean-pending.
    Cleaned(SegNo),
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

    /// True while the active run has a victim read, issued through the
    /// device's async read facade, still unclaimed. Hosts use this to
    /// spend idle time letting the disk service the read, so the
    /// claiming step finds it complete instead of waiting synchronously.
    pub(crate) fn cleaner_read_pending(&self) -> bool {
        let victim = self.cleaner_run.as_ref().and_then(|run| run.current.as_ref());
        victim.is_some_and(|v| v.reader.read_pending())
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
    /// the level is under the start threshold, claim or issue one bounded
    /// segment read, classify a bounded number of summary entries, or —
    /// when the high watermark is reached or victims run out — commit
    /// the run's relocations with a checkpoint, all paced by `policy`
    /// (the stepping task's). [`Step::Completed`] means the committing
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
                stop: self.effective_high(policy),
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
        let work = self.run_step(&mut run, Some(policy));
        self.dev.set_maintenance(false);
        self.in_maintenance = was_maintenance;
        match work {
            Ok(StepWork::Continue | StepWork::Cleaned(_)) => {
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

    /// One unit of run work. A hosted run (`hosted` is the stepping
    /// task's policy) works within the policy's step caps through the
    /// async read facade; an inline run (`None`) takes no caps and waits
    /// on its reads, so it finishes a victim in one step.
    fn run_step(
        &mut self,
        run: &mut CleanerRun,
        hosted: Option<&AsyncCleanerPolicy>,
    ) -> FsResult<StepWork> {
        if let Some(mut v) = run.current.take() {
            let caps = hosted.map_or(StepCaps::WHOLE, |policy| StepCaps {
                max_blocks: policy.max_step_read_blocks.max(1),
                max_entries: policy.max_step_entries.max(1),
                overlap: true,
            });
            loop {
                if self.victim_step(&mut v, caps)? {
                    self.finish_victim(&v);
                    run.cleaned += 1;
                    return Ok(StepWork::Cleaned(v.seg));
                }
                if hosted.is_some() {
                    run.current = Some(v);
                    return Ok(StepWork::Continue);
                }
            }
        }
        // Between victims: stop at the run's level. A hosted run also
        // stops once the live data is packed — the segments in use hold
        // at most one segment's slack, so every victim is compaction
        // that reclaims nothing, a treadmill under an eager policy. The
        // space rule keeps the floor away from that state (admission
        // leaves the target plus one segment free), but a host's high
        // watermark may ask for more clean segments than admission
        // guarantees, and this stop is what ends such a run.
        let packed = |fs: &Self| {
            let packed = fs.usage.total_live_bytes().div_ceil(fs.usage.seg_bytes()) as usize;
            (fs.usage.nsegments() as usize).saturating_sub(fs.clean_and_pending()) <= packed + 1
        };
        if self.clean_and_pending() >= run.stop || (hosted.is_some() && packed(self)) {
            return Ok(StepWork::Finished);
        }
        // A hosted run's reads are asynchronous: one off the log head's
        // spindle overlaps foreground writes instead of queueing behind
        // them. An inline run blocks on its reads anyway.
        let off_spindle = hosted
            .filter(|_| self.dev.fanout() > 1)
            .map(|_| self.spindle_of_seg(self.pos.seg));
        // Foreground writes between a hosted run's steps spend the clean
        // segments its budget was derived from: it never relocates more
        // than the next checkpoint can still carry.
        if hosted.is_some() {
            run.budget = run.budget.min(self.relocation_budget());
        }
        // An inline run's first victim pays for the checkpoint that
        // commits the run (`Lfs::next_victim`).
        let owed = hosted.is_none().then(|| {
            if run.cleaned == 0 {
                self.checkpoint_blocks()
            } else {
                0
            }
        });
        match self.next_victim(&mut run.budget, off_spindle, owed) {
            Some(seg) => {
                run.current = Some(self.start_victim(seg));
                Ok(StepWork::Continue)
            }
            None => Ok(StepWork::Finished),
        }
    }

    /// One unit of work on the victim: a step of its [`LogReader`]
    /// (claim or issue a read, judge entries with
    /// [`Lfs::entry_needs_bytes`], or validate the next chunk), or, once
    /// a chunk's wanted blocks are in hand, classify up to the caps'
    /// entries of it. A failed read fails the victim. Returns true once
    /// the chain has ended and every chunk of it is classified.
    fn victim_step(&mut self, v: &mut VictimProgress, caps: StepCaps) -> FsResult<bool> {
        if v.reader.ready.is_empty() {
            let want = |fs: &mut Self, entry: &SummaryEntry, addr| {
                fs.entry_needs_bytes(entry.kind, entry.version, addr)
            };
            let landed = v.reader.step(self, caps, want)?;
            self.obs.cleaner_bytes_read.add(landed);
            if let Some((.., err)) = v.reader.failure.take() {
                return Err(err.into());
            }
        }
        let Some(chunk) = v.reader.ready.front() else {
            return Ok(v.reader.end.is_some());
        };
        let base = self.sb.seg_block(v.seg, 0);
        let entries = &chunk.summary.entries;
        let end = entries.len().min(v.classified.saturating_add(caps.max_entries));
        for (i, entry) in entries.iter().enumerate().take(end).skip(v.classified) {
            let block_off = chunk.payload_start + i;
            let addr = BlockAddr(base.0 + block_off as u32);
            let data = chunk.wanted[i].then(|| v.reader.blocks(block_off, 1));
            let (blocks, inodes) =
                self.clean_entry(entry.kind, entry.version, entry.crc, addr, data)?;
            v.live_blocks += blocks;
            v.live_inodes += inodes;
        }
        v.classified = end;
        if end == entries.len() {
            v.reader.ready.pop_front();
            v.classified = 0;
        }
        Ok(false)
    }

    /// A victim whose chain is still to be read.
    fn start_victim(&self, seg: SegNo) -> VictimProgress {
        VictimProgress {
            seg,
            reason: self.victim_reason(seg, self.now()),
            reader: LogReader::new(self, seg, None, "cleaner-read"),
            classified: 0,
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

    /// Runs cleaning inline until clean plus pending segments reach
    /// `stop`, victims permitting: no step caps, waited reads, no packing
    /// stop, no off-spindle pick. A hosted run in progress is adopted
    /// rather than raced: its current victim, whose reads are paid, is
    /// finished first, the budget is re-derived less what that victim
    /// still carries, and the run stops at `stop`. Either way the run is
    /// over on return and the caller commits it. Returns the budget the
    /// run went on with and the victims it cleaned, in order.
    pub(crate) fn clean_inline(&mut self, stop: usize) -> FsResult<(u64, Vec<SegNo>)> {
        let budget = self.relocation_budget();
        let mut run = match self.cleaner_run.take() {
            Some(mut run) => {
                let carried = run.current.as_ref().map(|v| self.usage.get(v.seg).live_bytes as u64);
                run.budget = budget.saturating_sub(carried.unwrap_or(0));
                run.stop = stop;
                run
            }
            None => CleanerRun {
                budget,
                stop,
                current: None,
                cleaned: 0,
            },
        };
        let budget = run.budget;
        let was_maintenance = std::mem::replace(&mut self.in_maintenance, true);
        let mut victims = Vec::new();
        let done = loop {
            match self.run_step(&mut run, None) {
                Ok(StepWork::Continue) => {}
                Ok(StepWork::Cleaned(seg)) => victims.push(seg),
                Ok(StepWork::Finished) => break Ok((budget, victims)),
                Err(e) => break Err(e),
            }
        };
        self.in_maintenance = was_maintenance;
        done
    }

    /// Cleans one segment to completion, inline: phase 1 of §4.3.2
    /// (identify live blocks and read them into the cache, dirty). The
    /// synchronous cleaner is the incremental one's victim reader with
    /// no per-step caps, waiting on each read; the hosted run's current
    /// victim is finished in place, and the run's checkpoint commits it.
    /// Returns `(blocks, inodes)` copied.
    pub fn clean_segment(&mut self, seg: SegNo) -> FsResult<(u64, u64)> {
        if self.usage.state(seg) != SegState::Dirty {
            return Err(FsError::Corrupt("cleaning a non-dirty segment"));
        }
        let run = self.cleaner_run.as_mut();
        let hosted = run.and_then(|run| run.current.take_if(|v| v.seg == seg));
        let from_run = hosted.is_some();
        let mut v = hosted.unwrap_or_else(|| self.start_victim(seg));
        while !self.victim_step(&mut v, StepCaps::WHOLE)? {}
        if let Some(run) = self.cleaner_run.as_mut().filter(|_| from_run) {
            run.cleaned += 1;
        }
        Ok(self.finish_victim(&v))
    }
}

#[cfg(test)]
impl<D: BlockDevice> Lfs<D> {
    /// Starts a hosted run whose first victim is `seg`, as if the pick
    /// had chosen it, so a test can step the run through a known victim.
    pub(crate) fn start_run_at(&mut self, seg: SegNo) {
        let victim = self.start_victim(seg);
        self.cleaner_run = Some(CleanerRun {
            budget: 0,
            stop: 0,
            current: Some(victim),
            cleaned: 0,
        });
    }
}
