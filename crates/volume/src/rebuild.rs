//! Online rebuild of a replaced spindle, mirroring the async cleaner.
//!
//! When a parity volume loses a spindle it keeps serving reads by XOR
//! reconstruction; once a blank replacement is swapped in (see
//! [`crate::StripedVolume::replace_spindle`]) the volume re-derives the
//! dead drive's contents row by row — every physical chunk row is the
//! XOR of the same row on the surviving spindles, whatever mix of data
//! and parity the row holds — and writes them back as maintenance-class
//! I/O through the same per-spindle engine queues the async cleaner
//! uses.
//!
//! Like [`AsyncCleanerPolicy`](engine docs), the work is an incremental
//! state machine the *host event loop* drives: it asks
//! [`crate::StripedVolume::rebuild_wants_step`] whether policy allows a
//! step right now (the idle gate) and then calls
//! [`crate::StripedVolume::rebuild_step`] to copy a bounded number of
//! rows. Foreground requests interleave between steps, so QoS tenants
//! keep their shares during the rebuild.

/// Availability of one spindle in a striped volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpindleState {
    /// Healthy: serves reads and writes normally.
    Online,
    /// Media dead ([`sim_disk::SimDisk::kill_media`]): every request is
    /// routed around it — reads reconstruct, writes update parity only.
    Dead,
    /// Blank replacement installed, rebuild in progress: writes go
    /// through (write-through keeps rebuilt rows fresh), reads still
    /// reconstruct until the rebuild completes.
    Rebuilding,
}

/// Governs how aggressively a rebuild competes with foreground I/O —
/// the rebuild-side mirror of the async cleaner's policy knobs. The
/// idle gate itself is fixed: a paced step (one the host *offers*, as
/// opposed to an `engine::drain` that runs the rebuild out) is taken
/// only while every spindle queue is empty.
#[derive(Debug, Clone, Copy)]
pub struct RebuildPolicy {
    /// Most chunk rows reconstructed per [`RebuildProgress`] step (the
    /// step cap bounding how long the spindles are busy per step).
    pub max_step_rows: usize,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        Self { max_step_rows: 8 }
    }
}

impl RebuildPolicy {
    /// Replaces the per-step row cap.
    pub fn with_max_step_rows(mut self, rows: usize) -> Self {
        self.max_step_rows = rows;
        self
    }
}

/// What one [`crate::StripedVolume::rebuild_step`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildProgress {
    /// No rebuild is in progress.
    Idle,
    /// Reconstructed and wrote this many chunk rows; more remain.
    Progress {
        /// Rows copied in this step.
        rows: u64,
    },
    /// The final rows landed; the spindle is back online.
    Completed,
}

/// The in-flight rebuild of one replaced spindle: a cursor walking the
/// spindle's chunk rows, plus the policy pacing it.
#[derive(Debug, Clone)]
pub struct RebuildRun {
    spindle: usize,
    cursor_row: u64,
    total_rows: u64,
    policy: RebuildPolicy,
}

impl RebuildRun {
    /// Starts a rebuild of `spindle` covering `total_rows` chunk rows.
    pub(crate) fn new(spindle: usize, total_rows: u64, policy: RebuildPolicy) -> Self {
        Self {
            spindle,
            cursor_row: 0,
            total_rows,
            policy,
        }
    }

    /// The spindle being rebuilt.
    pub fn spindle(&self) -> usize {
        self.spindle
    }

    /// Next chunk row to reconstruct.
    pub fn cursor_row(&self) -> u64 {
        self.cursor_row
    }

    /// Total chunk rows the rebuild covers.
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Rows still missing.
    pub fn remaining_rows(&self) -> u64 {
        self.total_rows - self.cursor_row
    }

    /// The pacing policy.
    pub fn policy(&self) -> &RebuildPolicy {
        &self.policy
    }

    /// Whether a paced step may run at the given volume queue depth:
    /// rows remain and the volume is idle (the idle gate).
    pub fn wants_step(&self, queue_depth: u64) -> bool {
        self.remaining_rows() > 0 && queue_depth == 0
    }

    /// Rolls the cursor back to `row` so a failed row is retried.
    pub(crate) fn rewind_to(&mut self, row: u64) {
        self.cursor_row = row;
    }

    /// Claims up to `max_step_rows` rows starting at the cursor;
    /// returns `(first_row, rows)` and advances the cursor.
    pub(crate) fn claim_step(&mut self) -> (u64, u64) {
        let rows = (self.policy.max_step_rows as u64).min(self.remaining_rows());
        let first = self.cursor_row;
        self.cursor_row += rows;
        (first, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_gate_defers_until_the_queue_drains() {
        let run = RebuildRun::new(1, 100, RebuildPolicy::default());
        assert!(run.wants_step(0));
        assert!(!run.wants_step(3), "the gate wants an empty queue");
    }

    #[test]
    fn claim_step_walks_to_completion() {
        let mut run = RebuildRun::new(2, 5, RebuildPolicy::default().with_max_step_rows(2));
        assert_eq!(run.claim_step(), (0, 2));
        assert_eq!(run.claim_step(), (2, 2));
        assert_eq!(run.claim_step(), (4, 1));
        assert_eq!(run.remaining_rows(), 0);
        assert!(!run.wants_step(0), "a finished run never wants a step");
        assert_eq!(run.claim_step(), (5, 0));
    }
}
