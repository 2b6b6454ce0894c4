//! Closed-loop overwrite churn with the cleaner as another engine
//! client.
//!
//! The workload keeps a fixed set of live files (slots) and overwrites
//! them continuously, so dead blocks accumulate in old segments exactly
//! as in the paper's sustained-use scenario (§4.3) and the cleaner must
//! keep reclaiming space for the log to survive. The driver extends the
//! `mt_scaling` closed-loop client model with one extra dispatchable
//! actor: when the file system's cleaner runs in async mode, the loop
//! ([`engine::run_closed_loop`]) offers it steps as a [`CleanerTask`]
//! before the next foreground client becomes ready. Cleaner I/O therefore
//! competes in the same request queues as the foreground clients, and
//! per-operation foreground latencies — collected exactly, for precise
//! percentiles — expose the interference.

use engine::{drain, jittered_think_ns, run_closed_loop, Maintenance, RequestEngine, Step};
use lfs_core::{CleanerStepOutcome, Lfs};
use sim_disk::BlockDevice;
use vfs::{FileSystem, FsResult};
use workload::payload;

/// Parameters of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Number of closed-loop foreground clients.
    pub clients: usize,
    /// Overwrites each client performs in the measured phase.
    pub ops_per_client: usize,
    /// Total live files, distributed round-robin across clients. The
    /// live set (`total_slots * file_size`) is what the cleaner must
    /// copy forward, so it sets the disk's steady-state utilization.
    pub total_slots: usize,
    /// Size of every slot file in bytes.
    pub file_size: usize,
    /// Mean think time between a client's operations (±25% jitter).
    pub think_ns: u64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

/// Outcome of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Foreground operations completed in the measured phase.
    pub total_ops: u64,
    /// Virtual time of the measured phase, in nanoseconds.
    pub elapsed_ns: u64,
    /// Exact median foreground operation latency.
    pub p50_ns: u64,
    /// Exact 99th-percentile foreground operation latency.
    pub p99_ns: u64,
    /// Worst foreground operation latency.
    pub max_ns: u64,
    /// Cleaner steps taken by the driver during the measured phase.
    pub cleaner_steps: u64,
}

impl ChurnOutcome {
    /// Foreground throughput in operations per second of virtual time.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.total_ops as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// Idle time granted to an in-flight cleaner segment read before the
/// claiming step: roughly one policy-default read span (32 KB) at WREN
/// IV sequential bandwidth, plus slack for the occasional seek.
const CLEANER_READ_SERVICE_NS: u64 = 30_000_000;

/// The LFS async cleaner as a host-loop maintenance task: its policy
/// decides whether to take each offer (idle gating sees the live queue
/// depth), and a step that leaves a segment read in flight asks for the
/// read's service time to pass before the claiming step, so the read
/// overlaps foreground work as a real async cleaner's would.
pub struct CleanerTask;

impl<D: BlockDevice> Maintenance<Lfs<D>> for CleanerTask {
    fn wants_step(&self, fs: &Lfs<D>, queue_depth: u64) -> bool {
        fs.cleaner_wants_step(queue_depth)
    }

    fn step(&mut self, fs: &mut Lfs<D>) -> FsResult<Step> {
        Ok(match fs.cleaner_step()? {
            CleanerStepOutcome::Idle => Step::Idle,
            CleanerStepOutcome::Progress => Step::Progress,
            CleanerStepOutcome::Completed => Step::Completed,
        })
    }

    fn active(&self, fs: &Lfs<D>) -> bool {
        fs.cleaner_run_active()
    }

    fn settle_ns(&self, fs: &Lfs<D>) -> Option<u64> {
        fs.cleaner_read_pending().then_some(CLEANER_READ_SERVICE_NS)
    }
}

/// The slot path overwritten by `client` on its `op`-th operation.
fn slot_path(cfg: &ChurnConfig, client: usize, op: usize) -> String {
    let owned = cfg.total_slots.div_ceil(cfg.clients);
    let slot = client + (op % owned) * cfg.clients;
    format!("/d{:02}/s{:04}", client, slot.min(cfg.total_slots - 1))
}

/// Exact percentile of an ascending-sorted latency sample: the sample
/// at index `round((n - 1) · pct / 100)` — the closest order statistic
/// to the interpolated position, deterministic, no histogram bucketing
/// error. **Not** nearest-rank: [`trace::percentile_ns`] reads index
/// `ceil(n · pct / 100) - 1`, which can sit one sample below this one
/// (the median of ten samples: 4, here 5) or one above (their p91: 9,
/// here 8). The pinned p50/p99 cells of each bench depend on the helper
/// it uses.
pub fn percentile_ns(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * pct / 100.0).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Runs the overwrite-churn workload: a fill phase creating every slot
/// (system-attributed, unmeasured), then `clients * ops_per_client`
/// measured overwrites dispatched earliest-ready-first, with the async
/// cleaner offered steps as client id `cfg.clients` whenever its policy
/// wants one (never, in sync mode). Ends by draining any in-progress
/// cleaner run and syncing.
pub fn run_overwrite_churn<D: BlockDevice>(
    fs: &mut Lfs<D>,
    core: &impl RequestEngine,
    cfg: &ChurnConfig,
) -> FsResult<ChurnOutcome> {
    assert!(cfg.clients > 0, "at least one client");
    assert!(cfg.total_slots >= cfg.clients, "a slot per client");
    let clock = core.clock();
    let payloads: Vec<Vec<u8>> = (0..cfg.clients)
        .map(|c| payload(cfg.seed ^ ((c as u64) << 8), cfg.file_size))
        .collect();

    // Fill: every slot exists and is live before measurement starts.
    core.set_client(None);
    core.register_clients(cfg.clients + 1);
    for c in 0..cfg.clients {
        match fs.mkdir(&format!("/d{c:02}")) {
            Ok(_) | Err(vfs::FsError::AlreadyExists) => {}
            Err(e) => return Err(e),
        }
    }
    for slot in 0..cfg.total_slots {
        let c = slot % cfg.clients;
        fs.write_file(&format!("/d{c:02}/s{slot:04}"), &payloads[c])?;
    }
    fs.sync()?;

    let mut cleaner = CleanerTask;
    let run = run_closed_loop(
        fs,
        core,
        &vec![cfg.ops_per_client; cfg.clients],
        |c, op| jittered_think_ns(cfg.seed, c, op, cfg.think_ns),
        Some((&mut cleaner, Some(cfg.clients))),
        |fs, turn| {
            // Overwrite in place: truncate kills every old block (they become
            // cleanable garbage), the rewrite appends fresh ones at the head.
            let c = turn.client;
            let ino = fs.lookup(&slot_path(cfg, c, turn.op))?;
            fs.truncate(ino, 0)?;
            let mut written = 0;
            while written < cfg.file_size {
                written += fs.write_at(ino, written as u64, &payloads[c][written..])?;
            }
            Ok(())
        },
    )?;

    // Close the measurement: finish the cleaner's in-progress run (so
    // its relocations are committed, not parked), then drain every
    // queued write.
    core.set_client(None);
    let mut cleaner_steps = run.maintenance_steps;
    cleaner_steps += drain(&mut cleaner, fs)?;
    fs.sync()?;
    let elapsed_ns = clock.now_ns() - run.start_ns;

    let agg_hist = fs.obs().hist("interference.fg_op_ns");
    let mut latencies: Vec<u64> = run.latencies.iter().map(|&(_, ns)| ns).collect();
    for &ns in &latencies {
        agg_hist.record(ns);
    }
    latencies.sort_unstable();
    Ok(ChurnOutcome {
        total_ops: latencies.len() as u64,
        elapsed_ns,
        p50_ns: percentile_ns(&latencies, 50.0),
        p99_ns: percentile_ns(&latencies, 99.0),
        max_ns: *latencies.last().unwrap_or(&0),
        cleaner_steps,
    })
}

#[cfg(test)]
mod tests {
    /// The two percentile helpers, pinned side by side on one sample so
    /// their difference is stated, not discovered.
    #[test]
    fn percentile_helpers_differ_where_stated() {
        let sorted: Vec<u64> = (1..=10).map(|i| i * 10).collect();
        let both = |pct| (super::percentile_ns(&sorted, pct), trace::percentile_ns(&sorted, pct));
        assert_eq!(both(0.0), (10, 10));
        assert_eq!(both(25.0), (30, 30));
        assert_eq!(both(50.0), (60, 50), "round(4.5) = index 5; ceil(5.0) = rank 5 = index 4");
        assert_eq!(both(75.0), (80, 80));
        assert_eq!(both(90.0), (90, 90));
        assert_eq!(both(99.0), (100, 100));
        assert_eq!(both(100.0), (100, 100));
        assert_eq!(both(91.0), (90, 100), "round(8.19) = index 8; ceil(9.1) = rank 10 = index 9");
    }
}
