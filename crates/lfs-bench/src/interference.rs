//! Closed-loop overwrite churn with the cleaner as another engine
//! client.
//!
//! The workload keeps a fixed set of live files (slots) and overwrites
//! them continuously, so dead blocks accumulate in old segments exactly
//! as in the paper's sustained-use scenario (§4.3) and the cleaner must
//! keep reclaiming space for the log to survive. The driver extends the
//! `mt_scaling` closed-loop client model with one extra dispatchable
//! actor: when the file system's cleaner runs in async mode, the loop
//! offers it a [`lfs_core::Lfs::cleaner_step`] whenever its policy asks
//! for one ([`lfs_core::Lfs::cleaner_wants_step`], fed the live engine
//! queue depth so idle-gated policies see foreground pressure), before
//! the next foreground client becomes ready. Cleaner I/O therefore
//! competes in the same request queues as the foreground clients, and
//! per-operation foreground latencies — collected exactly, for precise
//! percentiles — expose the interference.

use engine::{jittered_think_ns, RequestEngine};
use lfs_core::Lfs;
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
    /// Offer the async cleaner steps between foreground dispatches.
    /// Leave false for sync-mode and no-cleaner baselines.
    pub drive_cleaner: bool,
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

    /// Foreground payload bandwidth in MB/s of virtual time.
    pub fn fg_mb_per_sec(&self, file_size: usize) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        (self.total_ops * file_size as u64) as f64 / 1e6 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// Idle time granted to an in-flight cleaner segment read before the
/// claiming step: roughly one policy-default read span (32 KB) at WREN
/// IV sequential bandwidth, plus slack for the occasional seek.
const CLEANER_READ_SERVICE_NS: u64 = 30_000_000;

/// The slot path overwritten by `client` on its `op`-th operation.
fn slot_path(cfg: &ChurnConfig, client: usize, op: usize) -> String {
    let owned = cfg.total_slots.div_ceil(cfg.clients);
    let slot = client + (op % owned) * cfg.clients;
    format!("/d{:02}/s{:04}", client, slot.min(cfg.total_slots - 1))
}

/// Exact percentile of a latency sample (nearest-rank on the sorted
/// sample — deterministic, no histogram bucketing error).
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
/// wants one. Ends by draining any in-progress cleaner run and syncing.
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

    let agg_hist = fs.obs().hist("interference.fg_op_ns");
    let start_ns = clock.now_ns();
    let mut next_ready: Vec<u64> = (0..cfg.clients)
        .map(|c| start_ns + jittered_think_ns(cfg.seed, c, 0, cfg.think_ns))
        .collect();
    let mut done_ops: Vec<usize> = vec![0; cfg.clients];
    let mut cleaner_ready_ns: u64 = start_ns;
    let mut step_busy_ns: u64 = 0;
    let mut fg_busy_ns: u64 = 0;
    let mut latencies: Vec<u64> = Vec::with_capacity(cfg.clients * cfg.ops_per_client);
    let mut cleaner_steps = 0u64;

    let total_ops = cfg.clients * cfg.ops_per_client;
    for _ in 0..total_ops {
        let c = (0..cfg.clients)
            .filter(|&c| done_ops[c] < cfg.ops_per_client)
            .min_by_key(|&c| (next_ready[c], c))
            .expect("a client still has work");

        // The cleaner competes for dispatch: it is offered one step
        // ahead of every foreground operation (so a backlogged
        // foreground cannot starve it), plus as many steps as fit in
        // genuinely idle time before the next client is due. Its policy
        // decides whether to take each offer — idle gating sees the
        // live queue depth. A step that leaves a segment read in flight
        // sets the cleaner's own ready time: it is not offered another
        // step until virtual time has covered the read's service, so
        // the claiming step finds the data complete instead of stalling
        // dispatch synchronously — the read overlaps foreground work,
        // as a real async cleaner's would.
        if cfg.drive_cleaner {
            let mut forced = false;
            loop {
                core.pump()?;
                if !fs.cleaner_wants_step(core.queue_depth()) {
                    break;
                }
                let now = clock.now_ns();
                if now < cleaner_ready_ns {
                    // In-flight read still being serviced: spend idle
                    // time (never foreground time) waiting on it.
                    let target = cleaner_ready_ns.min(next_ready[c]);
                    if target <= now {
                        break;
                    }
                    clock.advance_to_ns(target);
                    continue;
                }
                if forced && now >= next_ready[c] {
                    break;
                }
                core.set_client(Some(cfg.clients));
                let t0 = clock.now_ns();
                fs.cleaner_step()?;
                step_busy_ns += clock.now_ns() - t0;
                cleaner_steps += 1;
                forced = true;
                if fs.cleaner_read_pending() {
                    cleaner_ready_ns = clock.now_ns() + CLEANER_READ_SERVICE_NS;
                }
            }
        }

        clock.advance_to_ns(next_ready[c]);
        core.pump()?;
        core.set_client(Some(c));
        let op = done_ops[c];
        let before_ns = clock.now_ns();
        // Overwrite in place: truncate kills every old block (they become
        // cleanable garbage), the rewrite appends fresh ones at the head.
        let path = slot_path(cfg, c, op);
        let ino = fs.lookup(&path)?;
        fs.truncate(ino, 0)?;
        let mut written = 0;
        while written < cfg.file_size {
            written += fs.write_at(ino, written as u64, &payloads[c][written..])?;
        }
        let latency_ns = clock.now_ns() - before_ns;
        fg_busy_ns += latency_ns;
        agg_hist.record(latency_ns);
        latencies.push(latency_ns);
        done_ops[c] += 1;
        next_ready[c] = clock.now_ns() + jittered_think_ns(cfg.seed, c, op + 1, cfg.think_ns);
    }

    // Close the measurement: finish the cleaner's in-progress run (so
    // its relocations are committed, not parked), then drain every
    // queued write.
    core.set_client(None);
    if cfg.drive_cleaner {
        let mut guard = 0u64;
        while fs.cleaner_run_active() {
            fs.cleaner_step()?;
            cleaner_steps += 1;
            guard += 1;
            assert!(guard < 1_000_000, "cleaner run failed to terminate");
        }
    }
    fs.sync()?;
    let elapsed_ns = clock.now_ns() - start_ns;
    if std::env::var("CHURN_DEBUG").is_ok() {
        eprintln!(
            "churn debug: elapsed {:.1}s fg_busy {:.1}s step_busy {:.1}s",
            elapsed_ns as f64 / 1e9,
            fg_busy_ns as f64 / 1e9,
            step_busy_ns as f64 / 1e9
        );
    }

    latencies.sort_unstable();
    Ok(ChurnOutcome {
        total_ops: total_ops as u64,
        elapsed_ns,
        p50_ns: percentile_ns(&latencies, 50.0),
        p99_ns: percentile_ns(&latencies, 99.0),
        max_ns: *latencies.last().unwrap_or(&0),
        cleaner_steps,
    })
}
