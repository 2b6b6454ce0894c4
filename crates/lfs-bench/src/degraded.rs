//! Foreground service through a spindle death and online rebuild.
//!
//! The driver runs one closed-loop read+overwrite workload on an LFS
//! over a parity volume, in three measured phases on the *same* file
//! system instance: healthy, degraded (one spindle killed mid-run),
//! and rebuilding (a blank replacement installed, the idle-gated
//! rebuild offered steps between foreground dispatches exactly as the
//! async cleaner is). Per-operation latencies are collected exactly,
//! so phase percentiles carry no bucketing error, and everything runs
//! on the shared virtual clock — output is byte-identical across runs.
//!
//! Each operation reads one slot file (a degraded read fans out to
//! every surviving spindle and XOR-reconstructs) and overwrites
//! another (a full-segment log write computes parity from the buffer —
//! the no-read fast path). Slots are partitioned per client, so the
//! final namespace is independent of dispatch interleaving: a faulted
//! run and a never-faulted control run must produce byte-identical
//! namespace digests, which is the bench's end-to-end correctness
//! assertion.

use engine::{drain, jittered_think_ns, run_closed_loop, RequestEngine};
use lfs_core::Lfs;
use sim_disk::BlockDevice;
use vfs::{FileSystem, FsResult};
use volume::VolumeDisk;
use workload::payload;

use crate::interference::percentile_ns;

/// Parameters shared by every phase of one run.
#[derive(Debug, Clone)]
pub struct RebuildBenchConfig {
    /// Closed-loop foreground clients.
    pub clients: usize,
    /// Measured operations per phase (split across clients).
    pub ops_per_phase: usize,
    /// Slot files per client.
    pub slots_per_client: usize,
    /// Size of every slot file in bytes.
    pub file_size: usize,
    /// Mean think time between a client's operations (±25% jitter).
    pub think_ns: u64,
    /// Seed for the deterministic jitter and payloads.
    pub seed: u64,
}

/// Exact latency statistics of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseOutcome {
    /// Foreground operations completed.
    pub ops: u64,
    /// Virtual time the phase spanned, in nanoseconds.
    pub elapsed_ns: u64,
    /// Exact median foreground operation latency.
    pub p50_ns: u64,
    /// Exact 99th-percentile foreground operation latency.
    pub p99_ns: u64,
    /// Exact median of the operations' *read* portion alone.
    pub read_p50_ns: u64,
    /// Exact 99th percentile of the operations' *read* portion alone —
    /// the half of the op a hedged reconstruction can shield from a
    /// fail-slow spindle (writes land on every spindle and cannot be
    /// served from the survivors).
    pub read_p99_ns: u64,
    /// Rebuild steps the driver's offers landed during the phase.
    pub rebuild_steps: u64,
}

impl PhaseOutcome {
    /// Foreground throughput in operations per second of virtual time.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.ops as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

fn slot_path(client: usize, slot: usize) -> String {
    format!("/d{client:02}/s{slot:04}")
}

/// The slot content after `client` overwrites `slot` on global op
/// counter `epoch` — a pure function of the keys, so the faulted and
/// control runs converge to the same bytes regardless of interleaving.
fn slot_payload(cfg: &RebuildBenchConfig, client: usize, epoch: usize) -> Vec<u8> {
    payload(
        cfg.seed ^ ((client as u64) << 8) ^ ((epoch as u64) << 20),
        cfg.file_size,
    )
}

/// Creates every slot (system-attributed) and syncs, so measurement
/// starts from a durable, fully populated namespace.
pub fn fill<D: BlockDevice>(
    fs: &mut Lfs<D>,
    core: &impl RequestEngine,
    cfg: &RebuildBenchConfig,
) -> FsResult<()> {
    core.set_client(None);
    core.register_clients(cfg.clients);
    for c in 0..cfg.clients {
        fs.mkdir(&format!("/d{c:02}"))?;
        for s in 0..cfg.slots_per_client {
            fs.write_file(&slot_path(c, s), &slot_payload(cfg, c, s))?;
        }
    }
    fs.sync()
}

/// Runs one measured phase: `ops_per_phase` read+overwrite operations
/// dispatched by [`run_closed_loop`]. The volume's rebuild is the
/// loop's maintenance task: while one is in progress it is offered a
/// step before every foreground dispatch plus as many as fit in idle
/// time, its idle gate seeing the live queue depth — exactly the async
/// cleaner's contract. With no rebuild in progress it declines.
///
/// `phase` keys the payload epoch so each phase's overwrites really
/// change bytes (parity must track them), and the final state is a
/// pure function of (config, phase count) — never of timing.
pub fn run_phase(
    fs: &mut Lfs<VolumeDisk>,
    core: &VolumeDisk,
    cfg: &RebuildBenchConfig,
    phase: usize,
) -> FsResult<PhaseOutcome> {
    assert!(cfg.clients > 0, "at least one client");
    let ops_per_client = cfg.ops_per_phase / cfg.clients;
    let mut read_latencies: Vec<u64> = Vec::with_capacity(cfg.clients * ops_per_client);
    let mut rebuild = core.clone();
    let run = run_closed_loop(
        fs,
        core,
        &vec![ops_per_client; cfg.clients],
        |c, op| jittered_think_ns(cfg.seed, c, (phase << 16) | op, cfg.think_ns),
        Some((&mut rebuild, None)),
        |fs, turn| {
            let (c, op) = (turn.client, turn.op);
            // Cold reads: without this the paper-sized cache absorbs the
            // whole live set and no phase would ever touch the media's
            // read path — the very path whose degradation is measured.
            fs.drop_caches()?;
            turn.restart();
            // Read one slot end-to-end (degraded: XOR reconstruction)...
            let read_slot = (op + 1) % cfg.slots_per_client;
            let data = fs.read_file(&slot_path(c, read_slot))?;
            read_latencies.push(turn.elapsed_ns());
            assert_eq!(data.len(), cfg.file_size, "slot changed size");
            // ...then overwrite another (parity from the write buffer).
            let write_slot = op % cfg.slots_per_client;
            let epoch = cfg.slots_per_client + phase * ops_per_client + op;
            let body = slot_payload(cfg, c, epoch);
            let ino = fs.lookup(&slot_path(c, write_slot))?;
            fs.truncate(ino, 0)?;
            let mut written = 0;
            while written < cfg.file_size {
                written += fs.write_at(ino, written as u64, &body[written..])?;
            }
            core.set_client(None);
            Ok(())
        },
    )?;

    let elapsed_ns = core.clock().now_ns() - run.start_ns;
    let mut latencies: Vec<u64> = run.latencies.iter().map(|&(_, ns)| ns).collect();
    latencies.sort_unstable();
    read_latencies.sort_unstable();
    Ok(PhaseOutcome {
        ops: latencies.len() as u64,
        elapsed_ns,
        p50_ns: percentile_ns(&latencies, 50.0),
        p99_ns: percentile_ns(&latencies, 99.0),
        read_p50_ns: percentile_ns(&read_latencies, 50.0),
        read_p99_ns: percentile_ns(&read_latencies, 99.0),
        rebuild_steps: run.maintenance_steps,
    })
}

/// Drains an in-flight rebuild to completion (no idle gating — the
/// measured phase is over) and syncs, leaving the volume healthy.
pub fn drain_rebuild(fs: &mut Lfs<VolumeDisk>, core: &VolumeDisk) -> FsResult<u64> {
    core.set_client(None);
    let steps = drain(&mut core.clone(), fs)?;
    fs.sync()?;
    Ok(steps)
}
