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

use std::sync::Arc;

use engine::{drain, jittered_think_ns, run_schedule, RequestEngine, Schedule};
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{BlockDevice, Clock};
use trace::percentile_ns;
use trace::replay::snapshot;
use vfs::{FileSystem, FsResult};
use volume::VolumeDisk;
use workload::payload;

use crate::modern_lfs;
use crate::trace_replay::snapshot_digest;

/// Spindles in the parity array (one of which dies or limps).
pub const SPINDLES: usize = 4;
/// LFS segment size; the parity chunk is `SEGMENT / (SPINDLES - 1)`,
/// so one segment write covers exactly one data row (64 KB chunks keep
/// a rebuild step's transfer comparable to one foreground op, which is
/// what lets the idle-gated rebuild hide in think-time gaps).
pub const SEGMENT_BYTES: usize = 192 * 1024;
/// Per-spindle size: 16 MB. Logical capacity 48 MB — the run's append
/// volume fits without sustained cleaning, isolating parity costs.
pub const SPINDLE_SECTORS: u64 = 32_768;

/// The production layout of the parity subsystem: aligned metadata +
/// seal-on-flush, the rules that close the parity write hole (see the
/// crash sweep).
pub fn parity_lfs_cfg() -> LfsConfig {
    LfsConfig::paper()
        .with_segment_bytes(SEGMENT_BYTES)
        .with_segment_aligned_metadata()
        .with_seal_on_flush()
}

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

impl RebuildBenchConfig {
    /// The workload of both parity benches: 64 KB slot files, eight per
    /// client, and a mean think time at which 4 clients offer well
    /// under one WREN IV's bandwidth, so idle periods exist for a gated
    /// rebuild. `smoke` shrinks the op counts for CI.
    pub fn parity(smoke: bool, seed: u64) -> Self {
        Self {
            clients: if smoke { 2 } else { 4 },
            ops_per_phase: if smoke { 48 } else { 96 },
            slots_per_client: 8,
            file_size: 64 * 1024,
            think_ns: 700_000_000,
            seed,
        }
    }
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

/// One arm's phase outcomes plus its end-state audit.
pub struct ArmOutcome {
    /// `(phase name, outcome)` in execution order.
    pub phases: Vec<(&'static str, PhaseOutcome)>,
    /// Rebuild steps drained after the measured phases.
    pub drain_steps: u64,
    /// Post-run scrub found no damage.
    pub scrub_clean: bool,
    /// Namespace digest after the run.
    pub digest: u64,
}

impl ArmOutcome {
    /// Outcome of the named phase.
    pub fn phase(&self, name: &str) -> PhaseOutcome {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, o)| o)
            .expect("phase present")
    }
}

/// One measured phase: its name, and what happens to the array first
/// (kill a spindle, swap in a blank, arm a fault; nothing on a control
/// arm).
pub type Phase<'a> = (&'static str, &'a dyn Fn(&VolumeDisk));

/// Runs one arm end to end on a fresh parity array (`volume_rig`'s
/// pair): fill, every phase in order, drain any rebuild, scrub, digest
/// the namespace. Publishes each phase's statistics as
/// `<prefix>.<phase>.*` gauges (the read-portion percentiles only with
/// `read_gauges`) and the audit as `<prefix>.{drain_steps, scrub_clean,
/// namespace_digest}`, so every claim can be recomputed from the JSON
/// artifact alone; the caller snapshots the returned file system.
pub fn run_arm(
    (dev, clock): (VolumeDisk, Arc<Clock>),
    lfs_cfg: LfsConfig,
    cfg: &RebuildBenchConfig,
    phases: &[Phase],
    prefix: &str,
    read_gauges: bool,
) -> (Lfs<VolumeDisk>, ArmOutcome) {
    let pump = dev.clone();
    let (mut fs, registry) = modern_lfs(dev, lfs_cfg, clock);
    fill(&mut fs, &pump, cfg).expect("fill");
    let mut outcomes = Vec::new();
    for (i, (name, before)) in phases.iter().enumerate() {
        before(&pump);
        outcomes.push((*name, run_phase(&mut fs, &pump, cfg, i).expect("measured phase")));
    }
    // Finish an in-flight rebuild unpaced (the measured phases are over)
    // and sync, leaving the volume healthy.
    pump.set_client(None);
    let drain_steps = drain(&mut pump.clone(), &mut fs).expect("drain rebuild");
    fs.sync().expect("sync");
    let scrub_clean = fs.scrub().expect("scrub").is_clean();
    let digest = snapshot_digest(&snapshot(&mut fs).expect("namespace snapshot"));

    let gauge = |key: String, v: u64| registry.gauge(&format!("{prefix}.{key}")).set(v);
    for (name, out) in &outcomes {
        gauge(format!("{name}.ops"), out.ops);
        gauge(format!("{name}.elapsed_ns"), out.elapsed_ns);
        gauge(format!("{name}.p50_ns"), out.p50_ns);
        gauge(format!("{name}.p99_ns"), out.p99_ns);
        if read_gauges {
            gauge(format!("{name}.read_p50_ns"), out.read_p50_ns);
            gauge(format!("{name}.read_p99_ns"), out.read_p99_ns);
        }
        gauge(format!("{name}.rebuild_steps"), out.rebuild_steps);
    }
    gauge("drain_steps".into(), drain_steps);
    gauge("scrub_clean".into(), u64::from(scrub_clean));
    gauge("namespace_digest".into(), digest);
    let outcome = ArmOutcome {
        phases: outcomes,
        drain_steps,
        scrub_clean,
        digest,
    };
    (fs, outcome)
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
fn fill<D: BlockDevice>(
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
/// dispatched by [`run_schedule`] over a closed-loop [`Schedule`]. The
/// volume's rebuild is the loop's maintenance task: while one is in
/// progress it is offered a step before every foreground dispatch plus
/// as many as fit in idle time, its idle gate seeing the live queue
/// depth — exactly the async cleaner's contract. With no rebuild in
/// progress it declines.
///
/// `phase` keys the payload epoch so each phase's overwrites really
/// change bytes (parity must track them), and the final state is a
/// pure function of (config, phase count) — never of timing.
fn run_phase(
    fs: &mut Lfs<VolumeDisk>,
    core: &VolumeDisk,
    cfg: &RebuildBenchConfig,
    phase: usize,
) -> FsResult<PhaseOutcome> {
    assert!(cfg.clients > 0, "at least one client");
    let ops_per_client = cfg.ops_per_phase / cfg.clients;
    let mut latencies: Vec<u64> = Vec::with_capacity(cfg.clients * ops_per_client);
    let mut read_latencies: Vec<u64> = Vec::with_capacity(cfg.clients * ops_per_client);
    let mut rebuild = core.clone();
    let start_ns = core.clock().now_ns();
    let rebuild_steps = run_schedule(
        fs,
        core,
        &mut Schedule::closed_loop(&vec![ops_per_client; cfg.clients], |c, op| {
            jittered_think_ns(cfg.seed, c, (phase << 16) | op, cfg.think_ns)
        }),
        None,
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
            latencies.push(turn.elapsed_ns());
            Ok(())
        },
    )?;

    let elapsed_ns = core.clock().now_ns() - start_ns;
    latencies.sort_unstable();
    read_latencies.sort_unstable();
    Ok(PhaseOutcome {
        ops: latencies.len() as u64,
        elapsed_ns,
        p50_ns: percentile_ns(&latencies, 50.0),
        p99_ns: percentile_ns(&latencies, 99.0),
        read_p50_ns: percentile_ns(&read_latencies, 50.0),
        read_p99_ns: percentile_ns(&read_latencies, 99.0),
        rebuild_steps,
    })
}
