//! Fail-slow tolerance under a limping spindle: hedged reconstruction
//! reads, health-monitor eviction, and hot-spare failover.
//!
//! One closed-loop read+overwrite workload (the degraded-rebuild
//! driver's) runs on an LFS over a 4-spindle parity volume in two
//! measured phases — `healthy`, then `failslow` after one spindle's
//! service times degrade 10x mid-run — across three arms:
//!
//! * `hedged` — hedge deadline armed, health monitor watching, one hot
//!   spare stocked. Late reads race XOR reconstruction, the monitor
//!   evicts the limping spindle, the spare swaps in and rebuilds
//!   online, all with zero operator actions.
//! * `nohedge` — same fault, no hedge, no monitor: every read through
//!   the slow spindle pays the full degraded service time. The
//!   fail-slow literature's baseline.
//! * `control` — hedge and monitor armed but no fault, for the
//!   namespace digest and for vacuity (a healthy array must never be
//!   evicted).
//!
//! The driver here sets up an arm, injects the fault between phases,
//! and audits the end state; the bench binary asserts over the
//! [`ArmResult`]s (and CI recomputes every assertion from
//! `BENCH_fail_slow.json`).

use std::sync::Arc;

use engine::{EngineConfig, RequestEngine};
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{Clock, DiskGeometry, FailSlowProfile, MediaFaultPlan};
use volume::{HealthPolicy, RebuildPolicy, StripedVolume, VolumeConfig, VolumeDisk};

use crate::degraded::{drain_rebuild, fill, run_phase, PhaseOutcome, RebuildBenchConfig};
use crate::trace_replay::snapshot_digest;
use crate::MetricsReport;
use trace::replay::snapshot;

/// Spindles in the array (one of which limps).
pub const SPINDLES: usize = 4;
/// The spindle whose service times degrade mid-run.
pub const SLOW_SPINDLE: usize = 1;
/// Fail-slow service-time multiplier, in percent (1000 = 10x).
pub const MULTIPLIER_PCT: u64 = 1000;
/// Hedge deadline: when a read's predicted latency (queue wait plus
/// service) exceeds this, the volume races a reconstruction against it.
/// Sized several times the WREN IV's worst healthy chunk service
/// (~75 ms) and well under one 10x-degraded service.
pub const HEDGE_DEADLINE_NS: u64 = 150_000_000;
/// Health SLO on service-time inflation, in per-mille of the drive's
/// mechanical model: sustained 2x is a breach. Healthy media sits at
/// exactly 1000 whatever the access pattern; the 10x fault sits at
/// 10000.
pub const SLO_INFLATION_MILLIS: u64 = 2000;
/// LFS segment size; parity chunk is `SEGMENT / (SPINDLES - 1)`.
const SEGMENT_BYTES: usize = 192 * 1024;
/// Per-spindle size: 16 MB (logical 48 MB).
const SPINDLE_SECTORS: u64 = 32_768;
/// Modern-host CPU: the disks are the contended resource.
const CPU_MIPS: f64 = 1000.0;
/// Deterministic workload seed (distinct from the rebuild bench's).
const SEED: u64 = 0x51_0E;

/// Shape of one arm of the bench.
#[derive(Debug, Clone, Copy)]
pub struct ArmSpec {
    /// Label for tables, gauges, and the metrics report.
    pub name: &'static str,
    /// Inject the fail-slow fault between the phases.
    pub fault: bool,
    /// Arm the hedge deadline on every spindle's engine.
    pub hedge: bool,
    /// Arm the health monitor and stock one hot spare.
    pub monitor: bool,
}

/// The three arms, in reporting order.
pub const ARMS: [ArmSpec; 3] = [
    ArmSpec {
        name: "hedged",
        fault: true,
        hedge: true,
        monitor: true,
    },
    ArmSpec {
        name: "nohedge",
        fault: true,
        hedge: false,
        monitor: false,
    },
    ArmSpec {
        name: "control",
        fault: false,
        hedge: true,
        monitor: true,
    },
];

/// Workload parameters shared by every arm.
pub fn bench_cfg(smoke: bool) -> RebuildBenchConfig {
    RebuildBenchConfig {
        clients: if smoke { 2 } else { 4 },
        ops_per_phase: if smoke { 48 } else { 96 },
        slots_per_client: 8,
        file_size: 64 * 1024,
        think_ns: 700_000_000,
        seed: SEED,
    }
}

fn lfs_cfg() -> LfsConfig {
    // The checkpoint interval is pushed past the run length: the
    // paper's 30 s periodic checkpoint would land inside exactly one
    // measured phase (a multi-second foreground stall on whichever arm
    // it hits), and this bench isolates the *read* tail.
    LfsConfig::paper()
        .with_segment_bytes(SEGMENT_BYTES)
        .with_segment_aligned_metadata()
        .with_seal_on_flush()
        .with_checkpoint_secs(600.0)
}

/// The health policy every monitored arm runs: sustained evidence
/// before the drastic step, conservative enough that the control arm
/// never trips it. Eviction needs more breaches than one segment
/// flush contributes (a flush feeds the monitor one write piece per
/// sealed segment, ~a dozen at once), so the verdict must include
/// faulted *reads* — the window between first breach and eviction is
/// exactly the window the hedge protects, and this keeps it open long
/// enough to matter.
pub fn health_policy() -> HealthPolicy {
    HealthPolicy::default()
        .with_slo_inflation_millis(SLO_INFLATION_MILLIS)
        .with_suspect_after(3)
        .with_evict_after(16)
}

fn rig(spec: &ArmSpec) -> (VolumeDisk, Arc<Clock>) {
    let clock = Clock::new();
    let mut cfg = VolumeConfig::parity_segment(SPINDLES, SEGMENT_BYTES);
    if spec.hedge {
        cfg = cfg.with_engine(EngineConfig::default().with_hedge_deadline_ns(HEDGE_DEADLINE_NS));
    }
    let vol = StripedVolume::new(
        DiskGeometry::wren_iv().with_sectors(SPINDLE_SECTORS),
        Arc::clone(&clock),
        cfg,
    );
    let dev = VolumeDisk::new(vol.into_shared());
    if spec.monitor {
        dev.set_health_policy(health_policy());
        dev.set_hot_spares(1);
        // Small rebuild steps: the default 8-row step parks ~0.5 MB of
        // maintenance I/O on every survivor, and a foreground read that
        // lands behind one pays most of it — which would hand the tail
        // the bench just rescued from the slow spindle straight to the
        // rebuild. Two rows keeps the spare filling between ops without
        // owning the read path.
        dev.set_spare_rebuild_policy(RebuildPolicy::default().with_max_step_rows(2));
    }
    (dev, clock)
}

/// Arms the fail-slow schedule on `spindle` with onset now: every
/// request serviced from this virtual instant on pays
/// [`MULTIPLIER_PCT`] of its healthy service time.
pub fn inject_fail_slow(core: &VolumeDisk, spindle: usize, now_ns: u64) {
    core.volume()
        .borrow_mut()
        .spindle_mut(spindle)
        .disk_mut()
        .inject_media_faults(MediaFaultPlan::new(0xFA11).fail_slow(
            FailSlowProfile::at(now_ns).with_multiplier_pct(MULTIPLIER_PCT),
        ));
}

/// Sums a per-spindle engine counter across the array.
pub fn spindle_counter_total(snap: &obs::Snapshot, metric: &str) -> u64 {
    (0..SPINDLES)
        .map(|s| snap.counter(&format!("volume.spindle.{s}.engine.{metric}")))
        .sum()
}

/// One arm's phase outcomes plus its end-state audit.
pub struct ArmResult {
    /// Which arm this is.
    pub spec: ArmSpec,
    /// `(phase name, outcome)` in execution order.
    pub phases: Vec<(&'static str, PhaseOutcome)>,
    /// Rebuild steps drained after the measured phases.
    pub drain_steps: u64,
    /// Post-run scrub found no damage.
    pub scrub_clean: bool,
    /// Namespace digest after the run.
    pub digest: u64,
    /// Hedge races reported overdue across all spindles.
    pub hedges: u64,
    /// Hedge races reconstruction won.
    pub hedge_wins: u64,
    /// `volume.health.evictions` at the end of the run.
    pub evictions: u64,
    /// `volume.health.spares_used` at the end of the run.
    pub spares_used: u64,
    /// `volume.rebuild.runs_completed` at the end of the run.
    pub rebuilds_completed: u64,
    /// `volume.degraded_reads` at the end of the run.
    pub degraded_reads: u64,
}

impl ArmResult {
    /// Outcome of the named phase.
    pub fn phase(&self, name: &str) -> PhaseOutcome {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, o)| o)
            .expect("phase present")
    }
}

/// Publishes a phase's statistics as gauges so CI can recompute every
/// assertion from the JSON artifact alone.
fn publish_phase(registry: &obs::Registry, arm: &str, name: &str, out: &PhaseOutcome) {
    let g = |k: &str, v: u64| registry.gauge(&format!("fail_slow.{arm}.{name}.{k}")).set(v);
    g("ops", out.ops);
    g("elapsed_ns", out.elapsed_ns);
    g("p50_ns", out.p50_ns);
    g("p99_ns", out.p99_ns);
    g("read_p50_ns", out.read_p50_ns);
    g("read_p99_ns", out.read_p99_ns);
    g("rebuild_steps", out.rebuild_steps);
}

/// Runs one arm end to end: fill, healthy phase, (optionally) inject
/// the fail-slow fault, failslow phase with idle-gated rebuild offers,
/// drain any rebuild, scrub, snapshot.
pub fn run_arm(spec: &ArmSpec, smoke: bool, metrics: &mut MetricsReport) -> ArmResult {
    let cfg = bench_cfg(smoke);
    let (dev, clock) = rig(spec);
    let pump = dev.clone();
    let mut fs = Lfs::format(dev, lfs_cfg(), clock).expect("format LFS");
    fs.set_cpu_mips(CPU_MIPS);
    let registry = fs.obs().clone();
    fill(&mut fs, &pump, &cfg).expect("fill");

    let mut phases: Vec<(&'static str, PhaseOutcome)> = Vec::new();
    let healthy = run_phase(&mut fs, &pump, &cfg, 0).expect("healthy phase");
    phases.push(("healthy", healthy));

    if spec.fault {
        let now = pump.clock().now_ns();
        inject_fail_slow(&pump, SLOW_SPINDLE, now);
    }
    // The eviction + hot-spare swap (if any) happens mid-phase, driven
    // purely by the monitor; the driver only offers idle-gated rebuild
    // steps, exactly as the degraded-rebuild bench does.
    let failslow = run_phase(&mut fs, &pump, &cfg, 1).expect("failslow phase");
    phases.push(("failslow", failslow));

    let drain_steps = drain_rebuild(&mut fs, &pump).expect("drain rebuild");
    let scrub = fs.scrub().expect("scrub");
    let snap = snapshot(&mut fs).expect("namespace snapshot");
    let digest = snapshot_digest(&snap);

    for (name, out) in &phases {
        publish_phase(&registry, spec.name, name, out);
    }
    let arm = spec.name;
    registry
        .gauge(&format!("fail_slow.{arm}.drain_steps"))
        .set(drain_steps);
    registry
        .gauge(&format!("fail_slow.{arm}.scrub_clean"))
        .set(u64::from(scrub.is_clean()));
    registry
        .gauge(&format!("fail_slow.{arm}.namespace_digest"))
        .set(digest);
    metrics.add_lfs(&format!("lfs/{arm}/s{SPINDLES}"), &fs);

    let snap = registry.snapshot();
    ArmResult {
        spec: *spec,
        phases,
        drain_steps,
        scrub_clean: scrub.is_clean(),
        digest,
        hedges: spindle_counter_total(&snap, "hedges"),
        hedge_wins: spindle_counter_total(&snap, "hedge_wins"),
        evictions: snap.counter("volume.health.evictions"),
        spares_used: snap.counter("volume.health.spares_used"),
        rebuilds_completed: snap.counter("volume.rebuild.runs_completed"),
        degraded_reads: snap.counter("volume.degraded_reads"),
    }
}
