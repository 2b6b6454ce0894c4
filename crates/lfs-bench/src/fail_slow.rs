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
//! and audits the end state; the bench binary judges the
//! [`ArmResult`]s (every claim is also recomputable from
//! `BENCH_fail_slow.json`).

use std::sync::Arc;

use engine::{EngineConfig, RequestEngine};
use sim_disk::{Clock, FailSlowProfile, MediaFaultPlan};
use volume::{HealthPolicy, RebuildPolicy, VolumeConfig, VolumeDisk};

use crate::degraded::{
    parity_lfs_cfg, ArmOutcome, RebuildBenchConfig, SEGMENT_BYTES, SPINDLES, SPINDLE_SECTORS,
};
use crate::{volume_rig, MetricsReport};

/// The spindle whose service times degrade mid-run.
pub const SLOW_SPINDLE: usize = 1;
/// Fail-slow service-time multiplier, in percent (1000 = 10x).
pub const MULTIPLIER_PCT: u64 = 1000;
/// Hedge deadline: when a read's predicted latency (queue wait plus
/// service) exceeds this, the volume races a reconstruction against it.
/// Sized several times the WREN IV's worst healthy chunk service
/// (~75 ms) and well under one 10x-degraded service.
pub const HEDGE_DEADLINE_NS: u64 = 150_000_000;
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
    RebuildBenchConfig::parity(smoke, SEED)
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
    HealthPolicy::default().with_evict_after(16)
}

fn rig(spec: &ArmSpec) -> (VolumeDisk, Arc<Clock>) {
    let mut cfg = VolumeConfig::parity_segment(SPINDLES, SEGMENT_BYTES);
    if spec.hedge {
        cfg = cfg.with_engine(EngineConfig::default().with_hedge_deadline_ns(HEDGE_DEADLINE_NS));
    }
    let (dev, clock) = volume_rig(cfg, SPINDLE_SECTORS, None);
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

/// One arm's outcome plus the registry it ended with.
pub struct ArmResult {
    /// Which arm this is.
    pub spec: ArmSpec,
    /// Phase outcomes and the end-state audit.
    pub run: ArmOutcome,
    /// The registry as the report recorded it.
    pub end: obs::Snapshot,
}

/// Runs one arm end to end: fill, healthy phase, (optionally) inject
/// the fail-slow fault, failslow phase with idle-gated rebuild offers,
/// drain any rebuild, scrub, snapshot.
pub fn run_arm(spec: &ArmSpec, smoke: bool, metrics: &mut MetricsReport) -> ArmResult {
    // The eviction + hot-spare swap (if any) happens mid-phase, driven
    // purely by the monitor; the driver only offers idle-gated rebuild
    // steps, exactly as the degraded-rebuild bench does.
    let inject = |dev: &VolumeDisk| {
        if spec.fault {
            inject_fail_slow(dev, SLOW_SPINDLE, dev.clock().now_ns());
        }
    };
    // The checkpoint interval is pushed past the run length: the
    // paper's 30 s periodic checkpoint would land inside exactly one
    // measured phase (a multi-second foreground stall on whichever arm
    // it hits), and this bench isolates the *read* tail.
    let (fs, run) = crate::degraded::run_arm(
        rig(spec),
        parity_lfs_cfg().with_checkpoint_secs(600.0),
        &bench_cfg(smoke),
        &[("healthy", &|_| {}), ("failslow", &inject)],
        &format!("fail_slow.{}", spec.name),
        true,
    );
    metrics.add_lfs(&format!("lfs/{}/s{SPINDLES}", spec.name), &fs);
    ArmResult {
        spec: *spec,
        run,
        end: fs.obs().snapshot(),
    }
}
