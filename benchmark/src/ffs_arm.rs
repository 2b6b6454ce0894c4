//! The FFS reference arm: the paper-shape check.
//!
//! On `smallfile` and `office_replay`, a same-generator trace of one
//! sixth the size is replayed on both LFS and the FFS baseline, on the
//! same volume rig, outside the measured phase. Both namespaces must
//! digest equal to the model, and LFS must beat FFS by the paper's
//! margin — think time excluded, so the ratio is the paper's and not
//! the closed loop's.

use std::time::Instant;

use ffs_baseline::{Ffs, FfsConfig};
use obs::Registry;
use sim_disk::Clock;
use trace::{replay, snapshot, ReplayReport, Trace};
use vfs::FileSystem;
use volume::VolumeDisk;

use crate::metrics::{ratio, Value, Values};
use crate::run::{parse_pair, Check, Oracle};
use crate::workload::{Stack, Workload};

const NAMES: [&str; 4] = [
    "ffs-baseline.virt_ops_per_s",
    "ffs-baseline.host_ops_per_s",
    "ffs-baseline.sync_writes",
    "ffs-baseline.lfs_virt_speedup",
];

/// One file system's side of the arm.
struct Side {
    report: ReplayReport,
    host_s: f64,
    tree: Vec<(String, vfs::FileKind, u64, u64)>,
    /// Exact `op.create_ns` + `op.unlink_ns` histogram sums over the
    /// main trace.
    create_unlink_ns: u64,
    sync_writes: u64,
}

fn side<F: FileSystem>(
    fs: &mut F,
    pump: &VolumeDisk,
    registry: &Registry,
    stack: &Stack,
    fill: &Trace,
    main: &Trace,
) -> Side {
    replay(fs, pump, registry, fill, &stack.replay).expect("fill trace is valid");
    let before = registry.snapshot();
    let start = Instant::now();
    let report = replay(fs, pump, registry, main, &stack.replay).expect("main trace is valid");
    let host_s = start.elapsed().as_secs_f64();
    let after = registry.snapshot();
    let hist_sum = |name: &str| {
        let sum = |s: &obs::Snapshot| s.hist(name).map_or(0, |h| h.sum);
        sum(&after) - sum(&before)
    };
    let sync_writes = after
        .counters
        .iter()
        .filter(|(n, _)| n.ends_with(".disk.sync_writes"))
        .map(|(n, v)| v - before.counter(n))
        .sum();
    Side {
        report,
        host_s,
        tree: snapshot(fs).expect("namespace snapshot"),
        create_unlink_ns: hist_sum("op.create_ns") + hist_sum("op.unlink_ns"),
        sync_writes,
    }
}

/// Runs the arm; on the two workloads without one, every metric is
/// `n/a`.
pub fn run(w: Workload, seed: u64, scale: f64) -> (Values, Vec<Check>) {
    // The paper's Figure 3 measures 11–15× on create/delete;
    // `trace_replay` measures 9× on office traffic.
    let floor = match w {
        Workload::Smallfile => 8.0,
        Workload::OfficeReplay => 4.0,
        _ => {
            let na = Value::Na("the FFS arm runs on smallfile and office_replay only");
            return (NAMES.iter().map(|n| (*n, na)).collect(), Vec::new());
        }
    };
    let stack = w.stack();
    let text = w.generate(seed, scale / 6.0);
    let (fill, main) = parse_pair(&text);
    let model = Oracle::of(&text).tree;

    let (mut lfs, pump) = stack.format(&Clock::new());
    let registry = lfs.obs().clone();
    let lfs_side = side(&mut lfs, &pump, &registry, &stack, &fill, &main);

    let clock = Clock::new();
    let dev = stack.device(&clock, None);
    let pump = dev.clone();
    let mut ffs = Ffs::format(dev, FfsConfig::paper(), clock).expect("format FFS");
    if let Some(mips) = stack.cpu_mips {
        ffs.set_cpu_mips(mips);
    }
    let registry = ffs.obs().clone();
    let ffs_side = side(&mut ffs, &pump, &registry, &stack, &fill, &main);

    // Same records on both sides, so a ratio of latency sums is the
    // ratio of mean latencies.
    let total = |s: &Side| -> u64 { s.report.per_tenant.iter().map(|t| t.total_latency_ns).sum() };
    let speedup = match w {
        Workload::Smallfile => ratio(
            ffs_side.create_unlink_ns as f64,
            lfs_side.create_unlink_ns as f64,
        ),
        _ => ratio(total(&ffs_side) as f64, total(&lfs_side) as f64),
    };
    let records = ffs_side.report.total_ops as f64;
    let values = [
        ffs_side.report.ops_per_sec(),
        records / ffs_side.host_s,
        ffs_side.sync_writes as f64,
        speedup,
    ];
    let mut checks = vec![Check::new(
        "ffs_arm_namespaces_equal_model",
        lfs_side.tree == model && ffs_side.tree == model,
        format!(
            "lfs equal: {}, ffs equal: {}, {} paths",
            lfs_side.tree == model,
            ffs_side.tree == model,
            model.len()
        ),
    )];
    // Like the regime checks, the floors are sized for scale 1.
    if scale == 1.0 {
        checks.push(Check::new(
            "ffs_arm_paper_shape",
            speedup >= floor,
            format!("LFS is {speedup:.2}x FFS on mean virtual latency, floor {floor}x"),
        ));
    }
    (
        NAMES.iter().copied().zip(values.map(Value::Num)).collect(),
        checks,
    )
}
