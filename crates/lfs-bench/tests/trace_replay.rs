//! Determinism of the `trace_replay` bench: two identical runs must
//! produce byte-identical metrics JSON (the `BENCH_trace_replay.json`
//! payload) and identical namespace digests. Everything is virtual
//! time, so any divergence is a real nondeterminism bug, not noise.

use std::rc::Rc;
use std::sync::Arc;

use engine::{EngineConfig, EngineCore, EngineDisk};
use lfs_bench::trace_replay::{run_cell, FsKind};
use lfs_bench::MetricsReport;
use lfs_core::{AsyncCleanerPolicy, CleanerTask, Lfs, LfsConfig};
use sim_disk::{Clock, DiskGeometry, SimDisk};
use trace::{by_name, replay, replay_with, snapshot, zipf_churn, GenSpec, ReplayConfig};
use vfs::model::ModelFs;

fn one_run() -> (String, Vec<u64>) {
    let trace = by_name("office", &GenSpec::small(4)).expect("office");
    let mut metrics = MetricsReport::new("trace_replay");
    let mut digests = Vec::new();
    for qos in [false, true] {
        let cell = run_cell(FsKind::Lfs, "office", &trace, 1, qos, &mut metrics);
        digests.push(cell.snapshot_hash);
    }
    (metrics.to_json(), digests)
}

#[test]
fn bench_json_is_byte_identical_across_runs() {
    let (json_a, digests_a) = one_run();
    let (json_b, digests_b) = one_run();
    assert_eq!(json_a, json_b, "two identical bench runs diverged");
    assert_eq!(digests_a, digests_b);

    // The keys CI recomputes the QoS assertions from must be present.
    for key in [
        "trace.t00.weight",
        "trace.t00.contended_bytes",
        "trace.t00.p99_ns",
        "replay.ops_per_sec_milli",
        "replay.snapshot_hash",
        "trace.dep_violations",
    ] {
        assert!(json_a.contains(key), "metrics JSON lost the '{key}' gauge");
    }
}

/// Trace replay hosts a maintenance task: a hot-file churn trace on an
/// LFS whose disk only just holds it (1,024 sectors; at 896 the space
/// rule refuses writes the working set needs), with the async cleaner
/// offered the idle time before every dispatch. The cleaner must step
/// inside the replay, and the result must be consistent and equal to
/// what the model reaches on the same trace.
///
/// This size also catches an async victim that a floor pass
/// cleaned, and the log reused, between two of the run's steps.
#[test]
fn replay_hosts_the_async_cleaner() {
    const SECTORS: u64 = 1024;
    let spec = GenSpec {
        clients: 3,
        ops_per_client: 400,
        working_set: 24,
        max_file_size: 4096,
        seed: 11,
    };
    let trace = zipf_churn(&spec);
    let rig = || {
        let clock = Clock::new();
        let disk = SimDisk::new(DiskGeometry::tiny_test(SECTORS), Arc::clone(&clock));
        let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
        (core, clock)
    };

    let (core, clock) = rig();
    let dev = EngineDisk::new(Rc::clone(&core));
    let mut fs = Lfs::format(dev, LfsConfig::small_test(), clock).expect("format");
    let registry = fs.obs().clone();
    let report = replay_with(
        &mut fs,
        &core,
        &registry,
        &trace,
        &ReplayConfig::default(),
        Some((&mut CleanerTask::new(AsyncCleanerPolicy::default()), None)),
    )
    .expect("valid trace");
    assert_eq!(report.total_ops, trace.records.len() as u64);
    assert_eq!(report.failed_ops, 0);
    assert_eq!(report.dep_violations, 0);
    assert!(report.dep_edges_checked > 0, "vacuous dependency audit");
    let steps = registry.snapshot().counter("cleaner.async.steps");
    assert!(steps > 0, "the cleaner never stepped inside the replay");
    let fsck = fs.fsck().expect("fsck");
    assert!(fsck.is_clean(), "LFS inconsistent after replay:\n{fsck}");

    let (model_core, _) = rig();
    let mut model = ModelFs::new();
    let model_registry = obs::Registry::new();
    let replay_cfg = ReplayConfig::default();
    replay(&mut model, &model_core, &model_registry, &trace, &replay_cfg).expect("model");
    assert_eq!(snapshot(&mut fs).unwrap(), snapshot(&mut model).unwrap());
}
