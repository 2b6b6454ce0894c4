//! Determinism of the recovery-scaling bench: everything runs on the
//! shared virtual clock, so two sweeps over the same spec must measure
//! identical mount times and render byte-identical metrics JSON — the
//! property `bench-baseline/SHA256SUMS` relies on when it pins
//! `BENCH_recovery_scaling.json`.

use lfs_bench::recovery_scaling::{build_lfs_crash, publish_cell, recover_lfs, WorkloadSpec};
use lfs_bench::MetricsReport;

/// One miniature sweep (the bench's own cell publication over a
/// CI-friendly spec), rendered to the JSON document `emit` would write.
fn sweep_json() -> String {
    let spec = WorkloadSpec {
        dirs: 2,
        files_per_dir: 4,
        file_bytes: 64 * 1024,
    };
    let registry = obs::Registry::new();
    for n in [1usize, 2] {
        let (images, at_crash) = build_lfs_crash(n, &spec);
        let seq = recover_lfs(n, images.clone(), 1);
        let par = recover_lfs(n, images, 0);
        assert_eq!(seq.files, at_crash, "s{n}: sequential recovery lost files");
        assert_eq!(seq.files, par.files, "s{n}: parallel recovery diverged");
        publish_cell(&registry, "lfs", "large", n, &seq, &par);
    }
    let mut metrics = MetricsReport::new("recovery_scaling");
    metrics.add_registry("scaling", 0, &registry);
    metrics.to_json()
}

#[test]
fn recovery_scaling_metrics_json_is_byte_identical_across_runs() {
    let a = sweep_json();
    let b = sweep_json();
    assert_eq!(a, b, "two identical sweeps rendered different JSON");
    // Every key of a cell's schema must be present.
    for key in [
        "recovery_scaling.lfs.large.s1.seq_ns",
        "recovery_scaling.lfs.large.s2.par_ns",
        "recovery_scaling.lfs.large.s2.partitions",
        "recovery_scaling.lfs.large.s2.parallel_reads",
        "recovery_scaling.lfs.large.s2.prefetched_blocks",
    ] {
        assert!(a.contains(key), "metrics JSON lost the {key} key");
    }
}
