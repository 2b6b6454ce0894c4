//! Determinism of the `mt_scaling` cache arm: two identical runs of the
//! mix and scan cells must produce byte-identical metrics JSON, and the
//! gauges `mt_scaling`'s adaptive-vs-shared and scan-resistance claims
//! are read from must be present. Everything is virtual time, so any
//! divergence is a real nondeterminism bug, not noise.

use lfs_bench::cache_mix::{run_mix_cell, run_scan_cell};
use lfs_bench::{MetricsReport, Verdict};
use mem_mgr::CachePolicy;

fn one_run() -> (String, Vec<u64>) {
    let mut metrics = MetricsReport::new("mt_scaling");
    let mut digests = Vec::new();
    let verdict = &mut Verdict::new();
    for policy in [CachePolicy::SharedLru, CachePolicy::Adaptive] {
        let mix = run_mix_cell(policy, 16, 1 << 20, &mut metrics, verdict);
        digests.push(mix.hit_rate_millis);
        digests.push((mix.ops_per_sec * 1000.0) as u64);
        let scan = run_scan_cell(policy, true, &mut metrics, verdict);
        digests.push(scan.victim_hit_rate_millis);
    }
    (metrics.to_json(), digests)
}

#[test]
fn cache_cells_are_byte_identical_across_runs() {
    let (json_a, digests_a) = one_run();
    let (json_b, digests_b) = one_run();
    assert_eq!(json_a, json_b, "two identical cache-cell runs diverged");
    assert_eq!(digests_a, digests_b);

    // The labels and keys the claims are read from.
    for needle in [
        "lfs/mix/shared/m1024k/c0016",
        "lfs/mix/adaptive/m1024k/c0016",
        "lfs/scan/shared/scan",
        "lfs/scan/adaptive/scan",
        "mix.ops_per_sec_milli",
        "mix.read_hit_rate_millis",
        "scan.victim_hit_rate_millis",
        "cache.ghost_hits",
        "cache.write_target_blocks",
        "cache.client.000.hits",
    ] {
        assert!(
            json_a.contains(needle),
            "metrics JSON lost '{needle}'"
        );
    }
}
