//! Figure 5 — segment cleaning rate vs segment utilization (§5.3).
//!
//! "The varying utilization was generated by creating many one-kilobyte
//! files, deleting some fixed percentage of them, and measuring the rate
//! at which LFS could clean the fragmented segments." The x-axis is the
//! utilization of the segments *being cleaned* (not overall disk
//! utilization); the y-axis is KB/sec of clean segments generated.
//!
//! Expected shape: monotone decreasing — empty segments clean at enormous
//! rates (no data to copy), highly utilized segments yield almost no free
//! space per unit of copying work.

use std::sync::Arc;

use lfs_bench::{fmt_rate, lfs_rig, print_table, MetricsReport, Row};
use lfs_core::{CleanerPolicy, LfsConfig};
use sim_disk::BlockDevice;
use workload::utilization::{populate, UtilizationSpec};
use workload::Stopwatch;

/// Builds a disk whose segments all have utilization ~`keep_fraction`,
/// then measures the cleaning rate.
fn measure(keep_tenths: u32, metrics: &mut MetricsReport) -> (f64, f64) {
    let mut cfg = LfsConfig::paper();
    // Plenty of inodes for ~90k one-kilobyte files.
    cfg.max_inodes = 131_072;
    // The fill never reaches the cleaning floor (`cleaner.floor_passes`
    // is 0 in every cell): all cleaning is the measured loop's.
    // The paper's figure, the paper's policy (§4.3.4), whatever the
    // default is.
    cfg.cleaner.policy = CleanerPolicy::Greedy;
    let (mut fs, clock) = lfs_rig(cfg);

    // Fill most of the disk with 1 KB files (each occupies one 4 KB
    // block; ~52k files ≈ 210 MB of blocks on the ~300 MB disk), then
    // delete a fixed fraction uniformly across creation order so every
    // segment ends up at roughly the same utilization.
    let spec = UtilizationSpec::new(52_000, keep_tenths);
    populate(&mut fs, &spec).unwrap();

    // Average utilization of the cleanable segments.
    let usage = fs.usage_table();
    let dirty: Vec<_> = usage
        .segments_in_state(lfs_core::layout::usage_block::SegState::Dirty)
        .into_iter()
        .collect();
    let mean_util: f64 =
        dirty.iter().map(|&s| usage.utilization(s)).sum::<f64>() / dirty.len() as f64;

    // Measure: clean about 40 victims, eight more clean segments asked
    // of `clean_until` at a time, tracking virtual time and the *net*
    // clean space generated — cleaning consumes new segments to rewrite
    // the live data it copies, so a nearly full segment yields almost
    // nothing. Each of its rounds commits with a checkpoint, so the
    // relocated data is written out: the paper's rate includes the
    // copying cost, not just the reads.
    let seg_bytes = fs.usage_table().seg_bytes();
    let clean_before = fs.usage_table().clean_count() as i64;
    let first = fs.stats().segments_cleaned;
    let watch = Stopwatch::start(Arc::clone(&clock));
    while fs.stats().segments_cleaned - first < 40 {
        let victims = fs.stats().segments_cleaned;
        let clean = fs.usage_table().clean_count();
        fs.clean_until(clean + 8).unwrap();
        if fs.stats().segments_cleaned == victims {
            break;
        }
    }
    fs.device_mut().flush().unwrap();
    let secs = watch.elapsed_secs();
    let net_segments = (fs.usage_table().clean_count() as i64 - clean_before).max(0);
    let rate_kb = (net_segments as u64 * seg_bytes) as f64 / 1024.0 / secs;
    metrics.add_lfs(&format!("keep_{keep_tenths}_of_10"), &fs);
    (mean_util, rate_kb)
}

fn main() {
    let mut rows = Vec::new();
    let mut metrics = MetricsReport::new("fig5_cleaning_rate");
    for keep_tenths in [0u32, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
        let (util, rate) = measure(keep_tenths, &mut metrics);
        rows.push(Row::new(format!("{:.2}", util), vec![fmt_rate(rate)]));
        eprintln!("measured keep={keep_tenths}/10: util {util:.2} -> {rate:.0} KB/s");
    }
    print_table(
        "Figure 5: cleaning rate vs segment utilization",
        "utilization",
        &["clean KB/sec"],
        &rows,
    );
    metrics.emit();
}
