//! Ablation — cleaner victim-selection policy (§4.3.4).
//!
//! The paper chooses "the segments with the most free space" (greedy).
//! This ablation compares greedy against the cost-benefit policy
//! (weighing segment age, from the later LFS literature — the default
//! here) and an oldest-first baseline, under a sustained hot/cold churn
//! on a small disk where the cleaner must run continuously. Two arms:
//! the disk 40 % full, where any policy finds nearly empty victims and
//! greedy's are the emptiest, and 60 % full, where the slack is smeared
//! over mostly-live cold segments and the pick starts to matter.
//!
//! The quality metric is **write amplification**: live blocks the cleaner
//! copied per new data block written. Lower is better — it is disk
//! bandwidth stolen from the application.

use std::process::ExitCode;
use std::sync::Arc;

use lfs_bench::{print_table, MetricsReport, Row, Verdict};
use lfs_core::{CleanerPolicy, Lfs, LfsConfig, LfsStats};
use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::FileSystem;
use workload::hotcold::{churn, populate, HotColdSpec};
use workload::Stopwatch;

const POLICIES: [CleanerPolicy; 3] = [
    CleanerPolicy::Greedy,
    CleanerPolicy::CostBenefit,
    CleanerPolicy::Oldest,
];

/// The two fill levels — 16 KB files on the 24 MB disk — and whether
/// cost-benefit is claimed to beat greedy there.
const ARMS: [(&str, usize, bool); 2] = [("40% full", 600, false), ("60% full", 900, true)];

/// Live blocks the cleaner copied per new data block written.
fn write_amp(stats: &LfsStats) -> f64 {
    stats.cleaner_blocks_copied as f64 / stats.data_blocks_written.max(1) as f64
}

fn run(
    arm: &str,
    nfiles: usize,
    policy: CleanerPolicy,
    metrics: &mut MetricsReport,
) -> (Row, LfsStats) {
    let clock = Clock::new();
    // A small disk (24 MB) so churn forces continuous cleaning.
    let disk = SimDisk::new(
        DiskGeometry::wren_iv().with_sectors(24 * 2048),
        Arc::clone(&clock),
    );
    let mut cfg = LfsConfig::paper().with_cache_bytes(2 * 1024 * 1024);
    cfg.cleaner.policy = policy;
    let mut fs = Lfs::format(disk, cfg, Arc::clone(&clock)).unwrap();

    // Hot/cold churn: 80% of overwrites hit 20% of the files, giving the
    // age-aware policy something to exploit.
    let rounds = 4_000usize;
    let spec = HotColdSpec::eighty_twenty(nfiles, 16 * 1024, rounds);
    populate(&mut fs, &spec).unwrap();

    let watch = Stopwatch::start(Arc::clone(&clock));
    churn(&mut fs, &spec).unwrap();
    fs.sync().unwrap();
    let secs = watch.elapsed_secs();

    let stats = fs.stats();
    let report = fs.fsck().unwrap();
    assert!(
        report.is_clean(),
        "{policy:?} left an inconsistent FS:\n{report}"
    );
    metrics.add_lfs(&format!("{arm} {policy:?}"), &fs);
    let row = Row::new(
        format!("{arm} {policy:?}"),
        vec![
            format!("{:.3}", write_amp(&stats)),
            stats.segments_cleaned.to_string(),
            stats.cleaner_blocks_copied.to_string(),
            format!("{:.1}", rounds as f64 / secs),
        ],
    );
    (row, stats)
}

fn main() -> ExitCode {
    let mut metrics = MetricsReport::new("abl_cleaner_policy");
    let mut verdict = Verdict::new();
    let mut rows = Vec::new();
    for (arm, nfiles, cost_benefit_wins) in ARMS {
        let [greedy, cost_benefit, _oldest] = POLICIES.map(|policy| {
            verdict.expect_cell("lfs", &format!("{arm} {policy:?}"));
            let (row, stats) = run(arm, nfiles, policy, &mut metrics);
            rows.push(row);
            stats
        });
        verdict.guard(
            greedy.segments_cleaned > 0 && cost_benefit.segments_cleaned > 0,
            format!("{arm}: the cleaner ran under greedy and under cost-benefit"),
        );
        if cost_benefit_wins {
            verdict.claim(
                write_amp(&cost_benefit) < write_amp(&greedy),
                format!(
                    "{arm}: cost-benefit copies fewer blocks per block written than greedy \
                     ({:.3} vs {:.3})",
                    write_amp(&cost_benefit),
                    write_amp(&greedy)
                ),
            );
        }
    }
    print_table(
        "Ablation: cleaner victim-selection policy (hot/cold churn)",
        "fill, policy",
        &["write amp", "segs cleaned", "blocks copied", "overwrites/s"],
        &rows,
    );
    println!(
        "\npaper (SS4.3.4): greedy (most free space) is the paper's choice; \
         cost-benefit is the refinement from the later LFS literature and \
         this repo's default. It pays for its compaction of cold segments \
         once the disk is full enough that greedy has no nearly empty \
         victim left; below that greedy copies less."
    );
    verdict.finish(metrics)
}
