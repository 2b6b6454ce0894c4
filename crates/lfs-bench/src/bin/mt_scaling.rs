//! Multi-client scaling — the §3 concurrency argument under load.
//!
//! N closed-loop clients create small files against LFS and FFS through
//! the request engine, sweeping client count. The run is *strong
//! scaling*: a fixed total file count is split across clients,
//! so every cell performs identical work and throughput differences
//! measure concurrency alone.
//!
//! Expected shape: LFS throughput rises with client count until the
//! disk's sequential bandwidth saturates — concurrent small writes batch
//! into ever-larger log transfers. FFS stays flat: every create costs
//! synchronous seeks, so one client is already enough to saturate the
//! seek rate, and more clients only deepen the queue.
//!
//! `--smoke` runs a reduced sweep (for CI): clients {1, 8}, a quarter
//! of the files.

use std::process::ExitCode;
use std::sync::Arc;

use engine::{run_small_file_create, EngineConfig, EngineDisk};
use ffs_baseline::FfsConfig;
use lfs_bench::cache_mix::{run_mix_cell, run_scan_cell, MixCellResult};
use lfs_bench::{
    engine_rig, fmt_rate, modern_ffs, modern_lfs, print_table, MetricsReport, Row, Verdict,
};
use lfs_core::LfsConfig;
use mem_mgr::CachePolicy;
use sim_disk::Clock;
use vfs::FileSystem;

/// Size of each created file.
const FILE_SIZE: usize = 1024;
/// Mean per-client think time between operations.
const THINK_NS: u64 = 600_000;
/// The engine's one pick order, as cell labels and table titles name it
/// (pinned in `bench-baseline/`).
const SCHED: &str = "fcfs";

struct Cell {
    clients: usize,
    throughput: f64,
    fairness_millis: u64,
}

/// One cell: `clients` closed-loop clients create `total_files` files on
/// the file system `format` builds over a fresh engine; `record`
/// snapshots it. The two are the file-system type's ends of the cell —
/// LFS and FFS share their inherent methods, not a trait.
fn run_cell<F: FileSystem>(
    label: &str,
    clients: usize,
    total_files: usize,
    verdict: &mut Verdict,
    format: impl FnOnce(EngineDisk, Arc<Clock>) -> (F, obs::Registry),
    record: impl FnOnce(&mut F),
) -> Cell {
    let (core, dev, clock) = engine_rig(EngineConfig::default());
    let (mut fs, registry) = format(dev, clock);
    let mcfg = engine::MultiClientConfig::new(clients, total_files / clients, FILE_SIZE)
        .with_think_ns(THINK_NS);
    let report = run_small_file_create(&mut fs, &core, &registry, &mcfg).expect("run");
    record(&mut fs);

    // The engine really queued, scheduled and measured this cell.
    let snap = registry.snapshot();
    verdict.guard(
        snap.gauge("engine.queue_depth_max") >= 1 && snap.counter("engine.sched_decisions") >= 1,
        format!("{label}: the engine never queued or scheduled a request"),
    );
    verdict.guard(
        snap.hist("engine.op_ns").is_some(),
        format!("{label}: no engine.op_ns histogram"),
    );
    if clients == 8 {
        let per_client = snap
            .hists
            .iter()
            .filter(|(name, _)| name.starts_with("engine.c00"))
            .count();
        verdict.guard(
            per_client == 8,
            format!("{label}: {per_client} per-client latency histograms, expected 8"),
        );
    }
    Cell {
        clients,
        throughput: report.throughput_ops_per_sec(),
        fairness_millis: report.fairness_millis(),
    }
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (client_counts, total_files): (&[usize], usize) = if smoke {
        (&[1, 8], 512)
    } else {
        (&[1, 2, 4, 8, 16, 32, 64, 128, 256], 2048)
    };

    let mut metrics = MetricsReport::new("mt_scaling");
    let mut verdict = Verdict::new();
    for fs in ["lfs", "ffs"] {
        for &n in client_counts {
            verdict.expect_cell(fs, &format!("{fs}/{SCHED}/c{n:03}"));
        }
    }
    let mut lfs_cells = Vec::new();
    let mut ffs_cells = Vec::new();
    for &n in client_counts {
        let label = format!("lfs/{SCHED}/c{n:03}");
        let cfg = LfsConfig::paper()
            .with_block_size(1024)
            .with_cache_bytes(1 << 20);
        lfs_cells.push(run_cell(
            &label,
            n,
            total_files,
            &mut verdict,
            |dev, clock| modern_lfs(dev, cfg, clock),
            |fs| metrics.add_clean_lfs(&label, fs),
        ));
    }
    for &n in client_counts {
        let label = format!("ffs/{SCHED}/c{n:03}");
        ffs_cells.push(run_cell(
            &label,
            n,
            total_files,
            &mut verdict,
            |dev, clock| modern_ffs(dev, FfsConfig::paper(), clock),
            |fs| metrics.add_clean_ffs(&label, fs),
        ));
    }

    let headers: Vec<String> = client_counts.iter().map(|n| format!("{n} cl")).collect();
    print_table(
        &format!(
            "Multi-client small-file create, {SCHED} scheduler ({total_files} files total, files/sec)"
        ),
        "fs",
        &headers,
        &[
            Row::of("LFS", &lfs_cells, |c| fmt_rate(c.throughput)),
            Row::of("FFS", &ffs_cells, |c| fmt_rate(c.throughput)),
            Row::of("LFS fairness", &lfs_cells, |c| c.fairness_millis.to_string()),
        ],
    );

    let lfs_1 = lfs_cells.first().expect("at least one cell");
    let lfs_peak = lfs_cells
        .iter()
        .map(|c| c.throughput)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "  {SCHED} summary: LFS 1-client {:.0}/s, peak {:.0}/s ({:.1}x); FFS 1-client {:.0}/s, {}-client {:.0}/s",
        lfs_1.throughput,
        lfs_peak,
        lfs_peak / lfs_1.throughput,
        ffs_cells.first().expect("cells").throughput,
        ffs_cells.last().expect("cells").clients,
        ffs_cells.last().expect("cells").throughput,
    );

    run_cache_arm(smoke, &mut metrics, &mut verdict);
    verdict.finish(metrics)
}

/// The memory-manager arm: overwrite+read mix cells sweeping client
/// count × cache policy × memory budget, plus the streaming-scan
/// resistance cells. The 256-client pair and the scan/solo ratio carry
/// the arm's two claims.
fn run_cache_arm(smoke: bool, metrics: &mut MetricsReport, verdict: &mut Verdict) {
    let (mix_clients, budgets): (&[usize], &[usize]) = if smoke {
        (&[256], &[1 << 20])
    } else {
        (&[64, 256, 1024], &[512 * 1024, 1 << 20])
    };
    let policies = [CachePolicy::SharedLru, CachePolicy::Adaptive];
    for policy in policies.map(CachePolicy::as_str) {
        for &budget in budgets {
            for &n in mix_clients {
                verdict.expect_cell("lfs", &format!("lfs/mix/{policy}/m{}k/c{n:04}", budget / 1024));
            }
        }
        for variant in ["scan", "solo"] {
            verdict.expect_cell("lfs", &format!("lfs/scan/{policy}/{variant}"));
        }
    }

    for &budget in budgets {
        let mut cells: Vec<(CachePolicy, Vec<MixCellResult>)> = Vec::new();
        for &policy in &policies {
            let row: Vec<MixCellResult> = mix_clients
                .iter()
                .map(|&n| run_mix_cell(policy, n, budget, metrics, verdict))
                .collect();
            cells.push((policy, row));
        }

        let headers: Vec<String> = mix_clients.iter().map(|n| format!("{n} cl")).collect();
        let mut rows = Vec::new();
        for (policy, row) in &cells {
            rows.push(Row::of(format!("{} files/s", policy.as_str()), row, |c| {
                fmt_rate(c.ops_per_sec)
            }));
            rows.push(Row::of(format!("{} hit rate", policy.as_str()), row, |c| {
                format!("{:.1}%", c.hit_rate_millis as f64 / 10.0)
            }));
        }
        rows.push(Row::of("adaptive write target", &cells[1].1, |c| {
            format!("{} blk", c.write_target_blocks)
        }));
        print_table(
            &format!(
                "Overwrite+read mix, shared-LRU vs adaptive cache ({} KB budget)",
                budget / 1024
            ),
            "policy",
            &headers,
            &rows,
        );

        // The acceptance pair: at 256 clients on the 1 MB budget the
        // adaptive split must beat the shared LRU on both throughput
        // and read hit rate.
        if budget == 1 << 20 {
            let at = mix_clients
                .iter()
                .position(|&n| n == 256)
                .expect("256-client cell in sweep");
            let shared = &cells[0].1[at];
            let adaptive = &cells[1].1[at];
            verdict.claim(
                adaptive.ops_per_sec > shared.ops_per_sec,
                format!(
                    "adaptive cache lost on throughput at 256 clients: {:.0}/s vs {:.0}/s",
                    adaptive.ops_per_sec, shared.ops_per_sec
                ),
            );
            verdict.claim(
                adaptive.hit_rate_millis > shared.hit_rate_millis,
                format!(
                    "adaptive cache lost on read hit rate at 256 clients: {} vs {} millis",
                    adaptive.hit_rate_millis, shared.hit_rate_millis
                ),
            );
            println!(
                "  256-client acceptance: adaptive {:.0}/s @ {:.1}% beats shared {:.0}/s @ {:.1}%",
                adaptive.ops_per_sec,
                adaptive.hit_rate_millis as f64 / 10.0,
                shared.ops_per_sec,
                shared.hit_rate_millis as f64 / 10.0
            );
        }
    }

    // Scan resistance: victims' hit rate with a streaming scanner vs
    // without (solo), per policy.
    let mut scan_rows = Vec::new();
    let mut adaptive_ratio_millis = 0u64;
    for &policy in &policies {
        let solo = run_scan_cell(policy, false, metrics, verdict);
        let scan = run_scan_cell(policy, true, metrics, verdict);
        let ratio_millis = scan.victim_hit_rate_millis * 1000 / solo.victim_hit_rate_millis.max(1);
        if policy == CachePolicy::Adaptive {
            adaptive_ratio_millis = ratio_millis;
        }
        scan_rows.push(Row::new(
            policy.as_str(),
            vec![
                format!("{:.1}%", solo.victim_hit_rate_millis as f64 / 10.0),
                format!("{:.1}%", scan.victim_hit_rate_millis as f64 / 10.0),
                format!("{:.1}%", ratio_millis as f64 / 10.0),
            ],
        ));
    }
    print_table(
        "Streaming-scan resistance: victim hit rate with/without a scanner",
        "policy",
        &["solo", "with scan", "retained"],
        &scan_rows,
    );
    verdict.claim(
        adaptive_ratio_millis >= 700,
        format!(
            "scan resistance failed: adaptive victims retained only {:.1}% of their solo hit rate",
            adaptive_ratio_millis as f64 / 10.0
        ),
    );
}
