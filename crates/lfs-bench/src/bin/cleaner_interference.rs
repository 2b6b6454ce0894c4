//! Cleaner interference — what does cleaning cost the foreground?
//!
//! The paper's §4 write-cost discussion prices cleaning in *bandwidth*:
//! every byte the cleaner reads and copies forward is a byte the log
//! cannot spend on new data. This bench measures the other half of the
//! price — *latency*: the cleaner's victim reads sit in the same
//! device queues as foreground requests, so an aggressive cleaner
//! inflates foreground tail latency even when bandwidth is plentiful.
//!
//! The workload is sustained overwrite churn (a fixed live set,
//! continuously overwritten) with closed-loop clients, under four
//! cleaning modes:
//!
//! * `baseline` — a disk large enough that cleaning never activates:
//!   the no-cleaner reference (asserted: zero segments cleaned).
//! * `sync` — no cleaner task hosted: cleaning runs at the floor,
//!   inside whichever foreground operation crosses it.
//! * `aggr` — a hosted `CleanerTask` stepped whenever its watermarks
//!   ask, regardless of foreground queue depth.
//! * `idle` — the hosted task additionally gated on engine queue depth
//!   (the paper's "clean during idle periods").
//!
//! In-binary assertions: (a) at 8 clients on one spindle, idle-gated
//! cleaning keeps foreground p99 within 1.5x of the no-cleaner
//! baseline; (b) on a 4-spindle segment-round-robin volume, the
//! spindle-aware async cleaner (victims preferentially off the log
//! head's spindle) recovers at least 90% of the no-cleaner foreground
//! throughput.
//!
//! Everything runs on the shared virtual clock: output (table and
//! metrics JSON) is byte-identical across runs.
//!
//! `--smoke` runs the CI-sized sweep: modes {baseline, sync, idle} x
//! clients {1, 8} x 1 spindle, with assertion (a) only.

use std::process::ExitCode;

use lfs_bench::interference::{run_overwrite_churn, ChurnConfig, ChurnOutcome};
use lfs_bench::{modern_lfs, print_table, volume_rig, MetricsReport, Row, Verdict};
use lfs_core::{AsyncCleanerPolicy, CleanerTask, LfsConfig};
use volume::VolumeConfig;

/// Size of every slot file.
const FILE_SIZE: usize = 64 * 1024;
/// Live set: 160 slots x 64 KB = 10 MB, ~42% of the churned disk.
const TOTAL_SLOTS: usize = 160;
/// Measured overwrites per cell (split across clients).
const TOTAL_OPS: usize = 768;
const TOTAL_OPS_SMOKE: usize = 384;
/// Mean think time at 1 spindle: 8 clients offer ~58% of one WREN IV's
/// sequential bandwidth, so idle periods exist for the gated cleaner.
const THINK_NS: u64 = 700_000_000;
/// Churned disk: 24 MB of log — the live set plus ~12 MB of slack, so
/// sustained overwrites force continuous cleaning.
const CHURN_SECTORS: u64 = 49_152;
/// Churned disk for the 4-spindle cell: 40 MB (~25% live). The measured
/// write volume (~58 MB) still forces the cleaner through the whole log
/// repeatedly, but victims are mostly dead — the cleaner's cost is its
/// segment *reads*, the part spindle-aware victim selection can steer
/// off the foreground's disks. (At 1-spindle utilization the cost is
/// copy-forward *writes*, which share the log head with the foreground
/// on any layout.)
const CHURN_SECTORS_4SP: u64 = 81_920;
/// Baseline disk: 96 MB — the whole run's append volume fits without
/// ever activating the cleaner.
const BASELINE_SECTORS: u64 = 196_608;
/// Queue-depth bound for the idle-gated mode.
const IDLE_GATE: u64 = 2;
/// Deterministic workload seed.
const SEED: u64 = 0x5EED;

/// Cleaning mode of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Baseline,
    Sync,
    AsyncAggr,
    AsyncIdle,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::Sync => "sync",
            Mode::AsyncAggr => "aggr",
            Mode::AsyncIdle => "idle",
        }
    }

    /// The cleaner task the churn hosts, if any.
    fn task(self) -> Option<CleanerTask> {
        let policy = AsyncCleanerPolicy::default().with_watermarks(9, 12);
        match self {
            Mode::Baseline | Mode::Sync => None,
            Mode::AsyncAggr => Some(CleanerTask::new(policy)),
            Mode::AsyncIdle => Some(CleanerTask::new(policy.with_idle_gate(IDLE_GATE))),
        }
    }
}

/// One measured cell.
struct Cell {
    mode: Mode,
    outcome: ChurnOutcome,
    /// Fraction of engine-submitted bytes in the maintenance class.
    cleaner_share: f64,
    floor_passes: u64,
    offspindle_victims: u64,
}

/// Sums a per-spindle engine counter across the volume.
fn engine_sum(snap: &obs::Snapshot, spindles: usize, suffix: &str) -> u64 {
    (0..spindles)
        .map(|i| snap.counter(&format!("volume.spindle.{i}.engine.{suffix}")))
        .sum()
}

fn run_cell(
    mode: Mode,
    clients: usize,
    spindles: usize,
    total_ops: usize,
    churn_sectors: u64,
    metrics: &mut MetricsReport,
    verdict: &mut Verdict,
) -> Cell {
    let cfg = LfsConfig::paper().with_cache_bytes(2 * 1024 * 1024);
    let total_sectors = if mode == Mode::Baseline {
        BASELINE_SECTORS
    } else {
        churn_sectors
    };
    let (dev, clock) = volume_rig(
        VolumeConfig::rr_segment(spindles, cfg.stripe_chunk_bytes()),
        total_sectors / spindles as u64,
        None,
    );
    let pump = dev.clone();
    let (mut fs, registry) = modern_lfs(dev, cfg, clock);

    let ccfg = ChurnConfig {
        clients,
        ops_per_client: total_ops / clients,
        total_slots: TOTAL_SLOTS,
        file_size: FILE_SIZE,
        think_ns: THINK_NS,
        seed: SEED,
    };
    let outcome =
        run_overwrite_churn(&mut fs, &pump, &ccfg, mode.task().as_mut()).expect("churn run");
    let fsck = fs.fsck().expect("fsck");
    assert!(fsck.is_clean(), "LFS inconsistent after run:\n{fsck}");

    let label = format!("lfs/{}/s{spindles}/c{clients:03}", mode.name());
    let stats = fs.stats();
    let snap = registry.snapshot();
    let maint = engine_sum(&snap, spindles, "io_bytes.maintenance");
    let total_bytes = maint
        + engine_sum(&snap, spindles, "io_bytes.client")
        + engine_sum(&snap, spindles, "io_bytes.system");

    // Each mode really ran in its regime.
    verdict.guard(
        snap.hist("interference.fg_op_ns").is_some()
            && 0 < outcome.p50_ns
            && outcome.p50_ns <= outcome.p99_ns,
        format!(
            "{label}: no coherent foreground latency (p50 {} ns, p99 {} ns)",
            outcome.p50_ns, outcome.p99_ns
        ),
    );
    let async_steps = snap.counter("cleaner.async.steps");
    match mode {
        Mode::Baseline => verdict.guard(
            stats.segments_cleaned == 0 && outcome.cleaner_steps == 0,
            format!("{label}: baseline disk must be large enough that cleaning never activates"),
        ),
        Mode::Sync => verdict.guard(
            stats.segments_cleaned > 0 && async_steps == 0,
            format!("{label}: with no task hosted the floor must clean, and no task step"),
        ),
        Mode::AsyncAggr | Mode::AsyncIdle => verdict.guard(
            stats.segments_cleaned > 0
                && async_steps > 0
                && snap.counter("cleaner.async.runs_completed") > 0
                && maint > 0,
            format!(
                "{label}: the driven async cleaner must step, complete runs and land its \
                 I/O in the maintenance class"
            ),
        ),
    }

    registry.gauge("interference.fg_p50_ns").set(outcome.p50_ns);
    registry.gauge("interference.fg_p99_ns").set(outcome.p99_ns);
    registry
        .gauge("interference.cleaner_steps")
        .set(outcome.cleaner_steps);
    metrics.add_lfs(&label, &fs);
    Cell {
        mode,
        outcome,
        cleaner_share: if total_bytes == 0 {
            0.0
        } else {
            maint as f64 / total_bytes as f64
        },
        floor_passes: stats.floor_passes,
        offspindle_victims: stats.async_offspindle_victims,
    }
}

fn print_sweep(title: &str, cells: &[Cell]) {
    let headers: Vec<&str> = cells.iter().map(|c| c.mode.name()).collect();
    print_table(
        title,
        "metric",
        &headers,
        &[
            Row::of("fg p50 ms", cells, |c| format!("{:.3}", c.outcome.p50_ns as f64 / 1e6)),
            Row::of("fg p99 ms", cells, |c| format!("{:.3}", c.outcome.p99_ns as f64 / 1e6)),
            Row::of("fg ops/s", cells, |c| format!("{:.2}", c.outcome.ops_per_sec())),
            Row::of("cleaner share %", cells, |c| format!("{:.1}", c.cleaner_share * 100.0)),
            Row::of("cleaner steps", cells, |c| c.outcome.cleaner_steps.to_string()),
            Row::of("floor pass count", cells, |c| c.floor_passes.to_string()),
        ],
    );
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let modes: &[Mode] = if smoke {
        &[Mode::Baseline, Mode::Sync, Mode::AsyncIdle]
    } else {
        &[Mode::Baseline, Mode::Sync, Mode::AsyncAggr, Mode::AsyncIdle]
    };
    let total_ops = if smoke { TOTAL_OPS_SMOKE } else { TOTAL_OPS };

    let mut metrics = MetricsReport::new("cleaner_interference");
    let mut verdict = Verdict::new();
    for m in modes {
        verdict.expect_cell("lfs", &format!("lfs/{}/s1/c001", m.name()));
        verdict.expect_cell("lfs", &format!("lfs/{}/s1/c008", m.name()));
    }
    if !smoke {
        verdict.expect_cell("lfs", "lfs/baseline/s4/c008");
        verdict.expect_cell("lfs", "lfs/aggr/s4/c008");
    }
    let mut p99_at_8: Vec<(Mode, u64)> = Vec::new();

    for &clients in &[1usize, 8] {
        let cells: Vec<Cell> = modes
            .iter()
            .map(|&m| run_cell(m, clients, 1, total_ops, CHURN_SECTORS, &mut metrics, &mut verdict))
            .collect();
        print_sweep(
            &format!(
                "cleaner interference, {clients} clients, 1 spindle ({total_ops} x {FILE_SIZE} B overwrites)"
            ),
            &cells,
        );
        if clients == 8 {
            p99_at_8 = cells.iter().map(|c| (c.mode, c.outcome.p99_ns)).collect();
        }
    }

    // Assertion (a): idle-gated cleaning keeps the foreground tail
    // within 1.5x of the no-cleaner baseline at 8 clients.
    let p99_of = |m: Mode| p99_at_8.iter().find(|(mode, _)| *mode == m).map(|&(_, p)| p);
    if let (Some(base), Some(idle)) = (p99_of(Mode::Baseline), p99_of(Mode::AsyncIdle)) {
        let ratio = idle as f64 / base.max(1) as f64;
        println!("\n  idle-gated p99 / baseline p99 @ 8 clients = {ratio:.2}x");
        verdict.claim(
            ratio <= 1.5,
            format!(
                "idle-gated cleaning inflated 8-client foreground p99 {ratio:.2}x over baseline (bound: 1.5x)"
            ),
        );
    }

    if !smoke {
        // 4 spindles: the spindle-aware async cleaner vs the no-cleaner
        // baseline. Same offered load as the 1-spindle cells — there it
        // exceeds what one disk can carry alongside cleaning, so any
        // recovery here comes from cleaning overlapping foreground work
        // on other spindles.
        let cells: Vec<Cell> = [Mode::Baseline, Mode::AsyncAggr]
            .iter()
            .map(|&m| run_cell(m, 8, 4, TOTAL_OPS, CHURN_SECTORS_4SP, &mut metrics, &mut verdict))
            .collect();
        print_sweep(
            &format!(
                "cleaner interference, 8 clients, 4 spindles ({TOTAL_OPS} x {FILE_SIZE} B overwrites)"
            ),
            &cells,
        );
        println!(
            "  off-spindle victims: {}",
            cells[1].offspindle_victims
        );
        // Assertion (b): off-spindle cleaning recovers >= 90% of the
        // no-cleaner foreground throughput.
        let ratio = cells[1].outcome.ops_per_sec() / cells[0].outcome.ops_per_sec();
        println!("  async 4-spindle throughput / baseline = {ratio:.3}");
        verdict.claim(
            ratio >= 0.90,
            format!(
                "4-spindle async cleaning kept only {:.1}% of no-cleaner throughput (need >= 90%)",
                ratio * 100.0
            ),
        );
        verdict.guard(
            cells[1].offspindle_victims > 0,
            "spindle-aware victim selection never chose an off-spindle segment",
        );
    }

    println!(
        "\npaper (S4 write cost): cleaning's price is paid in bandwidth and \
         latency; cleaner transfers queue ahead of foreground requests \
         unless cleaning is deferred to idle periods or steered to other \
         spindles."
    );
    verdict.finish(metrics)
}
