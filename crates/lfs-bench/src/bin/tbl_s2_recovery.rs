//! Table S2 — crash-recovery cost and the loss window (§4.4).
//!
//! Two claims to verify:
//!
//! 1. "LFS never needs to scan the entire file system to recover from a
//!    crash" — mount after a crash costs a checkpoint-region read (plus a
//!    bounded log-tail replay with roll-forward), while FFS pays a
//!    whole-volume fsck scan.
//! 2. "Our current checkpointing interval of 30 seconds means that in the
//!    worst case, changes made in the thirty seconds before a crash may
//!    be lost" — the loss window tracks the checkpoint interval, and
//!    roll-forward recovers most of it.
//!
//! Method: run the office/engineering workload for a fixed virtual
//! duration, crash without unmounting, remount, and measure (a) recovery
//! I/O and virtual time, (b) how many of the files that existed at the
//! crash survive.

use std::collections::BTreeSet;
use std::sync::Arc;

use ffs_baseline::{Ffs, FfsConfig};
use lfs_bench::{ffs_rig, lfs_rig, print_table, MetricsReport, Row};
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{Clock, SimDisk};
use vfs::{FileKind, FileSystem};
use workload::office::{run as office_run, OfficeSpec};

/// Collects every regular-file path in the tree.
fn live_files<F: FileSystem>(fs: &mut F) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut stack = vec![String::from("/")];
    while let Some(dir) = stack.pop() {
        for entry in fs.readdir(&dir).unwrap() {
            let path = format!(
                "{}{}",
                if dir == "/" {
                    String::from("/")
                } else {
                    format!("{dir}/")
                },
                entry.name
            );
            match entry.kind {
                FileKind::Regular => {
                    out.insert(path);
                }
                FileKind::Directory => stack.push(path),
            }
        }
    }
    out
}

struct Outcome {
    recovery_ms: f64,
    recovery_reads: u64,
    recovery_read_mb: f64,
    files_at_crash: usize,
    files_lost: usize,
}

/// A long office run: several virtual minutes, so multiple checkpoint
/// intervals elapse before the crash.
fn long_office() -> OfficeSpec {
    let mut spec = OfficeSpec::default_mix();
    spec.operations = 30_000;
    spec
}

fn run_lfs(checkpoint_secs: f64, roll_forward: bool, metrics: &mut MetricsReport) -> Outcome {
    let mut cfg = LfsConfig::paper().with_checkpoint_secs(checkpoint_secs);
    cfg.roll_forward = roll_forward;
    // A 5-second delayed-write age: data reaches the log well before the
    // next checkpoint, which is exactly the window roll-forward recovers.
    cfg.writeback = cfg.writeback.with_age_secs(5.0);
    let (mut fs, _clock) = lfs_rig(cfg.clone());
    office_run(&mut fs, &long_office()).unwrap();
    let files_at_crash = live_files(&mut fs);
    let geometry = fs.device().geometry().clone();
    // Crash: abandon all in-memory state.
    let image = fs.into_device().into_image();

    let clock = Clock::new();
    let disk = SimDisk::from_image(geometry, Arc::clone(&clock), image);
    let t0 = clock.now_ns();
    let mut fs2 = Lfs::mount(disk, cfg, Arc::clone(&clock)).expect("recovery mount");
    let recovery_ns = clock.now_ns() - t0;
    let stats = fs2.device().stats();
    let report = fs2.fsck().unwrap();
    assert!(
        report.is_clean(),
        "LFS inconsistent after recovery:\n{report}"
    );
    metrics.add_lfs(
        &format!(
            "cp_{checkpoint_secs:.0}s_{}",
            if roll_forward { "rollforward" } else { "cp_only" }
        ),
        &fs2,
    );

    let survivors = live_files(&mut fs2);
    Outcome {
        recovery_ms: recovery_ns as f64 / 1e6,
        recovery_reads: stats.reads,
        recovery_read_mb: stats.bytes_read as f64 / (1024.0 * 1024.0),
        files_at_crash: files_at_crash.len(),
        files_lost: files_at_crash.difference(&survivors).count(),
    }
}

fn run_ffs(metrics: &mut MetricsReport) -> Outcome {
    let (mut fs, _clock) = ffs_rig(FfsConfig::paper());
    office_run(&mut fs, &long_office()).unwrap();
    let files_at_crash = live_files(&mut fs);
    // FFS has no checkpoints; its delayed writes are lost outright unless
    // flushed. Sync before the crash so the comparison isolates the
    // *recovery scan* cost (the loss columns compare write-back policy,
    // not fsck).
    fs.sync().unwrap();
    let geometry = fs.device().geometry().clone();
    let image = fs.into_device().into_image();

    let clock = Clock::new();
    let disk = SimDisk::from_image(geometry, Arc::clone(&clock), image);
    let t0 = clock.now_ns();
    let mut fs2 = Ffs::mount(disk, FfsConfig::paper(), Arc::clone(&clock)).expect("fsck mount");
    let recovery_ns = clock.now_ns() - t0;
    let stats = fs2.device().stats();
    assert_eq!(fs2.stats().fsck_scans, 1);
    let report = fs2.fsck().unwrap();
    assert!(report.is_clean(), "FFS inconsistent after fsck:\n{report}");
    metrics.add_ffs("fsck_scan", &fs2);

    let survivors = live_files(&mut fs2);
    Outcome {
        recovery_ms: recovery_ns as f64 / 1e6,
        recovery_reads: stats.reads,
        recovery_read_mb: stats.bytes_read as f64 / (1024.0 * 1024.0),
        files_at_crash: files_at_crash.len(),
        files_lost: files_at_crash.difference(&survivors).count(),
    }
}

fn row(label: &str, o: &Outcome) -> Row {
    Row::new(
        label,
        vec![
            format!("{:.1}", o.recovery_ms),
            o.recovery_reads.to_string(),
            format!("{:.2}", o.recovery_read_mb),
            o.files_at_crash.to_string(),
            o.files_lost.to_string(),
        ],
    )
}

fn main() {
    let mut metrics = MetricsReport::new("tbl_s2_recovery");
    let mut rows = Vec::new();
    rows.push(row("FFS full fsck scan", &run_ffs(&mut metrics)));
    for interval in [15.0, 30.0, 60.0, 120.0] {
        rows.push(row(
            &format!("LFS cp={interval}s, checkpoint only"),
            &run_lfs(interval, false, &mut metrics),
        ));
    }
    for interval in [15.0, 30.0, 60.0, 120.0] {
        rows.push(row(
            &format!("LFS cp={interval}s, roll-forward"),
            &run_lfs(interval, true, &mut metrics),
        ));
    }
    print_table(
        "Table S2: crash recovery cost and loss window",
        "configuration",
        &["recovery ms", "reads", "MB read", "files at crash", "lost"],
        &rows,
    );
    println!(
        "\npaper (SS4.4): LFS recovery reads the checkpoint region (plus a \
         bounded log tail with roll-forward); FFS must scan the volume. \
         Without roll-forward, the loss window tracks the checkpoint interval."
    );
    metrics.emit();
}
