//! The crash-consistency torture sweep as a test: every crash index of
//! the smoke workload, under all three fault modes, for both file
//! systems. Any silent corruption, lost durable data, or phantom file is
//! a failure.

use ffs_baseline::{Ffs, FfsConfig};
use lfs_bench::crash_sweep::{arm, sweep, SweepMode, SweepSpec};
use sim_disk::{Clock, CrashPlan, DiskGeometry, SimDisk};
use std::sync::Arc;
use vfs::FileSystem;

#[test]
fn lfs_survives_every_crash_point_in_all_modes() {
    for mode in SweepMode::ALL {
        let out = sweep(&arm("lfs"), mode, &SweepSpec::smoke());
        assert!(out.crash_points > 10, "{}: too few crash points", mode.name());
        assert_eq!(
            out.recovered,
            out.crash_points,
            "{}: LFS must remount at every crash point",
            mode.name()
        );
        assert!(
            out.is_clean(),
            "{}: {} violations, e.g. {:?}",
            mode.name(),
            out.violations,
            out.samples
        );
    }
}

#[test]
fn ffs_never_corrupts_silently_in_any_mode() {
    for mode in SweepMode::ALL {
        let out = sweep(&arm("ffs"), mode, &SweepSpec::smoke());
        assert!(out.crash_points > 20, "{}: too few crash points", mode.name());
        // FFS may refuse a destroyed volume (detection), but any mount it
        // accepts must be consistent and model-equivalent.
        assert!(
            out.is_clean(),
            "{}: {} violations, e.g. {:?}",
            mode.name(),
            out.violations,
            out.samples
        );
        assert!(
            out.recovered + out.detected_unmountable == out.crash_points,
            "{}: every crash point must recover or be detected",
            mode.name()
        );
    }
}

/// Checkpoint recovery is stripe-agnostic: the same sweep over a
/// 2-spindle round-robin volume — where the globally N-th write may
/// land on either spindle — recovers at every crash point.
#[test]
fn lfs_survives_every_crash_point_on_a_striped_volume() {
    for mode in [SweepMode::Drop, SweepMode::Torn] {
        let out = sweep(&arm("lfs_2spindle"), mode, &SweepSpec::smoke());
        assert!(out.crash_points > 10, "{}: too few crash points", mode.name());
        assert_eq!(
            out.recovered,
            out.crash_points,
            "{}: striped LFS must remount at every crash point",
            mode.name()
        );
        assert!(
            out.is_clean(),
            "{}: {} violations, e.g. {:?}",
            mode.name(),
            out.violations,
            out.samples
        );
    }
}

/// Crashes before, during, and after an online parity rebuild never
/// violate the durability model: remount replaces the dead spindle,
/// restarts the rebuild from zero, and must land on exactly the
/// model-equivalent tree (satellite: mid-rebuild crash points).
#[test]
fn lfs_survives_every_crash_point_during_a_parity_rebuild() {
    for mode in [SweepMode::Drop, SweepMode::Torn] {
        let out = sweep(&arm("lfs_rebuild_4sp"), mode, &SweepSpec::smoke());
        assert!(out.crash_points > 10, "{}: too few crash points", mode.name());
        assert_eq!(
            out.recovered,
            out.crash_points,
            "{}: degraded LFS must remount at every crash point",
            mode.name()
        );
        assert!(
            out.is_clean(),
            "{}: {} violations, e.g. {:?}",
            mode.name(),
            out.violations,
            out.samples
        );
    }
}

/// ROADMAP's fence for the end-of-segment checkpoint hole: with the
/// async cleaner in flight, some checkpoint's final chunk fills its
/// segment (the row's guard, part of `is_clean`), and every crash point
/// still recovers to the model.
#[test]
fn lfs_survives_every_crash_point_after_a_segment_end_checkpoint() {
    for mode in [SweepMode::Drop, SweepMode::Torn] {
        let out = sweep(&arm("lfs_cleaner_seg_end"), mode, &SweepSpec::smoke());
        assert!(out.crash_points > 5, "{}: too few crash points", mode.name());
        assert_eq!(out.recovered, out.crash_points, "{}", mode.name());
        assert!(
            out.is_clean(),
            "{}: {} violations, e.g. {:?}; guards {:?}",
            mode.name(),
            out.violations,
            out.samples,
            out.guards
        );
    }
}

/// Rebuild sweeps are as deterministic as the others.
#[test]
fn rebuild_sweep_outcomes_are_reproducible() {
    let a = sweep(&arm("lfs_rebuild_4sp"), SweepMode::Torn, &SweepSpec::smoke());
    let b = sweep(&arm("lfs_rebuild_4sp"), SweepMode::Torn, &SweepSpec::smoke());
    assert_eq!(a.crash_points, b.crash_points);
    assert_eq!(a.recovered, b.recovered);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.samples, b.samples);
}

/// The full-size adaptive row, which the smoke stride never reached: a
/// pressure flush inside `create` makes the empty file durable before
/// the `write_at` that fills it, and the model knows that version.
/// (Before it did, crash points 6/11/12/19/20/27/28/29/35/36/42 each
/// reported "bytes matching no real version".) The row's own guard
/// demands at least one such recovery, so a clean run here is not a
/// blind one.
#[test]
fn full_size_adaptive_row_is_clean_and_sees_intermediate_versions() {
    for mode in [SweepMode::Drop, SweepMode::Torn] {
        let out = sweep(&arm("lfs_adaptive"), mode, &SweepSpec::full());
        assert_eq!(out.recovered, out.crash_points, "{}", mode.name());
        assert!(
            out.is_clean(),
            "{}: {} violations, e.g. {:?}",
            mode.name(),
            out.violations,
            out.samples
        );
        assert_eq!(out.intermediate_recoveries, 11, "{}", mode.name());
    }
    // The shared-LRU row at the same size passes without ever meeting
    // one: its flushes fall on the script's own schedule.
    let shared = sweep(&arm("lfs"), SweepMode::Drop, &SweepSpec::full());
    assert!(shared.is_clean());
    assert_eq!(shared.intermediate_recoveries, 0);
}

/// Striped sweeps are as deterministic as single-disk ones.
#[test]
fn striped_sweep_outcomes_are_reproducible() {
    let a = sweep(&arm("lfs_2spindle"), SweepMode::Torn, &SweepSpec::smoke());
    let b = sweep(&arm("lfs_2spindle"), SweepMode::Torn, &SweepSpec::smoke());
    assert_eq!(a.crash_points, b.crash_points);
    assert_eq!(a.recovered, b.recovered);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.samples, b.samples);
}

/// Sweeps are deterministic: the same spec yields identical outcomes.
#[test]
fn sweep_outcomes_are_reproducible() {
    let a = sweep(&arm("lfs"), SweepMode::Torn, &SweepSpec::smoke());
    let b = sweep(&arm("lfs"), SweepMode::Torn, &SweepSpec::smoke());
    assert_eq!(a.crash_points, b.crash_points);
    assert_eq!(a.recovered, b.recovered);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.samples, b.samples);
}

/// FFS parity: a crash inside the lossy window is *detected* — the dirty
/// mount pays a whole-volume fsck scan (nonzero blocks scanned), never a
/// silent skip.
#[test]
fn ffs_dirty_mounts_always_pay_the_fsck_scan() {
    let geometry = DiskGeometry::tiny_test(16_384);
    let clock = Clock::new();
    let mut disk = SimDisk::new(geometry.clone(), Arc::clone(&clock));
    // Crash mid-workload: a couple hundred writes past format.
    disk.arm_crash(CrashPlan::drop_at(200));
    let mut fs = Ffs::format(disk, FfsConfig::small_test(), clock).unwrap();
    for i in 0..64 {
        if fs.write_file(&format!("/f{i}"), &vec![i as u8; 2000]).is_err() {
            break;
        }
        if i % 8 == 7 && fs.sync().is_err() {
            break;
        }
    }
    let image = fs.into_device().into_image();

    let disk = SimDisk::from_image(geometry, Clock::new(), image);
    let clock = disk.clock().clone();
    let mut fs2 = Ffs::mount(disk, FfsConfig::small_test(), clock).expect("dirty mount");
    assert_eq!(fs2.stats().fsck_scans, 1, "dirty volume must trigger a scan");
    assert!(
        fs2.stats().fsck_blocks_scanned > 0,
        "the scan must actually read the volume"
    );
    assert!(fs2.fsck().unwrap().is_clean());
}
