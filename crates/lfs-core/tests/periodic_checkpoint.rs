//! The periodic checkpoint is background work (§4.4.1): the call that
//! crosses the interval captures the checkpoint and returns without
//! waiting for its write-back; the region lands at the first call after
//! the device has drained — or, if it never drains, blocking at the next
//! interval — and a mount then finds it. Run on a bare disk and on a
//! 4-spindle volume, with checkpoint-only recovery so that what a mount
//! sees is exactly what the newest region records.

use std::sync::Arc;

use lfs_core::layout::checkpoint::CheckpointRegion;
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{BlockDevice, Clock, CrashPlan, DiskGeometry, SimDisk, SECTOR_SIZE};
use vfs::FileSystem;
use volume::{StripedVolume, VolumeConfig, VolumeDisk};

const DISK_SECTORS: u64 = 16_384;
const SPINDLES: usize = 4;
const INTERVAL_NS: u64 = 1_000_000_000;

fn cfg() -> LfsConfig {
    let mut cfg = LfsConfig::small_test().with_checkpoint_secs(INTERVAL_NS as f64 / 1e9);
    cfg.roll_forward = false;
    cfg
}

fn volume_cfg() -> VolumeConfig {
    VolumeConfig::rr_segment(SPINDLES, cfg().stripe_chunk_bytes())
}

fn spindle_geometry() -> DiskGeometry {
    DiskGeometry::tiny_test(DISK_SECTORS / SPINDLES as u64)
}

/// The serial of the newest valid checkpoint region on `fs`'s device.
fn newest_serial<D: BlockDevice>(fs: &mut Lfs<D>) -> u64 {
    let sb = fs.superblock().clone();
    let sectors_per_block = (sb.block_size as usize / SECTOR_SIZE) as u64;
    let len = sb.cp_blocks as usize * sb.block_size as usize;
    let mut region = |block: u32| {
        let mut buf = vec![0u8; len];
        fs.device_mut()
            .read(block as u64 * sectors_per_block, &mut buf)
            .unwrap();
        CheckpointRegion::decode(&buf)
    };
    let (a, b) = (region(sb.cp_a.0), region(sb.cp_b.0));
    CheckpointRegion::newest(a, b).unwrap().serial
}

/// The detail of the last event of `kind`.
fn last_event<D: BlockDevice>(fs: &Lfs<D>, kind: &str) -> String {
    let events = fs.obs().events();
    let event = events.iter().rev().find(|e| e.kind == kind);
    event
        .unwrap_or_else(|| panic!("no {kind} event"))
        .detail
        .clone()
}

/// Writes a few files, then waits (without a call) until the next call
/// crosses the checkpoint interval.
fn fill_and_wait<D: BlockDevice>(fs: &mut Lfs<D>) {
    for i in 0..24 {
        fs.write_file(&format!("/f{i:02}"), &vec![i as u8; 1500])
            .unwrap();
    }
    fs.clock().advance_ns(INTERVAL_NS);
}

/// Drives `fs` through one periodic checkpoint: the crossing call must
/// not wait for the write-back, the region must stay parked while the
/// device is busy and land at the first call after it drains.
fn park_then_commit_after_drain<D: BlockDevice>(fs: &mut Lfs<D>) {
    fill_and_wait(fs);
    let clock = Arc::clone(fs.clock());
    let committed = fs.stats().checkpoints;

    let start = clock.now_ns();
    fs.lookup("/f00").unwrap();
    let crossing_ns = clock.now_ns() - start;
    assert!(fs.checkpoint_parked(), "the crossing call parks the region");
    assert_eq!(fs.stats().checkpoints, committed, "nothing committed yet");
    assert!(
        !fs.device_mut().writes_durable(),
        "the crossing call returned before the capture's write-back landed"
    );
    assert!(last_event(fs, "checkpoint_parked").starts_with("serial=2 "));

    // A call while the device is still busy leaves the region parked.
    fs.lookup("/f01").unwrap();
    assert!(fs.checkpoint_parked());

    // Let the backlog drain with nobody calling in.
    let mut drain_ns = 0;
    while !fs.device_mut().writes_durable() {
        clock.advance_ns(100_000);
        drain_ns += 100_000;
    }
    assert!(
        crossing_ns < drain_ns,
        "the crossing call took {crossing_ns} ns; the write-back still had {drain_ns} ns to go"
    );
    assert!(fs.checkpoint_parked(), "only a call commits");

    fs.lookup("/f02").unwrap();
    assert!(
        !fs.checkpoint_parked(),
        "the first call after the drain commits"
    );
    assert_eq!(fs.stats().checkpoints, committed + 1);
    let detail = last_event(fs, "checkpoint");
    assert!(detail.starts_with("serial=2 "), "{detail}");
    assert!(detail.contains(" cause=periodic parked_ns="), "{detail}");
    assert!(!detail.contains(" parked_ns=0 "), "{detail}");
}

/// Every file written before the capture, byte for byte.
fn assert_files<D: BlockDevice>(fs: &mut Lfs<D>) {
    for i in 0..24 {
        let got = fs.read_file(&format!("/f{i:02}")).unwrap();
        assert_eq!(got, vec![i as u8; 1500], "/f{i:02}");
    }
    let report = fs.fsck().unwrap();
    assert!(report.is_clean() && report.warnings.is_empty(), "{report}");
}

fn fresh_disk() -> Lfs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(DISK_SECTORS), Arc::clone(&clock));
    Lfs::format(disk, cfg(), clock).unwrap()
}

fn remount_disk(fs: Lfs<SimDisk>) -> Lfs<SimDisk> {
    let image = fs.into_device().into_image();
    let disk = SimDisk::from_image(DiskGeometry::tiny_test(DISK_SECTORS), Clock::new(), image);
    let clock = Arc::clone(disk.clock());
    Lfs::mount(disk, cfg(), clock).unwrap()
}

#[test]
fn bare_disk_parks_the_region_until_the_disk_drains() {
    let mut fs = fresh_disk();
    park_then_commit_after_drain(&mut fs);
    let mut fs = remount_disk(fs);
    assert_eq!(newest_serial(&mut fs), 2);
    assert_files(&mut fs);
}

#[test]
fn volume_parks_the_region_until_every_spindle_drains() {
    let clock = Clock::new();
    let vol = StripedVolume::new(spindle_geometry(), Arc::clone(&clock), volume_cfg());
    let dev = VolumeDisk::new(vol.into_shared());
    let mut fs = Lfs::format(dev, cfg(), clock).unwrap();
    park_then_commit_after_drain(&mut fs);

    let images = fs.into_device().into_images();
    let clock = Clock::new();
    let vol =
        StripedVolume::from_images(spindle_geometry(), Arc::clone(&clock), volume_cfg(), images);
    let mut fs = Lfs::mount(VolumeDisk::new(vol.into_shared()), cfg(), clock).unwrap();
    assert_eq!(newest_serial(&mut fs), 2);
    assert_files(&mut fs);
}

/// A disk whose volatile cache never drains on its own: the parked
/// region waits a whole interval and is then committed blocking, by the
/// call that crosses the next interval — which parks a new one.
#[test]
fn a_region_that_never_drains_commits_at_the_next_interval() {
    let mut fs = fresh_disk();
    fs.device_mut()
        .arm_crash(CrashPlan::reorder_at(u64::MAX, 8));
    fill_and_wait(&mut fs);
    fs.lookup("/f00").unwrap();
    assert!(fs.checkpoint_parked());
    let committed = fs.stats().checkpoints;

    fs.clock().advance_ns(INTERVAL_NS / 2);
    fs.lookup("/f00").unwrap();
    assert!(fs.checkpoint_parked(), "held writes are not durable");
    assert_eq!(fs.stats().checkpoints, committed);

    fs.clock().advance_ns(INTERVAL_NS);
    fs.lookup("/f01").unwrap();
    assert_eq!(fs.stats().checkpoints, committed + 1, "committed, blocking");
    assert!(fs.checkpoint_parked(), "and the next one parked");
    let detail = last_event(&fs, "checkpoint");
    assert!(
        detail.starts_with("serial=2 ") && detail.contains("cause=periodic"),
        "{detail}"
    );
    assert!(last_event(&fs, "checkpoint_parked").starts_with("serial=3 "));

    // The crash loses the second capture's held writes and its region;
    // the mount finds the first.
    let mut fs = remount_disk(fs);
    assert_eq!(newest_serial(&mut fs), 2);
    assert_files(&mut fs);
}

/// A blocking checkpoint replaces a parked one: `sync` commits its own,
/// newer capture, with the same serial the parked region would have had.
#[test]
fn sync_replaces_a_parked_region() {
    let mut fs = fresh_disk();
    fill_and_wait(&mut fs);
    fs.lookup("/f00").unwrap();
    assert!(fs.checkpoint_parked());
    fs.write_file("/late", b"after the capture").unwrap();
    fs.sync().unwrap();
    assert!(!fs.checkpoint_parked());
    let detail = last_event(&fs, "checkpoint");
    assert!(
        detail.starts_with("serial=2 ") && detail.contains("cause=sync"),
        "{detail}"
    );

    let mut fs = remount_disk(fs);
    assert_eq!(newest_serial(&mut fs), 2);
    assert_eq!(fs.read_file("/late").unwrap(), b"after the capture");
    assert_files(&mut fs);
}
