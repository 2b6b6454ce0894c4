//! End-to-end lifecycle tests for the FFS baseline.

use std::sync::Arc;

use ffs_baseline::{Ffs, FfsConfig};
use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::{FileSystem, FsError};

fn fresh_fs() -> Ffs<SimDisk> {
    let clock = Clock::new();
    // 8 MB tiny-test disk.
    let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
    Ffs::format(disk, FfsConfig::small_test(), clock).unwrap()
}

fn assert_fsck_clean(fs: &mut Ffs<SimDisk>) {
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "fsck found problems:\n{report}");
}

#[test]
fn format_produces_clean_empty_fs() {
    let mut fs = fresh_fs();
    assert!(fs.readdir("/").unwrap().is_empty());
    assert_eq!(fs.fs_stats().unwrap().live_inodes, 1);
    assert_fsck_clean(&mut fs);
}

#[test]
fn create_performs_synchronous_metadata_writes() {
    let mut fs = fresh_fs();
    let sync_before = fs.device().stats().sync_writes;
    fs.create("/file").unwrap();
    let sync_after = fs.device().stats().sync_writes;
    assert!(
        sync_after >= sync_before + 2,
        "creat must write the inode and directory block synchronously \
         ({sync_before} -> {sync_after})"
    );
    assert!(fs.stats().sync_inode_writes >= 1);
    assert!(fs.stats().sync_dir_writes >= 1);
}

#[test]
fn small_file_round_trip() {
    let mut fs = fresh_fs();
    fs.write_file("/hello", b"hello ffs").unwrap();
    assert_eq!(fs.read_file("/hello").unwrap(), b"hello ffs");
    fs.sync().unwrap();
    fs.drop_caches().unwrap();
    assert_eq!(fs.read_file("/hello").unwrap(), b"hello ffs");
    assert_fsck_clean(&mut fs);
}

#[test]
fn directories_and_links() {
    let mut fs = fresh_fs();
    fs.mkdir("/d").unwrap();
    fs.write_file("/d/f", b"data").unwrap();
    fs.link("/d/f", "/d/g").unwrap();
    let ino = fs.lookup("/d/f").unwrap();
    assert_eq!(fs.stat(ino).unwrap().nlink, 2);
    fs.unlink("/d/f").unwrap();
    assert_eq!(fs.read_file("/d/g").unwrap(), b"data");
    fs.rename("/d/g", "/top").unwrap();
    assert_eq!(fs.read_file("/top").unwrap(), b"data");
    assert_fsck_clean(&mut fs);
}

#[test]
fn large_file_with_indirect_blocks() {
    let mut fs = fresh_fs();
    let payload: Vec<u8> = (0..200 * 1024u32).map(|i| (i * 13 % 256) as u8).collect();
    fs.write_file("/big", &payload).unwrap();
    fs.sync().unwrap();
    fs.drop_caches().unwrap();
    assert_eq!(fs.read_file("/big").unwrap(), payload);
    assert_fsck_clean(&mut fs);
}

#[test]
fn sequential_allocation_gives_contiguous_layout() {
    let mut fs = fresh_fs();
    let payload = vec![1u8; 20 * 512];
    fs.write_file("/seq", &payload).unwrap();
    fs.sync().unwrap();
    // Reading it back sequentially after dropping caches should be
    // mostly sequential disk I/O thanks to the allocation hint.
    fs.drop_caches().unwrap();
    let before = fs.device().stats();
    fs.read_file("/seq").unwrap();
    let delta = fs.device().stats().delta_since(&before);
    assert!(
        delta.sequential * 2 >= delta.total_requests(),
        "expected mostly sequential reads, got {delta}"
    );
}

#[test]
fn truncate_frees_blocks() {
    let mut fs = fresh_fs();
    let ino = fs.write_file("/t", &vec![7u8; 30 * 512]).unwrap();
    let used_before = fs.fs_stats().unwrap().used_bytes;
    fs.truncate(ino, 512).unwrap();
    let used_after = fs.fs_stats().unwrap().used_bytes;
    assert!(used_after < used_before);
    fs.sync().unwrap();
    assert_fsck_clean(&mut fs);
}

#[test]
fn unlink_returns_space() {
    let mut fs = fresh_fs();
    let free0 = fs.fs_stats().unwrap().used_bytes;
    fs.write_file("/x", &vec![1u8; 50 * 512]).unwrap();
    fs.unlink("/x").unwrap();
    assert_eq!(fs.fs_stats().unwrap().used_bytes, free0);
    assert_fsck_clean(&mut fs);
}

#[test]
fn clean_unmount_and_remount_loads_bitmaps() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
    let geometry = disk.geometry().clone();
    let mut fs = Ffs::format(disk, FfsConfig::small_test(), Arc::clone(&clock)).unwrap();
    fs.mkdir("/d").unwrap();
    fs.write_file("/d/f", b"persisted").unwrap();
    let disk = fs.unmount().unwrap();

    let image = disk.into_image();
    let clock2 = Clock::new();
    let disk2 = SimDisk::from_image(geometry, Arc::clone(&clock2), image);
    let mut fs2 = Ffs::mount(disk2, FfsConfig::small_test(), clock2).unwrap();
    assert_eq!(fs2.stats().fsck_scans, 0, "clean mount must not scan");
    assert_eq!(fs2.read_file("/d/f").unwrap(), b"persisted");
    assert_fsck_clean(&mut fs2);
}

#[test]
fn dirty_mount_runs_full_scan_and_repairs() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
    let geometry = disk.geometry().clone();
    let mut fs = Ffs::format(disk, FfsConfig::small_test(), Arc::clone(&clock)).unwrap();
    fs.mkdir("/d").unwrap();
    fs.write_file("/d/f", b"synced data").unwrap();
    fs.sync().unwrap();
    // No clean unmount: simulate a crash by taking the image directly.
    let image = fs.into_device().into_image();

    let clock2 = Clock::new();
    let disk2 = SimDisk::from_image(geometry, Arc::clone(&clock2), image);
    let mut fs2 = Ffs::mount(disk2, FfsConfig::small_test(), clock2).unwrap();
    assert_eq!(fs2.stats().fsck_scans, 1, "dirty mount must scan");
    assert!(fs2.stats().fsck_blocks_scanned > 0);
    assert_eq!(fs2.read_file("/d/f").unwrap(), b"synced data");
    assert_fsck_clean(&mut fs2);
}

#[test]
fn error_paths_match_unix_semantics() {
    let mut fs = fresh_fs();
    fs.mkdir("/d").unwrap();
    fs.create("/d/f").unwrap();
    assert_eq!(fs.create("/d/f"), Err(FsError::AlreadyExists));
    assert_eq!(fs.unlink("/d"), Err(FsError::IsADirectory));
    assert_eq!(fs.rmdir("/d"), Err(FsError::DirectoryNotEmpty));
    assert_eq!(fs.lookup("/nope"), Err(FsError::NotFound));
    assert_eq!(fs.rename("/d", "/d/sub"), Err(FsError::InvalidPath));
}

#[test]
fn many_files_across_groups() {
    let mut fs = fresh_fs();
    // small_test has 64 inodes/cg; creating 150 files spans groups.
    for i in 0..150 {
        fs.mkdir(&format!("/dir{i:03}")).unwrap();
        fs.write_file(&format!("/dir{i:03}/f"), &vec![i as u8; 700])
            .unwrap();
    }
    fs.sync().unwrap();
    fs.drop_caches().unwrap();
    for i in (0..150).step_by(13) {
        assert_eq!(
            fs.read_file(&format!("/dir{i:03}/f")).unwrap(),
            vec![i as u8; 700]
        );
    }
    assert_fsck_clean(&mut fs);
}

#[test]
fn random_overwrites_stay_in_place() {
    let mut fs = fresh_fs();
    let ino = fs.write_file("/f", &vec![0u8; 40 * 512]).unwrap();
    fs.sync().unwrap();
    let addr_of = |fs: &mut Ffs<SimDisk>| {
        // Re-read through the public API and ensure content changes while
        // fsck stays clean (addresses are internal, so we check the
        // update-in-place effect indirectly: used space is unchanged).
        fs.fs_stats().unwrap().used_bytes
    };
    let used_before = addr_of(&mut fs);
    fs.write_at(ino, 7 * 512, &vec![9u8; 512]).unwrap();
    fs.sync().unwrap();
    assert_eq!(addr_of(&mut fs), used_before, "overwrite must not allocate");
    let mut buf = vec![0u8; 512];
    fs.read_at(ino, 7 * 512, &mut buf).unwrap();
    assert_eq!(buf, vec![9u8; 512]);
    assert_fsck_clean(&mut fs);
}
