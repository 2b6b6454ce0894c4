//! Tests pinning FFS's contrasting design points — the behaviours the
//! paper's comparison depends on.

use std::sync::Arc;

use ffs_baseline::{Ffs, FfsConfig};
use sim_disk::{AccessKind, Clock, DiskGeometry, SimDisk};
use vfs::FileSystem;

fn fresh() -> Ffs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(32_768), Arc::clone(&clock));
    Ffs::format(disk, FfsConfig::small_test(), clock).unwrap()
}

/// Inodes live at fixed disk addresses: rewriting a file many times
/// never moves its inode (the defining contrast with LFS's inode map).
#[test]
fn inode_table_writes_hit_the_same_sector() {
    let mut fs = fresh();
    let ino = fs.write_file("/fixed", b"v1").unwrap();
    fs.device_mut().trace_mut().enable();
    for generation in 0..5 {
        fs.truncate(ino, 0).unwrap();
        fs.write_at(ino, 0, format!("gen {generation}").as_bytes())
            .unwrap();
        fs.sync().unwrap();
    }
    let inode_sectors: Vec<u64> = fs
        .device()
        .trace()
        .records()
        .iter()
        .filter(|r| r.kind == AccessKind::Write && r.label.starts_with("inode"))
        .map(|r| r.sector)
        .collect();
    assert!(!inode_sectors.is_empty());
    assert!(
        inode_sectors.windows(2).all(|w| w[0] == w[1]),
        "FFS inodes must never move: {inode_sectors:?}"
    );
}

/// Data blocks are updated in place: overwriting a block writes the same
/// sector it occupied before.
#[test]
fn data_overwrites_are_in_place() {
    let mut fs = fresh();
    let ino = fs.write_file("/in-place", &vec![1u8; 512]).unwrap();
    fs.sync().unwrap();
    fs.device_mut().trace_mut().enable();
    fs.write_at(ino, 0, &vec![2u8; 512]).unwrap();
    fs.sync().unwrap();
    fs.write_at(ino, 0, &vec![3u8; 512]).unwrap();
    fs.sync().unwrap();
    let data_sectors: Vec<u64> = fs
        .device()
        .trace()
        .records()
        .iter()
        .filter(|r| r.kind == AccessKind::Write && r.label == "data")
        .map(|r| r.sector)
        .collect();
    assert_eq!(data_sectors.len(), 2);
    assert_eq!(data_sectors[0], data_sectors[1], "update must be in place");
}

/// FFS keeps atime in the inode, so a read dirties the inode and the
/// next sync rewrites it — the cost LFS's footnote-2 design avoids.
#[test]
fn reads_dirty_the_inode() {
    let mut fs = fresh();
    let ino = fs.write_file("/atime", b"contents").unwrap();
    fs.sync().unwrap();
    let before = fs.stats().delayed_inode_writes + fs.stats().sync_inode_writes;
    let mut buf = [0u8; 4];
    fs.clock().advance_ns(5_000_000);
    fs.read_at(ino, 0, &mut buf).unwrap();
    fs.sync().unwrap();
    let after = fs.stats().delayed_inode_writes + fs.stats().sync_inode_writes;
    assert!(
        after > before,
        "an FFS read must eventually rewrite the inode"
    );
}

/// Inode placement prefers the parent directory's cylinder group, and a
/// file's data lands near its inode.
#[test]
fn allocation_has_cylinder_group_locality() {
    let mut fs = fresh();
    fs.mkdir("/near").unwrap();
    fs.write_file("/near/a", &vec![1u8; 4096]).unwrap();
    fs.write_file("/near/b", &vec![2u8; 4096]).unwrap();
    fs.sync().unwrap();
    fs.drop_caches().unwrap();

    // Reading both files back should be dominated by short seeks: all
    // blocks sit in one or two cylinder groups.
    let before = fs.device().stats();
    fs.read_file("/near/a").unwrap();
    fs.read_file("/near/b").unwrap();
    let delta = fs.device().stats().delta_since(&before);
    // With 64-block groups of 512 B, everything lives within ~64 KB; the
    // seek cost per access must be near the track-to-track minimum, far
    // below random access over the whole device.
    let per_request_ns = delta.busy_ns / delta.total_requests();
    let worst_random = fs.device().geometry().avg_seek_ns;
    assert!(
        per_request_ns < worst_random,
        "locality lost: {per_request_ns} ns/request"
    );
}

/// The volume remembers clean vs dirty across unmount.
#[test]
fn clean_flag_tracks_unmount() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(32_768), Arc::clone(&clock));
    let geometry = disk.geometry().clone();
    let mut fs = Ffs::format(disk, FfsConfig::small_test(), Arc::clone(&clock)).unwrap();
    fs.write_file("/f", b"x").unwrap();
    // Clean unmount → next mount does not scan.
    let disk = fs.unmount().unwrap();
    let image = disk.into_image();
    let disk = SimDisk::from_image(geometry.clone(), Clock::new(), image);
    let clock2 = disk.clock().clone();
    let mut fs = Ffs::mount(disk, FfsConfig::small_test(), clock2).unwrap();
    assert_eq!(fs.stats().fsck_scans, 0);

    // Crash (no unmount) → next mount scans.
    fs.write_file("/g", b"y").unwrap();
    fs.sync().unwrap();
    let image = fs.into_device().into_image();
    let disk = SimDisk::from_image(geometry, Clock::new(), image);
    let clock3 = disk.clock().clone();
    let fs = Ffs::mount(disk, FfsConfig::small_test(), clock3).unwrap();
    assert_eq!(fs.stats().fsck_scans, 1);
}

/// Runs `op` and returns the labels of the device writes it issued, in
/// order, having checked that every one of them was synchronous.
fn sync_writes_of(
    fs: &mut Ffs<SimDisk>,
    what: &str,
    op: impl FnOnce(&mut Ffs<SimDisk>),
) -> Vec<&'static str> {
    fs.device_mut().trace_mut().clear();
    op(fs);
    let writes: Vec<_> = fs
        .device()
        .trace()
        .records()
        .iter()
        .filter(|r| r.kind == AccessKind::Write)
        .collect();
    assert!(
        writes.iter().all(|r| r.sync),
        "{what}: every write inside the call is synchronous"
    );
    writes.iter().map(|r| r.label).collect()
}

/// Figure 1 for the whole namespace, not just `creat`: every operation
/// that changes a directory or a link count writes the blocks it changed
/// synchronously and in a fixed order — `link` (like `create`) the inode
/// and then the directory block; `unlink`, `rmdir` and `rename` the
/// directory block and then the inode. Pins the exact label sequence of
/// each, and that nothing else reaches the disk inside the call.
#[test]
fn namespace_ops_write_inode_and_directory_in_figure_1_order() {
    let mut fs = fresh();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/b").unwrap();
    // Every directory keeps one entry the script never touches, so each
    // removal leaves a non-empty directory block behind to write.
    for keep in ["/a/keep", "/b/keep"] {
        fs.write_file(keep, b"k").unwrap();
    }
    fs.mkdir("/a/sub").unwrap();
    fs.write_file("/a/one", b"1").unwrap();
    fs.write_file("/a/two", b"2").unwrap();
    fs.write_file("/b/victim", b"v").unwrap();
    fs.sync().unwrap();
    fs.device_mut().trace_mut().enable();

    assert_eq!(
        sync_writes_of(&mut fs, "link", |fs| fs.link("/a/one", "/b/alias").unwrap()),
        ["inode-sync", "dir-sync"]
    );
    assert_eq!(
        sync_writes_of(&mut fs, "unlink, non-last link", |fs| fs
            .unlink("/a/one")
            .unwrap()),
        ["dir-sync", "inode-sync"]
    );
    assert_eq!(
        sync_writes_of(&mut fs, "unlink, last link", |fs| fs
            .unlink("/b/alias")
            .unwrap()),
        ["dir-sync", "inode-sync"]
    );
    assert_eq!(
        sync_writes_of(&mut fs, "rmdir", |fs| fs.rmdir("/a/sub").unwrap()),
        ["dir-sync", "inode-sync"]
    );
    assert_eq!(
        sync_writes_of(&mut fs, "rename", |fs| fs
            .rename("/a/two", "/b/moved")
            .unwrap()),
        ["dir-sync", "dir-sync"]
    );
    // Over an existing file: the target's entry and inode go first, as
    // an unlink would write them, then the plain rename's two blocks.
    assert_eq!(
        sync_writes_of(&mut fs, "rename over a file", |fs| fs
            .rename("/b/moved", "/b/victim")
            .unwrap()),
        ["dir-sync", "inode-sync", "dir-sync", "dir-sync"]
    );
    assert_eq!(fs.read_file("/b/victim").unwrap(), b"2");
}
