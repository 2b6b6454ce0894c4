//! White-box tests of FFS internals: eager allocation, synchronous
//! metadata paths, and write-back mechanics.

use std::sync::Arc;

use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::{FileSystem, Ino};

use crate::config::FfsConfig;
use crate::fs::Ffs;
use crate::layout::NIL;

fn fresh() -> Ffs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(32_768), Arc::clone(&clock));
    Ffs::format(disk, FfsConfig::small_test(), clock).unwrap()
}

#[test]
fn map_block_alloc_reports_freshness() {
    let mut fs = fresh();
    let ino = fs.create("/f").unwrap();
    let (addr1, fresh1) = fs.map_block_alloc(ino, 0).unwrap();
    assert!(fresh1, "first mapping allocates");
    assert_ne!(addr1, NIL);
    let (addr2, fresh2) = fs.map_block_alloc(ino, 0).unwrap();
    assert!(!fresh2, "second mapping reuses");
    assert_eq!(addr1, addr2);
}

#[test]
fn sequential_blocks_of_a_file_are_nearly_contiguous() {
    let mut fs = fresh();
    let ino = fs.write_file("/seq", &vec![1u8; 10 * 512]).unwrap();
    let mut addrs = Vec::new();
    for bno in 0..10u64 {
        let addr = vfs::blockmap::map_block(&mut fs, ino, bno).unwrap();
        assert_ne!(addr, NIL);
        addrs.push(addr);
    }
    // Monotone increasing (the sequential-allocation hint) with at most a
    // couple of gaps where directory metadata interleaved.
    assert!(addrs.windows(2).all(|w| w[1] > w[0]), "{addrs:?}");
    let span = addrs.last().unwrap() - addrs.first().unwrap();
    assert!(span <= 12, "layout too scattered: {addrs:?}");
}

#[test]
fn indirect_blocks_get_disk_homes_eagerly() {
    let mut fs = fresh();
    let ino = fs.create("/deep").unwrap();
    // Block 12 is the first single-indirect block (NDIRECT = 12).
    fs.write_at(ino, 12 * 512, &vec![2u8; 512]).unwrap();
    let inode = fs.inode(ino).unwrap();
    assert_ne!(inode.single, NIL, "indirect block must have a home");
    assert_ne!(vfs::blockmap::map_block(&mut fs, ino, 12).unwrap(), NIL);
    // And it is a real, allocated data block.
    assert!(fs.superblock().is_data_block(inode.single));
}

#[test]
fn write_inode_to_table_controls_sync_flag() {
    let mut fs = fresh();
    let ino = fs.write_file("/flagged", b"x").unwrap();
    let sync_before = fs.device().stats().sync_writes;
    fs.with_inode_mut(ino, |i| i.mtime_ns += 1).unwrap();
    fs.write_inode_to_table(ino, false).unwrap();
    assert_eq!(
        fs.device().stats().sync_writes,
        sync_before,
        "async inode write must not be synchronous"
    );
    fs.with_inode_mut(ino, |i| i.mtime_ns += 1).unwrap();
    fs.write_inode_to_table(ino, true).unwrap();
    assert_eq!(fs.device().stats().sync_writes, sync_before + 1);
}

#[test]
fn sync_file_range_writes_only_affected_blocks() {
    let mut fs = fresh();
    let ino = fs.write_file("/ranged", &vec![3u8; 8 * 512]).unwrap();
    fs.sync().unwrap();
    // Dirty two specific blocks, then sync just their range.
    fs.write_at(ino, 2 * 512, &vec![4u8; 512]).unwrap();
    fs.write_at(ino, 3 * 512, &vec![5u8; 512]).unwrap();
    let writes_before = fs.device().stats().writes;
    fs.sync_file_range(ino, 2 * 512, 4 * 512).unwrap();
    let delta = fs.device().stats().writes - writes_before;
    assert_eq!(delta, 2, "exactly the two dirty blocks in range");
}

#[test]
fn destroy_file_zeroes_the_inode_slot_synchronously() {
    let mut fs = fresh();
    fs.write_file("/gone", b"bye").unwrap();
    fs.sync().unwrap();
    let sync_before = fs.device().stats().sync_writes;
    fs.unlink("/gone").unwrap();
    assert!(
        fs.device().stats().sync_writes > sync_before,
        "unlink must synchronously clear metadata (Figure 1)"
    );
    // Remount from the raw image: the inode slot must be empty.
    let geometry = fs.device().geometry().clone();
    let image = fs.into_device().into_image();
    let disk = SimDisk::from_image(geometry, Clock::new(), image);
    let clock = disk.clock().clone();
    let mut fs = Ffs::mount(disk, FfsConfig::small_test(), clock).unwrap();
    assert!(fs.lookup("/gone").is_err());
    assert!(fs.fsck().unwrap().is_clean());
}

#[test]
fn alloc_spills_to_other_groups_when_one_fills() {
    let mut fs = fresh();
    // One cylinder group has 64 inodes (small_test); creating more than
    // that in a single directory forces inode allocation to spill.
    for i in 0..100 {
        fs.create(&format!("/s{i:03}")).unwrap();
    }
    let a = fs.lookup("/s000").unwrap();
    let b = fs.lookup("/s099").unwrap();
    let (cg_a, _) = fs.superblock().ino_location(a).unwrap();
    let (cg_b, _) = fs.superblock().ino_location(b).unwrap();
    assert_ne!(cg_a, cg_b, "allocation must have spilled groups");
    assert!(fs.fsck().unwrap().is_clean());
}

#[test]
fn root_inode_is_pinned_to_group_zero() {
    let fs = fresh();
    let (cg, slot) = fs.superblock().ino_location(Ino::ROOT).unwrap();
    assert_eq!((cg, slot), (0, 0));
}
