//! Roll-forward semantics for specific post-checkpoint operation
//! patterns: each scenario checkpoints a base state, performs operations
//! that reach the log (via write-back) but *not* a checkpoint, crashes,
//! and verifies exactly what recovery reconstructs. Mount repairs only
//! what the tail touched, so every scenario ends in a warning-free
//! `fsck`: the full recount must agree with the incremental repair.

use std::sync::Arc;

use lfs_core::{Lfs, LfsConfig};
use sim_disk::{BlockDevice, Clock, CrashPlan, DiskGeometry, SimDisk};
use vfs::{FileSystem, FsError};

const DISK_SECTORS: u64 = 16_384;

fn fresh() -> Lfs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(DISK_SECTORS), Arc::clone(&clock));
    Lfs::format(disk, LfsConfig::small_test(), clock).unwrap()
}

/// `fsck` finds nothing, warnings included: its one warning is a usage
/// entry that disagrees with the full recount.
fn assert_fsck_clean(fs: &mut Lfs<SimDisk>, what: &str) {
    let report = fs.fsck().unwrap();
    assert!(report.is_clean() && report.warnings.is_empty(), "{what}: {report}");
}

/// Crash (take the image) and remount with roll-forward.
fn crash_and_recover(fs: Lfs<SimDisk>) -> Lfs<SimDisk> {
    let image = fs.into_device().into_image();
    let disk = SimDisk::from_image(DiskGeometry::tiny_test(DISK_SECTORS), Clock::new(), image);
    let clock = disk.clock().clone();
    Lfs::mount(disk, LfsConfig::small_test(), clock).expect("recovery mount")
}

#[test]
fn hard_links_made_after_checkpoint_recover_with_correct_nlink() {
    let mut fs = fresh();
    fs.write_file("/original", b"shared payload").unwrap();
    fs.sync().unwrap();

    fs.link("/original", "/alias1").unwrap();
    fs.link("/original", "/alias2").unwrap();
    fs.write_back().unwrap();

    let mut fs = crash_and_recover(fs);
    assert!(fs.stats().rollforward_chunks > 0);
    for path in ["/original", "/alias1", "/alias2"] {
        assert_eq!(fs.read_file(path).unwrap(), b"shared payload", "{path}");
    }
    let ino = fs.lookup("/original").unwrap();
    assert_eq!(fs.stat(ino).unwrap().nlink, 3, "nlink must be reconciled");
    assert_fsck_clean(&mut fs, "after recovery");
}

#[test]
fn rename_across_directories_after_checkpoint_recovers() {
    let mut fs = fresh();
    fs.mkdir("/src").unwrap();
    fs.mkdir("/dst").unwrap();
    fs.write_file("/src/wanderer", b"migratory data").unwrap();
    fs.sync().unwrap();

    fs.rename("/src/wanderer", "/dst/settled").unwrap();
    fs.write_back().unwrap();

    let mut fs = crash_and_recover(fs);
    assert_eq!(fs.lookup("/src/wanderer"), Err(FsError::NotFound));
    assert_eq!(fs.read_file("/dst/settled").unwrap(), b"migratory data");
    assert_fsck_clean(&mut fs, "after recovery");
}

#[test]
fn unlink_after_checkpoint_stays_deleted() {
    let mut fs = fresh();
    fs.write_file("/doomed", b"will be deleted").unwrap();
    fs.write_file("/survivor", b"stays").unwrap();
    fs.sync().unwrap();

    fs.unlink("/doomed").unwrap();
    fs.write_back().unwrap();

    let mut fs = crash_and_recover(fs);
    // The deletion's directory update reached the log; the orphaned
    // inode must not be resurrected (only the root's checkpoint-time
    // entries still name it, so the repair frees it).
    assert_eq!(fs.lookup("/doomed"), Err(FsError::NotFound));
    assert_eq!(fs.read_file("/survivor").unwrap(), b"stays");
    assert_fsck_clean(&mut fs, "after recovery");
}

#[test]
fn overwrite_after_checkpoint_recovers_the_new_content() {
    let mut fs = fresh();
    let ino = fs.write_file("/versioned", b"generation one").unwrap();
    fs.sync().unwrap();

    fs.truncate(ino, 0).unwrap();
    fs.write_at(ino, 0, b"generation two, longer than before")
        .unwrap();
    fs.write_back().unwrap();

    let mut fs = crash_and_recover(fs);
    assert_eq!(
        fs.read_file("/versioned").unwrap(),
        b"generation two, longer than before"
    );
    assert_fsck_clean(&mut fs, "after recovery");
}

#[test]
fn growth_into_indirect_blocks_after_checkpoint_recovers() {
    let mut fs = fresh();
    let ino = fs.write_file("/growing", &vec![1u8; 1024]).unwrap();
    fs.sync().unwrap();

    // Grow well into the single-indirect range (512 B blocks, 12 direct).
    let big: Vec<u8> = (0..40 * 512u32).map(|i| (i % 251) as u8).collect();
    fs.write_at(ino, 0, &big).unwrap();
    fs.write_back().unwrap();

    let mut fs = crash_and_recover(fs);
    assert_eq!(fs.read_file("/growing").unwrap(), big);
    assert_fsck_clean(&mut fs, "after recovery");
}

#[test]
fn mkdir_tree_after_checkpoint_recovers() {
    let mut fs = fresh();
    fs.sync().unwrap();

    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    fs.mkdir("/a/b/c").unwrap();
    fs.write_file("/a/b/c/leaf", b"deep").unwrap();
    fs.write_back().unwrap();

    let mut fs = crash_and_recover(fs);
    assert_eq!(fs.read_file("/a/b/c/leaf").unwrap(), b"deep");
    assert_eq!(fs.readdir("/a/b").unwrap().len(), 1);
    assert_fsck_clean(&mut fs, "after recovery");
}

#[test]
fn operations_not_written_back_are_lost_cleanly() {
    let mut fs = fresh();
    fs.write_file("/base", b"checkpointed").unwrap();
    fs.sync().unwrap();

    // Cache-only changes: no write-back before the crash.
    fs.write_file("/ghost", b"never flushed").unwrap();
    fs.unlink("/base").unwrap();

    let mut fs = crash_and_recover(fs);
    // The crash rolls back to the checkpoint: /base exists again, the
    // ghost never happened.
    assert_eq!(fs.read_file("/base").unwrap(), b"checkpointed");
    assert_eq!(fs.lookup("/ghost"), Err(FsError::NotFound));
    assert_fsck_clean(&mut fs, "after recovery");
}

/// Whether the newest checkpoint's own final chunk filled its segment,
/// read off its `checkpoint` event. A checkpoint always writes the usage
/// table, so it ends past offset 0 unless that final chunk sealed the
/// segment and opened the next; a writer that left the position spent
/// instead records an offset within one block of the end.
fn last_checkpoint_filled_its_segment(fs: &Lfs<SimDisk>) -> bool {
    let seg_blocks = fs.superblock().seg_blocks;
    let event = fs
        .obs()
        .events()
        .into_iter()
        .rev()
        .find(|e| e.kind == "checkpoint")
        .expect("sync takes a checkpoint");
    let offset: u32 = event
        .detail
        .split_whitespace()
        .find_map(|w| w.strip_prefix("offset="))
        .and_then(|v| v.parse().ok())
        .expect("checkpoint events carry the log offset");
    offset == 0 || offset + 1 >= seg_blocks
}

/// §4.4's contract at the log position that used to break it: a
/// checkpoint whose final chunk fills its segment. Each file size shifts
/// where checkpoints end, so some land on a segment end; a file fsync'd
/// after such a checkpoint must survive the crash.
#[test]
fn fsync_after_a_checkpoint_that_fills_its_segment_survives_a_crash() {
    const TAIL: &[u8] = b"synced past a segment-end checkpoint";
    let mut reached = 0;
    for size in (100..=3_000).step_by(100) {
        let mut fs = fresh();
        let filled = (0..40).any(|i| {
            fs.write_file(&format!("/f{i}"), &vec![i as u8; size])
                .unwrap();
            fs.sync().unwrap();
            last_checkpoint_filled_its_segment(&fs)
        });
        if !filled {
            continue;
        }
        reached += 1;
        let tail = fs.create("/tail").unwrap();
        fs.write_at(tail, 0, TAIL).unwrap();
        fs.fsync(tail).unwrap();

        let mut fs = crash_and_recover(fs);
        let read = fs.read_file("/tail");
        assert_eq!(read, Ok(TAIL.to_vec()), "size {size}");
        assert_fsck_clean(&mut fs, &format!("size {size}"));
    }
    assert!(reached > 0, "no size put a checkpoint on a segment end");
}

#[test]
fn recovery_is_idempotent_across_repeated_crashes() {
    let mut fs = fresh();
    fs.write_file("/stable", b"anchor").unwrap();
    fs.sync().unwrap();
    fs.write_file("/tail1", b"first tail").unwrap();
    fs.write_back().unwrap();

    // Crash, recover, immediately crash again (recovery checkpoints, so
    // the second mount must see the same state), several times over.
    let mut fs = crash_and_recover(fs);
    for round in 0..4 {
        assert_eq!(fs.read_file("/stable").unwrap(), b"anchor", "round {round}");
        assert_eq!(
            fs.read_file("/tail1").unwrap(),
            b"first tail",
            "round {round}"
        );
        assert_fsck_clean(&mut fs, &format!("round {round}"));
        fs = crash_and_recover(fs);
    }
}

/// The second name lives in a directory the tail never rewrites, so the
/// link count comes from the checkpoint-time count less the entry the
/// touched directory lost.
#[test]
fn unlink_of_one_hard_link_after_checkpoint_keeps_the_other() {
    let mut fs = fresh();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/b").unwrap();
    fs.write_file("/a/name", b"two names").unwrap();
    fs.link("/a/name", "/b/alias").unwrap();
    fs.sync().unwrap();

    fs.unlink("/a/name").unwrap();
    fs.write_back().unwrap();

    let mut fs = crash_and_recover(fs);
    assert!(fs.stats().rollforward_chunks > 0);
    assert_eq!(fs.lookup("/a/name"), Err(FsError::NotFound));
    assert_eq!(fs.read_file("/b/alias").unwrap(), b"two names");
    let ino = fs.lookup("/b/alias").unwrap();
    assert_eq!(fs.stat(ino).unwrap().nlink, 1);
    assert_fsck_clean(&mut fs, "after recovery");
}

/// Only the root reaches the log: the emptied directory's inode and its
/// files' frees live in the inode map, which no checkpoint wrote. The
/// directory the root lost takes its checkpoint-time entries with it.
#[test]
fn directory_emptied_and_removed_after_checkpoint_stays_removed() {
    let mut fs = fresh();
    fs.mkdir("/d").unwrap();
    fs.write_file("/d/f1", b"one").unwrap();
    fs.write_file("/d/f2", b"two").unwrap();
    fs.write_file("/keep", b"kept").unwrap();
    fs.sync().unwrap();
    let live_before = fs.inode_map().live_count();

    fs.unlink("/d/f1").unwrap();
    fs.unlink("/d/f2").unwrap();
    fs.rmdir("/d").unwrap();
    fs.write_back().unwrap();

    let mut fs = crash_and_recover(fs);
    assert!(fs.stats().rollforward_chunks > 0);
    assert_eq!(fs.lookup("/d"), Err(FsError::NotFound));
    assert_eq!(fs.read_file("/keep").unwrap(), b"kept");
    assert_eq!(fs.inode_map().live_count(), live_before - 3);
    assert_fsck_clean(&mut fs, "after recovery");
}

/// A rename's two directory updates reach the log in separate chunks
/// when enough dirty inodes sort between the two directories, so a crash
/// can keep the source's update and lose the destination's. The file is
/// then named nowhere and recovery frees it. Every crash point of the
/// flush must leave a clean volume holding the file in one place or
/// none, and at least one must be that source-only state.
#[test]
fn rename_whose_destination_update_is_lost_frees_the_file() {
    const BETWEEN: usize = 150;
    let scenario = |crash: Option<u64>| {
        let clock = Clock::new();
        let mut disk = SimDisk::new(DiskGeometry::tiny_test(DISK_SECTORS), Arc::clone(&clock));
        if let Some(idx) = crash {
            disk.arm_crash(CrashPlan::drop_at(idx));
        }
        let mut fs = Lfs::format(disk, LfsConfig::small_test(), clock).unwrap();
        fs.mkdir("/src").unwrap();
        let between: Vec<_> = (0..BETWEEN).map(|i| fs.create(&format!("/m{i}")).unwrap()).collect();
        fs.mkdir("/dst").unwrap();
        fs.write_file("/src/x", b"in transit").unwrap();
        fs.sync().unwrap();
        let flush_from = fs.device().stats().writes;
        let renamed = fs.rename("/src/x", "/dst/x").and_then(|()| {
            // Dirty inodes only, numbered between the two directories.
            between.iter().try_for_each(|&ino| fs.truncate(ino, 0))?;
            fs.write_back()
        });
        (fs, flush_from, renamed)
    };
    let (fs, flush_from, renamed) = scenario(None);
    renamed.unwrap();
    let flush_to = fs.device().stats().writes;
    assert!(flush_to - flush_from > 1, "the flush took one write");

    let mut source_only = 0;
    for idx in flush_from..flush_to {
        let (fs, _, _) = scenario(Some(idx));
        let mut fs = crash_and_recover(fs);
        let what = format!("crash at write {idx}");
        let at = |fs: &mut Lfs<SimDisk>, path| fs.read_file(path).ok();
        let found = [at(&mut fs, "/src/x"), at(&mut fs, "/dst/x")];
        assert!(found.iter().flatten().all(|b| b == b"in transit"), "{what}");
        assert!(found.iter().flatten().count() <= 1, "{what}: both names");
        if found == [None, None] {
            source_only += 1;
            assert_eq!(fs.readdir("/dst").unwrap().len(), 0, "{what}");
        }
        assert_fsck_clean(&mut fs, &what);
    }
    assert!(source_only > 0, "no crash point kept only the source update");
}

/// Checkpoint-only recovery (`roll_forward = false`) over a periodic
/// checkpoint that is parked — captured, its region not yet written. A
/// crash may lose exactly what the last *committed* region does not
/// cover, and never a file an `fsync` returned for.
#[test]
fn without_roll_forward_a_parked_region_loses_only_uncommitted_changes() {
    let mut cfg = LfsConfig::small_test().with_checkpoint_secs(1.0);
    cfg.roll_forward = false;
    let recover = |image: &[u8]| {
        let geometry = DiskGeometry::tiny_test(DISK_SECTORS);
        let disk = SimDisk::from_image(geometry, Clock::new(), image.to_vec());
        let clock = disk.clock().clone();
        Lfs::mount(disk, cfg.clone(), clock).expect("recovery mount")
    };
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(DISK_SECTORS), Arc::clone(&clock));
    let mut fs = Lfs::format(disk, cfg.clone(), Arc::clone(&clock)).unwrap();
    fs.write_file("/synced", b"sync").unwrap();
    fs.sync().unwrap();
    fs.write_file("/fsynced", b"fsync").unwrap();
    let ino = fs.lookup("/fsynced").unwrap();
    fs.fsync(ino).unwrap();
    fs.write_file("/captured", b"capture").unwrap();
    clock.advance_ns(1_000_000_000);
    fs.lookup("/captured").unwrap();
    assert!(fs.checkpoint_parked(), "the crossing call parks the region");
    let parked_image = fs.device().image().to_vec();

    let expect = |fs: &mut Lfs<SimDisk>, present: &[&str], lost: &[&str], what: &str| {
        for path in present {
            assert!(fs.read_file(path).is_ok(), "{what}: {path} lost");
        }
        for path in lost {
            assert_eq!(fs.lookup(path), Err(FsError::NotFound), "{what}: {path}");
        }
        assert_fsck_clean(fs, what);
    };
    let mut crashed = recover(&parked_image);
    expect(
        &mut crashed,
        &["/synced", "/fsynced"],
        &["/captured"],
        "crash while parked",
    );

    fs.write_file("/late", b"after the capture").unwrap();
    while !fs.device_mut().writes_durable() {
        clock.advance_ns(1_000_000);
    }
    fs.lookup("/late").unwrap();
    assert!(!fs.checkpoint_parked(), "the region landed");
    let mut crashed = recover(fs.device().image());
    expect(
        &mut crashed,
        &["/synced", "/fsynced", "/captured"],
        &["/late"],
        "crash after the region landed",
    );
}
