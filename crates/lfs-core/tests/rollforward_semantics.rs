//! Roll-forward semantics for specific post-checkpoint operation
//! patterns: each scenario checkpoints a base state, performs operations
//! that reach the log (via write-back) but *not* a checkpoint, crashes,
//! and verifies exactly what recovery reconstructs.

use std::sync::Arc;

use lfs_core::{Lfs, LfsConfig};
use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::{FileSystem, FsError};

const DISK_SECTORS: u64 = 16_384;

fn fresh() -> Lfs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(DISK_SECTORS), Arc::clone(&clock));
    Lfs::format(disk, LfsConfig::small_test(), clock).unwrap()
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
    assert!(fs.fsck().unwrap().is_clean());
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
    assert!(fs.fsck().unwrap().is_clean());
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
    // inode must not be resurrected (fix_directories reclaims it).
    assert_eq!(fs.lookup("/doomed"), Err(FsError::NotFound));
    assert_eq!(fs.read_file("/survivor").unwrap(), b"stays");
    assert!(fs.fsck().unwrap().is_clean());
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
    assert!(fs.fsck().unwrap().is_clean());
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
    assert!(fs.fsck().unwrap().is_clean());
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
    assert!(fs.fsck().unwrap().is_clean());
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
    assert!(fs.fsck().unwrap().is_clean());
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
        assert!(fs.fsck().unwrap().is_clean(), "size {size}");
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
        assert!(fs.fsck().unwrap().is_clean(), "round {round}");
        fs = crash_and_recover(fs);
    }
}
