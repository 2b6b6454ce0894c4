//! Tests pinning the paper's finer design points, section by section.

use std::sync::Arc;

use lfs_core::layout::usage_block::SegState;
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::FileSystem;

fn fs_with(cfg: LfsConfig) -> (Lfs<SimDisk>, Arc<Clock>) {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(32_768), Arc::clone(&clock));
    let fs = Lfs::format(disk, cfg, Arc::clone(&clock)).unwrap();
    (fs, clock)
}

/// Footnote 2: "Keeping the access time in the inode map rather than the
/// inode allows faithful implementation of the UNIX file access time
/// semantics without inodes constantly moving every time a file is read."
#[test]
fn reads_update_atime_without_rewriting_inodes() {
    let (mut fs, clock) = fs_with(LfsConfig::small_test());
    let ino = fs.write_file("/f", b"some data").unwrap();
    fs.sync().unwrap();
    let inode_blocks_before = fs.stats().inode_blocks_written;

    clock.advance_ns(1_000_000);
    let atime_before = fs.stat(ino).unwrap().atime_ns;
    let mut buf = [0u8; 4];
    fs.read_at(ino, 0, &mut buf).unwrap();
    let atime_after = fs.stat(ino).unwrap().atime_ns;
    assert!(atime_after > atime_before, "read must update atime");

    // Another sync: the inode itself was not dirtied by the read, so no
    // inode block is rewritten (the imap block is).
    fs.sync().unwrap();
    assert_eq!(
        fs.stats().inode_blocks_written,
        inode_blocks_before,
        "a read must not cause the inode to move (footnote 2)"
    );
}

/// §4.2.1: the version number is updated every time the file is
/// truncated to length zero (and on delete).
#[test]
fn version_bumps_on_truncate_to_zero_only() {
    let (mut fs, _clock) = fs_with(LfsConfig::small_test());
    let ino = fs.write_file("/v", &vec![1u8; 2000]).unwrap();
    let v0 = fs.inode_map().get(ino).unwrap().version;
    // Partial shrink: no bump.
    fs.truncate(ino, 100).unwrap();
    assert_eq!(fs.inode_map().get(ino).unwrap().version, v0);
    // Truncate to zero: bump.
    fs.truncate(ino, 0).unwrap();
    assert_eq!(fs.inode_map().get(ino).unwrap().version, v0 + 1);
}

/// §4.4.1: two checkpoint regions, writes alternating between them.
#[test]
fn checkpoints_alternate_between_fixed_regions() {
    let (mut fs, _clock) = fs_with(LfsConfig::small_test());
    let sb = fs.superblock().clone();
    let spb = sb.block_size as u64 / sim_disk::SECTOR_SIZE as u64;
    let region_a = sb.cp_a.0 as u64 * spb;
    let region_b = sb.cp_b.0 as u64 * spb;

    fs.device_mut().trace_mut().enable();
    for i in 0..4 {
        fs.write_file(&format!("/c{i}"), b"x").unwrap();
        fs.sync().unwrap();
    }
    let cp_sectors: Vec<u64> = fs
        .device()
        .trace()
        .records()
        .iter()
        .filter(|r| r.label == "checkpoint")
        .map(|r| r.sector)
        .collect();
    assert_eq!(cp_sectors.len(), 4);
    for pair in cp_sectors.windows(2) {
        assert_ne!(pair[0], pair[1], "consecutive checkpoints must alternate");
    }
    for &sector in &cp_sectors {
        assert!(
            sector == region_a || sector == region_b,
            "checkpoints must go to the fixed regions"
        );
    }
}

/// §4.3.5 "Cache full": a burst of writes larger than the cache's dirty
/// high-water mark triggers a segment write without any sync call.
#[test]
fn cache_pressure_triggers_writeback() {
    let mut cfg = LfsConfig::small_test();
    cfg.cache_bytes = 16 * 1024; // 32 blocks of 512 B.
    let (mut fs, _clock) = fs_with(cfg);
    let writes_before = fs.device().stats().writes;
    // Write well past the high-water mark.
    fs.write_file("/burst", &vec![7u8; 64 * 1024]).unwrap();
    assert!(
        fs.device().stats().writes > writes_before,
        "cache pressure must start segment writes on its own"
    );
}

/// §4.3.5 "Cache write-back": dirty data older than the age threshold is
/// written out by a subsequent operation, without sync.
#[test]
fn age_threshold_triggers_writeback() {
    let mut cfg = LfsConfig::small_test();
    cfg.writeback = cfg.writeback.with_age_secs(1.0);
    cfg.checkpoint_interval_ns = u64::MAX; // Isolate the age trigger.
    let (mut fs, clock) = fs_with(cfg);
    fs.write_file("/aging", b"getting old").unwrap();
    let writes_before = fs.device().stats().writes;

    clock.advance_ns(2_000_000_000); // 2 virtual seconds pass.
                                     // Any operation gives the "daemon" a chance to run.
    let _ = fs.lookup("/aging").unwrap();
    assert!(
        fs.device().stats().writes > writes_before,
        "the age threshold must flush old dirty data"
    );
}

/// §4.1: the log never updates in place — every disk write during normal
/// operation lands on a never-before-written block of the current
/// segment, or in a checkpoint region.
#[test]
fn log_writes_never_update_in_place() {
    let (mut fs, _clock) = fs_with(LfsConfig::small_test());
    let sb = fs.superblock().clone();
    let spb = sb.block_size as u64 / sim_disk::SECTOR_SIZE as u64;
    fs.device_mut().trace_mut().enable();

    for i in 0..20 {
        fs.write_file(&format!("/f{i}"), &vec![i as u8; 3000])
            .unwrap();
        if i % 3 == 0 {
            fs.sync().unwrap();
        }
        if i % 4 == 0 {
            let ino = fs.lookup(&format!("/f{i}")).unwrap();
            fs.truncate(ino, 100).unwrap();
        }
    }
    fs.sync().unwrap();

    let mut seen = std::collections::HashSet::new();
    let cp_region = |sector: u64| {
        let block = sector / spb;
        block >= sb.cp_a.0 as u64 && block < sb.seg_start.0 as u64
    };
    for record in fs.device().trace().records() {
        if record.kind != sim_disk::AccessKind::Write || cp_region(record.sector) {
            continue;
        }
        for s in 0..record.bytes / sim_disk::SECTOR_SIZE as u64 {
            assert!(
                seen.insert(record.sector + s),
                "sector {} written twice without cleaning — in-place update!",
                record.sector + s
            );
        }
    }
}

/// §4.3.2: "Files can be read and written while segments are being
/// cleaned" — cleaning interleaves with normal operations.
#[test]
fn cleaning_interleaves_with_operations() {
    let (mut fs, _clock) = fs_with(LfsConfig::small_test());
    for i in 0..40 {
        fs.write_file(&format!("/x{i}"), &vec![1u8; 4000]).unwrap();
    }
    fs.sync().unwrap();
    for i in 0..30 {
        fs.unlink(&format!("/x{i}")).unwrap();
    }
    fs.sync().unwrap();

    // Clean one segment (phase 1 only — relocations sit dirty in cache),
    // then interleave reads and writes before the commit.
    let victims = fs.usage_table().segments_in_state(SegState::Dirty);
    let seg = victims[0];
    fs.clean_segment(seg).unwrap();
    assert_eq!(fs.usage_table().state(seg), SegState::CleanPending);

    fs.write_file("/during-clean", b"interleaved").unwrap();
    assert_eq!(fs.read_file("/x35").unwrap(), vec![1u8; 4000]);

    fs.checkpoint().unwrap();
    assert_eq!(fs.usage_table().state(seg), SegState::Clean);
    assert_eq!(fs.read_file("/during-clean").unwrap(), b"interleaved");
    assert!(fs.fsck().unwrap().is_clean());
}

/// §4.3.4: cleaned-but-uncommitted segments are not reused before the
/// checkpoint lands (crash in between must find old copies intact).
#[test]
fn clean_pending_segments_are_not_writable() {
    let (mut fs, _clock) = fs_with(LfsConfig::small_test());
    for i in 0..40 {
        fs.write_file(&format!("/y{i}"), &vec![2u8; 4000]).unwrap();
    }
    fs.sync().unwrap();
    for i in 0..40 {
        fs.unlink(&format!("/y{i}")).unwrap();
    }
    fs.write_back().unwrap();

    let victims = fs.usage_table().segments_in_state(SegState::Dirty);
    let seg = victims[0];
    fs.clean_segment(seg).unwrap();

    // Heavy writing before any checkpoint: the pending segment must not
    // be allocated.
    for i in 0..20 {
        fs.write_file(&format!("/z{i}"), &vec![3u8; 4000]).unwrap();
        fs.write_back().unwrap();
        assert_eq!(
            fs.usage_table().state(seg),
            SegState::CleanPending,
            "pending segment reused before checkpoint commit"
        );
    }
    fs.checkpoint().unwrap();
    assert_eq!(fs.usage_table().state(seg), SegState::Clean);
}

/// §5: LFS with a one-segment flush writes summary overhead under a few
/// percent ("the cost of the summary blocks is small").
#[test]
fn summary_overhead_is_small_for_bulk_writes() {
    let (mut fs, _clock) = fs_with(LfsConfig::small_test());
    fs.write_file("/bulk", &vec![9u8; 200 * 1024]).unwrap();
    fs.sync().unwrap();
    let overhead = fs.stats().summary_overhead();
    assert!(
        overhead < 0.08,
        "summary overhead should be a few percent, got {:.1}%",
        overhead * 100.0
    );
}

/// A successful fsync is durable even under checkpoint-only (no
/// roll-forward) recovery: without roll-forward, fsync checkpoints.
#[test]
fn fsync_checkpoints_makes_fsync_durable_without_rollforward() {
    let mut cfg = LfsConfig::small_test();
    cfg.roll_forward = false;
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
    let geometry = disk.geometry().clone();
    let mut fs = Lfs::format(disk, cfg.clone(), Arc::clone(&clock)).unwrap();
    let ino = fs
        .write_file("/precious", b"checkpointed by fsync")
        .unwrap();
    fs.fsync(ino).unwrap();
    // Crash immediately after the fsync.
    let image = fs.into_device().into_image();

    let disk = SimDisk::from_image(geometry, Clock::new(), image);
    let clock = disk.clock().clone();
    let mut fs = Lfs::mount(disk, cfg, clock).unwrap();
    assert_eq!(
        fs.read_file("/precious").unwrap(),
        b"checkpointed by fsync",
        "fsync durability must not depend on roll-forward"
    );
    assert!(fs.fsck().unwrap().is_clean());
}

/// The in-memory inode table stays bounded: touching tens of thousands
/// of files must not retain an entry per file forever.
#[test]
fn inode_table_is_bounded() {
    let mut cfg = LfsConfig::small_test();
    cfg.cache_bytes = 32 * 1024; // 64-block cache => low inode cap floor.
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(65_536), Arc::clone(&clock));
    let mut fs = Lfs::format(disk, cfg, clock).unwrap();
    // 400 files is fine for the default 512-inode map but far above the
    // eviction floor only if the floor were tiny; the cap here is
    // max(cache blocks, 1024) — so verify the table never exceeds it.
    for i in 0..400 {
        fs.write_file(&format!("/n{i:04}"), b"tiny").unwrap();
    }
    fs.sync().unwrap();
    for i in 0..400 {
        let _ = fs.lookup(&format!("/n{i:04}")).unwrap();
    }
    assert!(
        fs.cached_inode_count() <= 1024,
        "inode table grew to {}",
        fs.cached_inode_count()
    );
}

/// Cleaning a segment holding a multiply-linked file's blocks preserves
/// every link (liveness is per inode, not per directory entry).
#[test]
fn cleaner_preserves_hard_links() {
    let (mut fs, _clock) = fs_with(LfsConfig::small_test());
    fs.mkdir("/d").unwrap();
    let payload = vec![0x5Au8; 6 * 1024];
    fs.write_file("/d/primary", &payload).unwrap();
    fs.link("/d/primary", "/d/secondary").unwrap();
    // Surround with garbage so its segment is worth cleaning.
    for i in 0..20 {
        fs.write_file(&format!("/junk{i}"), &vec![1u8; 4_000]).unwrap();
    }
    fs.sync().unwrap();
    for i in 0..20 {
        fs.unlink(&format!("/junk{i}")).unwrap();
    }
    fs.sync().unwrap();

    // Clean everything cleanable.
    fs.clean_until(usize::MAX).unwrap();
    assert!(fs.stats().segments_cleaned > 0);
    fs.drop_caches().unwrap();
    assert_eq!(fs.read_file("/d/primary").unwrap(), payload);
    assert_eq!(fs.read_file("/d/secondary").unwrap(), payload);
    let ino = fs.lookup("/d/primary").unwrap();
    assert_eq!(fs.stat(ino).unwrap().nlink, 2);
    assert!(fs.fsck().unwrap().is_clean());
}

/// Figure 2 for the whole namespace: the operations FFS answers with
/// synchronous inode and directory writes (`ffs_fidelity.rs` pins which)
/// reach no device at all under LFS — they change the cache and the
/// inode map, and the next `sync` carries them out in the log. On a
/// freshly synced mount no write-back trigger can fire inside a six-op
/// script, so the count is exactly zero.
#[test]
fn namespace_ops_issue_no_device_writes_until_sync() {
    let (mut fs, _clock) = fs_with(LfsConfig::small_test());
    fs.mkdir("/a").unwrap();
    fs.mkdir("/b").unwrap();
    fs.mkdir("/a/sub").unwrap();
    fs.write_file("/a/one", b"1").unwrap();
    fs.write_file("/a/two", b"2").unwrap();
    fs.write_file("/b/victim", b"v").unwrap();
    fs.sync().unwrap();
    let synced = fs.device().stats().writes;

    type Op = fn(&mut Lfs<SimDisk>);
    let script: [(&str, Op); 6] = [
        ("link", |fs| fs.link("/a/one", "/b/alias").unwrap()),
        ("unlink, non-last link", |fs| fs.unlink("/a/one").unwrap()),
        ("unlink, last link", |fs| fs.unlink("/b/alias").unwrap()),
        ("rmdir", |fs| fs.rmdir("/a/sub").unwrap()),
        ("rename", |fs| fs.rename("/a/two", "/b/moved").unwrap()),
        ("rename over a file", |fs| {
            fs.rename("/b/moved", "/b/victim").unwrap()
        }),
    ];
    for (what, op) in script {
        op(&mut fs);
        assert_eq!(
            fs.device().stats().writes,
            synced,
            "{what} must not write to the device"
        );
    }
    fs.sync().unwrap();
    assert!(
        fs.device().stats().writes > synced,
        "the six changes reach the log at the next sync"
    );
    assert_eq!(fs.read_file("/b/victim").unwrap(), b"2");
}
