//! Fences for the read-ahead ring (DESIGN §5.2.3): what a foreground
//! read returns never depends on what was prefetched.
//!
//! Every scenario runs LFS on a one-spindle volume, the stack the
//! benchmark runs, whose engine offers the asynchronous read facade the
//! ring prefetches through: 4 KB blocks as on the paper's rig, so a
//! unit is two blocks, 256 KB segments and a 1 MB cache, so one sync
//! writes a few dozen small files as one chunk.
//!
//! - a proptest of creates, whole-file writes, sequential and random
//!   reads, unlinks, `clean_until`, `drop_caches` and remounts against
//!   [`ModelFs`], every read byte-identical;
//! - a segment cleaned and reused while a stream's units cover it never
//!   serves a stale block;
//! - a latent sector in a prefetched block nobody asks for surfaces no
//!   error, and one in a block that is asked for surfaces the same
//!   typed error as a cold read of it;
//! - a crash with prefetches in flight recovers to the synced state;
//! - `drop_caches` leaves no unit and no unclaimed token;
//! - a device without the facade prefetches nothing.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use lfs_core::{Lfs, LfsConfig};
use proptest::prelude::*;
use sim_disk::{Clock, CrashPlan, DiskGeometry, MediaFaultPlan, SimDisk};
use vfs::model::ModelFs;
use vfs::{FileSystem, FsError};
use volume::{StripedVolume, VolumeConfig, VolumeDisk};

type Shared = Rc<RefCell<StripedVolume>>;

/// 16 MB: 64 segments.
const SECTORS: u64 = 32_768;
const BLOCK: usize = 4096;

fn cfg() -> LfsConfig {
    LfsConfig::small_test()
        .with_block_size(BLOCK)
        .with_segment_bytes(256 * 1024)
        .with_cache_bytes(1024 * 1024)
}

fn volume(clock: &Arc<Clock>, sectors: u64) -> Shared {
    let vcfg = VolumeConfig::rr_segment(1, cfg().stripe_chunk_bytes());
    StripedVolume::new(DiskGeometry::tiny_test(sectors), Arc::clone(clock), vcfg).into_shared()
}

fn format(sectors: u64) -> (Lfs<VolumeDisk>, Shared) {
    format_with(sectors, cfg())
}

fn format_with(sectors: u64, cfg: LfsConfig) -> (Lfs<VolumeDisk>, Shared) {
    let clock = Clock::new();
    let shared = volume(&clock, sectors);
    let fs = Lfs::format(VolumeDisk::new(Rc::clone(&shared)), cfg, clock).expect("format");
    (fs, shared)
}

fn counter(fs: &Lfs<VolumeDisk>, name: &str) -> u64 {
    fs.obs().snapshot().counter(name)
}

fn readahead_events(fs: &Lfs<VolumeDisk>) -> Vec<String> {
    let events = fs.obs().events().into_iter();
    events
        .filter(|e| e.kind == "readahead")
        .map(|e| e.detail)
        .collect()
}

/// The bytes of small file `i`: one block's worth or less.
fn small(i: usize) -> Vec<u8> {
    (0..1000 + i % 7 * 13)
        .map(|k| (k * 7 + i * 31) as u8)
        .collect()
}

/// Writes `/f0 .. /f{n-1}` (one block each), syncs and empties the
/// caches: the files lie in the log in creation order, and reading
/// them back in that order is a scan of the log.
fn small_files(fs: &mut Lfs<VolumeDisk>, n: usize) {
    for i in 0..n {
        fs.write_file(&format!("/f{i}"), &small(i)).expect("write");
    }
    fs.sync().expect("sync");
    fs.drop_caches().expect("drop caches");
}

/// The sector of the device request a cold read of `path` sends for
/// its data block, off the spindle's access trace.
fn data_sector(fs: &mut Lfs<VolumeDisk>, shared: &Shared, path: &str) -> u64 {
    fs.drop_caches().expect("drop caches");
    shared
        .borrow_mut()
        .spindle_mut(0)
        .disk_mut()
        .trace_mut()
        .enable();
    fs.read_file(path).expect("cold read");
    let vol = shared.borrow();
    let records = vol.spindle(0).disk().trace().records();
    let read = records.iter().rev().find(|r| r.label == "file-data");
    let sector = read.expect("a data read").sector;
    drop(vol);
    shared
        .borrow_mut()
        .spindle_mut(0)
        .disk_mut()
        .trace_mut()
        .disable();
    fs.drop_caches().expect("drop caches");
    sector
}

/// Reads the spindle failed on a latent sector.
const UNREADABLE: &str = "volume.spindle.0.faults.unreadable_reads";

fn latent(shared: &Shared, sector: u64) {
    let plan = MediaFaultPlan::new(5).latent(sector);
    shared
        .borrow_mut()
        .spindle_mut(0)
        .disk_mut()
        .inject_media_faults(plan);
}

#[test]
fn a_scan_in_creation_order_streams_from_the_log() {
    let (mut fs, _) = format(SECTORS);
    small_files(&mut fs, 60);
    for i in 0..60 {
        assert_eq!(fs.read_file(&format!("/f{i}")).unwrap(), small(i), "/f{i}");
    }
    let issued = counter(&fs, "readahead.issued_blocks");
    let used = counter(&fs, "readahead.used_blocks");
    assert!(issued > 0, "no prefetch issued");
    assert!(
        used * 10 >= issued * 9,
        "used {used} of {issued} prefetched blocks"
    );
    let events = readahead_events(&fs);
    assert!(
        events.iter().any(|e| e.starts_with("start trigger=log")),
        "{events:?}"
    );
}

#[test]
fn a_device_without_the_facade_prefetches_nothing() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(SECTORS), Arc::clone(&clock));
    let mut fs = Lfs::format(disk, cfg(), clock).expect("format");
    for i in 0..60 {
        fs.write_file(&format!("/f{i}"), &small(i)).unwrap();
    }
    fs.sync().unwrap();
    fs.drop_caches().unwrap();
    for i in 0..60 {
        assert_eq!(fs.read_file(&format!("/f{i}")).unwrap(), small(i));
    }
    assert_eq!(fs.obs().snapshot().counter("readahead.issued_blocks"), 0);
    assert!(fs.obs().events().iter().all(|e| e.kind != "readahead"));
}

#[test]
fn drop_caches_leaves_no_unit_and_no_unclaimed_token() {
    let (mut fs, shared) = format(SECTORS);
    small_files(&mut fs, 60);
    for i in 0..8 {
        fs.read_file(&format!("/f{i}")).unwrap();
    }
    let (units, in_flight) = fs.readahead_held_for_test();
    assert!(
        units > 0 && in_flight > 0,
        "no prefetch in flight: {units} units {:?}",
        readahead_events(&fs)
    );
    fs.drop_caches().unwrap();
    assert_eq!(fs.readahead_held_for_test(), (0, 0));
    assert_eq!(shared.borrow().queue_depth(), 0, "a read left in the queue");
    let dropped = counter(&fs, "readahead.dropped_blocks");
    let (issued, used) = (
        counter(&fs, "readahead.issued_blocks"),
        counter(&fs, "readahead.used_blocks"),
    );
    assert_eq!(
        issued,
        used + dropped,
        "every prefetched block is used or dropped"
    );
    // The next read is served by the device, not by a dropped unit.
    assert_eq!(fs.read_file("/f8").unwrap(), small(8));
    assert_eq!(counter(&fs, "readahead.used_blocks"), used);
}

#[test]
fn a_latent_sector_nobody_reads_surfaces_no_error() {
    let (mut fs, shared) = format(SECTORS);
    small_files(&mut fs, 60);
    // The block just past the tenth file's, prefetched by the stream
    // the first ten reads start, is the eleventh file's; it is never
    // read.
    let sector = data_sector(&mut fs, &shared, "/f10");
    latent(&shared, sector);
    for i in 0..10 {
        assert_eq!(fs.read_file(&format!("/f{i}")).unwrap(), small(i), "/f{i}");
    }
    for i in 11..20 {
        assert_eq!(fs.read_file(&format!("/f{i}")).unwrap(), small(i), "/f{i}");
    }
    let unreadable = counter(&fs, UNREADABLE);
    assert!(unreadable > 0, "no prefetch touched the latent sector");
    assert!(counter(&fs, "readahead.dropped_blocks") > 0);
}

#[test]
fn a_latent_sector_that_is_read_surfaces_the_cold_reads_error() {
    let cold = {
        let (mut fs, shared) = format(SECTORS);
        small_files(&mut fs, 60);
        let sector = data_sector(&mut fs, &shared, "/f10");
        latent(&shared, sector);
        fs.read_file("/f10").unwrap_err()
    };
    assert!(matches!(cold, FsError::Io(_)), "{cold:?}");
    let (mut fs, shared) = format(SECTORS);
    small_files(&mut fs, 60);
    let sector = data_sector(&mut fs, &shared, "/f10");
    latent(&shared, sector);
    for i in 0..10 {
        assert_eq!(fs.read_file(&format!("/f{i}")).unwrap(), small(i), "/f{i}");
    }
    let issued = counter(&fs, "readahead.issued_blocks");
    assert_eq!(fs.read_file("/f10").unwrap_err(), cold);
    assert!(issued > 0, "nothing was prefetched");
    // The failed prefetch was dropped, then the demand read failed.
    assert!(counter(&fs, UNREADABLE) >= 2);
    // The files past it still read.
    assert_eq!(fs.read_file("/f11").unwrap(), small(11));
}

#[test]
fn a_reused_segment_never_serves_a_stale_block() {
    // 4 MB: 16 segments, so the log soon wraps into cleaned ones; a
    // 64 KB cache, so the files read back at the end come from disk.
    let (mut fs, _) = format_with(8192, cfg().with_cache_bytes(64 * 1024));
    small_files(&mut fs, 40);
    // A stream over the first files' segment, its units not yet read.
    for i in 0..6 {
        assert_eq!(fs.read_file(&format!("/f{i}")).unwrap(), small(i));
    }
    assert!(fs.readahead_held_for_test().0 > 0, "no stream");
    let start = readahead_events(&fs)
        .into_iter()
        .find(|e| e.starts_with("start trigger=log"));
    let addr: u32 = start
        .expect("a log-order stream")
        .split(['=', ' '])
        .nth(4)
        .unwrap()
        .parse()
        .unwrap();
    let (seg, _) = fs
        .superblock()
        .seg_of(lfs_core::BlockAddr(addr))
        .expect("in the log");
    let reopened = format!("next={} ", seg.0);
    // Kill the old files, then churn a window of 80 files, synced every
    // 40, until the cleaner has freed the stream's segment and the log
    // reuses it. No read touches the ring meanwhile.
    for i in 0..40 {
        fs.unlink(&format!("/f{i}")).unwrap();
    }
    let g = |i: usize| vec![(i % 251) as u8; 3000 + i % 5 * 200];
    let mut n = 0;
    let reused = |fs: &Lfs<VolumeDisk>| {
        let events = fs.obs().events().into_iter();
        events
            .filter(|e| e.kind == "segment_sealed")
            .any(|e| e.detail.contains(&reopened))
    };
    while !reused(&fs) {
        assert!(n < 5_000, "the stream's segment was never reused");
        fs.write_file(&format!("/g{n}"), &g(n)).unwrap();
        if n >= 80 {
            fs.unlink(&format!("/g{}", n - 80)).unwrap();
        }
        if n % 40 == 39 {
            fs.sync().unwrap();
        }
        n += 1;
    }
    // Write on until the reused segment is full of new files, then read
    // back cold every file that can lie in it — newest first, so no
    // stream starts and evicts the stale units before a read meets
    // them.
    let first = n - 80;
    for _ in 0..80 {
        fs.write_file(&format!("/g{n}"), &g(n)).unwrap();
        n += 1;
    }
    fs.sync().unwrap();
    let events = readahead_events(&fs);
    assert!(events.iter().any(|e| e.contains("why=reuse")), "{events:?}");
    for i in (first..n).rev() {
        assert_eq!(fs.read_file(&format!("/g{i}")).unwrap(), g(i), "/g{i}");
    }
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn a_crash_with_prefetches_in_flight_recovers_the_synced_files() {
    let (mut fs, shared) = format(SECTORS);
    small_files(&mut fs, 60);
    // Unsynced work the crash may lose, then a stream in flight.
    for i in 60..70 {
        fs.write_file(&format!("/f{i}"), &small(i)).unwrap();
    }
    for i in 0..8 {
        fs.read_file(&format!("/f{i}")).unwrap();
    }
    assert!(fs.readahead_held_for_test().1 > 0, "nothing in flight");
    let writes = shared.borrow().spindle(0).disk().stats().writes;
    shared
        .borrow_mut()
        .arm_crash_all(CrashPlan::drop_at(writes));
    assert!(fs.sync().is_err(), "the crash did not fire");
    drop(fs.into_device());
    let images = Rc::try_unwrap(shared)
        .ok()
        .expect("one owner")
        .into_inner()
        .into_images();
    let clock = Clock::new();
    let vcfg = VolumeConfig::rr_segment(1, cfg().stripe_chunk_bytes());
    let vol = StripedVolume::from_images(
        DiskGeometry::tiny_test(SECTORS),
        Arc::clone(&clock),
        vcfg,
        images,
    );
    let mut fs = Lfs::mount(VolumeDisk::new(vol.into_shared()), cfg(), clock).expect("mount");
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "{report}");
    for i in 0..60 {
        assert_eq!(fs.read_file(&format!("/f{i}")).unwrap(), small(i), "/f{i}");
    }
}

/// One step of the model check.
#[derive(Debug, Clone)]
enum Op {
    /// Write file `slot` whole: `len` bytes of `byte`.
    Write {
        slot: usize,
        len: usize,
        byte: u8,
    },
    /// Read file `slot` from the start in pieces of `piece` bytes.
    ReadSeq {
        slot: usize,
        piece: usize,
    },
    /// Read `len` bytes of file `slot` at `at`.
    ReadAt {
        slot: usize,
        at: usize,
        len: usize,
    },
    /// Read every file in slot order.
    Scan,
    Unlink {
        slot: usize,
    },
    Clean,
    DropCaches,
    Remount,
}

const SLOTS: usize = 12;

fn op() -> impl Strategy<Value = Op> {
    let write = || {
        (0..SLOTS, 1usize..40_000, any::<u8>()).prop_map(|(slot, len, byte)| Op::Write {
            slot,
            len,
            byte,
        })
    };
    let read_seq =
        || (0..SLOTS, 1usize..20_000).prop_map(|(slot, piece)| Op::ReadSeq { slot, piece });
    // Writes and reads repeated for weight (the shim's `prop_oneof!` is
    // uniform).
    prop_oneof![
        write(),
        write(),
        read_seq(),
        read_seq(),
        (0..SLOTS, 0usize..40_000, 1usize..20_000).prop_map(|(slot, at, len)| Op::ReadAt {
            slot,
            at,
            len
        }),
        Just(Op::Scan),
        (0..SLOTS).prop_map(|slot| Op::Unlink { slot }),
        Just(Op::Clean),
        Just(Op::DropCaches),
        Just(Op::Remount),
    ]
}

/// Reads `path` in pieces of `piece` bytes, as a streaming reader does.
fn read_in_pieces<F: FileSystem>(fs: &mut F, path: &str, piece: usize) -> Result<Vec<u8>, FsError> {
    let ino = fs.lookup(path)?;
    let mut out = Vec::new();
    loop {
        let mut buf = vec![0u8; piece];
        let n = fs.read_at(ino, out.len() as u64, &mut buf)?;
        if n == 0 {
            return Ok(out);
        }
        out.extend_from_slice(&buf[..n]);
    }
}

fn read_at<F: FileSystem>(
    fs: &mut F,
    path: &str,
    at: usize,
    len: usize,
) -> Result<Vec<u8>, FsError> {
    let ino = fs.lookup(path)?;
    let mut buf = vec![0u8; len];
    let n = fs.read_at(ino, at as u64, &mut buf)?;
    buf.truncate(n);
    Ok(buf)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Whatever the ring prefetched, dropped or was left holding across
    /// cleaning and remounts, every read returns what the model does.
    #[test]
    fn reads_match_the_model_whatever_was_prefetched(ops in proptest::collection::vec(op(), 1..50)) {
        let clock = Clock::new();
        let shared = volume(&clock, SECTORS);
        let mut fs = Lfs::format(VolumeDisk::new(Rc::clone(&shared)), cfg(), Arc::clone(&clock)).unwrap();
        let mut model = ModelFs::new();
        let path = |slot: usize| format!("/s{slot}");
        for (i, op) in ops.iter().enumerate() {
            let ctx = format!("op {i} {op:?}");
            match op {
                Op::Write { slot, len, byte } => {
                    let data = vec![*byte; *len];
                    let real = fs.write_file(&path(*slot), &data).map(|_| ());
                    let want = model.write_file(&path(*slot), &data).map(|_| ());
                    prop_assert_eq!(real, want, "{}", ctx);
                }
                Op::ReadSeq { slot, piece } => {
                    let real = read_in_pieces(&mut fs, &path(*slot), *piece);
                    let want = read_in_pieces(&mut model, &path(*slot), *piece);
                    prop_assert_eq!(real, want, "{}", ctx);
                }
                Op::ReadAt { slot, at, len } => {
                    let real = read_at(&mut fs, &path(*slot), *at, *len);
                    let want = read_at(&mut model, &path(*slot), *at, *len);
                    prop_assert_eq!(real, want, "{}", ctx);
                }
                Op::Scan => {
                    for slot in 0..SLOTS {
                        let real = fs.read_file(&path(slot));
                        let want = model.read_file(&path(slot));
                        prop_assert_eq!(real, want, "{} slot {}", ctx, slot);
                    }
                }
                Op::Unlink { slot } => {
                    let real = fs.unlink(&path(*slot));
                    let want = model.unlink(&path(*slot));
                    prop_assert_eq!(real, want, "{}", ctx);
                }
                Op::Clean => {
                    let clean = fs.usage_table().clean_count();
                    fs.clean_until(clean + 2).unwrap();
                }
                Op::DropCaches => fs.drop_caches().unwrap(),
                Op::Remount => {
                    fs.sync().unwrap();
                    drop(fs.into_device());
                    fs = Lfs::mount(VolumeDisk::new(Rc::clone(&shared)), cfg(), Arc::clone(&clock)).unwrap();
                }
            }
        }
        fs.sync().unwrap();
        let report = fs.fsck().unwrap();
        prop_assert!(report.is_clean(), "final fsck:\n{}", report);
        for slot in 0..SLOTS {
            prop_assert_eq!(fs.read_file(&path(slot)), model.read_file(&path(slot)));
        }
    }
}
