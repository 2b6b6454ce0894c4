//! Sequential/parallel recovery equivalence — the fence around the
//! spindle-partitioned roll-forward scan.
//!
//! Property: for arbitrary operation sequences, crash points, and
//! spindle counts {1, 2, 4}, remounting the *same* crash image with
//! `recovery_fanout = 1` (the classic sequential scan) and
//! `recovery_fanout = 0` (one read in flight per spindle) must
//! reconstruct byte-identical state: the same namespace, file contents,
//! inode metadata, inode-map entries, and segment-usage accounting.
//! The parallel scan only reorders *reads*; the merge applies summary
//! chunks in log order, so everything downstream of the scan is
//! deterministic.
//!
//! Two fields are deliberately excluded from the comparison because
//! recovery stamps them with the *clock*, and the two mounts finishing
//! at different virtual times is precisely the win being claimed, not a
//! divergence: the usage table's `last_write_ns` (stamped by the
//! post-recovery checkpoint's writes) and the inode map's `atime_ns` (the
//! directory reconciliation reads the touched directories through the
//! normal read path, which updates access times).

use std::collections::BTreeMap;
use std::sync::Arc;

use lfs_core::layout::imap_block::ImapEntry;
use lfs_core::layout::usage_block::SegState;
use lfs_core::{Lfs, LfsConfig, SegNo};
use proptest::prelude::*;
use sim_disk::{BlockDevice, Clock, DiskGeometry, MediaFaultPlan, SECTOR_SIZE};
use vfs::{FileKind, FileSystem, Ino};
use volume::{StripedVolume, VolumeConfig, VolumeDisk};

/// 4 MB per spindle: plenty for the tiny config's 16 KB segments.
const SPINDLE_SECTORS: u64 = 8_192;

/// The tiny test config with the log aligned to the stripe (each 16 KB
/// segment is exactly one chunk), so the fanned-out scan genuinely
/// lands one segment per spindle.
fn cfg(fanout: usize) -> LfsConfig {
    // The long checkpoint interval keeps the periodic checkpoint from
    // firing mid-workload and silently emptying the roll-forward tail.
    let mut c = LfsConfig::small_test()
        .with_checkpoint_secs(1e9)
        .with_recovery_fanout(fanout);
    c.segment_align_metadata = true;
    c
}

fn volume_cfg(spindles: usize) -> VolumeConfig {
    VolumeConfig::rr_segment(spindles, cfg(1).segment_bytes)
}

fn fresh(spindles: usize) -> Lfs<VolumeDisk> {
    fresh_with(spindles, cfg(1))
}

fn fresh_with(spindles: usize, cfg: LfsConfig) -> Lfs<VolumeDisk> {
    let clock = Clock::new();
    let vol = StripedVolume::new(
        DiskGeometry::tiny_test(SPINDLE_SECTORS),
        Arc::clone(&clock),
        volume_cfg(spindles),
    );
    Lfs::format(VolumeDisk::new(vol.into_shared()), cfg, clock).expect("format LFS")
}

fn remount(spindles: usize, images: Vec<Vec<u8>>, fanout: usize) -> Lfs<VolumeDisk> {
    remount_with_latent(spindles, images, fanout, None)
}

/// [`remount`] with a latent read error armed at volume-logical sector
/// `latent` first.
fn remount_with_latent(
    spindles: usize,
    images: Vec<Vec<u8>>,
    fanout: usize,
    latent: Option<u64>,
) -> Lfs<VolumeDisk> {
    let clock = Clock::new();
    let mut vol = StripedVolume::from_images(
        DiskGeometry::tiny_test(SPINDLE_SECTORS),
        Arc::clone(&clock),
        volume_cfg(spindles),
        images,
    );
    if let Some(logical) = latent {
        // Segment round-robin: one segment-sized chunk per spindle in turn.
        let chunk_sectors = (cfg(1).segment_bytes / SECTOR_SIZE) as u64;
        let chunk = logical / chunk_sectors;
        let spindle = (chunk % spindles as u64) as usize;
        let physical = chunk / spindles as u64 * chunk_sectors + logical % chunk_sectors;
        (vol.spindle_mut(spindle).disk_mut())
            .inject_media_faults(MediaFaultPlan::new(11).latent(physical));
    }
    Lfs::mount(VolumeDisk::new(vol.into_shared()), cfg(fanout), clock).expect("recovery mount")
}

/// One step of the scripted namespace workload. Paths are drawn from a
/// small universe (4 directories × 6 file slots plus root files) so
/// sequences collide often enough to exercise overwrite, unlink of
/// missing names, cross-directory rename, and hard links. Ops that fail
/// (missing source, existing target) fail identically pre-crash and are
/// simply skipped.
#[derive(Debug, Clone)]
enum Op {
    Mkdir { dir: u8 },
    Write { dir: u8, file: u8, len: u16 },
    Unlink { dir: u8, file: u8 },
    Rename { dir: u8, file: u8, to_dir: u8, to: u8 },
    Link { dir: u8, file: u8, alias: u8 },
}

/// `dir == 0` means the root; otherwise `/d{dir}`.
fn dir_path(dir: u8) -> String {
    if dir.is_multiple_of(4) {
        String::new()
    } else {
        format!("/d{}", dir % 4)
    }
}

fn file_path(dir: u8, file: u8) -> String {
    format!("{}/f{}", dir_path(dir), file % 6)
}

fn apply(fs: &mut Lfs<VolumeDisk>, op: &Op, seq: usize) {
    match op {
        Op::Mkdir { dir } => {
            let _ = fs.mkdir(&format!("/d{}", dir % 4));
        }
        Op::Write { dir, file, len } => {
            // Position-seeded contents so a mix-up between two recovered
            // blocks cannot go unnoticed.
            let data: Vec<u8> = (0..*len as usize)
                .map(|i| (i as u8) ^ (seq as u8) ^ file.wrapping_mul(37))
                .collect();
            let _ = fs.write_file(&file_path(*dir, *file), &data);
        }
        Op::Unlink { dir, file } => {
            let _ = fs.unlink(&file_path(*dir, *file));
        }
        Op::Rename { dir, file, to_dir, to } => {
            let _ = fs.rename(&file_path(*dir, *file), &file_path(*to_dir, *to));
        }
        Op::Link { dir, file, alias } => {
            let _ = fs.link(&file_path(*dir, *file), &format!("/a{}", alias % 4));
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>()).prop_map(|dir| Op::Mkdir { dir }),
        (any::<u8>(), any::<u8>(), 0..4096u16)
            .prop_map(|(dir, file, len)| Op::Write { dir, file, len }),
        (any::<u8>(), any::<u8>()).prop_map(|(dir, file)| Op::Unlink { dir, file }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(dir, file, to_dir, to)| Op::Rename { dir, file, to_dir, to }),
        (any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(dir, file, alias)| Op::Link { dir, file, alias }),
    ]
}

/// Everything recovery is supposed to reconstruct, in comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Snapshot {
    /// path -> (kind, contents, nlink, size, mtime).
    tree: BTreeMap<String, (FileKind, Vec<u8>, u32, u64, u64)>,
    /// Allocated inode-map entries with `atime_ns` masked to zero (see
    /// module doc); addr, slot, allocation, and version compared
    /// byte-for-byte.
    imap: Vec<(Ino, ImapEntry)>,
    /// Per-segment (live bytes, state); `last_write_ns` excluded (see
    /// module doc).
    usage: Vec<(u32, SegState)>,
    rollforward_chunks: u64,
    rollforward_inodes: u64,
}

fn snapshot(fs: &mut Lfs<VolumeDisk>) -> Snapshot {
    // Imap first: walking the tree below updates atimes (at clocks that
    // legitimately differ between the two mounts).
    let imap: Vec<(Ino, ImapEntry)> = fs
        .inode_map()
        .allocated_inos()
        .map(|ino| {
            let mut e = fs.inode_map().get(ino).expect("imap entry");
            e.atime_ns = 0;
            (ino, e)
        })
        .collect();
    let usage: Vec<(u32, SegState)> = (0..fs.usage_table().nsegments())
        .map(|i| {
            let e = fs.usage_table().get(SegNo(i));
            (e.live_bytes, e.state)
        })
        .collect();
    let stats = fs.stats();

    let mut tree = BTreeMap::new();
    let mut stack = vec![String::from("/")];
    while let Some(dir) = stack.pop() {
        for entry in fs.readdir(&dir).expect("readdir") {
            let path = if dir == "/" {
                format!("/{}", entry.name)
            } else {
                format!("{dir}/{}", entry.name)
            };
            let ino = fs.lookup(&path).expect("lookup");
            let meta = fs.stat(ino).expect("stat");
            let contents = match entry.kind {
                FileKind::Regular => fs.read_file(&path).expect("read"),
                FileKind::Directory => {
                    stack.push(path.clone());
                    Vec::new()
                }
            };
            tree.insert(
                path,
                (entry.kind, contents, meta.nlink, meta.size, meta.mtime_ns),
            );
        }
    }

    Snapshot {
        tree,
        imap,
        usage,
        rollforward_chunks: stats.rollforward_chunks,
        rollforward_inodes: stats.rollforward_inodes,
    }
}

/// Builds a crash image: `ops[..barrier]`, checkpoint, `ops[barrier..]`
/// flushed to the log with write-back (no checkpoint), crash. The
/// barrier index is the crash point's complement: everything after it is
/// roll-forward tail.
fn build_crash(spindles: usize, ops: &[Op], barrier: usize) -> Vec<Vec<u8>> {
    let mut fs = fresh(spindles);
    for (i, op) in ops[..barrier].iter().enumerate() {
        apply(&mut fs, op, i);
    }
    fs.sync().expect("checkpoint");
    for (i, op) in ops[barrier..].iter().enumerate() {
        apply(&mut fs, op, barrier + i);
    }
    fs.write_back().expect("write back");
    // Write-back queues the segment writes but takes no barrier; the
    // crash model drops whatever is still in flight. Drain the queue so
    // the whole suffix is durable tail — the crash-point axis is the
    // barrier index, not torn tails (crash_sweep covers those).
    fs.device_mut().flush().expect("device flush");
    fs.into_device().into_images()
}

/// The proptest's case count: `PROPTEST_CASES`, else 48 (CI runs it
/// at 300 under several seeds).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: cases(),
        ..ProptestConfig::default()
    })]

    #[test]
    fn parallel_recovery_is_byte_identical(
        ops in proptest::collection::vec(op_strategy(), 1..24),
        barrier_pct in 0..=100u8,
        spindles in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let barrier = ops.len() * barrier_pct as usize / 100;
        let images = build_crash(spindles, &ops, barrier);

        let mut seq = remount(spindles, images.clone(), 1);
        let mut par = remount(spindles, images, 0);

        let seq_snap = snapshot(&mut seq);
        let par_snap = snapshot(&mut par);
        prop_assert_eq!(&seq_snap, &par_snap);

        // The sequential mount must never take the partitioned path; the
        // parallel mount reports whatever the tail actually spanned.
        prop_assert_eq!(seq.stats().recovery_partitions, 0);
        if spindles == 1 {
            prop_assert!(par.stats().recovery_partitions <= 1);
        }

        let report = par.fsck().expect("fsck");
        prop_assert!(report.is_clean(), "parallel mount inconsistent:\n{report}");
    }
}

/// Vacuity guard: the property above accepts tails too short to
/// partition, so this deterministic case pins a tail that *must* span
/// several segments on all four spindles and checks the parallel scan
/// really took the partitioned path while recovering the identical
/// state.
#[test]
fn guaranteed_multi_segment_tail_partitions_across_spindles() {
    let spindles = 4;
    let ops: Vec<Op> = (0..48)
        .map(|i| Op::Write {
            dir: i as u8 % 4,
            file: i as u8,
            len: 3_000,
        })
        .collect();
    // Pre-create the directories so every write lands.
    let mut all = vec![
        Op::Mkdir { dir: 1 },
        Op::Mkdir { dir: 2 },
        Op::Mkdir { dir: 3 },
    ];
    all.extend(ops);
    let images = build_crash(spindles, &all, 3);

    let mut seq = remount(spindles, images.clone(), 1);
    let mut par = remount(spindles, images, 0);

    assert_eq!(snapshot(&mut seq), snapshot(&mut par));
    assert!(
        seq.stats().rollforward_chunks > 0,
        "tail never reached roll-forward — the equivalence check is vacuous"
    );
    assert!(
        par.stats().recovery_partitions > 1,
        "parallel scan never partitioned ({} partitions)",
        par.stats().recovery_partitions
    );
    assert_eq!(par.stats().recovery_partitions, spindles as u64);
    assert!(par.fsck().expect("fsck").is_clean());
}

/// The `ahead_unused=` count of the mount's `recovery` event: bytes the
/// tail walk read ahead for segments it never entered.
fn ahead_unused(fs: &Lfs<VolumeDisk>) -> u64 {
    let events = fs.obs().events();
    let recovery = events.iter().find(|e| e.kind == "recovery").expect("a recovery event");
    let word = recovery.detail.split_whitespace().find_map(|w| w.strip_prefix("ahead_unused="));
    word.expect("ahead_unused= in the recovery event").parse().expect("a count")
}

/// A fresh 4-spindle volume with three directories, checkpointed, and
/// the segment the log is writing at that checkpoint.
fn checkpointed_dirs(cfg: LfsConfig) -> (Lfs<VolumeDisk>, SegNo) {
    let mut fs = fresh_with(4, cfg);
    for dir in 1..4 {
        apply(&mut fs, &Op::Mkdir { dir }, 0);
    }
    fs.sync().expect("checkpoint");
    let active = fs.usage_table().segments_in_state(SegState::Active);
    assert_eq!(active.len(), 1, "one open segment: {active:?}");
    (fs, active[0])
}

/// The clean segment the writer links to after `seg`, by the usage
/// table as it stands: what the tail walk predicts.
fn successor(fs: &Lfs<VolumeDisk>, seg: SegNo) -> SegNo {
    let table = fs.usage_table();
    let after = SegNo((seg.0 + 1) % table.nsegments());
    table.next_clean(after).expect("a clean segment")
}

/// The tail walk reads ahead the segments the writer would link to
/// next, by the usage table the checkpoint recorded. Here that guess is
/// wrong: after the checkpoint the predicted successor turns dirty, so
/// the writer links past it. The walk follows the links it reads, so
/// both mounts still recover the same state; the fanned-out one only
/// read a segment it never entered.
#[test]
fn a_wrong_prediction_costs_reads_not_state() {
    let (mut fs, active) = checkpointed_dirs(cfg(1));
    let predicted = successor(&fs, active);
    fs.usage_mut_for_test().set_state(predicted, SegState::Dirty);
    for i in 0..48u8 {
        let op = Op::Write { dir: i % 4, file: i, len: 3_000 };
        apply(&mut fs, &op, 3 + i as usize);
    }
    fs.write_back().expect("write back");
    fs.device_mut().flush().expect("device flush");
    // The writer's own record of the hop out of the checkpointed segment.
    let hop = format!("seg={} next=", active.0);
    let events = fs.obs().events().into_iter();
    let mut sealed = events.filter(|e| e.kind == "segment_sealed" && e.detail.starts_with(&hop));
    let link = sealed.next_back().expect("the tail sealed the checkpointed segment").detail;
    let next = link[hop.len()..].split_whitespace().next();
    assert_ne!(next, Some(predicted.0.to_string().as_str()), "the writer linked to the guess");
    let images = fs.into_device().into_images();

    let mut seq = remount(4, images.clone(), 1);
    let mut par = remount(4, images, 0);
    assert_eq!(snapshot(&mut seq), snapshot(&mut par));
    assert!(seq.stats().rollforward_chunks > 0, "no tail to walk");
    assert_eq!(ahead_unused(&seq), 0, "fan-out 1 reads nothing ahead");
    assert!(ahead_unused(&par) > 0, "the wrong guess was never read ahead");
    assert!(par.fsck().expect("fsck").is_clean());
}

/// The number of reads a latent error failed, on any spindle.
fn unreadable(fs: &Lfs<VolumeDisk>) -> u64 {
    let snap = fs.obs().snapshot();
    let spindle = |s| snap.counter(&format!("volume.spindle.{s}.faults.unreadable_reads"));
    (0..4).map(spindle).sum()
}

/// Damage past the log's end, after one small file written past the
/// checkpoint. Without a seal the log ends inside the checkpointed
/// segment, and the fanned-out walk reads ahead the header of the clean
/// segment after it, whose read fails; fan-out 1 reads nothing ahead.
/// With `seal_on_flush` the log ends on a link to a segment that holds
/// no chunk (as after a crash between a seal and the first write there):
/// the walk reads that segment's header alone, which does not claim the
/// link, so the damaged block behind it is never read. Either way the
/// walk never runs into the damage, and both mounts come up with the
/// same state.
#[test]
fn read_errors_off_the_chain_stay_unsurfaced() {
    for seal in [false, true] {
        let cfg = if seal { cfg(1).with_seal_on_flush() } else { cfg(1) };
        let (mut fs, active) = checkpointed_dirs(cfg);
        apply(&mut fs, &Op::Write { dir: 1, file: 0, len: 600 }, 3);
        fs.write_back().expect("write back");
        fs.device_mut().flush().expect("device flush");
        let open = fs.usage_table().segments_in_state(SegState::Active);
        assert_eq!(open.len(), 1, "one open segment: {open:?}");
        assert_eq!(open[0] != active, seal, "seal={seal}: the tail sealed only with the knob");
        let (seg, block) = if seal { (open[0], 1) } else { (successor(&fs, active), 0) };
        let sectors_per_block = (fs.block_size() / SECTOR_SIZE) as u64;
        let latent = fs.superblock().seg_block(seg, block).0 as u64 * sectors_per_block;
        let images = fs.into_device().into_images();

        let mut seq = remount_with_latent(4, images.clone(), 1, Some(latent));
        let mut par = remount_with_latent(4, images, 0, Some(latent));
        assert_eq!(unreadable(&seq), 0, "seal={seal}: fan-out 1 read the damage");
        assert_eq!(unreadable(&par) > 0, !seal, "seal={seal}: only read-ahead reads the damage");
        assert_eq!(snapshot(&mut seq), snapshot(&mut par), "seal={seal}");
        assert!(seq.stats().rollforward_chunks > 0, "seal={seal}: no tail to walk");
    }
}

/// A latent sector in the checkpointed segment's last block, past the
/// one small chunk the tail wrote there: the walk reads the chunk and
/// the header that ends the chain, never the rest of the segment, so
/// the mount succeeds at every fan-out with the same state.
#[test]
fn damage_past_the_logs_end_never_fails_a_mount() {
    let (mut fs, active) = checkpointed_dirs(cfg(1));
    apply(&mut fs, &Op::Write { dir: 1, file: 0, len: 600 }, 3);
    fs.write_back().expect("write back");
    fs.device_mut().flush().expect("device flush");
    let last = fs.superblock().seg_blocks - 1;
    let sectors_per_block = (fs.block_size() / SECTOR_SIZE) as u64;
    let latent = fs.superblock().seg_block(active, last).0 as u64 * sectors_per_block;
    let images = fs.into_device().into_images();

    let mut seq = remount_with_latent(4, images.clone(), 1, Some(latent));
    let mut par = remount_with_latent(4, images, 0, Some(latent));
    assert_eq!(snapshot(&mut seq), snapshot(&mut par));
    assert!(seq.stats().rollforward_chunks > 0, "no tail to walk");
    assert_eq!(unreadable(&seq) + unreadable(&par), 0, "a mount read past the log's end");
}
