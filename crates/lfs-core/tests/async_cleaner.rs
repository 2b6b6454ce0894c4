//! Async-cleaner correctness: the incremental [`Lfs::cleaner_step`]
//! state machine interleaved with foreground operations at every
//! granularity the policy allows.
//!
//! The central property: no interleaving of foreground mutations and
//! cleaner steps may lose or duplicate a live block. A scripted random
//! workload runs against the real LFS (async cleaner at maximum
//! aggressiveness, tiny step caps so mid-victim states are common) and
//! an in-memory [`ModelFs`] mirror; after every operation, every slot
//! must read back byte-identical from both.

use std::sync::Arc;

use proptest::prelude::*;

use lfs_core::layout::usage_block::SegState;
use lfs_core::{AsyncCleanerPolicy, CleanerRunMode, CleanerStepOutcome, Lfs, LfsConfig};
use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::model::ModelFs;
use vfs::{FileSystem, FsError};

/// Distinct file slots the workload churns over.
const SLOTS: usize = 6;

/// An async-mode LFS on a tiny disk where cleaning is unavoidable, with
/// watermarks far above the segment count (the cleaner always wants to
/// run) and minimal step caps (every mid-victim state is visited).
fn aggressive_fs(disk_sectors: u64) -> Lfs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(disk_sectors), Arc::clone(&clock));
    let mut cfg = LfsConfig::small_test();
    cfg.cleaner.run_mode = CleanerRunMode::Async(
        AsyncCleanerPolicy::default()
            .with_watermarks(1 << 16, 1 << 17)
            .with_step_caps(2, 4),
    );
    Lfs::format(disk, cfg, clock).unwrap()
}

/// One scripted foreground operation (or a burst of cleaner steps).
#[derive(Debug, Clone)]
enum Op {
    /// Truncate-and-rewrite the slot with `len` bytes of `fill`
    /// (creating it if absent): every overwrite turns the old blocks
    /// into garbage for the cleaner.
    Write { slot: usize, len: usize, fill: u8 },
    /// Shrink (or extend with zeros) the slot to `len` bytes.
    Truncate { slot: usize, len: usize },
    /// Remove the slot.
    Unlink { slot: usize },
    /// Offer the cleaner up to `n` incremental steps.
    Steps { n: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Writes repeated for weight (the shim's `prop_oneof!` is uniform):
    // overwrites are what manufacture garbage for the cleaner.
    let write = || {
        (0..SLOTS, 1usize..6000, any::<u8>())
            .prop_map(|(slot, len, fill)| Op::Write { slot, len, fill })
    };
    prop_oneof![
        write(),
        write(),
        write(),
        write(),
        (0..SLOTS, 0usize..6000).prop_map(|(slot, len)| Op::Truncate { slot, len }),
        (0..SLOTS).prop_map(|slot| Op::Unlink { slot }),
        (1usize..12).prop_map(|n| Op::Steps { n }),
        (1usize..12).prop_map(|n| Op::Steps { n }),
    ]
}

fn slot_path(slot: usize) -> String {
    format!("/slot{slot}")
}

/// Applies one foreground op to any [`FileSystem`]; both the LFS and the
/// model mirror go through this exact code path, so their observable
/// results (including errors) must agree.
fn apply<F: FileSystem>(fs: &mut F, op: &Op) -> Result<(), FsError> {
    match op {
        Op::Write { slot, len, fill } => {
            let path = slot_path(*slot);
            let ino = match fs.lookup(&path) {
                Ok(ino) => {
                    fs.truncate(ino, 0)?;
                    ino
                }
                Err(FsError::NotFound) => fs.create(&path)?,
                Err(e) => return Err(e),
            };
            let data = vec![*fill; *len];
            let mut written = 0;
            while written < data.len() {
                written += fs.write_at(ino, written as u64, &data[written..])?;
            }
            Ok(())
        }
        Op::Truncate { slot, len } => match fs.lookup(&slot_path(*slot)) {
            Ok(ino) => fs.truncate(ino, *len as u64),
            Err(FsError::NotFound) => Ok(()),
            Err(e) => Err(e),
        },
        Op::Unlink { slot } => match fs.unlink(&slot_path(*slot)) {
            Ok(()) | Err(FsError::NotFound) => Ok(()),
            Err(e) => Err(e),
        },
        Op::Steps { .. } => Ok(()),
    }
}

/// Every slot reads back byte-identical from the LFS and the model
/// (including agreeing on which slots do not exist).
fn assert_mirror(fs: &mut Lfs<SimDisk>, model: &mut ModelFs, ctx: &str) {
    for slot in 0..SLOTS {
        let path = slot_path(slot);
        match (fs.read_file(&path), model.read_file(&path)) {
            (Ok(real), Ok(want)) => assert_eq!(
                real, want,
                "{ctx}: {path} diverged ({} vs {} bytes)",
                real.len(),
                want.len()
            ),
            (Err(FsError::NotFound), Err(FsError::NotFound)) => {}
            (real, want) => {
                panic!("{ctx}: {path} existence diverged: lfs={real:?} model={want:?}")
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// No foreground/cleaner interleaving loses or duplicates a live
    /// block: after every operation (with the async cleaner stepped at
    /// maximum aggressiveness in between), the LFS and the model read
    /// back byte-identical.
    #[test]
    fn interleaved_cleaning_never_corrupts(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut fs = aggressive_fs(4096); // 2 MB disk, 16 KB segments
        let mut model = ModelFs::new();

        for (i, op) in ops.iter().enumerate() {
            let real = apply(&mut fs, op);
            let want = apply(&mut model, op);
            prop_assert_eq!(
                real.is_ok(),
                want.is_ok(),
                "op {} {:?}: lfs={:?} model={:?}",
                i, op, real, want
            );

            // Interleave cleaning at the finest granularity the op
            // stream asks for — including leaving a run mid-victim.
            if let Op::Steps { n } = op {
                for _ in 0..*n {
                    if !fs.cleaner_wants_step(0) {
                        break;
                    }
                    fs.cleaner_step().unwrap();
                }
            }

            assert_mirror(&mut fs, &mut model, &format!("after op {i} {op:?}"));
        }

        // Close out: drain the run, commit, and re-verify everything.
        while fs.cleaner_run_active() {
            fs.cleaner_step().unwrap();
        }
        fs.sync().unwrap();
        let report = fs.fsck().unwrap();
        prop_assert!(report.is_clean(), "final fsck:\n{report}");
        assert_mirror(&mut fs, &mut model, "after final sync");
    }
}

/// Sustained churn with the cleaner driven between every operation
/// actually cleans (the property test above must not be vacuous).
#[test]
fn aggressive_async_cleaner_cleans_under_churn() {
    let mut fs = aggressive_fs(2048); // 1 MB disk
    // Four 20 KB blobs: the churn working set overflows the 64 KB cache,
    // so every overwrite pushes garbage onto the disk for the cleaner.
    let blob = vec![0xA5u8; 20_000];
    for round in 0..150 {
        let path = format!("/blob{}", round % 4);
        match fs.lookup(&path) {
            Ok(ino) => {
                fs.truncate(ino, 0).unwrap();
                let mut written = 0;
                while written < blob.len() {
                    written += fs.write_at(ino, written as u64, &blob[written..]).unwrap();
                }
            }
            Err(FsError::NotFound) => {
                fs.write_file(&path, &blob).unwrap();
            }
            Err(e) => panic!("round {round}: {e}"),
        }
        for _ in 0..12 {
            if !fs.cleaner_wants_step(0) {
                break;
            }
            fs.cleaner_step().unwrap();
        }
    }
    while fs.cleaner_run_active() {
        fs.cleaner_step().unwrap();
    }
    fs.sync().unwrap();
    let stats = fs.stats();
    assert!(
        stats.segments_cleaned > 0,
        "async cleaner never cleaned a segment"
    );
    assert!(stats.async_runs_completed > 0, "no async run ever completed");
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "final fsck:\n{report}");
}

/// In sync mode the incremental API is inert: `cleaner_wants_step` is
/// always false and `cleaner_step` reports `Idle`, so hosts may call
/// both unconditionally.
#[test]
fn sync_mode_keeps_incremental_api_inert() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(2048), Arc::clone(&clock));
    let mut fs = Lfs::format(disk, LfsConfig::small_test(), clock).unwrap();
    fs.write_file("/f", &[1u8; 4000]).unwrap();
    assert!(!fs.cleaner_wants_step(0));
    assert_eq!(fs.cleaner_step().unwrap(), CleanerStepOutcome::Idle);
    assert!(!fs.cleaner_run_active());
}

/// A run that finds nothing to clean (all segments live) must not be
/// restarted at the same segment population — otherwise a host that
/// steps whenever `cleaner_wants_step` says yes would spin forever.
#[test]
fn futile_runs_are_damped() {
    let mut fs = aggressive_fs(2048);
    // Fill with live data only: nothing is garbage, so cleaning is
    // futile even though the clean count is far below the watermark.
    for i in 0..10 {
        fs.write_file(&format!("/live{i}"), &[i as u8; 6000]).unwrap();
    }
    fs.sync().unwrap();

    let mut steps = 0u64;
    while fs.cleaner_wants_step(0) {
        fs.cleaner_step().unwrap();
        steps += 1;
        assert!(steps < 10_000, "futile cleaning never settled");
    }
    assert!(steps > 0, "cleaner never even tried");
    assert!(
        !fs.cleaner_wants_step(0),
        "a futile run at an unchanged segment population must damp the next"
    );

    // Damping is keyed on the clean + clean-pending level: deleting a
    // file and writing fresh data moves the level (new garbage exists
    // and the log consumed segments), which must release the damping.
    fs.unlink("/live0").unwrap();
    let mut released = false;
    for i in 0..40 {
        fs.write_file(&format!("/fresh{i}"), &[0xEEu8; 6000]).unwrap();
        fs.sync().unwrap();
        if fs.cleaner_wants_step(0) {
            released = true;
            break;
        }
    }
    assert!(
        released,
        "damping must release once the segment population changes"
    );
}

/// The idle gate defers cleaning while the host reports queue pressure
/// and releases it when the queue drains.
#[test]
fn idle_gate_defers_until_quiet() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(2048), Arc::clone(&clock));
    let mut cfg = LfsConfig::small_test();
    cfg.cleaner.run_mode = CleanerRunMode::Async(
        AsyncCleanerPolicy::default()
            .with_watermarks(1 << 16, 1 << 17)
            .with_idle_gate(2),
    );
    let mut fs = Lfs::format(disk, cfg, clock).unwrap();
    for i in 0..6 {
        fs.write_file(&format!("/f{i}"), &[i as u8; 5000]).unwrap();
    }
    fs.sync().unwrap();

    assert!(
        !fs.cleaner_wants_step(10),
        "gated cleaner must decline while the queue is deep"
    );
    assert!(
        fs.cleaner_wants_step(0),
        "gated cleaner must accept once the queue drains"
    );
}

/// A victim that a synchronous pass cleans under an async run, and that
/// the log then reuses, is abandoned by the run: its image no longer
/// describes the segment, and finishing it would mark a segment holding
/// new live data clean (a replay test in `lfs-bench` shows fsck catching
/// exactly that).
#[test]
fn a_victim_cleaned_and_reused_under_the_run_is_abandoned() {
    // One step reads a whole victim; one summary entry is classified
    // per step after that.
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(2048), Arc::clone(&clock));
    let mut cfg = LfsConfig::small_test();
    cfg.cleaner.run_mode = CleanerRunMode::Async(
        AsyncCleanerPolicy::default()
            .with_watermarks(1 << 16, 1 << 17)
            .with_step_caps(64, 1),
    );
    let mut fs = Lfs::format(disk, cfg, clock).unwrap();
    let mut model = ModelFs::new();
    // Three 6000-byte files overwritten and synced one by one: a few
    // dirty segments, every one a candidate victim.
    let overwrite = |fs: &mut Lfs<SimDisk>, model: &mut ModelFs, i: usize| {
        let op = Op::Write {
            slot: i % 3,
            len: 6000,
            fill: i as u8,
        };
        apply(fs, &op).unwrap();
        apply(model, &op).unwrap();
        fs.sync().unwrap();
    };
    for i in 0..9 {
        overwrite(&mut fs, &mut model, i);
    }

    // Start a run and leave it midway through classifying its first
    // victim's image.
    for _ in 0..4 {
        fs.cleaner_step().unwrap();
    }
    assert!(fs.cleaner_run_active());

    // Clean every dirty segment synchronously (the victim among them),
    // commit, then churn until each is dirty again with new contents.
    let dirty: Vec<_> = fs.usage_table().segments_in_state(SegState::Dirty);
    let usage = |fs: &Lfs<SimDisk>, s| fs.usage_table().get(s);
    let written_at: Vec<u64> = dirty.iter().map(|&s| usage(&fs, s).last_write_ns).collect();
    for &seg in &dirty {
        fs.clean_segment(seg).unwrap();
    }
    fs.checkpoint().unwrap();
    let reused = |fs: &Lfs<SimDisk>| {
        let again = |(&s, &at): (&_, &u64)| {
            usage(fs, s).state == SegState::Dirty && usage(fs, s).last_write_ns > at
        };
        dirty.iter().zip(&written_at).all(again)
    };
    let mut i = 9;
    while !reused(&fs) {
        assert!(i < 2000, "the log never reused every cleaned segment");
        overwrite(&mut fs, &mut model, i);
        i += 1;
    }

    while fs.cleaner_run_active() {
        fs.cleaner_step().unwrap();
    }
    fs.sync().unwrap();
    let aborted = fs.obs().snapshot().counter("cleaner.async.victims_aborted");
    assert_eq!(aborted, 1, "the stale victim was finished, not abandoned");
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "fsck after the run:\n{report}");
    assert_mirror(&mut fs, &mut model, "after the run");
}
