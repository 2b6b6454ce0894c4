//! Async-cleaner correctness: a hosted [`CleanerTask`]'s incremental
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

use engine::{drain, offer, Maintenance};
use proptest::prelude::*;

use lfs_core::layout::usage_block::SegState;
use lfs_core::{AsyncCleanerPolicy, BlockAddr, CleanerTask, Lfs, LfsConfig, SegNo};
use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::model::ModelFs;
use vfs::{FileSystem, FsError};

/// Distinct file slots the workload churns over.
const SLOTS: usize = 6;

/// An LFS on a tiny disk where cleaning is unavoidable.
fn small_fs(disk_sectors: u64) -> Lfs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(disk_sectors), Arc::clone(&clock));
    Lfs::format(disk, LfsConfig::small_test(), clock).unwrap()
}

/// Watermarks far above the segment count (the cleaner always wants to
/// run).
fn eager_policy() -> AsyncCleanerPolicy {
    AsyncCleanerPolicy::default().with_watermarks(1 << 16, 1 << 17)
}

/// The eager policy with minimal step caps (every mid-victim state is
/// visited).
fn aggressive_task() -> CleanerTask {
    CleanerTask::new(eager_policy().with_step_caps(2, 4))
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
        let mut fs = small_fs(4096); // 2 MB disk, 16 KB segments
        let mut task = aggressive_task();
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
                offer(&mut task, &mut fs, None, *n as u64).unwrap();
            }

            assert_mirror(&mut fs, &mut model, &format!("after op {i} {op:?}"));
        }

        // Close out: drain the run, commit, and re-verify everything.
        drain(&mut task, &mut fs).unwrap();
        fs.sync().unwrap();
        let report = fs.fsck().unwrap();
        prop_assert!(report.is_clean(), "final fsck:\n{report}");
        assert_mirror(&mut fs, &mut model, "after final sync");
    }
}

/// Overwrites four 20 KB blobs 150 times on a 1 MB disk: the churn
/// working set overflows the 64 KB cache, so every overwrite pushes
/// garbage onto the disk for the cleaner. A hosted `task` is offered up
/// to 12 steps after every overwrite and drained at the end.
fn churn(fs: &mut Lfs<SimDisk>, mut task: Option<&mut CleanerTask>) {
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
        if let Some(task) = task.as_deref_mut() {
            offer(task, fs, None, 12).unwrap();
        }
    }
    if let Some(task) = task {
        drain(task, fs).unwrap();
    }
    fs.sync().unwrap();
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "final fsck:\n{report}");
}

/// Sustained churn with the cleaner driven between every operation
/// actually cleans (the property test above must not be vacuous).
#[test]
fn aggressive_async_cleaner_cleans_under_churn() {
    let mut fs = small_fs(2048);
    churn(&mut fs, Some(&mut aggressive_task()));
    let stats = fs.stats();
    assert!(
        stats.segments_cleaned > 0,
        "async cleaner never cleaned a segment"
    );
    assert!(stats.async_runs_completed > 0, "no async run ever completed");
}

/// Whether cleaning is asynchronous is the host's choice: the same
/// churn with no task cleans only at the floor, inside foreground
/// operations; hosting a task moves the cleaning into its steps, and the
/// floor is reached less often.
#[test]
fn the_host_decides_whether_cleaning_is_async() {
    let mut unhosted = small_fs(2048);
    churn(&mut unhosted, None);
    let alone = unhosted.stats();
    assert_eq!(alone.async_steps, 0, "nothing hosted, yet the task stepped");
    assert!(alone.segments_cleaned > 0, "the floor never cleaned");
    assert!(alone.floor_passes > 0, "the churn never reached the floor");

    let mut hosted = small_fs(2048);
    churn(&mut hosted, Some(&mut CleanerTask::new(AsyncCleanerPolicy::default())));
    let with_task = hosted.stats();
    assert!(with_task.async_steps > 0, "the hosted task never stepped");
    assert!(with_task.async_runs_completed > 0, "the hosted task never finished a run");
    assert!(
        with_task.floor_passes < alone.floor_passes,
        "the task prevented no floor pass ({} hosted, {} alone)",
        with_task.floor_passes,
        alone.floor_passes
    );
}

/// A run that finds nothing to clean (all segments live) must not be
/// restarted at the same segment population — otherwise a host that
/// steps whenever the task wants a step would spin forever.
#[test]
fn futile_runs_are_damped() {
    let mut fs = small_fs(2048);
    let mut task = aggressive_task();
    // Fill with live data only: nothing is garbage, so cleaning is
    // futile even though the clean count is far below the watermark.
    for i in 0..10 {
        fs.write_file(&format!("/live{i}"), &[i as u8; 6000]).unwrap();
    }
    fs.sync().unwrap();

    let mut steps = 0u64;
    while task.wants_step(&fs, 0) {
        task.step(&mut fs).unwrap();
        steps += 1;
        assert!(steps < 10_000, "futile cleaning never settled");
    }
    assert!(steps > 0, "cleaner never even tried");
    assert!(
        !task.wants_step(&fs, 0),
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
        if task.wants_step(&fs, 0) {
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
    let mut fs = small_fs(2048);
    let task = CleanerTask::new(eager_policy().with_idle_gate(2));
    for i in 0..6 {
        fs.write_file(&format!("/f{i}"), &[i as u8; 5000]).unwrap();
    }
    fs.sync().unwrap();

    assert!(
        !task.wants_step(&fs, 10),
        "gated cleaner must decline while the queue is deep"
    );
    assert!(
        task.wants_step(&fs, 0),
        "gated cleaner must accept once the queue drains"
    );
}

/// Three 6000-byte files overwritten and synced nine times on a 1 MB
/// disk: a few dirty segments, every one a candidate victim.
fn overwritten_nine_times() -> (Lfs<SimDisk>, ModelFs) {
    let mut fs = small_fs(2048);
    let mut model = ModelFs::new();
    for i in 0..9 {
        overwrite(&mut fs, &mut model, i);
    }
    (fs, model)
}

/// Overwrites slot `i % 3` with 6000 bytes of `i` and syncs.
fn overwrite(fs: &mut Lfs<SimDisk>, model: &mut ModelFs, i: usize) {
    let op = Op::Write {
        slot: i % 3,
        len: 6000,
        fill: i as u8,
    };
    apply(fs, &op).unwrap();
    apply(model, &op).unwrap();
    fs.sync().unwrap();
}

/// Bytes the cleaner read from `seg`, by the device trace.
fn cleaner_bytes_from(fs: &Lfs<SimDisk>, seg: SegNo) -> u64 {
    let reads = fs.device().trace().records().iter().filter(|r| r.label == "cleaner-read");
    reads.filter(|r| segment_at(fs, r.sector) == seg).map(|r| r.bytes).sum()
}

/// The segment holding `sector`.
fn segment_at(fs: &Lfs<SimDisk>, sector: u64) -> SegNo {
    let addr = sector / (fs.block_size() / sim_disk::SECTOR_SIZE) as u64;
    fs.superblock().seg_of(BlockAddr(addr as u32)).expect("a log sector").0
}

/// A floor activation that finds a hosted run midway through a victim
/// adopts the run: it finishes that victim first, from the reads the run
/// already paid for, and commits it with its own victims. Nothing is
/// read twice and nothing is abandoned.
#[test]
fn the_floor_finishes_the_hosted_runs_victim() {
    // One step reads up to 64 blocks; one summary entry is judged or
    // classified per step.
    let (mut fs, mut model) = overwritten_nine_times();
    let mut task = CleanerTask::new(eager_policy().with_step_caps(64, 1));
    fs.device_mut().trace_mut().enable();
    let bytes_before = fs.stats().cleaner_bytes_read;
    let mut steps = 0;
    let first_read = |fs: &Lfs<SimDisk>| {
        let reads = fs.device().trace().records().iter();
        let mut reads = reads.filter(|r| r.label == "cleaner-read");
        reads.next().map(|r| segment_at(fs, r.sector))
    };
    while first_read(&fs).is_none() {
        task.step(&mut fs).unwrap();
        steps += 1;
        assert!(steps < 10, "the run never read a victim");
    }
    let victim = first_read(&fs).unwrap();

    // What reading the victim costs: its summary blocks and the blocks
    // classification looks at, read inline on a twin with the same
    // history.
    let (mut twin, _) = overwritten_nine_times();
    let twin_before = twin.stats().cleaner_bytes_read;
    twin.clean_segment(victim).unwrap();
    let victim_bytes = twin.stats().cleaner_bytes_read - twin_before;

    // Step into the victim's classification: every read is done, not
    // every entry is classified.
    while cleaner_bytes_from(&fs, victim) < victim_bytes {
        task.step(&mut fs).unwrap();
        steps += 1;
        assert!(steps < 1_000, "the run never finished reading its victim");
    }
    assert!(task.active(&fs));
    assert_eq!(fs.usage_table().state(victim), SegState::Dirty);

    // Churn until the floor activates.
    let mut i = 9;
    while fs.stats().floor_passes == 0 {
        assert!(i < 2_000, "the churn never reached the floor");
        overwrite(&mut fs, &mut model, i);
        i += 1;
    }
    let floors: Vec<String> = fs
        .obs()
        .events()
        .into_iter()
        .filter(|e| e.kind == "cleaner_floor")
        .map(|e| e.detail)
        .collect();
    assert_eq!(floors.len(), 1, "{floors:?}");
    let detail = &floors[0];
    assert!(
        detail.contains(&format!(" run=active run_victim={} ", victim.0)),
        "{detail}"
    );
    let victims = detail.rsplit_once(" victims=").expect("a victim list").1;
    let victims: Vec<SegNo> = victims.split(',').map(|v| SegNo(v.parse().unwrap())).collect();
    assert_eq!(victims.first(), Some(&victim), "{detail}");
    assert!(!task.active(&fs), "the adopted run outlived the activation");

    // The victim was cleaned once and read once: the cleaner read its
    // summaries and wanted blocks, plus the floor's other victims.
    let cleaned = fs.obs().events().into_iter().filter(|e| e.kind == "victim");
    let seg = format!("seg={} ", victim.0);
    assert_eq!(cleaned.filter(|e| e.detail.starts_with(&seg)).count(), 1);
    assert_eq!(cleaner_bytes_from(&fs, victim), victim_bytes);
    let others: u64 = victims[1..].iter().map(|&s| cleaner_bytes_from(&fs, s)).sum();
    assert_eq!(
        fs.stats().cleaner_bytes_read - bytes_before,
        victim_bytes + others,
        "the cleaner read beyond the victim and the floor's victims"
    );

    drain(&mut task, &mut fs).unwrap();
    fs.sync().unwrap();
    let clock = Arc::clone(fs.clock());
    let mut fs = Lfs::mount(fs.into_device(), LfsConfig::small_test(), clock).unwrap();
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "fsck after remount:\n{report}");
    assert_mirror(&mut fs, &mut model, "after remount");
}
