//! White-box tests of cleaner victim selection and budgeting (§4.3.4),
//! and of what the victim reader reads.

use std::sync::Arc;

use engine::{EngineConfig, EngineCore, EngineDisk, Maintenance};
use sim_disk::{BlockDevice, Clock, DiskError, DiskGeometry, MediaFaultPlan, SimDisk};
use vfs::{FileSystem, FsError};

use crate::cleaner::{AsyncCleanerPolicy, CleanerPolicy};
use crate::cleaner_run::CleanerTask;
use crate::config::LfsConfig;
use crate::fs::Lfs;
use crate::layout::summary::{BlockKind, ChunkCursor, ChunkSummary};
use crate::layout::usage_block::SegState;
use crate::types::{BlockAddr, SegNo};

/// The configurations the policy-independent invariants run under: the
/// default as shipped (`None`), then each policy by name.
const POLICIES: [Option<CleanerPolicy>; 4] = [
    None,
    Some(CleanerPolicy::Greedy),
    Some(CleanerPolicy::CostBenefit),
    Some(CleanerPolicy::Oldest),
];

fn fs_with_policy(policy: impl Into<Option<CleanerPolicy>>) -> Lfs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(32_768), Arc::clone(&clock));
    let mut cfg = LfsConfig::small_test();
    if let Some(policy) = policy.into() {
        cfg.cleaner.policy = policy;
    }
    Lfs::format(disk, cfg, clock).unwrap()
}

#[test]
fn the_default_policy_is_cost_benefit() {
    // The paper's greedy stays selectable; what ships is the policy
    // `hotcold_churn` was moved with (EXPERIMENTS.md).
    assert_eq!(
        LfsConfig::paper().cleaner.policy,
        CleanerPolicy::CostBenefit
    );
}

/// Fabricates a usage-table state for victim-selection tests.
fn stage(fs: &mut Lfs<SimDisk>, entries: &[(u32, u64, u64)]) {
    for &(seg, live, when) in entries {
        let usage = fs.usage_mut_for_test();
        // Clean first: that zeroes the live bytes.
        usage.set_state(SegNo(seg), SegState::Clean);
        usage.add_live(SegNo(seg), live, when);
        usage.set_state(SegNo(seg), SegState::Dirty);
    }
}

/// Victim list restricted to the staged segments (format itself leaves a
/// dirty segment or two that would otherwise pollute the ranking).
fn staged_victims(fs: &Lfs<SimDisk>, staged: &[u32], limit: usize) -> Vec<SegNo> {
    fs.ranked_victims()
        .into_iter()
        .filter(|seg| staged.contains(&seg.0))
        .take(limit)
        .collect()
}

#[test]
fn greedy_prefers_most_free_space() {
    let mut fs = fs_with_policy(CleanerPolicy::Greedy);
    stage(
        &mut fs,
        &[(1, 12_000, 5), (2, 2_000, 1), (3, 8_000, 9), (4, 500, 3)],
    );
    let victims = staged_victims(&fs, &[1, 2, 3, 4], 3);
    assert_eq!(victims, vec![SegNo(4), SegNo(2), SegNo(3)]);
}

#[test]
fn oldest_prefers_least_recent() {
    let mut fs = fs_with_policy(CleanerPolicy::Oldest);
    stage(
        &mut fs,
        &[
            (1, 12_000, 50),
            (2, 2_000, 10),
            (3, 8_000, 90),
            (4, 500, 30),
        ],
    );
    let victims = staged_victims(&fs, &[1, 2, 3, 4], 3);
    assert_eq!(victims, vec![SegNo(2), SegNo(4), SegNo(1)]);
}

#[test]
fn cost_benefit_weighs_age_against_utilization() {
    let mut fs = fs_with_policy(CleanerPolicy::CostBenefit);
    fs.clock().advance_ns(1_000_000);
    // Same utilization, different ages: older wins.
    stage(&mut fs, &[(1, 8_000, 900_000), (2, 8_000, 100)]);
    let victims = staged_victims(&fs, &[1, 2], 2);
    assert_eq!(victims[0], SegNo(2), "older segment must rank first");

    // Same age, different utilization: emptier wins.
    let mut fs = fs_with_policy(CleanerPolicy::CostBenefit);
    fs.clock().advance_ns(1_000_000);
    stage(&mut fs, &[(1, 15_000, 100), (2, 1_000, 100)]);
    let victims = staged_victims(&fs, &[1, 2], 2);
    assert_eq!(victims[0], SegNo(2), "emptier segment must rank first");

    // Empty beats any age: there is nothing in it left to decay.
    let mut fs = fs_with_policy(CleanerPolicy::CostBenefit);
    fs.clock().advance_ns(1_000_000);
    stage(
        &mut fs,
        &[(1, 1_000, 100), (2, 0, 999_000), (3, 0, 900_000)],
    );
    let victims = staged_victims(&fs, &[1, 2, 3], 3);
    assert_eq!(victims, vec![SegNo(2), SegNo(3), SegNo(1)]);
}

#[test]
fn candidates_above_the_settable_fraction_are_skipped() {
    // §4.3.4: "segments are cleaned until all segments are either clean
    // or contain at least a file-system-settable fraction of live
    // blocks".
    for policy in POLICIES {
        let mut fs = fs_with_policy(policy);
        let seg_bytes = fs.usage_table().seg_bytes();
        let nearly_full = (seg_bytes as f64 * 0.99) as u64;
        stage(&mut fs, &[(1, nearly_full, 1), (2, 100, 1)]);
        let victims = staged_victims(&fs, &[1, 2], 10);
        assert_eq!(
            victims,
            vec![SegNo(2)],
            "{policy:?}: a ~full segment is not worth cleaning"
        );
    }
}

#[test]
fn budget_skips_victims_that_do_not_fit() {
    // Same age throughout, so every policy ranks the staged victims
    // with 6 000 live bytes last or skips it: the budget decides.
    for policy in POLICIES {
        let mut fs = fs_with_policy(policy);
        stage(&mut fs, &[(1, 4_000, 1), (2, 6_000, 1), (3, 1_000, 1)]);
        // A budget that fits the two smallest staged victims (and whatever
        // low-occupancy segment format itself left behind): the pick
        // passes over the one that does not fit and ends when none does.
        let mut budget = 5_500u64;
        while let Some(seg) = fs.next_victim(&mut budget, None, None) {
            fs.clean_segment(seg).unwrap();
        }
        // The two staged victims within budget are pending; the over-budget
        // one stays dirty.
        let state = |seg| fs.usage_table().state(SegNo(seg));
        assert_eq!(state(3), SegState::CleanPending, "{policy:?}");
        assert_eq!(state(1), SegState::CleanPending, "{policy:?}");
        assert_eq!(state(2), SegState::Dirty, "{policy:?}");
    }
}

#[test]
fn active_segment_is_never_a_victim() {
    for policy in POLICIES {
        let mut fs = fs_with_policy(policy);
        let active = fs.pos.seg;
        stage(&mut fs, &[(5, 100, 1)]);
        let victims = fs.ranked_victims();
        assert!(!victims.contains(&active), "{policy:?}");
    }
}

/// What the victim reader must fetch of `seg`, judged from the raw
/// segment and the file system's own maps rather than the cleaner's
/// code: `(summary blocks, wanted blocks)`, where each chunk's summary
/// blocks are what its entry count needs, and a block is wanted when it
/// is an inode block or a data block its file still maps there.
fn reader_blocks<D: BlockDevice>(fs: &mut Lfs<D>, seg: SegNo) -> (usize, usize) {
    let bs = fs.block_size();
    let seg_blocks = fs.sb.seg_blocks as usize;
    let base = fs.sb.seg_block(seg, 0);
    let image = fs.read_blocks_raw(base, seg_blocks).unwrap();
    let mut cursor = ChunkCursor::new(base, seg_blocks, bs);
    let (mut summaries, mut wanted) = (0, 0);
    while let Ok((chunk, payload_start)) = cursor.next_chunk(&image[cursor.offset() * bs..]) {
        summaries += ChunkSummary::summary_blocks(chunk.entries.len(), bs);
        for (i, entry) in chunk.entries.iter().enumerate() {
            let addr = BlockAddr(base.0 + (payload_start + i) as u32);
            wanted += match entry.kind {
                BlockKind::InodeBlock => 1,
                BlockKind::Data { ino, bno } => {
                    let current = fs
                        .imap
                        .get(ino)
                        .is_ok_and(|e| e.allocated && e.version == entry.version);
                    usize::from(current && fs.map_block(ino, bno as u64).unwrap() == addr)
                }
                BlockKind::ImapBlock { .. } | BlockKind::UsageBlock { .. } => 0,
                BlockKind::IndSingle { ino }
                | BlockKind::IndDoubleTop { ino }
                | BlockKind::IndDoubleChild { ino, .. } => {
                    let allocated = fs.imap.get(ino).is_ok_and(|e| e.allocated);
                    assert!(!allocated, "only dead indirect blocks are staged");
                    0
                }
            };
        }
    }
    (summaries, wanted)
}

#[test]
fn cleaning_an_empty_dirty_segment_reads_only_its_summaries() {
    for policy in POLICIES {
        let mut fs = fs_with_policy(policy);
        // Produce genuinely dirty (once written, now dead) segments,
        // some holding nothing but the file's data.
        fs.write_file("/dies", &vec![1u8; 40 * 1024]).unwrap();
        fs.sync().unwrap();
        fs.unlink("/dies").unwrap();
        fs.sync().unwrap();
        let (seg, summaries) = fs
            .ranked_victims()
            .into_iter()
            .find_map(|seg| match reader_blocks(&mut fs, seg) {
                (summaries, 0) => Some((seg, summaries)),
                _ => None,
            })
            .expect("a victim without inode blocks");
        let before = fs.stats().cleaner_bytes_read;
        let (blocks, inodes) = fs.clean_segment(seg).unwrap();
        // Everything in it was dead: nothing to copy, nothing but the
        // chain's summaries to read.
        assert_eq!((blocks, inodes), (0, 0), "{policy:?}");
        let read = fs.stats().cleaner_bytes_read - before;
        assert_eq!(read, (summaries * fs.block_size()) as u64, "{policy:?}");
        assert_eq!(fs.usage_table().state(seg), SegState::CleanPending);
        // And the ring says which segment went and what the policy saw.
        let victim = fs.obs().events().into_iter().rfind(|e| e.kind == "victim");
        let detail = victim
            .expect("a cleaned segment leaves a victim event")
            .detail;
        assert!(
            detail.starts_with(&format!("seg={} util=0.000 ", seg.0)),
            "{policy:?}: {detail}"
        );
        for key in ["age_ms=", "score=", "policy=", "clean=", "pending=1 "] {
            assert!(detail.contains(key), "{policy:?}: no {key} in {detail}");
        }
    }
}

/// Six 4 KB files synced, then `/f0` unlinked and synced: the fs, the
/// segment holding the first blocks of `/f0` and `/f1`, and the sectors
/// of those two blocks (dead and live).
fn f0_unlinked() -> (Lfs<SimDisk>, SegNo, u64, u64) {
    let mut fs = fs_with_policy(None);
    for i in 0..6 {
        fs.write_file(&format!("/f{i}"), &vec![i as u8 + 1; 4096])
            .unwrap();
    }
    fs.sync().unwrap();
    let mut first_block = |path: &str| {
        let ino = fs.lookup(path).unwrap();
        fs.map_block(ino, 0).unwrap()
    };
    let (dead, live) = (first_block("/f0"), first_block("/f1"));
    fs.unlink("/f0").unwrap();
    fs.sync().unwrap();
    let seg = fs.sb.seg_of(dead).unwrap().0;
    assert_eq!(fs.sb.seg_of(live).unwrap().0, seg);
    assert_eq!(fs.usage_table().state(seg), SegState::Dirty);
    let (dead, live) = (fs.sector_of(dead), fs.sector_of(live));
    (fs, seg, dead, live)
}

#[test]
fn a_latent_error_in_a_dead_block_does_not_stop_cleaning() {
    // The dead block is never read, so its bad sector cannot fail the
    // victim (at the floor, the foreground op that picked it).
    let (mut fs, seg, dead, _) = f0_unlinked();
    fs.device_mut()
        .inject_media_faults(MediaFaultPlan::new(5).latent(dead));
    fs.clean_segment(seg).unwrap();
    assert_eq!(fs.usage_table().state(seg), SegState::CleanPending);

    // A live block must still be read, and its bad sector still fails
    // the victim with a typed I/O error.
    let (mut fs, seg, _, live) = f0_unlinked();
    fs.device_mut()
        .inject_media_faults(MediaFaultPlan::new(5).latent(live));
    let err = fs.clean_segment(seg).unwrap_err();
    assert!(
        matches!(err, FsError::Io(DiskError::Unreadable { .. })),
        "got {err:?}"
    );
    assert_eq!(fs.usage_table().state(seg), SegState::Dirty);
}

/// An engine-backed mount (the async read facade) holding 24 one-block
/// files of which every fourth survives, and the segment holding the
/// first survivor's block: a victim about a quarter live.
fn quarter_live_victim() -> (Lfs<EngineDisk>, SegNo, Vec<String>) {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(32_768), Arc::clone(&clock));
    let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
    let mut fs = Lfs::format(EngineDisk::new(core), LfsConfig::small_test(), clock).unwrap();
    let bs = fs.block_size();
    for i in 0..24 {
        fs.write_file(&format!("/k{i}"), &vec![i as u8; bs])
            .unwrap();
    }
    fs.sync().unwrap();
    let kept: Vec<String> = (0..24).step_by(4).map(|i| format!("/k{i}")).collect();
    for i in (0..24).filter(|i| i % 4 != 0) {
        fs.unlink(&format!("/k{i}")).unwrap();
    }
    fs.sync().unwrap();
    let ino = fs.lookup(&kept[0]).unwrap();
    let addr = fs.map_block(ino, 0).unwrap();
    let seg = fs.sb.seg_of(addr).unwrap().0;
    assert_eq!(fs.usage_table().state(seg), SegState::Dirty);
    (fs, seg, kept)
}

#[test]
fn the_victim_reader_reads_summaries_and_wanted_blocks_exactly() {
    let (mut inline, seg, kept) = quarter_live_victim();
    let bs = inline.block_size();
    let (summaries, wanted) = reader_blocks(&mut inline, seg);
    let seg_blocks = inline.sb.seg_blocks as usize;
    assert!(
        summaries + wanted < seg_blocks / 2,
        "a quarter-live victim: {summaries} summary + {wanted} wanted of {seg_blocks}"
    );
    let before = inline.stats().cleaner_bytes_read;
    inline.clean_segment(seg).unwrap();
    let read = inline.stats().cleaner_bytes_read - before;
    assert_eq!(read, ((summaries + wanted) * bs) as u64);

    // A hosted run, stepped two blocks and three entries at a time
    // through the async facade, reads the same bytes for the same victim.
    let (mut hosted, same, _) = quarter_live_victim();
    assert_eq!(same, seg);
    let before = hosted.stats().cleaner_bytes_read;
    hosted.start_run_at(seg);
    let mut task = CleanerTask::new(AsyncCleanerPolicy::default().with_step_caps(2, 3));
    let mut steps = 0;
    while hosted.usage_table().state(seg) != SegState::CleanPending {
        task.step(&mut hosted).unwrap();
        steps += 1;
        assert!(steps < 1_000, "the run never finished its victim");
    }
    assert_eq!(hosted.stats().cleaner_bytes_read - before, read);

    // Committed and remounted, both hold every surviving file intact.
    for fs in [inline, hosted] {
        let mut fs = fs;
        fs.checkpoint().unwrap();
        let clock = Arc::clone(fs.clock());
        let mut fs = Lfs::mount(fs.into_device(), LfsConfig::small_test(), clock).unwrap();
        let report = fs.fsck().unwrap();
        assert!(report.is_clean(), "{report}");
        for path in &kept {
            let i: u8 = path[2..].parse().unwrap();
            assert_eq!(fs.read_file(path).unwrap(), vec![i; bs], "{path}");
        }
    }
}

#[test]
fn clean_segment_finishes_the_hosted_runs_victim_in_place() {
    let (mut inline, seg, _) = quarter_live_victim();
    let before = inline.stats().cleaner_bytes_read;
    inline.clean_segment(seg).unwrap();
    let once = inline.stats().cleaner_bytes_read - before;

    // A hosted run into the same victim: a read claimed, the next in
    // flight.
    let (mut fs, _, kept) = quarter_live_victim();
    let before = fs.stats().cleaner_bytes_read;
    fs.start_run_at(seg);
    let mut task = CleanerTask::new(AsyncCleanerPolicy::default().with_step_caps(2, 3));
    while fs.stats().cleaner_bytes_read == before || !fs.cleaner_read_pending() {
        task.step(&mut fs).unwrap();
        assert_eq!(fs.usage_table().state(seg), SegState::Dirty, "the run finished its victim");
    }
    fs.clean_segment(seg).unwrap();
    assert_eq!(fs.stats().cleaner_bytes_read - before, once, "a block was read twice");
    assert_eq!(fs.cleaner_run_summary(), "run=active run_victim=-");

    // The run counts the victim as its own: its checkpoint commits it.
    engine::drain(&mut task, &mut fs).unwrap();
    assert_eq!(fs.usage_table().state(seg), SegState::Clean);
    let bs = fs.block_size();
    for path in &kept {
        let i: u8 = path[2..].parse().unwrap();
        assert_eq!(fs.read_file(path).unwrap(), vec![i; bs], "{path}");
    }
}
