//! Cleaner stress tests: sustained churn on a small disk, under the
//! default configuration and every named victim-selection policy, with
//! consistency checks throughout.

use std::sync::Arc;

use lfs_core::layout::usage_block::SegState;
use lfs_core::{CleanerPolicy, Lfs, LfsConfig};
use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::FileSystem;

/// The configurations every invariant here runs under: the default as
/// shipped (`None`), then each policy by name.
const POLICIES: [Option<CleanerPolicy>; 4] = [
    None,
    Some(CleanerPolicy::Greedy),
    Some(CleanerPolicy::CostBenefit),
    Some(CleanerPolicy::Oldest),
];

fn small_disk_fs(policy: Option<CleanerPolicy>) -> Lfs<SimDisk> {
    let clock = Clock::new();
    // 1 MB disk, 16 KB segments: cleaning is unavoidable under churn.
    let disk = SimDisk::new(DiskGeometry::tiny_test(2048), Arc::clone(&clock));
    let mut cfg = LfsConfig::small_test();
    if let Some(policy) = policy {
        cfg.cleaner.policy = policy;
    }
    Lfs::format(disk, cfg, clock).unwrap()
}

fn churn(fs: &mut Lfs<SimDisk>, rounds: usize, check_every: usize) {
    let blob = vec![0x5Au8; 20_000];
    for round in 0..rounds {
        let path = format!("/blob{}", round % 4);
        if round >= 4 {
            fs.unlink(&path)
                .unwrap_or_else(|e| panic!("round {round}: unlink failed: {e}"));
        }
        fs.write_file(&path, &blob)
            .unwrap_or_else(|e| panic!("round {round}: write failed: {e}"));
        if round % check_every == 0 {
            let report = fs.fsck().unwrap();
            assert!(
                report.is_clean(),
                "round {round} (cleaned {} segs):\n{report}",
                fs.stats().segments_cleaned
            );
        }
    }
    fs.sync().unwrap();
    assert!(fs.stats().segments_cleaned > 0, "cleaner never ran");
    // All surviving files must read back intact.
    for i in 0..4 {
        assert_eq!(
            fs.read_file(&format!("/blob{i}")).unwrap(),
            blob,
            "blob{i} corrupted after cleaning"
        );
    }
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "final fsck:\n{report}");
}

#[test]
fn default_policy_survives_churn() {
    let mut fs = small_disk_fs(None);
    churn(&mut fs, 150, 10);
}

#[test]
fn greedy_policy_survives_churn() {
    let mut fs = small_disk_fs(Some(CleanerPolicy::Greedy));
    churn(&mut fs, 150, 10);
}

#[test]
fn cost_benefit_policy_survives_churn() {
    let mut fs = small_disk_fs(Some(CleanerPolicy::CostBenefit));
    churn(&mut fs, 150, 10);
}

#[test]
fn oldest_policy_survives_churn() {
    let mut fs = small_disk_fs(Some(CleanerPolicy::Oldest));
    churn(&mut fs, 150, 10);
}

#[test]
fn explicit_clean_until_reclaims_space() {
    for policy in POLICIES {
        explicit_clean_until_reclaims_space_under(policy);
    }
}

fn explicit_clean_until_reclaims_space_under(policy: Option<CleanerPolicy>) {
    let mut fs = small_disk_fs(policy);
    // Fill with short-lived files, then delete most of them.
    for i in 0..30 {
        fs.write_file(&format!("/f{i}"), &vec![i as u8; 16_000])
            .unwrap();
    }
    for i in 0..28 {
        fs.unlink(&format!("/f{i}")).unwrap();
    }
    fs.sync().unwrap();
    let before = fs.usage_table().clean_count();
    let after = fs.clean_until(before + 5).unwrap();
    assert!(
        after > before,
        "{policy:?}: user-initiated cleaning must make progress"
    );
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "{policy:?}: {report}");
    // The two survivors are intact.
    assert_eq!(fs.read_file("/f28").unwrap(), vec![28u8; 16_000]);
    assert_eq!(fs.read_file("/f29").unwrap(), vec![29u8; 16_000]);
}

#[test]
fn cleaning_preserves_remount() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(2048), Arc::clone(&clock));
    let geometry = disk.geometry().clone();
    let mut fs = Lfs::format(disk, LfsConfig::small_test(), Arc::clone(&clock)).unwrap();
    let blob = vec![7u8; 20_000];
    for round in 0..100 {
        let path = format!("/blob{}", round % 4);
        if round >= 4 {
            fs.unlink(&path).unwrap();
        }
        fs.write_file(&path, &blob).unwrap();
    }
    fs.sync().unwrap();
    assert!(fs.stats().segments_cleaned > 0);

    let image = fs.into_device().into_image();
    let clock2 = Clock::new();
    let disk2 = SimDisk::from_image(geometry, Arc::clone(&clock2), image);
    let mut fs2 = Lfs::mount(disk2, LfsConfig::small_test(), clock2).unwrap();
    for i in 0..4 {
        assert_eq!(fs2.read_file(&format!("/blob{i}")).unwrap(), blob);
    }
    let report = fs2.fsck().unwrap();
    assert!(report.is_clean(), "{report}");
}

/// The `key=` field of an event's `key=value ...` detail.
fn field(detail: &str, key: &str) -> usize {
    detail
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in `{detail}`"))
        .parse()
        .unwrap()
}

/// A small-test file system churned up to its first threshold
/// activation: one short-lived, synced, segment-sized file per round,
/// so the log fills with nearly empty dirty segments, every victim is
/// worth a whole segment and an activation needs only a few of them.
fn churned_to_the_first_activation() -> Lfs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(4096), Arc::clone(&clock));
    let mut fs = Lfs::format(disk, LfsConfig::small_test(), clock).unwrap();
    let blob = vec![0xEEu8; 15_000];
    let mut round = 0;
    while fs.stats().floor_passes == 0 {
        assert!(round < 400, "the threshold never activated");
        fs.write_file(&format!("/f{round}"), &blob).unwrap();
        fs.sync().unwrap();
        if round > 0 {
            fs.unlink(&format!("/f{}", round - 1)).unwrap();
        }
        round += 1;
    }
    fs
}

#[test]
fn threshold_activation_stops_at_its_target_and_explicit_cleaning_does_not() {
    let mut fs = churned_to_the_first_activation();
    // What `maybe_writeback` aims an activation at.
    let floor = fs.space_rule().floor();
    let target = floor + 2;
    let victims = |fs: &Lfs<SimDisk>| -> Vec<String> {
        let events = fs.obs().events().into_iter();
        events.filter(|e| e.kind == "victim").map(|e| e.detail).collect()
    };
    let floor_victims = victims(&fs);
    assert!(!floor_victims.is_empty(), "an activation records its victims");
    for detail in &floor_victims {
        // Counted after the victim went pending, so before it the level
        // was one lower.
        let level = field(detail, "clean") + field(detail, "pending");
        assert!(
            level - 1 < target,
            "a victim was cleaned with the target {target} already reached: {detail}"
        );
    }
    let last = floor_victims.last().unwrap();
    assert_eq!(
        field(last, "clean") + field(last, "pending"),
        target,
        "the activation ends at the victim that reaches its target: {last}"
    );

    // Explicit cleaning is not bounded by that target: `clean_until`'s
    // run goes where it is told, past the floor's target.
    let clean = fs.usage_table().clean_count();
    assert!(clean >= floor, "the activation restored the reserve");
    let asked = clean + 16;
    assert!(fs.clean_until(asked).unwrap() >= asked);
    let explicit = victims(&fs).split_off(floor_victims.len());
    let last = explicit.last().expect("clean_until took victims");
    assert!(
        field(last, "clean") + field(last, "pending") > target,
        "clean_until stopped at the floor's target: {last}"
    );
    assert!(fs.fsck().unwrap().is_clean());
}

/// One threshold activation is one decision, and its event says what it
/// saw and did: the level and budget it started from, the hosted run it
/// found (none here) and its victims, the same ones the `victim` events
/// name.
#[test]
fn a_floor_activation_leaves_one_decision_event() {
    let fs = churned_to_the_first_activation();
    let events = fs.obs().events();
    let of = |kind: &str| -> Vec<String> {
        let matching = events.iter().filter(|e| e.kind == kind);
        matching.map(|e| e.detail.clone()).collect()
    };
    let floors = of("cleaner_floor");
    assert_eq!(floors.len(), 1, "one activation, one event: {floors:?}");
    let detail = &floors[0];
    let target = fs.space_rule().target();
    assert_eq!(field(detail, "target"), target, "{detail}");
    assert!(field(detail, "clean") + field(detail, "pending") < target, "{detail}");
    assert!(field(detail, "budget") > 0, "{detail}");
    assert!(detail.contains(" run=none "), "{detail}");
    let victims: Vec<String> = of("victim")
        .iter()
        .map(|v| field(v, "seg").to_string())
        .collect();
    assert!(!victims.is_empty(), "the activation cleaned nothing");
    assert!(detail.ends_with(&format!(" victims={}", victims.join(","))), "{detail}");
}

/// Compaction at the floor. Filled to the admission limit, the live
/// data is dense: every victim is mostly live and cleaning one gains a
/// fraction of a segment. The floor must go on cleaning there — writes
/// keep consuming clean segments and only compaction gives them back —
/// or the reserve drains until a write fails with `NoSpace`.
///
/// A hosted run stops at the packing limit (the segments in use hold at
/// most one segment's slack beyond the live data). The space rule keeps
/// every floor activation away from it: admission leaves the target plus
/// one segment free, so at an activation at least `target + 3` segments
/// are in use beyond the packed live data's count less three. The test
/// checks that guarantee and that it is not vacuous: one activation ran
/// with the live data within a segment of the admission limit.
#[test]
fn the_floor_compacts_past_the_packing_limit() {
    let clock = Clock::new();
    // 23 segments: the admission limit leaves the live data a few
    // segments from packed.
    let disk = SimDisk::new(DiskGeometry::tiny_test(768), Arc::clone(&clock));
    let mut cfg = LfsConfig::small_test();
    // As `ext_sustained_use` does: the paper's policy.
    cfg.cleaner.policy = CleanerPolicy::Greedy;
    let mut fs = Lfs::format(disk, cfg, clock).unwrap();
    let file = vec![0x3Cu8; 2048];
    let mut nfiles = 0;
    while fs.write_file(&format!("/f{nfiles}"), &file).is_ok() {
        nfiles += 1;
    }
    // The write the rule refused may have left its file empty.
    let _ = fs.unlink(&format!("/f{nfiles}"));
    fs.sync().unwrap();

    // What the hosted run's stop rule sees: the segments in use hold no
    // more than one segment's slack beyond the live data's.
    let packed = |fs: &Lfs<SimDisk>| {
        let usage = fs.usage_table();
        let live = usage.total_live_bytes().div_ceil(usage.seg_bytes()) as usize;
        let pending = usage.segments_in_state(SegState::CleanPending).len();
        usage.nsegments() as usize - usage.clean_count() - pending <= live + 1
    };
    // Live data as admission counts it: on disk, plus what the cache
    // holds unflushed.
    let near_limit = |fs: &Lfs<SimDisk>| {
        let usage = fs.usage_table();
        let unflushed = (fs.cache_report().dirty_blocks * fs.block_size()) as u64;
        let live = usage.total_live_bytes() + unflushed;
        live + usage.seg_bytes() >= fs.space_rule().admit_bytes()
    };
    let mut activations_near_limit = 0;
    let mut rng = 0x2545F4914F6CDD1Du64;
    for round in 0..200 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let path = format!("/f{}", rng as usize % nfiles);
        let (was_packed, was_near) = (packed(&fs), near_limit(&fs));
        let activations = fs.stats().floor_passes;
        let ino = fs.lookup(&path).unwrap();
        fs.truncate(ino, 0)
            .unwrap_or_else(|e| panic!("round {round}: truncate: {e}"));
        fs.write_at(ino, 0, &file)
            .unwrap_or_else(|e| panic!("round {round}: write: {e}"));
        if fs.stats().floor_passes > activations {
            assert!(!was_packed, "round {round}: an activation began at the packing limit");
            activations_near_limit += was_near as usize;
        }
    }
    assert!(
        activations_near_limit > 0,
        "no activation ran within a segment of the admission limit: the test is vacuous"
    );
    fs.sync().unwrap();
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "{report}");
}
