//! Cleaner stress tests: sustained churn on a small disk, under the
//! default configuration and every named victim-selection policy, with
//! consistency checks throughout.

use std::sync::Arc;

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

#[test]
fn threshold_activation_stops_at_its_target_and_explicit_cleaning_does_not() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(4096), Arc::clone(&clock));
    let cfg = LfsConfig::small_test();
    let per_pass = cfg.cleaner.segments_per_pass;
    let mut fs = Lfs::format(disk, cfg.clone(), clock).unwrap();
    // What `maybe_writeback` aims an activation at.
    let activate_below = cfg
        .cleaner
        .activate_below_clean
        .max(fs.reserve_segment_count() + 2);
    let target = activate_below + 2;

    // One short-lived, synced, segment-sized file per round: the log
    // fills with nearly empty dirty segments, so every victim is worth
    // a whole segment and an activation needs only a few of them.
    let blob = vec![0xEEu8; 15_000];
    let mut round = 0;
    while fs.stats().segments_cleaned == 0 {
        assert!(round < 400, "the threshold never activated");
        fs.write_file(&format!("/f{round}"), &blob).unwrap();
        fs.sync().unwrap();
        if round > 0 {
            fs.unlink(&format!("/f{}", round - 1)).unwrap();
        }
        round += 1;
    }
    let victims: Vec<String> = fs
        .obs()
        .events()
        .into_iter()
        .filter(|e| e.kind == "victim")
        .map(|e| e.detail)
        .collect();
    assert!(!victims.is_empty(), "an activation records its victims");
    for detail in &victims {
        // Counted after the victim went pending, so before it the level
        // was one lower.
        let level = field(detail, "clean") + field(detail, "pending");
        assert!(
            level - 1 < target,
            "a victim was cleaned with the target {target} already reached: {detail}"
        );
    }
    let last = victims.last().unwrap();
    assert_eq!(
        field(last, "clean") + field(last, "pending"),
        target,
        "the activation ends at the victim that reaches its target: {last}"
    );
    assert!(
        victims.len() < per_pass,
        "on empty victims the target is less than one pass away, saw {} victims",
        victims.len()
    );

    // Explicit cleaning is not bounded by that target: a pass takes its
    // full complement, `clean_until` goes where it is told.
    let clean = fs.usage_table().clean_count();
    assert!(
        clean >= activate_below,
        "the activation restored the reserve"
    );
    let outcome = fs.clean_pass().unwrap();
    assert_eq!(
        outcome.segments, per_pass,
        "a pass cleans all it is asked to"
    );
    fs.checkpoint().unwrap();
    let asked = fs.usage_table().clean_count() + 2 * per_pass;
    assert!(fs.clean_until(asked).unwrap() >= asked);
    assert!(fs.fsck().unwrap().is_clean());
}
