//! White-box tests of cleaner victim selection and budgeting (§4.3.4).

use std::sync::Arc;

use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::FileSystem;

use crate::cleaner::CleanerPolicy;
use crate::config::LfsConfig;
use crate::fs::Lfs;
use crate::layout::usage_block::SegState;
use crate::types::SegNo;

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
        while let Some(seg) = fs.next_victim(&mut budget, None) {
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

#[test]
fn cleaning_an_empty_dirty_segment_costs_one_read() {
    for policy in POLICIES {
        let mut fs = fs_with_policy(policy);
        // Produce a genuinely dirty (once written, now dead) segment.
        fs.write_file("/dies", &vec![1u8; 14 * 1024]).unwrap();
        fs.sync().unwrap();
        fs.unlink("/dies").unwrap();
        fs.sync().unwrap();
        let seg = fs.ranked_victims()[0];
        let (blocks, inodes) = fs.clean_segment(seg).unwrap();
        // Everything in it was dead: nothing to copy.
        assert_eq!((blocks, inodes), (0, 0), "{policy:?}");
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
