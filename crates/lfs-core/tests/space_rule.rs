//! The space rule's fence (DESIGN §5.3): churn on a small volume filled
//! up to what the rule admits never turns the mount read-only, under
//! every cleaner policy, with or without a hosted cleaner task stepped
//! between operations (whose run a threshold activation then adopts). A
//! write the rule refuses fails with a typed `NoSpace` and leaves the
//! mount writable; lookups, reads, truncates, unlinks and cleaner steps
//! never fail; no threshold activation comes up empty; fsck is clean at
//! the end.
//!
//! `PROPTEST_CASES` sizes the proptest (a few cases by default, so the
//! Tier-1 run stays short); the checked-in cases below each failed under
//! the headroom rules the space rule replaced (the first only at a 0.97
//! utilization cap): a floor activation with no victim, the drain that
//! ends with the mount read-only.
//! `probe_small_test_volumes` (ignored) is the 450-case sweep EXPERIMENTS
//! reports: `cargo test --release -p lfs-core --test space_rule --
//! --ignored --nocapture`.

use std::sync::Arc;

use engine::{drain, offer};
use lfs_core::{AsyncCleanerPolicy, CleanerPolicy, CleanerTask, Lfs, LfsConfig};
use proptest::prelude::*;
use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::{FileSystem, FsError};

const POLICIES: [CleanerPolicy; 3] = [
    CleanerPolicy::Greedy,
    CleanerPolicy::CostBenefit,
    CleanerPolicy::Oldest,
];

fn format(sectors: u64, cfg: LfsConfig) -> Lfs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(sectors), Arc::clone(&clock));
    Lfs::format(disk, cfg, clock).expect("the volume is large enough for the rule")
}

/// Accepts `result` only if it succeeded or is a refusal: `NoSpace` (or
/// `NoInodes`, a full inode map) with the mount still writable.
fn refused_at_most<T>(
    fs: &Lfs<SimDisk>,
    what: &str,
    result: vfs::FsResult<T>,
) -> Result<bool, String> {
    match result {
        Ok(_) => Ok(true),
        Err(FsError::NoSpace | FsError::NoInodes) if !fs.is_read_only() => Ok(false),
        Err(e) => Err(format!("{what}: {e} (read-only: {})", fs.is_read_only())),
    }
}

/// Writes files of `size` bytes until the live bytes reach `fill` or a
/// create or write is refused; a file the refusal left partial is
/// unlinked. Returns the number of whole files.
fn fill(fs: &mut Lfs<SimDisk>, size: usize, fill: u64) -> Result<usize, String> {
    let data = vec![0u8; size];
    let mut n = 0;
    while fs.usage_table().total_live_bytes() < fill {
        let path = format!("/f{n}");
        if !{
            let r = fs.write_file(&path, &data);
            refused_at_most(fs, "fill", r)?
        } {
            if fs.lookup(&path).is_ok() {
                fs.unlink(&path)
                    .map_err(|e| format!("unlink after refusal: {e}"))?;
            }
            break;
        }
        n += 1;
    }
    Ok(n)
}

/// What every operation must leave behind: a writable mount, and no
/// threshold activation since `floors_before` without a victim.
fn check(fs: &Lfs<SimDisk>, floors_before: u64, round: usize) -> Result<(), String> {
    if fs.is_read_only() {
        return Err(format!("round {round}: the mount went read-only"));
    }
    let new = (fs.stats().floor_passes - floors_before) as usize;
    let events = fs.obs().events();
    let floors = events.iter().filter(|e| e.kind == "cleaner_floor");
    if let Some(empty) = floors
        .rev()
        .take(new)
        .find(|e| e.detail.ends_with("victims="))
    {
        return Err(format!(
            "round {round}: an activation took no victim: {}",
            empty.detail
        ));
    }
    Ok(())
}

/// Cleaner steps a hosted task is offered after each churn operation.
const STEPS_PER_OP: u64 = 4;

/// `rounds` of random churn over files `/f0..`: whole-file overwrites
/// (truncate, then write), and unless `overwrites_only`, one-block
/// overwrites, unlink and re-create, and reads checked against what was
/// last written whole. A hosted `task` is offered `STEPS_PER_OP` steps
/// after every operation and drained at the end.
fn churn(
    fs: &mut Lfs<SimDisk>,
    nfiles: usize,
    size: usize,
    rounds: usize,
    seed: u64,
    overwrites_only: bool,
    mut task: Option<CleanerTask>,
) -> Result<(), String> {
    // Per file: `None` while a refused re-create left it missing, else
    // the content it holds when known, `(byte, len)`.
    let mut model: Vec<Option<Option<(u8, usize)>>> = vec![Some(Some((0, size))); nfiles];
    let mut rng = seed | 1;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for round in 0..rounds {
        let (i, op, byte) = (next() as usize % nfiles, next() % if overwrites_only { 7 } else { 10 }, round as u8);
        let path = format!("/f{i}");
        let floors = fs.stats().floor_passes;
        let data = vec![byte; size];
        let Some(known) = model[i] else {
            // Missing: re-create it.
            let whole = {
                let r = fs.write_file(&path, &data);
                refused_at_most(fs, "re-create", r)?
            };
            if fs.lookup(&path).is_ok() {
                model[i] = Some(whole.then_some((byte, size)));
            }
            check(fs, floors, round)?;
            step(fs, task.as_mut(), round)?;
            continue;
        };
        let ino = fs
            .lookup(&path)
            .map_err(|e| format!("round {round}: lookup {path}: {e}"))?;
        match op {
            0..=6 => {
                fs.truncate(ino, 0)
                    .map_err(|e| format!("round {round}: truncate: {e}"))?;
                let whole = {
                    let r = fs.write_at(ino, 0, &data);
                    refused_at_most(fs, "write", r)?
                };
                model[i] = Some(Some(if whole { (byte, size) } else { (byte, 0) }));
            }
            7 => {
                let len = known.map_or(0, |(_, len)| len);
                let at = if len == 0 { 0 } else { next() as usize % len };
                let block = &data[..fs.block_size().min(size)];
                {
                    let r = fs.write_at(ino, at as u64, block);
                    refused_at_most(fs, "write", r)?
                };
                // The file now mixes two fills: no longer checked.
                model[i] = Some(None);
            }
            8 => {
                fs.unlink(&path)
                    .map_err(|e| format!("round {round}: unlink: {e}"))?;
                let whole = {
                    let r = fs.write_file(&path, &data);
                    refused_at_most(fs, "re-create", r)?
                };
                model[i] = fs
                    .lookup(&path)
                    .is_ok()
                    .then_some(whole.then_some((byte, size)));
            }
            _ => {
                let read = fs
                    .read_file(&path)
                    .map_err(|e| format!("round {round}: read: {e}"))?;
                if known.is_some_and(|(b, len)| read != vec![b; len]) {
                    return Err(format!("round {round}: {path} reads back wrong"));
                }
            }
        }
        check(fs, floors, round)?;
        step(fs, task.as_mut(), round)?;
    }
    if let Some(task) = task.as_mut() {
        drain(task, fs).map_err(|e| format!("final drain: {e}"))?;
    }
    fs.sync().map_err(|e| format!("final sync: {e}"))?;
    let report = fs.fsck().map_err(|e| format!("fsck: {e}"))?;
    if !report.is_clean() {
        return Err(format!("fsck:\n{report}"));
    }
    Ok(())
}

/// Offers a hosted `task` its steps after churn round `round`; a step
/// never fails and leaves the mount writable.
fn step(fs: &mut Lfs<SimDisk>, task: Option<&mut CleanerTask>, round: usize) -> Result<(), String> {
    let Some(task) = task else {
        return Ok(());
    };
    let stepped = offer(task, fs, None, STEPS_PER_OP);
    stepped.map_err(|e| format!("round {round}: cleaner step: {e}"))?;
    if fs.is_read_only() {
        return Err(format!("round {round}: a cleaner step turned the mount read-only"));
    }
    Ok(())
}

/// The hosted cleaner a case draws: none (`0`), the default policy
/// (`1`), or the eager one — watermarks far above any segment count —
/// with step caps of `caps` blocks read and entries judged.
fn hosted_task(kind: usize, caps: (usize, usize)) -> Option<CleanerTask> {
    let policy = match kind {
        0 => return None,
        1 => AsyncCleanerPolicy::default(),
        _ => AsyncCleanerPolicy::default()
            .with_watermarks(1 << 16, 1 << 17)
            .with_step_caps(caps.0, caps.1),
    };
    Some(CleanerTask::new(policy))
}

fn tier1_cases() -> u32 {
    let cases = std::env::var("PROPTEST_CASES").ok();
    cases.and_then(|v| v.parse().ok()).unwrap_or(6)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: tier1_cases(), ..ProptestConfig::default() })]

    /// 24–96 segments of 8–32 KB, 512 B or 1 KB blocks, files of
    /// 512 B–16 KB filled to half the admission limit or more (100 % is
    /// "until refused"), every policy, and no hosted task, a default one
    /// or an eager one with step caps of 1–64 blocks and 1–32 entries.
    #[test]
    fn churn_near_the_admission_limit_never_turns_a_mount_read_only(
        nsegs in 24u64..=96,
        kb_blocks in any::<bool>(),
        seg_kb in 8usize..=32,
        size in 512usize..=16_384,
        policy in 0usize..3,
        fill_pct in 50u64..=100,
        seed in any::<u64>(),
        hosted in 0usize..3,
        caps in (1usize..=64, 1usize..=32),
    ) {
        let draw = Draw { nsegs, kb_blocks, seg_kb, size, policy, fill_pct, seed, hosted, caps };
        drawn_case(draw).map_err(TestCaseError::fail)?;
    }
}

/// One draw of the proptest above.
#[derive(Debug, Clone, Copy)]
struct Draw {
    nsegs: u64,
    kb_blocks: bool,
    seg_kb: usize,
    size: usize,
    policy: usize,
    fill_pct: u64,
    seed: u64,
    hosted: usize,
    caps: (usize, usize),
}

/// Formats the volume `d` describes, fills it and churns it 300 rounds.
fn drawn_case(d: Draw) -> Result<(), String> {
    let bs = if d.kb_blocks { 1024 } else { 512 };
    let mut cfg = LfsConfig::small_test()
        .with_block_size(bs)
        .with_segment_bytes(d.seg_kb * 1024);
    cfg.cleaner.policy = POLICIES[d.policy];
    let sectors = (d.nsegs * (d.seg_kb as u64 * 1024) + 8 * bs as u64) / 512;
    let mut fs = format(sectors, cfg);
    let limit = fs.space_rule().admit_bytes();
    let target = if d.fill_pct == 100 {
        u64::MAX
    } else {
        limit * d.fill_pct / 100
    };
    let nfiles = fill(&mut fs, d.size, target)?;
    if nfiles == 0 {
        return Ok(());
    }
    let task = hosted_task(d.hosted, d.caps);
    churn(&mut fs, nfiles, d.size, 300, d.seed, false, task)
}

/// The first draw that failed `PROPTEST_SHIM_SEED=1 PROPTEST_CASES=300`
/// (case 224): Oldest on 86 segments of 28 KB, 1 KB blocks, 3,346 B
/// files filled until refused, no hosted task. At round 290 a floor
/// activation at clean 2 took no victim: one-victim activations whose
/// checkpoint cost what their victim freed had drained the relocation
/// budget below every segment's live bytes.
#[test]
fn oldest_on_86_segments_of_28_kb_drains_no_budget() {
    let draw = Draw {
        nsegs: 86,
        kb_blocks: true,
        seg_kb: 28,
        size: 3346,
        policy: 2,
        fill_pct: 100,
        seed: 1,
        hosted: 0,
        caps: (15, 24),
    };
    drawn_case(draw).unwrap();
}

/// The same leak at `PROPTEST_SHIM_SEED=2` (case 178): Oldest on 92
/// segments of 25 KB, 1 KB blocks, 3,172 B files filled until refused,
/// no hosted task; an activation at clean 2 took no victim at round 214.
#[test]
fn oldest_on_92_segments_of_25_kb_drains_no_budget() {
    let draw = Draw {
        nsegs: 92,
        kb_blocks: true,
        seg_kb: 25,
        size: 3172,
        policy: 2,
        fill_pct: 100,
        seed: 16_478_290_147_226_075_109,
        hosted: 0,
        caps: (46, 1),
    };
    drawn_case(draw).unwrap();
}

/// A small-test volume filled with `size`-byte files to `fill_pct` of its
/// log (or until refused), then 3,000 rounds of whole-file overwrites.
fn checked_in_case(sectors: u64, policy: CleanerPolicy, size: usize, fill_pct: Option<u64>) {
    let mut cfg = LfsConfig::small_test();
    cfg.cleaner.policy = policy;
    let mut fs = format(sectors, cfg);
    let log = fs.superblock().log_capacity_bytes();
    let target = fill_pct.map_or(u64::MAX, |pct| log * pct / 100);
    let nfiles = fill(&mut fs, size, target).unwrap();
    churn(&mut fs, nfiles, size, 3_000, 0x2545_F491_4F6C_DD1D, true, None).unwrap();
}

/// 63 segments, 4 KB files asked for 82 % of the log: under the old
/// 0.97 utilization cap this went read-only after 2,960 activations in
/// 984 overwrites.
#[test]
fn four_kb_files_at_82_percent_of_63_segments() {
    checked_in_case(2048, CleanerPolicy::CostBenefit, 4096, Some(82));
}

/// 23 segments filled with 512 B files until refused, greedy.
#[test]
fn greedy_on_23_full_segments_of_512_byte_files() {
    checked_in_case(768, CleanerPolicy::Greedy, 512, None);
}

/// 31 segments filled with 512 B files until refused, cost-benefit.
#[test]
fn cost_benefit_on_31_full_segments_of_512_byte_files() {
    checked_in_case(1024, CleanerPolicy::CostBenefit, 512, None);
}

/// 47 segments filled with 16 KB files until refused, oldest first.
#[test]
fn oldest_on_47_full_segments_of_16_kb_files() {
    checked_in_case(1536, CleanerPolicy::Oldest, 16_384, None);
}

/// The sweep EXPERIMENTS reports: 15 small-test volumes of 23–95
/// segments × files of 512 B, 1, 2, 4 and 16 KB × filled to 40 % of the
/// log or until refused × three policies, 3,000 whole-file overwrites
/// each.
#[test]
#[ignore]
fn probe_small_test_volumes() {
    let mut failed = Vec::new();
    for i in 0..15u64 {
        let sectors = 768 + i * 2304 / 14;
        for size in [512, 1024, 2048, 4096, 16_384] {
            for fill_pct in [Some(40), None] {
                for policy in POLICIES {
                    let mut cfg = LfsConfig::small_test();
                    cfg.cleaner.policy = policy;
                    let mut fs = format(sectors, cfg);
                    let log = fs.superblock().log_capacity_bytes();
                    let target = fill_pct.map_or(u64::MAX, |pct| log * pct / 100);
                    let outcome = fill(&mut fs, size, target).and_then(|n| {
                        let live = fs.usage_table().total_live_bytes() * 100 / log;
                        churn(&mut fs, n, size, 3_000, 0x2545_F491_4F6C_DD1D, true, None).map(|()| live)
                    });
                    let case = format!("{sectors} sectors, {size} B, {fill_pct:?}, {policy:?}");
                    match outcome {
                        Ok(live) => println!("ok   {case}: {live} % live"),
                        Err(e) => {
                            println!("FAIL {case}: {e}");
                            failed.push(case);
                        }
                    }
                }
            }
        }
    }
    println!("{} of 450 cases failed", failed.len());
    assert!(failed.is_empty(), "{failed:?}");
}
