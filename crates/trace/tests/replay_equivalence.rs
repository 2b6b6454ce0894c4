//! Cross-file-system replay equivalence.
//!
//! Every generated trace is *determinate*: conflicting operations are
//! ordered by happens-before edges. So replaying one trace through LFS,
//! FFS, and the in-memory model — with wildly different latencies, and
//! with QoS reordering the eligible set — must land all three in the
//! same final namespace with the same file contents. The suite also
//! keeps the dependency audit honest: every replay must check a
//! non-zero number of edges (the vacuity guard) and violate none.

use std::rc::Rc;
use std::sync::Arc;

use engine::{EngineConfig, EngineCore, EngineDisk};
use ffs_baseline::{Ffs, FfsConfig};
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{Clock, DiskGeometry, SimDisk};
use trace::{by_name, replay, snapshot, GenSpec, ReplayConfig, ReplayReport, Trace, TRACE_NAMES};
use vfs::model::ModelFs;
use vfs::FileKind;

type Snapshot = Vec<(String, FileKind, u64, u64)>;

fn check(label: &str, report: &ReplayReport, trace: &Trace) {
    assert_eq!(
        report.total_ops,
        trace.records.len() as u64,
        "{label}: replay did not visit every record"
    );
    assert_eq!(report.failed_ops, 0, "{label}: operations failed");
    assert_eq!(
        report.dep_violations, 0,
        "{label}: happens-before edges violated"
    );
    assert!(
        report.dep_edges_checked > 0,
        "{label}: dependency audit was vacuous"
    );
}

fn replay_lfs(trace: &Trace, cfg: &ReplayConfig) -> Snapshot {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
    let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
    let dev = EngineDisk::new(Rc::clone(&core));
    let registry = core.borrow().disk().obs().clone();
    let mut fs = Lfs::format(dev, LfsConfig::small_test(), clock).expect("format LFS");
    let report = replay(&mut fs, &core, &registry, trace, cfg).expect("LFS replay");
    check("lfs", &report, trace);
    let fsck = fs.fsck().expect("fsck");
    assert!(fsck.is_clean(), "LFS inconsistent after replay:\n{fsck}");
    snapshot(&mut fs).expect("LFS snapshot")
}

fn replay_ffs(trace: &Trace, cfg: &ReplayConfig) -> Snapshot {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
    let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
    let dev = EngineDisk::new(Rc::clone(&core));
    let registry = core.borrow().disk().obs().clone();
    let mut fs = Ffs::format(dev, FfsConfig::small_test(), clock).expect("format FFS");
    let report = replay(&mut fs, &core, &registry, trace, cfg).expect("FFS replay");
    check("ffs", &report, trace);
    let fsck = fs.fsck().expect("fsck");
    assert!(fsck.is_clean(), "FFS inconsistent after replay:\n{fsck}");
    snapshot(&mut fs).expect("FFS snapshot")
}

fn replay_model(trace: &Trace, cfg: &ReplayConfig) -> Snapshot {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
    let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
    let registry = core.borrow().disk().obs().clone();
    let mut fs = ModelFs::new();
    let report = replay(&mut fs, &core, &registry, trace, cfg).expect("model replay");
    check("model", &report, trace);
    snapshot(&mut fs).expect("model snapshot")
}

/// LFS, FFS, and the model agree on the final tree for every generator,
/// with QoS both off and on (different dispatch orders, same edges).
#[test]
fn all_file_systems_reach_the_same_final_state() {
    for name in TRACE_NAMES {
        let trace = by_name(name, &GenSpec::small(3)).expect("known generator");
        for qos in [false, true] {
            let cfg = ReplayConfig::default().with_qos(qos);
            let model = replay_model(&trace, &cfg);
            assert!(
                model.iter().any(|(_, kind, ..)| *kind == FileKind::Regular),
                "{name}: trace created no files — equivalence would be vacuous"
            );
            let lfs = replay_lfs(&trace, &cfg);
            assert_eq!(
                lfs, model,
                "{name} (qos={qos}): LFS final state diverged from the model"
            );
            let ffs = replay_ffs(&trace, &cfg);
            assert_eq!(
                ffs, model,
                "{name} (qos={qos}): FFS final state diverged from the model"
            );
        }
    }
}

/// A parsed fixture replays identically to its in-memory generator
/// twin: text round-tripping does not perturb replay semantics.
#[test]
fn parsed_fixture_replays_like_the_generator() {
    let trace = by_name("office", &GenSpec::small(3)).expect("office");
    let reparsed = Trace::parse(&trace.to_text()).expect("round trip");
    let cfg = ReplayConfig::default().with_qos(true);
    assert_eq!(replay_model(&trace, &cfg), replay_model(&reparsed, &cfg));
}

/// Every one of the 11 operation kinds, on two clients joined by
/// cross-client `after` edges. No generator emits `rename`, `link`,
/// `rmdir` or `fsync`, so this is where their `apply` arms run.
const EVERY_OP: &str = "\
lfs-trace v1
clients 2
op 0 c0 t0 after - mkdir /docs
op 1 c0 t1000 after - create /docs/draft
op 2 c0 t1000 after - write /docs/draft 0 6000 7
op 3 c1 t0 after 2 read /docs/draft 0 6000
op 4 c1 t1000 after - rename /docs/draft /docs/final
op 5 c0 t1000 after 4 link /docs/final /shared
op 6 c0 t1000 after - truncate /shared 1000
op 7 c1 t1000 after 5 fsync /docs/final
op 8 c1 t0 after - mkdir /tmp
op 9 c1 t0 after - create /tmp/scratch
op 10 c1 t0 after - unlink /tmp/scratch
op 11 c0 t0 after 10 rmdir /tmp
op 12 c0 t0 after - write /shared 4096 100 9
op 13 c1 t0 after 11,12 sync
";

fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The tree `EVERY_OP` leaves, written out by hand: `/docs/final` and
/// `/shared` are one file, seed 7's first 1000 bytes, a hole, then seed
/// 9's 100 bytes at 4096; the draft name and `/tmp` are gone.
fn every_op_tree() -> Snapshot {
    let mut file = workload::payload(7, 6000);
    file.truncate(1000);
    file.resize(4096, 0);
    file.extend(workload::payload(9, 100));
    let hash = fnv1a(&file);
    vec![
        ("/docs".into(), FileKind::Directory, 0, 0),
        ("/docs/final".into(), FileKind::Regular, 4196, hash),
        ("/shared".into(), FileKind::Regular, 4196, hash),
    ]
}

/// The hand-written trace of every op kind replays, through the one
/// replay path, to the tree written out above on LFS, FFS and the model.
#[test]
fn every_op_kind_replays_to_the_written_out_tree() {
    let trace = Trace::parse(EVERY_OP).expect("fixture parses");
    let kinds: std::collections::BTreeSet<String> = (trace.records.iter())
        .map(|r| r.op.to_line().split(' ').next().unwrap_or("").to_string())
        .collect();
    assert_eq!(kinds.len(), 11, "the fixture must hold every op kind: {kinds:?}");
    let expected = every_op_tree();
    let cfg = ReplayConfig::default();
    assert_eq!(replay_model(&trace, &cfg), expected, "model");
    assert_eq!(replay_lfs(&trace, &cfg), expected, "LFS");
    assert_eq!(replay_ffs(&trace, &cfg), expected, "FFS");
}
