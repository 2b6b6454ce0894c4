//! Property-based model checking: random operation sequences must leave
//! LFS, FFS, and the in-memory reference model in identical observable
//! states, and both real file systems internally consistent.

use std::sync::Arc;

use proptest::prelude::*;

use lfs_repro::ffs_baseline::{Ffs, FfsConfig};
use lfs_repro::lfs_core::{Lfs, LfsConfig};
use lfs_repro::sim_disk::{Clock, DiskGeometry, SimDisk};
use lfs_repro::vfs::model::ModelFs;
use lfs_repro::vfs::{FileKind, FileSystem, FsError};

/// The operations the property explores.
#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    Mkdir(usize),
    Unlink(usize),
    Rmdir(usize),
    Write {
        path: usize,
        offset: u16,
        len: u16,
        fill: u8,
    },
    Truncate {
        path: usize,
        size: u16,
    },
    Rename(usize, usize),
    Link(usize, usize),
    ReadBack(usize),
    Sync,
}

/// A small fixed path pool spanning two directory levels.
fn paths() -> Vec<&'static str> {
    vec![
        "/a",
        "/b",
        "/c",
        "/dir1",
        "/dir2",
        "/dir1/x",
        "/dir1/y",
        "/dir2/x",
        "/dir2/deep",
        "/dir2/deep/z",
        "/dir1/x/under",
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let p = 0..paths().len();
    prop_oneof![
        p.clone().prop_map(Op::Create),
        p.clone().prop_map(Op::Mkdir),
        p.clone().prop_map(Op::Unlink),
        p.clone().prop_map(Op::Rmdir),
        (p.clone(), 0u16..5000, 0u16..2000, any::<u8>()).prop_map(|(path, offset, len, fill)| {
            Op::Write {
                path,
                offset,
                len,
                fill,
            }
        }),
        (p.clone(), 0u16..6000).prop_map(|(path, size)| Op::Truncate { path, size }),
        (p.clone(), p.clone()).prop_map(|(a, b)| Op::Rename(a, b)),
        (p.clone(), p.clone()).prop_map(|(a, b)| Op::Link(a, b)),
        p.prop_map(Op::ReadBack),
        Just(Op::Sync),
    ]
}

/// Applies one op, normalising the result to a comparable form.
fn apply<F: FileSystem>(fs: &mut F, op: &Op) -> Result<Vec<u8>, FsError> {
    let paths = paths();
    match op {
        Op::Create(i) => fs.create(paths[*i]).map(|_| Vec::new()),
        Op::Mkdir(i) => fs.mkdir(paths[*i]).map(|_| Vec::new()),
        Op::Unlink(i) => fs.unlink(paths[*i]).map(|_| Vec::new()),
        Op::Rmdir(i) => fs.rmdir(paths[*i]).map(|_| Vec::new()),
        Op::Write {
            path,
            offset,
            len,
            fill,
        } => {
            let ino = fs.lookup(paths[*path])?;
            let data = vec![*fill; *len as usize];
            fs.write_at(ino, *offset as u64, &data)
                .map(|n| vec![n as u8])
        }
        Op::Truncate { path, size } => {
            let ino = fs.lookup(paths[*path])?;
            fs.truncate(ino, *size as u64).map(|_| Vec::new())
        }
        Op::Rename(a, b) => fs.rename(paths[*a], paths[*b]).map(|_| Vec::new()),
        Op::Link(a, b) => fs.link(paths[*a], paths[*b]).map(|_| Vec::new()),
        Op::ReadBack(i) => fs.read_file(paths[*i]),
        Op::Sync => fs.sync().map(|_| Vec::new()),
    }
}

/// Snapshots a tree as sorted (path, kind, content).
fn snapshot<F: FileSystem>(fs: &mut F) -> Vec<(String, FileKind, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![String::from("/")];
    while let Some(dir) = stack.pop() {
        for entry in fs.readdir(&dir).unwrap() {
            let path = if dir == "/" {
                format!("/{}", entry.name)
            } else {
                format!("{dir}/{}", entry.name)
            };
            match entry.kind {
                FileKind::Regular => {
                    let data = fs.read_file(&path).unwrap();
                    out.push((path, FileKind::Regular, data));
                }
                FileKind::Directory => {
                    out.push((path.clone(), FileKind::Directory, Vec::new()));
                    stack.push(path);
                }
            }
        }
    }
    out.sort();
    out
}

/// Random writes to three files — past their ends too, leaving holes —
/// with syncs and cache drops between, and reads of random ranges: with
/// 512-byte blocks the files reach the single- and double-indirect
/// spans, and a range read of a file's tail may read through its
/// single-indirect block.
#[derive(Debug, Clone)]
enum RangeOp {
    Write {
        file: usize,
        offset: u32,
        len: u16,
        fill: u8,
    },
    Read {
        file: usize,
        offset: u32,
        len: u32,
    },
    Sync,
    DropCaches,
}

const RANGE_FILES: [&str; 3] = ["/r0", "/r1", "/r2"];

fn range_op_strategy() -> impl Strategy<Value = RangeOp> {
    let f = 0..RANGE_FILES.len();
    prop_oneof![
        (f.clone(), 0u32..90_000, 0u16..8192, any::<u8>()).prop_map(|(file, offset, len, fill)| {
            RangeOp::Write {
                file,
                offset,
                len,
                fill,
            }
        }),
        (f, 0u32..100_000, 0u32..40_000).prop_map(|(file, offset, len)| RangeOp::Read {
            file,
            offset,
            len,
        }),
        Just(RangeOp::Sync),
        Just(RangeOp::DropCaches),
    ]
}

fn apply_range<F: FileSystem>(fs: &mut F, op: &RangeOp) -> Result<Vec<u8>, FsError> {
    match *op {
        RangeOp::Write {
            file,
            offset,
            len,
            fill,
        } => {
            let ino = fs.lookup(RANGE_FILES[file])?;
            fs.write_at(ino, offset as u64, &vec![fill; len as usize])
                .map(|n| (n as u32).to_le_bytes().to_vec())
        }
        RangeOp::Read { file, offset, len } => {
            let ino = fs.lookup(RANGE_FILES[file])?;
            let mut buf = vec![0u8; len as usize];
            let n = fs.read_at(ino, offset as u64, &mut buf)?;
            buf.truncate(n);
            Ok(buf)
        }
        RangeOp::Sync => fs.sync().map(|_| Vec::new()),
        RangeOp::DropCaches => fs.drop_caches().map(|_| Vec::new()),
    }
}

/// Runs `ops` against `fs` and the model, comparing every result.
fn ranges_match_the_model<F: FileSystem>(fs: &mut F, ops: &[RangeOp]) -> Result<(), TestCaseError> {
    let mut model = ModelFs::new();
    for path in RANGE_FILES {
        prop_assert_eq!(model.create(path).is_ok(), fs.create(path).is_ok());
    }
    for (step, op) in ops.iter().enumerate() {
        let expected = apply_range(&mut model, op);
        let actual = apply_range(fs, op);
        prop_assert_eq!(&expected, &actual, "step {} ({:?}) diverged", step, op);
    }
    Ok(())
}

/// The test configurations' 64 KB cache, and an 8-block one: its
/// inode table holds 8 inodes, fewer than the paths, so the table's
/// bound and its block fill run under every op sequence.
const CACHES: [usize; 2] = [64 * 1024, 4 * 1024];

fn lfs() -> Lfs<SimDisk> {
    lfs_with_cache(CACHES[0])
}

fn lfs_with_cache(cache_bytes: usize) -> Lfs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(32_768), Arc::clone(&clock));
    let cfg = LfsConfig {
        cache_bytes,
        ..LfsConfig::small_test()
    };
    Lfs::format(disk, cfg, clock).unwrap()
}

fn ffs() -> Ffs<SimDisk> {
    ffs_with_cache(CACHES[0])
}

fn ffs_with_cache(cache_bytes: usize) -> Ffs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(32_768), Arc::clone(&clock));
    let cfg = FfsConfig {
        cache_bytes,
        ..FfsConfig::small_test()
    };
    Ffs::format(disk, cfg, clock).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 200,
    })]

    #[test]
    fn lfs_matches_the_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        for cache_bytes in CACHES {
            let mut model = ModelFs::new();
            let mut fs = lfs_with_cache(cache_bytes);
            for (step, op) in ops.iter().enumerate() {
                let expected = apply(&mut model, op);
                let actual = apply(&mut fs, op);
                prop_assert_eq!(
                    &expected, &actual,
                    "cache {} B: step {} ({:?}) diverged", cache_bytes, step, op
                );
            }
            prop_assert_eq!(snapshot(&mut model), snapshot(&mut fs));
            let report = fs.fsck().unwrap();
            prop_assert!(report.is_clean(), "cache {} B: fsck: {}", cache_bytes, report);
        }
    }

    #[test]
    fn ffs_matches_the_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        for cache_bytes in CACHES {
            let mut model = ModelFs::new();
            let mut fs = ffs_with_cache(cache_bytes);
            for (step, op) in ops.iter().enumerate() {
                let expected = apply(&mut model, op);
                let actual = apply(&mut fs, op);
                prop_assert_eq!(
                    &expected, &actual,
                    "cache {} B: step {} ({:?}) diverged", cache_bytes, step, op
                );
            }
            prop_assert_eq!(snapshot(&mut model), snapshot(&mut fs));
            let report = fs.fsck().unwrap();
            prop_assert!(report.is_clean(), "cache {} B: fsck: {}", cache_bytes, report);
        }
    }

    #[test]
    fn lfs_range_reads_match_the_model(ops in proptest::collection::vec(range_op_strategy(), 1..40)) {
        let mut fs = lfs();
        ranges_match_the_model(&mut fs, &ops)?;
        let report = fs.fsck().unwrap();
        prop_assert!(report.is_clean(), "fsck: {}", report);
    }

    #[test]
    fn ffs_range_reads_match_the_model(ops in proptest::collection::vec(range_op_strategy(), 1..40)) {
        let mut fs = ffs();
        ranges_match_the_model(&mut fs, &ops)?;
        let report = fs.fsck().unwrap();
        prop_assert!(report.is_clean(), "fsck: {}", report);
    }

    #[test]
    fn lfs_state_survives_remount(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let clock = Clock::new();
        let disk = SimDisk::new(DiskGeometry::tiny_test(32_768), Arc::clone(&clock));
        let geometry = disk.geometry().clone();
        let mut fs = Lfs::format(disk, LfsConfig::small_test(), Arc::clone(&clock)).unwrap();
        for op in &ops {
            let _ = apply(&mut fs, op);
        }
        fs.sync().unwrap();
        let before = snapshot(&mut fs);

        let image = fs.into_device().into_image();
        let disk = SimDisk::from_image(geometry, Clock::new(), image);
        let clock = disk.clock().clone();
        let mut fs = Lfs::mount(disk, LfsConfig::small_test(), clock).unwrap();
        prop_assert_eq!(before, snapshot(&mut fs));
        let report = fs.fsck().unwrap();
        prop_assert!(report.is_clean(), "fsck after remount: {}", report);
    }
}
