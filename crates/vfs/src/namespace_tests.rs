//! Unit tests of [`crate::namespace`] over a small in-memory store that
//! records which hooks the layer called.

use std::collections::BTreeMap;
use std::ops::Range;

use obs::Registry;
use sim_disk::{Clock, CpuModel};

use crate::blockmap::{self, Roots, IDX_DTOP, IDX_SINGLE, NDIRECT, NIL};
use crate::dirent;
use crate::names::{NameIndex, MAX_NAMES};
use crate::namespace::{self, Finding, NodeStore, NodeView, OpHists};
use crate::{FileKind, FsError, FsResult, Ino};

/// Small enough that a directory of a few entries spans several blocks.
const BLOCK: usize = 16;
const PPB: usize = BLOCK / 4;

struct FakeNode {
    kind: FileKind,
    nlink: u16,
    data: Vec<u8>,
}

struct FakeStore {
    cpu: CpuModel,
    hists: OpHists,
    names: NameIndex,
    nodes: BTreeMap<Ino, FakeNode>,
    next_ino: u32,
    /// Every state-changing hook call, in order.
    calls: Vec<String>,
    read_only: bool,
    /// Makes `do_write_dir` fail, as a full FFS disk would.
    dir_writes_fail: bool,
}

impl FakeStore {
    fn new() -> Self {
        let mut nodes = BTreeMap::new();
        let root = FakeNode {
            kind: FileKind::Directory,
            nlink: 1,
            data: Vec::new(),
        };
        nodes.insert(Ino::ROOT, root);
        FakeStore {
            cpu: CpuModel::sun_4_260(Clock::new()),
            hists: OpHists::new(&Registry::new()),
            names: NameIndex::new(&Registry::new()),
            nodes,
            next_ino: Ino::ROOT.0 + 1,
            calls: Vec::new(),
            read_only: false,
            dir_writes_fail: false,
        }
    }

    fn now(&self) -> u64 {
        self.cpu.clock().now_ns()
    }

    fn names(&mut self, dir: &str) -> Vec<String> {
        let entries = namespace::readdir(self, dir).unwrap();
        entries.into_iter().map(|e| e.name).collect()
    }

    /// The made-up disk address of block `bno` of `ino` (`NIL` past its
    /// end). The store keeps no pointer blocks: its tree is this rule,
    /// with the single-indirect block at `bno` 100, the double-indirect
    /// top at 101 and child `outer` at `110 + outer`.
    fn addr(&self, ino: Ino, bno: usize) -> u32 {
        let blocks = self.nodes[&ino].data.len().div_ceil(BLOCK);
        let held = match bno {
            100 => blocks > NDIRECT,
            101 => blocks > NDIRECT + PPB,
            110.. => blocks > NDIRECT + PPB + (bno - 110) * PPB,
            _ => bno < blocks,
        };
        if held {
            ino.0 * 1000 + bno as u32
        } else {
            NIL
        }
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        let node = self.nodes.get_mut(&ino).ok_or(FsError::NotFound)?;
        let end = offset as usize + data.len();
        if node.data.len() < end {
            node.data.resize(end, 0);
        }
        node.data[offset as usize..end].copy_from_slice(data);
        Ok(data.len())
    }
}

impl NodeStore for FakeStore {
    fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    fn mount_state(&mut self) -> (&OpHists, &mut NameIndex) {
        (&self.hists, &mut self.names)
    }

    fn block_size(&self) -> usize {
        BLOCK
    }

    fn check_writable(&self) -> FsResult<()> {
        if self.read_only {
            Err(FsError::ReadOnly)
        } else {
            Ok(())
        }
    }

    fn node(&mut self, ino: Ino) -> FsResult<NodeView> {
        let node = self.nodes.get(&ino).ok_or(FsError::NotFound)?;
        Ok(NodeView {
            kind: node.kind,
            size: node.data.len() as u64,
            nlink: node.nlink,
            roots: Roots {
                direct: std::array::from_fn(|bno| self.addr(ino, bno)),
                single: self.addr(ino, 100),
                double: self.addr(ino, 101),
            },
        })
    }

    fn set_nlink(&mut self, ino: Ino, nlink: u16) -> FsResult<()> {
        self.calls.push(format!("set_nlink {ino} {nlink}"));
        self.nodes.get_mut(&ino).ok_or(FsError::NotFound)?.nlink = nlink;
        Ok(())
    }

    fn alloc_node(&mut self, parent: Ino, kind: FileKind) -> FsResult<Ino> {
        let ino = Ino(self.next_ino);
        self.next_ino += 1;
        self.calls.push(format!("alloc_node {ino} in {parent}"));
        let node = FakeNode {
            kind,
            nlink: 1,
            data: Vec::new(),
        };
        self.nodes.insert(ino, node);
        Ok(ino)
    }

    fn unalloc_node(&mut self, ino: Ino) {
        self.calls.push(format!("unalloc_node {ino}"));
        self.nodes.remove(&ino);
    }

    fn destroy_node(&mut self, ino: Ino) -> FsResult<()> {
        self.calls.push(format!("destroy_node {ino}"));
        self.nodes.remove(&ino).map(|_| ()).ok_or(FsError::NotFound)
    }

    fn persist_inode(&mut self, ino: Ino) -> FsResult<()> {
        self.calls.push(format!("persist_inode {ino}"));
        Ok(())
    }

    fn persist_dir_range(&mut self, dir: Ino, range: Range<u64>) -> FsResult<()> {
        self.calls
            .push(format!("persist_dir_range {dir} {range:?}"));
        Ok(())
    }

    fn indirect_ptrs(
        &mut self,
        ino: Ino,
        idx: u64,
        addr: u32,
        first: usize,
        out: &mut [u32],
    ) -> FsResult<()> {
        for (slot, ptr) in (first..).zip(out.iter_mut()) {
            *ptr = match idx {
                _ if addr == NIL => NIL,
                IDX_SINGLE => self.addr(ino, NDIRECT + slot),
                IDX_DTOP => self.addr(ino, 110 + slot),
                child => {
                    let outer = (child - blockmap::idx_dchild(0)) as usize;
                    self.addr(ino, NDIRECT + PPB + outer * PPB + slot)
                }
            };
        }
        Ok(())
    }

    fn file_blocks(&mut self, ino: Ino, range: Range<u64>) -> FsResult<Vec<Option<Vec<u8>>>> {
        let data = &self.nodes.get(&ino).ok_or(FsError::NotFound)?.data;
        Ok(range
            .map(|bno| {
                let start = bno as usize * BLOCK;
                (start < data.len()).then(|| {
                    let mut block = data[start..data.len().min(start + BLOCK)].to_vec();
                    block.resize(BLOCK, 0);
                    block
                })
            })
            .collect())
    }

    fn touch_atime(&mut self, _ino: Ino) -> FsResult<()> {
        Ok(())
    }

    fn do_write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.calls.push(format!("do_write {ino}"));
        self.write(ino, offset, data)
    }

    fn do_write_dir(&mut self, dir: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.calls.push(format!("do_write_dir {dir}"));
        if self.dir_writes_fail {
            return Err(FsError::NoSpace);
        }
        self.write(dir, offset, data)
    }

    fn do_truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        self.calls.push(format!("do_truncate {ino} {size}"));
        let node = self.nodes.get_mut(&ino).ok_or(FsError::NotFound)?;
        node.data.resize(size as usize, 0);
        Ok(())
    }

    fn after_op(&mut self) -> FsResult<()> {
        self.calls.push("after_op".to_string());
        Ok(())
    }
}

#[test]
fn create_whose_directory_write_fails_unallocates_once_and_leaves_no_entry() {
    let mut fs = FakeStore::new();
    namespace::create(&mut fs, "/kept").unwrap();
    fs.calls.clear();
    fs.dir_writes_fail = true;

    assert_eq!(namespace::create(&mut fs, "/lost"), Err(FsError::NoSpace));
    assert_eq!(
        fs.calls,
        [
            "alloc_node ino3 in ino1",
            "do_write_dir ino1",
            "unalloc_node ino3"
        ],
        "one allocation, one roll-back, nothing persisted, no write-back"
    );
    assert_eq!(fs.names("/"), ["kept"]);
    assert_eq!(fs.nodes.len(), 2, "root and /kept only");
}

#[test]
fn rename_case_analysis() {
    let mut fs = FakeStore::new();
    namespace::mkdir(&mut fs, "/d").unwrap();
    namespace::create(&mut fs, "/f").unwrap();
    fs.calls.clear();

    // Onto itself: the path is resolved (so a missing one still fails)
    // and nothing changes — not even the write-back hook runs.
    assert_eq!(namespace::rename(&mut fs, "/f", "/f"), Ok(()));
    assert_eq!(namespace::rename(&mut fs, "/d", "//d/"), Ok(()));
    assert_eq!(
        namespace::rename(&mut fs, "/nope", "/nope"),
        Err(FsError::NotFound)
    );
    // Into its own subtree, and a directory over a file.
    assert_eq!(
        namespace::rename(&mut fs, "/d", "/d/inside"),
        Err(FsError::InvalidPath)
    );
    assert_eq!(
        namespace::rename(&mut fs, "/d", "/f"),
        Err(FsError::NotADirectory)
    );
    assert_eq!(
        fs.calls,
        [] as [&str; 0],
        "no rejected rename changed anything"
    );
    assert_eq!(fs.names("/"), ["d", "f"]);

    // The plain case still works.
    namespace::rename(&mut fs, "/f", "/d/moved").unwrap();
    assert_eq!(fs.names("/"), ["d"]);
    assert_eq!(fs.names("/d"), ["moved"]);
}

#[test]
fn read_only_stops_every_mutating_op_before_its_first_charge() {
    let mut fs = FakeStore::new();
    namespace::mkdir(&mut fs, "/d").unwrap();
    let file = namespace::create(&mut fs, "/f").unwrap();
    namespace::write_at(&mut fs, file, 0, b"contents").unwrap();
    fs.calls.clear();
    fs.read_only = true;
    let frozen_at = fs.now();

    type Op = fn(&mut FakeStore, Ino) -> FsResult<()>;
    let mutating: [(&str, Op); 8] = [
        ("create", |fs, _| namespace::create(fs, "/new").map(drop)),
        ("mkdir", |fs, _| namespace::mkdir(fs, "/new").map(drop)),
        ("unlink", |fs, _| namespace::unlink(fs, "/f")),
        ("rmdir", |fs, _| namespace::rmdir(fs, "/d")),
        ("rename", |fs, _| namespace::rename(fs, "/f", "/g")),
        ("link", |fs, _| namespace::link(fs, "/f", "/g")),
        ("write_at", |fs, f| {
            namespace::write_at(fs, f, 0, b"x").map(drop)
        }),
        ("truncate", |fs, f| namespace::truncate(fs, f, 0)),
    ];
    for (what, op) in mutating {
        assert_eq!(op(&mut fs, file), Err(FsError::ReadOnly), "{what}");
        assert_eq!(fs.now(), frozen_at, "{what} charged CPU time");
        assert_eq!(fs.calls, [] as [&str; 0], "{what} reached a hook");
    }

    // Reading is not stopped.
    assert_eq!(namespace::lookup(&mut fs, "/f"), Ok(file));
    let mut buf = [0u8; 8];
    assert_eq!(namespace::read_at(&mut fs, file, 0, &mut buf), Ok(8));
    assert_eq!(&buf, b"contents");
    assert_eq!(fs.names("/"), ["d", "f"]);
    assert!(fs.now() > frozen_at);
}

#[test]
fn every_op_records_its_histogram_on_failure_as_on_success() {
    let mut fs = FakeStore::new();
    let file = namespace::create(&mut fs, "/f").unwrap();
    namespace::mkdir(&mut fs, "/d").unwrap();
    let dir = namespace::lookup(&mut fs, "/d").unwrap();

    type Op = fn(&mut FakeStore, Ino) -> bool;
    type Pick = fn(&OpHists) -> &obs::Hist;
    // Each op once with the regular file (succeeds) and once with the
    // directory or a missing path (fails).
    let ops: [(&str, Pick, Op, Op); 10] = [
        (
            "lookup",
            |h| &h.lookup,
            |fs, _| namespace::lookup(fs, "/f").is_ok(),
            |fs, _| namespace::lookup(fs, "/nope").is_ok(),
        ),
        (
            "create",
            |h| &h.create,
            |fs, _| namespace::create(fs, "/c").is_ok(),
            |fs, _| namespace::create(fs, "/c").is_ok(),
        ),
        (
            "mkdir",
            |h| &h.mkdir,
            |fs, _| namespace::mkdir(fs, "/m").is_ok(),
            |fs, _| namespace::mkdir(fs, "/m").is_ok(),
        ),
        (
            "link",
            |h| &h.link,
            |fs, _| namespace::link(fs, "/f", "/l").is_ok(),
            |fs, _| namespace::link(fs, "/d", "/l2").is_ok(),
        ),
        (
            "rename",
            |h| &h.rename,
            |fs, _| namespace::rename(fs, "/l", "/r").is_ok(),
            |fs, _| namespace::rename(fs, "/l", "/r").is_ok(),
        ),
        (
            "unlink",
            |h| &h.unlink,
            |fs, _| namespace::unlink(fs, "/r").is_ok(),
            |fs, _| namespace::unlink(fs, "/d").is_ok(),
        ),
        (
            "rmdir",
            |h| &h.rmdir,
            |fs, _| namespace::rmdir(fs, "/m").is_ok(),
            |fs, _| namespace::rmdir(fs, "/f").is_ok(),
        ),
        (
            "write",
            |h| &h.write,
            |fs, ino| namespace::write_at(fs, ino, 0, b"abc").is_ok(),
            |fs, ino| namespace::write_at(fs, ino, 0, b"abc").is_ok(),
        ),
        (
            "read",
            |h| &h.read,
            |fs, ino| namespace::read_at(fs, ino, 0, &mut [0u8; 3]).is_ok(),
            |fs, ino| namespace::read_at(fs, ino, 0, &mut [0u8; 3]).is_ok(),
        ),
        (
            "truncate",
            |h| &h.truncate,
            |fs, ino| namespace::truncate(fs, ino, 1).is_ok(),
            |fs, ino| namespace::truncate(fs, ino, 1).is_ok(),
        ),
    ];
    for (what, hist, succeeds, fails) in ops {
        let before = hist(&fs.hists).count();
        assert!(succeeds(&mut fs, file), "{what} should succeed");
        assert_eq!(hist(&fs.hists).count(), before + 1, "{what}: success");
        assert!(!fails(&mut fs, dir), "{what} should fail");
        assert_eq!(hist(&fs.hists).count(), before + 2, "{what}: failure");
    }
}

#[test]
fn the_walk_visits_what_the_resolver_resolves() {
    let mut fs = FakeStore::new();
    let file = namespace::create(&mut fs, "/f").unwrap();
    // 27 blocks: all twelve direct, the whole single-indirect block and
    // eleven under the double-indirect top — two full children, one
    // part-filled, one absent.
    namespace::write_at(&mut fs, file, 0, &[7u8; 27 * BLOCK - 3]).unwrap();

    let mut seen = Vec::new();
    blockmap::visit_file_blocks(&mut fs, file, 8, |_, idx, addr| seen.push((idx, addr))).unwrap();
    let labels: Vec<String> = seen
        .iter()
        .map(|&(idx, _)| blockmap::idx_label(idx))
        .collect();
    let mut expected: Vec<String> = (0..27).map(|bno| format!("data {bno}")).collect();
    expected.extend(["single", "dtop", "dchild 0", "dchild 1", "dchild 2"].map(String::from));
    assert_eq!(labels, expected);
    for (idx, addr) in seen {
        assert_ne!(addr, NIL, "{idx}");
        assert_eq!(blockmap::block_addr(&mut fs, file, idx), Ok(addr), "{idx}");
    }
    // Holes and everything past the end resolve to NIL, up to the last
    // mappable block and not beyond.
    let last = (NDIRECT + PPB + PPB * PPB) as u64 - 1;
    assert_eq!(blockmap::map_block(&mut fs, file, 27), Ok(NIL));
    assert_eq!(blockmap::map_block(&mut fs, file, last), Ok(NIL));
    assert_eq!(
        blockmap::map_block(&mut fs, file, last + 1),
        Err(FsError::FileTooLarge)
    );
    // A range resolves to what its blocks resolve to one by one, over
    // every span, with gaps, and past the end.
    let bnos: Vec<u64> = (0..=last).filter(|bno| bno % 7 != 3).collect();
    let one_by_one: Vec<u32> = (bnos.iter())
        .map(|&bno| blockmap::map_block(&mut fs, file, bno).unwrap())
        .collect();
    assert_eq!(blockmap::map_blocks(&mut fs, file, &bnos), Ok(one_by_one));
    assert_eq!(
        blockmap::map_blocks(&mut fs, file, &[5, last + 1]),
        Err(FsError::FileTooLarge)
    );
    assert_eq!(
        blockmap::block_addr(&mut fs, file, blockmap::idx_dchild(3)),
        Ok(NIL)
    );
}

#[test]
fn census_counts_finds_drops_and_repairs() {
    let mut fs = FakeStore::new();
    namespace::mkdir(&mut fs, "/d").unwrap();
    let kept = namespace::create(&mut fs, "/d/kept").unwrap();
    namespace::link(&mut fs, "/d/kept", "/also").unwrap();
    let gone = namespace::create(&mut fs, "/d/gone").unwrap();
    let orphan = namespace::create(&mut fs, "/orphan").unwrap();
    // Seed: an entry whose inode is gone, an inode whose entry is gone,
    // and a link count that is one too many.
    fs.nodes.remove(&gone);
    namespace::dir_remove(&mut fs, Ino::ROOT, "orphan").unwrap();
    fs.nodes.get_mut(&kept).unwrap().nlink = 3;
    let allocated: Vec<Ino> = fs.nodes.keys().copied().collect();
    let is_allocated = |fs: &FakeStore, ino| fs.nodes.contains_key(&ino);

    // A checker drops nothing and reports everything.
    let none = |_: &mut FakeStore, _, _| Ok(());
    let census = namespace::check(
        &mut fs,
        allocated.clone(),
        is_allocated,
        namespace::dir_entries,
        |_| false,
        none,
    )
    .unwrap();
    let found: Vec<String> = census.findings.iter().map(Finding::to_string).collect();
    assert_eq!(
        found,
        [
            format!("dangling entry /d/gone -> unallocated {gone}"),
            format!("{kept}: nlink 3 but 2 references"),
            format!("orphaned inode {orphan}"),
        ]
    );
    assert_eq!(fs.names("/d"), ["kept", "gone"], "a check changes nothing");

    // A repair drops the dangling entry while it walks, then acts on the rest.
    let drops = |finding: &Finding| matches!(finding, Finding::Dangling { .. });
    let census =
        namespace::check(&mut fs, allocated, is_allocated, namespace::dir_entries, drops, none)
            .unwrap();
    let mut fixed = Vec::new();
    census
        .repair(&mut fs, |_, ino| {
            fixed.push(ino);
            Ok(())
        })
        .unwrap();
    assert_eq!(fixed, [kept]);
    assert_eq!(fs.names("/d"), ["kept"]);
    assert_eq!(fs.nodes[&kept].nlink, 2);
    assert!(!fs.nodes.contains_key(&orphan));
    let allocated: Vec<Ino> = fs.nodes.keys().copied().collect();
    let census =
        namespace::check(&mut fs, allocated, is_allocated, namespace::dir_entries, |_| false, none)
            .unwrap();
    assert_eq!(census.findings, []);
}

/// Replaces directory `dir`'s stream with `count` entries `n0`, `n1`, …
/// written straight into it (their inodes need not exist: a lookup does
/// not look at them).
fn fill(fs: &mut FakeStore, dir: Ino, count: usize) {
    let mut stream = Vec::new();
    for i in 0..count {
        let ino = Ino(10_000 + i as u32);
        dirent::encode_entry(&mut stream, ino, FileKind::Regular, &format!("n{i}"));
    }
    fs.nodes.get_mut(&dir).unwrap().data = stream;
}

/// `names.{hits, negative_hits, misses, evictions}` so far.
fn name_counts(fs: &FakeStore) -> [u64; 4] {
    let obs = &fs.names.obs;
    [&obs.hits, &obs.negative_hits, &obs.misses, &obs.evictions].map(|c| c.get())
}

#[test]
fn the_bound_changes_what_a_lookup_costs_never_what_it_answers() {
    let mut fs = FakeStore::new();
    let big = namespace::mkdir(&mut fs, "/big").unwrap();
    let a = namespace::mkdir(&mut fs, "/a").unwrap();
    let b = namespace::mkdir(&mut fs, "/b").unwrap();
    fill(&mut fs, big, MAX_NAMES + 1);
    // Together with the root's three names, `a` and `b` do not fit.
    fill(&mut fs, a, MAX_NAMES / 2 + 1);
    fill(&mut fs, b, MAX_NAMES / 2 + 1);
    let indexed = |fs: &FakeStore| -> Vec<Ino> {
        fs.names.tables().into_iter().map(|(dir, _)| dir).collect()
    };
    assert_eq!(indexed(&fs), [Ino::ROOT]);

    // Over the bound: every lookup in `big` is a scan (the root's
    // component a hit), found or not, and `big` never gets a table.
    let last = format!("/big/n{MAX_NAMES}");
    for _ in 0..2 {
        let before = name_counts(&fs);
        assert_eq!(
            namespace::lookup(&mut fs, &last),
            Ok(Ino(10_000 + MAX_NAMES as u32))
        );
        assert_eq!(
            namespace::lookup(&mut fs, "/big/none"),
            Err(FsError::NotFound)
        );
        let [hits, negative_hits, misses, evictions] = before;
        let expected = [hits + 2, negative_hits, misses + 2, evictions];
        assert_eq!(name_counts(&fs), expected);
    }
    assert_eq!(indexed(&fs), [Ino::ROOT]);

    // Within it, `a` and `b` take turns: each scan's table evicts the
    // other's, and the answers are the same from a table or a scan.
    for (dir, name) in [(a, "a"), (b, "b"), (a, "a"), (a, "a")] {
        for (i, want) in [
            (7, Ok(Ino(10_007))),
            (MAX_NAMES / 2, Ok(Ino(10_000 + MAX_NAMES as u32 / 2))),
        ] {
            assert_eq!(namespace::lookup(&mut fs, &format!("/{name}/n{i}")), want);
        }
        assert_eq!(
            namespace::lookup(&mut fs, &format!("/{name}/none")),
            Err(FsError::NotFound)
        );
        assert_eq!(indexed(&fs), [Ino::ROOT, dir]);
    }
    let [hits, negative_hits, misses, evictions] = name_counts(&fs);
    assert_eq!(evictions, 2, "b evicts a, a evicts b");
    assert_eq!(
        misses,
        1 + 4 + 3,
        "the root once, big four times, a, b, a once each"
    );
    assert!(hits > 0 && negative_hits > 0);
    assert_eq!(namespace::audit_names(&mut fs), [] as [String; 0]);
}
