//! The checkers can fail: one table of seeded defects, run against LFS
//! and FFS.
//!
//! Every other test asserts `fsck().is_clean()`; this one shows each
//! `fsck` finds what is wrong when something is — exactly that, and
//! nothing else — and that the mount-time repair (LFS roll-forward's
//! `fix_directories` + `recompute_usage`, FFS's `fsck_scan`) leaves the
//! repairable defects clean. Defects are seeded into a small synced tree
//! through the `NodeStore` hooks the shared namespace layer itself uses,
//! plus one `*_for_test` hook per file system for a raw block pointer
//! (and LFS's usage table).

use std::sync::Arc;

use lfs_repro::ffs_baseline::{Ffs, FfsConfig};
use lfs_repro::lfs_core::layout::usage_block::SegState;
use lfs_repro::lfs_core::{BlockAddr, Lfs, LfsConfig, SegNo};
use lfs_repro::sim_disk::{Clock, DiskGeometry, SimDisk};
use lfs_repro::vfs::namespace::NodeStore;
use lfs_repro::vfs::{blockmap, dirent, FileKind, FileSystem, Ino};

const DISK_SECTORS: u64 = 65_536;

/// A file system the table can be run against.
trait Patient: FileSystem + NodeStore + Sized {
    const NAME: &'static str;
    fn fresh() -> Self;
    /// Everything `fsck` reports, errors and warnings alike.
    fn findings(&mut self) -> Vec<String>;
    /// Lets the seeded state reach the disk, crashes, and mounts the
    /// image again — which runs the repair.
    fn crash_and_repair(self) -> Self;
    fn set_block_ptr(&mut self, ino: Ino, bno: u64, addr: u32);
}

fn disk_from(image: Option<Vec<u8>>) -> (SimDisk, Arc<Clock>) {
    let clock = Clock::new();
    let geometry = DiskGeometry::tiny_test(DISK_SECTORS);
    let disk = match image {
        Some(image) => SimDisk::from_image(geometry, Arc::clone(&clock), image),
        None => SimDisk::new(geometry, Arc::clone(&clock)),
    };
    (disk, clock)
}

impl Patient for Lfs<SimDisk> {
    const NAME: &'static str = "lfs";

    fn fresh() -> Self {
        let (disk, clock) = disk_from(None);
        Lfs::format(disk, LfsConfig::small_test(), clock).unwrap()
    }

    fn findings(&mut self) -> Vec<String> {
        let report = self.fsck().unwrap();
        [report.errors, report.warnings].concat()
    }

    /// The repair runs only when roll-forward applies something: the
    /// defect is checkpointed, then one more chunk is logged after it.
    fn crash_and_repair(mut self) -> Self {
        self.sync().unwrap();
        let ino = self.lookup("/linked").unwrap();
        self.write_at(ino, 0, b"tail").unwrap();
        self.write_back().unwrap();
        let (disk, clock) = disk_from(Some(self.into_device().into_image()));
        let fs = Lfs::mount(disk, LfsConfig::small_test(), clock).unwrap();
        assert!(fs.stats().rollforward_chunks > 0, "nothing rolled forward");
        fs
    }

    /// Keeps the usage table in step with what a recount will now see
    /// (the old block dead, the new one live twice), so the double claim
    /// is all there is to find.
    fn set_block_ptr(&mut self, ino: Ino, bno: u64, addr: u32) {
        let old = blockmap::map_block(self, ino, bno).unwrap();
        self.set_block_ptr_for_test(ino, bno, addr);
        let bs = self.block_size() as u64;
        let seg_of = |fs: &Self, addr| fs.superblock().seg_of(BlockAddr(addr)).unwrap().0;
        let (dead, live) = (seg_of(self, old), seg_of(self, addr));
        self.usage_mut_for_test().sub_live(dead, bs);
        self.usage_mut_for_test().add_live(live, bs, 0);
    }
}

impl Patient for Ffs<SimDisk> {
    const NAME: &'static str = "ffs";

    fn fresh() -> Self {
        let (disk, clock) = disk_from(None);
        Ffs::format(disk, FfsConfig::small_test(), clock).unwrap()
    }

    fn findings(&mut self) -> Vec<String> {
        let report = self.fsck().unwrap();
        [report.errors, report.warnings].concat()
    }

    /// Never unmounted, so the next mount scans and repairs.
    fn crash_and_repair(mut self) -> Self {
        self.sync().unwrap();
        let (disk, clock) = disk_from(Some(self.into_device().into_image()));
        let fs = Ffs::mount(disk, FfsConfig::small_test(), clock).unwrap();
        assert_eq!(fs.stats().fsck_scans, 1, "a dirty volume must scan");
        fs
    }

    fn set_block_ptr(&mut self, ino: Ino, bno: u64, addr: u32) {
        self.set_block_ptr_for_test(ino, bno, addr);
    }
}

/// The tree every row starts from, synced: a directory, a file with two
/// links, and a file long enough to need double-indirect children (and,
/// on LFS, to fill several segments).
fn build<P: Patient>() -> P {
    let mut fs = P::fresh();
    fs.mkdir("/dir").unwrap();
    fs.write_file("/dir/file", &[1u8; 700]).unwrap();
    fs.write_file("/linked", &[2u8; 300]).unwrap();
    fs.link("/linked", "/dir/alias").unwrap();
    let long = (blockmap::NDIRECT + fs.block_size() / 4 + 9) * fs.block_size();
    fs.write_file("/long", &vec![3u8; long]).unwrap();
    fs.sync().unwrap();
    fs
}

/// Appends a raw entry to `dir`, whatever it names.
fn add_entry<P: Patient>(fs: &mut P, dir: Ino, name: &str, ino: Ino, kind: FileKind) {
    let size = fs.node(dir).unwrap().size;
    let mut entry = Vec::new();
    dirent::encode_entry(&mut entry, ino, kind, name);
    fs.do_write_dir(dir, size, &entry).unwrap();
}

struct Defect<P> {
    name: &'static str,
    seed: fn(&mut P),
    /// What the one finding must say.
    finds: &'static str,
    /// The file systems whose mount-time repair fixes it.
    repaired_by: &'static [&'static str],
}

fn namespace_and_block_defects<P: Patient>() -> Vec<Defect<P>> {
    vec![
        Defect {
            name: "dangling directory entry",
            seed: |fs| {
                let gone = fs.create("/gone").unwrap();
                fs.unlink("/gone").unwrap();
                add_entry(fs, Ino::ROOT, "ghost", gone, FileKind::Regular);
            },
            finds: "dangling entry /ghost",
            repaired_by: &["lfs", "ffs"],
        },
        Defect {
            name: "orphaned inode",
            seed: |fs| {
                fs.alloc_node(Ino::ROOT, FileKind::Regular).unwrap();
            },
            finds: "orphaned inode",
            repaired_by: &["lfs", "ffs"],
        },
        Defect {
            name: "nlink off by one",
            seed: |fs| {
                let ino = fs.lookup("/linked").unwrap();
                fs.set_nlink(ino, 3).unwrap();
            },
            finds: "nlink 3 but 2 references",
            repaired_by: &["lfs", "ffs"],
        },
        Defect {
            name: "entry kind is not the inode's kind",
            seed: |fs| {
                // The link count already allows for the extra entry.
                let ino = fs.lookup("/dir/file").unwrap();
                fs.set_nlink(ino, 2).unwrap();
                add_entry(fs, Ino::ROOT, "liar", ino, FileKind::Directory);
            },
            finds: "kind mismatch at /liar: entry says dir, inode says file",
            // FFS keeps such an entry; LFS drops it.
            repaired_by: &["lfs"],
        },
        Defect {
            name: "directory with two parents",
            seed: |fs| {
                let ino = fs.lookup("/dir").unwrap();
                fs.set_nlink(ino, 2).unwrap();
                add_entry(fs, Ino::ROOT, "dir2", ino, FileKind::Directory);
            },
            finds: "directory /dir2 has multiple parents",
            repaired_by: &[],
        },
        Defect {
            name: "one block claimed by two files",
            seed: |fs| {
                let (file, long) = (fs.lookup("/dir/file").unwrap(), fs.lookup("/long").unwrap());
                // A block reached through a double-indirect child.
                let deep = (blockmap::NDIRECT + fs.block_size() / 4 + 3) as u64;
                let addr = blockmap::map_block(fs, long, deep).unwrap();
                assert_ne!(addr, blockmap::NIL);
                fs.set_block_ptr(file, 1, addr);
            },
            finds: "claimed by both",
            repaired_by: &[],
        },
    ]
}

fn usage_table_defects() -> Vec<Defect<Lfs<SimDisk>>> {
    /// A sealed segment that still holds live data.
    fn live_dirty_segment(fs: &Lfs<SimDisk>) -> SegNo {
        let dirty = fs.usage_table().segments_in_state(SegState::Dirty);
        let live = |&seg: &_| fs.usage_table().get(seg).live_bytes > 0;
        dirty
            .into_iter()
            .find(live)
            .expect("the long file fills segments")
    }
    vec![
        Defect {
            name: "usage entry disagrees with the recount",
            seed: |fs| {
                let seg = live_dirty_segment(fs);
                fs.usage_mut_for_test().add_live(seg, 512, 0);
            },
            finds: "usage table says",
            repaired_by: &["lfs"],
        },
        Defect {
            name: "clean segment holding live bytes",
            seed: |fs| {
                let seg = live_dirty_segment(fs);
                fs.usage_mut_for_test().set_state(seg, SegState::Clean);
            },
            finds: "is clean but holds",
            repaired_by: &["lfs"],
        },
    ]
}

fn run_table<P: Patient>(table: Vec<Defect<P>>) {
    for defect in table {
        let what = format!("{}: {}", P::NAME, defect.name);
        let mut fs = build::<P>();
        assert_eq!(fs.findings(), [] as [&str; 0], "{what}: before seeding");

        (defect.seed)(&mut fs);
        let found = fs.findings();
        assert_eq!(
            found.len(),
            1,
            "{what}: exactly one finding, got {found:#?}"
        );
        assert!(
            found[0].contains(defect.finds),
            "{what}: got {:?}",
            found[0]
        );

        if defect.repaired_by.contains(&P::NAME) {
            let mut fs = fs.crash_and_repair();
            assert_eq!(fs.findings(), [] as [&str; 0], "{what}: after repair");
        }
    }
}

#[test]
fn every_seeded_defect_is_found_alone_and_the_repairable_ones_are_repaired() {
    run_table(namespace_and_block_defects::<Lfs<SimDisk>>());
    run_table(usage_table_defects());
    run_table(namespace_and_block_defects::<Ffs<SimDisk>>());
}
