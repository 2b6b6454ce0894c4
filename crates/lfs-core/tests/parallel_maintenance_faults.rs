//! Media-fault equivalence for the fanned-out maintenance scans.
//!
//! When a recovery fan-out is configured, `fsck` prefetches metadata
//! across spindles, and `scrub` reads the next segments' chunk chains
//! through a ring of log readers while it verifies one. The contract:
//! the fan-out only changes *when* blocks are read, never what the
//! serial verify phase concludes. This table
//! drives both maintenance passes over identical 4-spindle images with
//! identical injected media faults — latent sector errors and silent
//! rot, on live inode blocks and on chunk summary headers — once
//! sequentially (`recovery_fanout = 1`) and once fanned out (`= 0`),
//! and requires the typed outcome to match exactly: the same
//! [`FsckReport`], the same [`ScrubReport`] (bad blocks, salvaged
//! relocations, data-loss counts, unreadable chunks), the same errors,
//! and the same read-only degradation decision.
//!
//! One row damages what only the mount reads: the checkpoint-time inode
//! block a roll-forward tail superseded. Mount reads it to retire the
//! old footprint; it must still come up, with that usage left stale
//! and the inodes named in its `recovery` event.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use lfs_core::{FsckReport, Lfs, LfsConfig, ScrubReport};
use sim_disk::{BlockDevice, Clock, DiskGeometry, MediaFaultPlan, SECTOR_SIZE};
use vfs::FileSystem;
use volume::{StripedVolume, VolumeConfig, VolumeDisk};

type SharedVolume = Rc<RefCell<StripedVolume>>;

const SPINDLE_SECTORS: u64 = 8_192;
const SPINDLES: usize = 4;

fn cfg(fanout: usize) -> LfsConfig {
    let mut c = LfsConfig::small_test()
        .with_checkpoint_secs(1e9)
        .with_recovery_fanout(fanout);
    c.segment_align_metadata = true;
    c
}

fn volume_cfg() -> VolumeConfig {
    VolumeConfig::rr_segment(SPINDLES, cfg(1).segment_bytes)
}

/// The files a tail rewrites after the checkpoint: their inodes are
/// exactly those of one checkpoint-time inode block (four to a block,
/// packed in ino order: the root, `/docs`, then `f0`, `f1`, ...).
const TAIL_FILES: [&str; 4] = ["/docs/f6", "/docs/f7", "/docs/f8", "/docs/f9"];

/// What reaches the log after the checkpoint, for the mount to roll
/// forward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tail {
    /// [`TAIL_FILES`] rewritten and fsync'd.
    Rewrite,
    /// The same, but `/docs/f7` is unlinked instead, while `/alias`, a
    /// second link made before the checkpoint in a directory the tail
    /// leaves alone, still names it.
    Unlink,
}

/// The bytes of `/docs/f{i}`.
fn contents(i: u8) -> Vec<u8> {
    (0..2048u32).map(|k| (k as u8) ^ i.wrapping_mul(29)).collect()
}

/// A checkpointed image set with a handful of files, so the first log
/// segments are dirty and full of live inode and data blocks, then the
/// `tail`, written to the log without a checkpoint.
fn build_images(tail: Option<Tail>) -> Vec<Vec<u8>> {
    let clock = Clock::new();
    let vol = StripedVolume::new(
        DiskGeometry::tiny_test(SPINDLE_SECTORS),
        Arc::clone(&clock),
        volume_cfg(),
    );
    let mut fs =
        Lfs::format(VolumeDisk::new(vol.into_shared()), cfg(1), clock).expect("format LFS");
    fs.mkdir("/docs").expect("mkdir");
    for i in 0..12 {
        fs.write_file(&format!("/docs/f{i}"), &contents(i)).expect("write");
    }
    if tail == Some(Tail::Unlink) {
        fs.link("/docs/f7", "/alias").expect("link");
    }
    fs.sync().expect("checkpoint");
    for path in tail.map_or(&[][..], |_| &TAIL_FILES) {
        let ino = fs.lookup(path).expect("lookup");
        if tail == Some(Tail::Unlink) && *path == "/docs/f7" {
            fs.unlink(path).expect("unlink");
        } else {
            fs.write_at(ino, 0, b"rewritten after the checkpoint").expect("rewrite");
        }
        fs.fsync(ino).expect("fsync");
    }
    fs.into_device().into_images()
}

fn volume(images: Vec<Vec<u8>>, clock: &Arc<Clock>) -> SharedVolume {
    let geometry = DiskGeometry::tiny_test(SPINDLE_SECTORS);
    StripedVolume::from_images(geometry, Arc::clone(clock), volume_cfg(), images).into_shared()
}

/// Maps a volume-logical sector to its (spindle, physical sector) under
/// segment round-robin striping.
fn locate(logical: u64) -> (usize, u64) {
    let chunk_sectors = (cfg(1).segment_bytes / SECTOR_SIZE) as u64;
    let chunk = logical / chunk_sectors;
    let within = logical % chunk_sectors;
    (
        (chunk % SPINDLES as u64) as usize,
        (chunk / SPINDLES as u64) * chunk_sectors + within,
    )
}

#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Permanent read error (until rewritten).
    Latent,
    /// Silent corruption: reads succeed, bytes are wrong.
    Rot,
}

#[derive(Clone, Copy, Debug)]
enum Target {
    /// The inode block holding the named file's inode — always live, so
    /// the scrub must notice damage and take the salvage path.
    InodeBlock,
    /// Block 0 of the segment holding that inode block: the chunk
    /// summary header, whose loss makes the chain unenumerable.
    SummaryHeader,
    /// The inode block holding the file's inode at the checkpoint, which
    /// the tail superseded: damaged before the mount, the only reader.
    Superseded(Tail),
}

#[derive(Clone, Copy, Debug)]
struct Injection {
    file: &'static str,
    target: Target,
    fault: Fault,
}

/// Everything a maintenance pass can conclude, in comparable form, the
/// inodes the mount's `recovery` event names as stale, and what `/alias`
/// reads, if it exists. Errors are stringified so `Err` outcomes
/// participate in the equivalence too.
type Outcome = (
    Result<FsckReport, String>,
    Result<ScrubReport, String>,
    Result<FsckReport, String>,
    bool,
    String,
    Option<Vec<u8>>,
);

/// One maintenance run over the shared images with `injections` armed.
/// Victim addresses come from the inode map, so identical images always
/// yield identical victims; a superseded block's from a checkpoint-only
/// mount of the same images, armed before the real mount.
fn run(images: Vec<Vec<u8>>, fanout: usize, injections: &[Injection]) -> Outcome {
    let clock = Clock::new();
    let shared = volume(images.clone(), &clock);
    let (early, late): (Vec<Injection>, Vec<Injection>) = injections
        .iter()
        .partition(|inj| matches!(inj.target, Target::Superseded(_)));
    if !early.is_empty() {
        let clock = Clock::new();
        let at_checkpoint = LfsConfig {
            roll_forward: false,
            ..cfg(1)
        };
        let dev = VolumeDisk::new(volume(images, &clock));
        let mut fs = Lfs::mount(dev, at_checkpoint, clock).expect("checkpoint-only mount");
        inject(&shared, &mut fs, &early);
    }
    let mut fs =
        Lfs::mount(VolumeDisk::new(Rc::clone(&shared)), cfg(fanout), clock).expect("mount");
    inject(&shared, &mut fs, &late);
    let stale = fs
        .obs()
        .events()
        .into_iter()
        .filter(|e| e.kind == "recovery")
        .find_map(|e| {
            let mut words = e.detail.split_whitespace();
            words.find(|w| w.starts_with("stale=")).map(str::to_string)
        })
        .unwrap_or_default();

    let fsck_before = fs.fsck().map_err(|e| format!("{e:?}"));
    let scrub = fs.scrub().map_err(|e| format!("{e:?}"));
    let fsck_after = fs.fsck().map_err(|e| format!("{e:?}"));
    let read_only = fs.is_read_only();
    let alias = fs.read_file("/alias").ok();
    (fsck_before, scrub, fsck_after, read_only, stale, alias)
}

/// Arms `injections` on the volume, at the addresses `fs` gives them.
fn inject<D: BlockDevice>(shared: &SharedVolume, fs: &mut Lfs<D>, injections: &[Injection]) {
    // Accumulate one plan per spindle: arming a plan replaces any
    // previous one on that spindle.
    let sectors_per_block = (fs.block_size() / SECTOR_SIZE) as u64;
    let mut plans: BTreeMap<usize, MediaFaultPlan> = BTreeMap::new();
    for inj in injections {
        let ino = fs.lookup(inj.file).expect("lookup victim");
        let inode_addr = fs.inode_map().get(ino).expect("imap entry").addr;
        let addr = match inj.target {
            Target::InodeBlock | Target::Superseded(_) => inode_addr,
            Target::SummaryHeader => {
                let (seg, _) = fs
                    .superblock()
                    .seg_of(inode_addr)
                    .expect("inode block lives in the log");
                fs.superblock().seg_block(seg, 0)
            }
        };
        let logical = addr.0 as u64 * sectors_per_block;
        let (spindle, physical) = locate(logical);
        let plan = plans.remove(&spindle).unwrap_or_else(|| MediaFaultPlan::new(11));
        let plan = match inj.fault {
            Fault::Latent => plan.latent(physical),
            Fault::Rot => plan.rot(physical),
        };
        plans.insert(spindle, plan);
    }
    for (spindle, plan) in plans {
        shared
            .borrow_mut()
            .spindle_mut(spindle)
            .disk_mut()
            .inject_media_faults(plan);
    }
}

/// True when some pass noticed the damage — guards the equality from
/// passing vacuously on a fault that nothing ever read.
fn noticed(outcome: &Outcome) -> bool {
    let (fsck_before, scrub, fsck_after, read_only, stale, _) = outcome;
    *read_only
        || stale != "stale=[]"
        || fsck_before.as_ref().map_or(true, |r| !r.is_clean())
        || scrub.as_ref().map_or(true, |r| !r.is_clean())
        || fsck_after.as_ref().map_or(true, |r| !r.is_clean())
}

/// The table: fault kind × victim blocks. Inode blocks exercise the
/// bad-block / salvage path; summary headers the unreadable-chunk path;
/// a superseded inode block the mount's stale-usage path.
#[test]
fn fanned_out_maintenance_matches_sequential_on_damaged_media() {
    use Fault::*;
    use Target::*;
    let cases: &[(&str, &[Injection])] = &[
        (
            "latent inode block",
            &[Injection { file: "/docs/f3", target: InodeBlock, fault: Latent }],
        ),
        (
            "rotted inode block",
            &[Injection { file: "/docs/f7", target: InodeBlock, fault: Rot }],
        ),
        (
            "latent summary header",
            &[Injection { file: "/docs/f0", target: SummaryHeader, fault: Latent }],
        ),
        (
            "latent inode blocks of two files",
            &[
                Injection { file: "/docs/f1", target: InodeBlock, fault: Latent },
                Injection { file: "/docs/f11", target: InodeBlock, fault: Latent },
            ],
        ),
        (
            "rot plus latent summary header",
            &[
                Injection { file: "/docs/f5", target: InodeBlock, fault: Rot },
                Injection { file: "/docs/f9", target: SummaryHeader, fault: Latent },
            ],
        ),
        (
            "latent inode block the tail superseded",
            &[Injection { file: "/docs/f7", target: Superseded(Tail::Rewrite), fault: Latent }],
        ),
        (
            "latent inode block of a file the tail unlinked one of two names of",
            &[Injection { file: "/docs/f7", target: Superseded(Tail::Unlink), fault: Latent }],
        ),
    ];
    for (name, injections) in cases {
        let tail = injections.iter().find_map(|inj| match inj.target {
            Superseded(tail) => Some(tail),
            _ => None,
        });
        let images = build_images(tail);
        let seq = run(images.clone(), 1, injections);
        let par = run(images, 0, injections);
        assert_eq!(
            seq, par,
            "{name}: fanned-out maintenance outcome diverged from sequential"
        );
        assert!(
            noticed(&seq),
            "{name}: no maintenance pass noticed the injected fault ({seq:?})"
        );
        match tail {
            // The whole block went stale: the four inodes it held.
            Some(_) => assert_eq!(seq.4, "stale=[9,10,11,12]", "{name}: {seq:?}"),
            None => continue,
        }
        if tail == Some(Tail::Unlink) {
            let alias = seq.5.as_ref().map(Vec::len);
            assert!(seq.5 == Some(contents(7)), "{name}: /alias reads {alias:?} bytes");
        }
        assert!(seq.0.as_ref().is_ok_and(FsckReport::is_clean), "{name}: {seq:?}");
    }
}

/// Healthy-media control: both modes agree on a clean volume too, and
/// neither flags anything.
#[test]
fn fanned_out_maintenance_matches_sequential_on_healthy_media() {
    let images = build_images(None);
    let seq = run(images.clone(), 1, &[]);
    let par = run(images, 0, &[]);
    assert_eq!(seq, par);
    let (fsck_before, scrub, fsck_after, read_only, ..) = seq;
    assert!(fsck_before.expect("fsck").is_clean());
    assert!(scrub.expect("scrub").is_clean());
    assert!(fsck_after.expect("fsck").is_clean());
    assert!(!read_only, "clean volume must not degrade to read-only");
}
