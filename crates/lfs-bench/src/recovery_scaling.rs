//! Recovery scaling — does crash recovery speed up with spindle count?
//!
//! The paper's recovery story (§4.4) is about *work*: LFS reads a
//! bounded log tail where FFS scans the whole volume. This bench asks
//! the follow-up question for arrays: once the work is fixed, does
//! recovery *time* shrink when the reads fan out across spindles?
//!
//! Method: build one crash image per spindle count — a round-robin
//! striped volume, a checkpoint taken only at format, then a workload
//! whose entire output is un-checkpointed log tail — and remount it
//! twice from identical images: once with `recovery_fanout = 1` (the
//! classic sequential scan) and once with `recovery_fanout = 0` (ask
//! the device, i.e. one read in flight per spindle). Both remounts
//! must recover the identical tree; the virtual-clock mount times give
//! the speedup. The FFS baseline gets the same treatment through its
//! `fsck_fanout` knob, fanning the whole-volume inode-table scan out
//! per cylinder group.

use std::collections::BTreeSet;
use std::sync::Arc;

use ffs_baseline::{Ffs, FfsConfig};
use lfs_core::{Lfs, LfsConfig, LfsStats};
use vfs::{FileKind, FileSystem};
use volume::VolumeConfig;

use crate::volume_rig;

/// Sectors per spindle (64 MB each, WREN IV mechanics).
pub const SPINDLE_SECTORS: u64 = 131_072;

/// Shape of the pre-crash workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of directories.
    pub dirs: usize,
    /// Files per directory.
    pub files_per_dir: usize,
    /// Bytes per file.
    pub file_bytes: usize,
}

impl WorkloadSpec {
    /// The full workload: ~40 MB of data, ~50 segments of
    /// un-checkpointed tail with flushed metadata included — near the
    /// ceiling of a one-spindle volume, where segments can never be
    /// reclaimed (cleaned segments stay clean-pending until a
    /// checkpoint, and this log never checkpoints after format). The
    /// tail has to dominate the mount's serial parts (checkpoint load,
    /// repair, the post-recovery checkpoint) and the read-ahead past
    /// the log's end for the scaling assertions to have room.
    pub fn full() -> Self {
        Self {
            dirs: 10,
            files_per_dir: 16,
            file_bytes: 256 * 1024,
        }
    }
}

/// The LFS configuration under test: paper geometry with checkpoints
/// effectively disabled after format (so the whole workload is
/// roll-forward tail) and a small inode map (so the serial
/// checkpoint-load at mount stays a footnote next to the scan). The
/// cache is 8 MB: the paper's 15 MB makes the space rule's reserve 16
/// segments, and the rule would then refuse the large log on one
/// spindle. Each directory's fsync writes its 4 MB either way, so the
/// tail is the same.
fn lfs_cfg(fanout: usize) -> LfsConfig {
    let mut cfg = LfsConfig::paper()
        .with_cache_bytes(8 * 1024 * 1024)
        .with_checkpoint_secs(1e9)
        .with_recovery_fanout(fanout);
    cfg.max_inodes = 4096;
    // Align the log to the stripe so each segment is exactly one chunk:
    // a tail-segment read then lands on a single spindle and the
    // read-ahead window overlaps whole segments across arms (an unaligned
    // segment straddles two chunks in a ~1 MB + ~12 KB split, and
    // recovery serializes on the big half).
    cfg.segment_align_metadata = true;
    cfg
}

fn volume_cfg(spindles: usize) -> VolumeConfig {
    VolumeConfig::rr_segment(spindles, LfsConfig::paper().segment_bytes)
}

/// Runs the scripted workload: `dirs` directories of `files_per_dir`
/// files, each `file_bytes` of position-seeded bytes, with an fsync per
/// directory. For LFS (with roll-forward on, the paper default) fsync
/// pushes the dirty blocks into sealed log segments *without*
/// checkpointing — `sync` would checkpoint and leave roll-forward
/// nothing to do — so the whole workload stays recoverable tail.
fn run_workload<F: FileSystem>(fs: &mut F, spec: &WorkloadSpec) {
    for d in 0..spec.dirs {
        fs.mkdir(&format!("/d{d}")).expect("mkdir");
        for f in 0..spec.files_per_dir {
            let fill = (0x21 + (d * 31 + f * 7) % 200) as u8;
            let mut data = vec![fill; spec.file_bytes];
            for (k, b) in data.iter_mut().take(32).enumerate() {
                *b = b.wrapping_add((k * 13 + d * 5 + f) as u8);
            }
            fs.write_file(&format!("/d{d}/f{f}"), &data).expect("write");
        }
        let ino = fs.lookup(&format!("/d{d}/f0")).expect("lookup");
        fs.fsync(ino).expect("fsync");
    }
}

/// Collects every regular-file path in the tree.
fn live_files<F: FileSystem>(fs: &mut F) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut stack = vec![String::from("/")];
    while let Some(dir) = stack.pop() {
        for entry in fs.readdir(&dir).expect("readdir") {
            let path = if dir == "/" {
                format!("/{}", entry.name)
            } else {
                format!("{dir}/{}", entry.name)
            };
            match entry.kind {
                FileKind::Regular => {
                    out.insert(path);
                }
                FileKind::Directory => stack.push(path),
            }
        }
    }
    out
}

/// One measured remount of a crash image.
pub struct Recovery {
    /// Virtual nanoseconds from power-on to a mounted volume.
    pub mount_ns: u64,
    /// The recovered regular-file set (for cross-cell equivalence).
    pub files: BTreeSet<String>,
    /// LFS counters after the mount (zeroed struct for FFS cells).
    pub stats: LfsStats,
}

/// Builds the LFS crash image for `spindles`: format, workload, crash
/// (abandon all in-memory state). Returns the per-spindle images and
/// the file set at the crash.
pub fn build_lfs_crash(spindles: usize, spec: &WorkloadSpec) -> (Vec<Vec<u8>>, BTreeSet<String>) {
    let (dev, clock) = volume_rig(volume_cfg(spindles), SPINDLE_SECTORS, None);
    let mut fs = Lfs::format(dev, lfs_cfg(1), clock).expect("format LFS");
    run_workload(&mut fs, spec);
    let at_crash = live_files(&mut fs);
    (fs.into_device().into_images(), at_crash)
}

/// Remounts an LFS crash image with the given recovery fan-out
/// (`1` sequential, `0` ask the device) and measures the mount.
pub fn recover_lfs(spindles: usize, images: Vec<Vec<u8>>, fanout: usize) -> Recovery {
    let (dev, clock) = volume_rig(volume_cfg(spindles), SPINDLE_SECTORS, Some(images));
    let t0 = clock.now_ns();
    let mut fs = Lfs::mount(dev, lfs_cfg(fanout), Arc::clone(&clock)).expect("recovery mount");
    let mount_ns = clock.now_ns() - t0;
    let report = fs.fsck().expect("fsck");
    assert!(report.is_clean(), "LFS inconsistent after recovery:\n{report}");
    Recovery {
        mount_ns,
        files: live_files(&mut fs),
        stats: fs.stats(),
    }
}

/// The FFS configuration under test, striped one cylinder group per
/// chunk so groups rotate round-robin across the array.
fn ffs_cfg(fanout: usize) -> FfsConfig {
    FfsConfig::paper().with_fsck_fanout(fanout)
}

fn ffs_volume_cfg(spindles: usize) -> VolumeConfig {
    VolumeConfig::rr_segment(spindles, ffs_cfg(1).stripe_chunk_bytes())
}

/// Builds the FFS crash image for `spindles`: format, workload, crash.
/// The delayed writes lost at the crash are FFS's loss-window story
/// (measured by `tbl_s2_recovery`); here only the mount-time scan cost
/// matters, so the workload fsyncs per directory just like the LFS run.
pub fn build_ffs_crash(spindles: usize, spec: &WorkloadSpec) -> Vec<Vec<u8>> {
    let (dev, clock) = volume_rig(ffs_volume_cfg(spindles), SPINDLE_SECTORS, None);
    let mut fs = Ffs::format(dev, ffs_cfg(1), clock).expect("format FFS");
    run_workload(&mut fs, spec);
    fs.into_device().into_images()
}

/// Remounts an FFS crash image with the given fsck fan-out and
/// measures the mount (which runs the whole-volume `fsck_scan`).
pub fn recover_ffs(spindles: usize, images: Vec<Vec<u8>>, fanout: usize) -> Recovery {
    let (dev, clock) = volume_rig(ffs_volume_cfg(spindles), SPINDLE_SECTORS, Some(images));
    let t0 = clock.now_ns();
    let mut fs = Ffs::mount(dev, ffs_cfg(fanout), Arc::clone(&clock)).expect("fsck mount");
    let mount_ns = clock.now_ns() - t0;
    assert_eq!(fs.stats().fsck_scans, 1, "FFS mount must run the scan");
    let report = fs.fsck().expect("fsck");
    assert!(report.is_clean(), "FFS inconsistent after fsck:\n{report}");
    Recovery {
        mount_ns,
        files: live_files(&mut fs),
        stats: LfsStats::default(),
    }
}

/// Publishes one cell under `recovery_scaling.<fs>.<size>.s<spindles>`:
/// the sequential and parallel mount times and, for LFS, the parallel
/// scan's evidence counters.
pub fn publish_cell(
    registry: &obs::Registry,
    fs: &str,
    size: &str,
    spindles: usize,
    seq: &Recovery,
    par: &Recovery,
) {
    let prefix = format!("recovery_scaling.{fs}.{size}.s{spindles}");
    let publish = |key: &str, value: u64| registry.counter(&format!("{prefix}.{key}")).add(value);
    publish("seq_ns", seq.mount_ns);
    publish("par_ns", par.mount_ns);
    if fs == "lfs" {
        publish("partitions", par.stats.recovery_partitions);
        publish("parallel_reads", par.stats.recovery_parallel_reads);
        publish("prefetched_blocks", par.stats.recovery_prefetched_blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_recover_the_same_tree() {
        // ~4 MB of tail: several 1 MB segments, so the scan really
        // spans both spindles.
        let spec = WorkloadSpec {
            dirs: 4,
            files_per_dir: 8,
            file_bytes: 128 * 1024,
        };
        let (images, at_crash) = build_lfs_crash(2, &spec);
        let seq = recover_lfs(2, images.clone(), 1);
        let par = recover_lfs(2, images, 0);
        assert_eq!(seq.files, at_crash, "sequential recovery lost files");
        assert_eq!(seq.files, par.files, "parallel recovery diverged");
        assert!(
            par.stats.recovery_partitions > 1,
            "parallel cell never partitioned ({} partitions)",
            par.stats.recovery_partitions
        );
        assert_eq!(seq.stats.recovery_partitions, 0);
    }
}
