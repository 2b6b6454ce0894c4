//! Ablation — the cleaner's version-number fast path (§4.3.3).
//!
//! "Included in the summary entry is the file's version number from the
//! inode map when the block was written. If the version number does not
//! match the current version number of the file, the block is known to
//! have been deleted or overwritten... Since total overwrite or deletion
//! are the most common write access modes to files in the workstation
//! environment, Step 1 is able to determine the live blocks quickly."
//!
//! This ablation cleans delete-heavy segments with the fast path on and
//! off. Without it, every dead block of a *reused* inode number costs an
//! inode fetch (step 2) to discover it is dead.

use std::sync::Arc;

use lfs_bench::{print_table, MetricsReport, Row};
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::FileSystem;
use workload::{payload, Stopwatch};

fn run(use_fastpath: bool, metrics: &mut MetricsReport) -> Row {
    let clock = Clock::new();
    let disk = SimDisk::new(
        DiskGeometry::wren_iv().with_sectors(64 * 2048),
        Arc::clone(&clock),
    );
    let mut cfg = LfsConfig::paper();
    cfg.cleaner.use_version_fastpath = use_fastpath;
    // The overwrite fill crosses the cleaning floor five times in each
    // arm (`cleaner.floor_passes` = 5; the 15 MB cache's reserve is 18
    // segments, so the floor is 20): those activations clean 24
    // segments, identically in both arms and before the measured loop,
    // which cleans at least 24 more. The exported `segments_cleaned`
    // counts both.
    let mut fs = Lfs::format(disk, cfg, Arc::clone(&clock)).unwrap();

    // Create many small files, then overwrite them all in their entirety
    // (truncate to zero + rewrite). §4.2.1: truncation to length zero
    // bumps the inode-map version, so every block in the *old* segments
    // is dead — but its owner is still a live file. Without the version
    // fast path, proving each such block dead requires fetching the
    // owner's inode (and walking its mapping).
    let data = payload(3, 4096);
    let nfiles = 8_000usize;
    for d in 0..nfiles / 200 {
        fs.mkdir(&format!("/d{d:02}")).unwrap();
    }
    let path = |i: usize| format!("/d{:02}/f{i:05}", i / 200);
    for i in 0..nfiles {
        fs.write_file(&path(i), &data).unwrap();
    }
    fs.sync().unwrap();
    for i in 0..nfiles {
        let ino = fs.lookup(&path(i)).unwrap();
        fs.truncate(ino, 0).unwrap();
        fs.write_at(ino, 0, &data).unwrap();
    }
    fs.sync().unwrap();

    // Flush the caches so step-2 inode walks must touch the disk — the
    // situation a real cleaner faces when cleaning cold segments.
    fs.drop_caches().unwrap();

    // Clean a batch of segments and measure the cost.
    let reads_before = fs.device().stats().reads;
    let watch = Stopwatch::start(Arc::clone(&clock));
    let first = fs.stats().segments_cleaned;
    let cleaned = |fs: &Lfs<SimDisk>| (fs.stats().segments_cleaned - first) as usize;
    while cleaned(&fs) < 24 {
        let victims = cleaned(&fs);
        let clean = fs.usage_table().clean_count();
        fs.clean_until(clean + 4).unwrap();
        if cleaned(&fs) == victims {
            break;
        }
    }
    let cleaned = cleaned(&fs);
    let secs = watch.elapsed_secs();
    let extra_reads = fs.device().stats().reads - reads_before;
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "{report}");

    metrics.add_lfs(
        if use_fastpath {
            "fastpath_on"
        } else {
            "fastpath_off"
        },
        &fs,
    );
    Row::new(
        if use_fastpath {
            "version fast path ON"
        } else {
            "version fast path OFF"
        },
        vec![
            format!("{secs:.2} s"),
            cleaned.to_string(),
            extra_reads.to_string(),
            fs.stats().cleaner_blocks_copied.to_string(),
        ],
    )
}

fn main() {
    let mut metrics = MetricsReport::new("abl_liveness_fastpath");
    let rows = vec![run(true, &mut metrics), run(false, &mut metrics)];
    print_table(
        "Ablation: SS4.3.3 step-1 liveness fast path (delete-heavy cleaning)",
        "configuration",
        &["clean time", "segs cleaned", "disk reads", "blocks copied"],
        &rows,
    );
    println!(
        "\npaper (SS4.3.3): the version check classifies deleted/overwritten \
         blocks dead without fetching inodes; step 2 (inode walk) is only \
         needed for blocks that are probably live anyway."
    );
    metrics.emit();
}
