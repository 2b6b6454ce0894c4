//! Extension — sustained use at varying disk fullness (§5.3, §6).
//!
//! The paper could not run this: "As of this writing LFS has not been
//! subjected to a 'real' workload for extended periods of time... the
//! question will be how full LFS can allow the disk to become and still
//! keep the cleaning cost down."
//!
//! Here we can: fill the disk to a target fraction with a live working
//! set, then overwrite files steadily for a long horizon so the cleaner
//! must continuously reclaim space, and report end-to-end throughput and
//! the cleaner's share of disk traffic per fullness level.

use std::sync::Arc;

use lfs_bench::{print_table, MetricsReport, Row};
use lfs_core::{CleanerPolicy, Lfs, LfsConfig};
use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::{FileSystem, FsError};
use workload::{payload, Stopwatch};

struct Outcome {
    overwrites_per_sec: f64,
    cleaner_share: f64,
    write_amp: f64,
    segments_cleaned: u64,
}

/// A fresh 48 MB disk (47 one-megabyte log segments) with a 2 MB cache:
/// small enough that the horizon stresses the cleaner.
fn format() -> (Lfs<SimDisk>, Arc<Clock>) {
    let clock = Clock::new();
    let disk = SimDisk::new(
        DiskGeometry::wren_iv().with_sectors(48 * 2048),
        Arc::clone(&clock),
    );
    let mut cfg = LfsConfig::paper().with_cache_bytes(2 * 1024 * 1024);
    // §5.3's question is asked of the paper's cleaner, so this sweep
    // keeps the paper's policy; the churn below is uniform, so an
    // age-aware policy would have no skew to exploit anyway
    // (`abl_cleaner_policy` is the skewed comparison).
    cfg.cleaner.policy = CleanerPolicy::Greedy;
    (Lfs::format(disk, cfg, Arc::clone(&clock)).unwrap(), clock)
}

/// One fullness row, or `Err(live fraction)` where the space rule
/// refused the fill before it reached `fullness`.
fn run(fullness: f64, metrics: &mut MetricsReport) -> Result<Outcome, f64> {
    let (mut fs, clock) = format();

    // Fill to the target live fraction with 16 KB files, or until the
    // space rule refuses one.
    let capacity = fs.superblock().log_capacity_bytes() as f64;
    let file_size = 16 * 1024usize;
    let nfiles = (capacity * fullness / file_size as f64) as usize;
    let data = payload(13, file_size);
    for d in 0..nfiles.div_ceil(200) {
        fs.mkdir(&format!("/d{d:03}")).unwrap();
    }
    let path = |i: usize| format!("/d{:03}/f{i:05}", i / 200);
    for i in 0..nfiles {
        if let Err(FsError::NoSpace) = fs.write_file(&path(i), &data) {
            return Err(fs.usage_table().total_live_bytes() as f64 / capacity);
        }
    }
    fs.sync().unwrap();

    // Steady-state overwrite churn for a fixed operation budget.
    let rounds = 3_000usize;
    let io_before = fs.device().stats();
    let cleaned_before = fs.stats().segments_cleaned;
    let copied_before = fs.stats().cleaner_blocks_copied;
    let data_before = fs.stats().data_blocks_written;
    let cleaner_read_before = fs.stats().cleaner_bytes_read;
    let watch = Stopwatch::start(Arc::clone(&clock));
    let mut rng = 0x2545F4914F6CDD1Du64;
    for _ in 0..rounds {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let target = (rng as usize) % nfiles;
        let p = path(target);
        let ino = fs.lookup(&p).unwrap();
        fs.truncate(ino, 0).unwrap();
        fs.write_at(ino, 0, &data).unwrap();
    }
    fs.sync().unwrap();
    let secs = watch.elapsed_secs();
    let io = fs.device().stats().delta_since(&io_before);

    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "fullness {fullness}: {report}");
    metrics.add_lfs(&format!("full_{:.0}pct", fullness * 100.0), &fs);

    let copied = fs.stats().cleaner_blocks_copied - copied_before;
    let written = fs.stats().data_blocks_written - data_before;
    Ok(Outcome {
        overwrites_per_sec: rounds as f64 / secs,
        cleaner_share: (fs.stats().cleaner_bytes_read - cleaner_read_before) as f64
            / io.bytes_total() as f64,
        write_amp: copied as f64 / written.max(1) as f64,
        segments_cleaned: fs.stats().segments_cleaned - cleaned_before,
    })
}

fn main() {
    let (mut rows, mut refused) = (Vec::new(), Vec::new());
    let mut metrics = MetricsReport::new("ext_sustained_use");
    let (fs, _) = format();
    let (limit, segs) = (fs.space_rule().admit_bytes(), fs.superblock().nsegments);
    let share = limit as f64 * 100.0 / fs.superblock().log_capacity_bytes() as f64;
    println!("space rule, {segs} segments: {limit} B admitted, {share:.1} % of the log");
    for fullness in [0.30f64, 0.50, 0.65, 0.78, 0.85] {
        let row = format!("{:.0}% full", fullness * 100.0);
        match run(fullness, &mut metrics) {
            Ok(o) => rows.push(Row::new(
                row,
                vec![
                    format!("{:.1}", o.overwrites_per_sec),
                    format!("{:.2}", o.write_amp),
                    format!("{:.0}%", o.cleaner_share * 100.0),
                    o.segments_cleaned.to_string(),
                ],
            )),
            Err(live) => refused.push(format!("{row}: refused at {:.1} % live", live * 100.0)),
        }
    }
    print_table(
        "Extension: sustained overwrite churn vs disk fullness (3000 x 16 KB overwrites)",
        "live data",
        &[
            "overwrites/s",
            "write amp",
            "cleaner I/O share",
            "segs cleaned",
        ],
        &rows,
    );
    for line in &refused {
        println!("deviation: {line}");
    }
    println!(
        "\npaper (SS5.3/SS6): segment utilization at cleaning time tracks disk\n\
         fullness under steady churn; throughput degrades as the cleaner must\n\
         copy ever more live data per segment reclaimed. (How full the log\n\
         may get is the space rule's answer: a row asked for more than it\n\
         admits is refused, not run.)"
    );
    metrics.emit();
}
