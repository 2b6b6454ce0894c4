//! Figures 1 & 2 — the disk accesses behind creating two small files
//! (§3.1, §4.1).
//!
//! The paper's running example:
//!
//! ```c
//! fd = creat("dir1/file1", 0); write(fd, buffer, blockSize); close(fd);
//! fd = creat("dir2/file2", 0); write(fd, buffer, blockSize); close(fd);
//! ```
//!
//! Figure 1 (BSD): "The total disk I/O in this example includes 8 random
//! writes of which half are synchronous." Figure 2 (LFS): "LFS performs
//! the 8 writes in one large transfer. Unlike the BSD example, all writes
//! are sequential and none are synchronous."
//!
//! This binary runs the example on both file systems with the disk access
//! trace enabled, prints every write the device saw, and claims the two
//! captions' counts.

use std::process::ExitCode;

use ffs_baseline::{Ffs, FfsConfig};
use lfs_bench::{ffs_rig, lfs_rig, print_table, MetricsReport, Row, Verdict};
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{AccessKind, AccessRecord, BlockDevice, SimDisk};
use vfs::FileSystem;

/// Runs the two-file creation example; returns the traced accesses.
fn run_example<F, Prep, Wb>(fs: &mut F, prep: Prep, write_back: Wb) -> Vec<AccessRecord>
where
    F: FileSystem,
    Prep: Fn(&mut F) -> &mut SimDisk,
    Wb: Fn(&mut F),
{
    // Setup outside the trace: the two directories already exist.
    fs.mkdir("/dir1").unwrap();
    fs.mkdir("/dir2").unwrap();
    fs.sync().unwrap();
    fs.drop_caches().unwrap();
    let block = vec![0xABu8; 4096];

    prep(fs).trace_mut().enable();

    // The example itself.
    let f1 = fs.create("/dir1/file1").unwrap();
    fs.write_at(f1, 0, &block).unwrap();
    let f2 = fs.create("/dir2/file2").unwrap();
    fs.write_at(f2, 0, &block).unwrap();
    // ... and the delayed write-back.
    write_back(fs);

    let disk = prep(fs);
    disk.trace_mut().disable();
    let records: Vec<AccessRecord> = disk
        .trace()
        .records()
        .iter()
        .filter(|r| r.kind == AccessKind::Write)
        .cloned()
        .collect();
    disk.trace_mut().clear();
    records
}

fn rows_for(records: &[AccessRecord]) -> Vec<Row> {
    records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Row::new(
                format!("write {}", i + 1),
                vec![
                    if r.label.is_empty() { "data" } else { r.label }.to_string(),
                    format!("{} B", r.bytes),
                    if r.sync { "sync" } else { "async" }.to_string(),
                    if r.sequential { "sequential" } else { "random" }.to_string(),
                ],
            )
        })
        .collect()
}

fn sync_writes(records: &[AccessRecord]) -> usize {
    records.iter().filter(|r| r.sync).count()
}

fn summarize(name: &str, records: &[AccessRecord]) {
    let sync = sync_writes(records);
    let random = records.iter().filter(|r| !r.sequential).count();
    let bytes: u64 = records.iter().map(|r| r.bytes).sum();
    println!(
        "{name}: {} writes ({sync} synchronous, {random} random), {bytes} bytes total",
        records.len(),
    );
}

fn main() -> ExitCode {
    let mut metrics = MetricsReport::new("fig1_2_create_trace");
    let mut verdict = Verdict::new();
    verdict.expect_cell("ffs", "two_file_create");
    verdict.expect_cell("lfs", "two_file_create");
    let (mut ffs, _clock) = ffs_rig(FfsConfig::paper().with_block_size(4096));
    let ffs_trace = run_example(
        &mut ffs,
        |fs: &mut Ffs<SimDisk>| fs.device_mut(),
        |fs: &mut Ffs<SimDisk>| {
            fs.sync().unwrap();
        },
    );
    metrics.add_ffs("two_file_create", &ffs);
    print_table(
        "Figure 1: BSD FFS, creating dir1/file1 and dir2/file2",
        "access",
        &["content", "size", "mode", "placement"],
        &rows_for(&ffs_trace),
    );

    let (mut lfs, _clock) = lfs_rig(LfsConfig::paper());
    let lfs_trace = run_example(
        &mut lfs,
        |fs: &mut Lfs<SimDisk>| fs.device_mut(),
        |fs: &mut Lfs<SimDisk>| {
            // The bare segment write: no checkpoint machinery.
            fs.write_back().unwrap();
            fs.device_mut().flush().unwrap();
        },
    );
    metrics.add_lfs("two_file_create", &lfs);
    print_table(
        "Figure 2: LFS, creating dir1/file1 and dir2/file2",
        "access",
        &["content", "size", "mode", "placement"],
        &rows_for(&lfs_trace),
    );

    println!();
    summarize("FFS", &ffs_trace);
    summarize("LFS", &lfs_trace);
    println!(
        "\npaper: FFS issues 8 small random writes (4 synchronous); \
         LFS packs everything into one large sequential asynchronous transfer.\n\
         (Placement is relative to the previous request: LFS's single chunk\n\
         pays one positioning and then streams — 'one large transfer'.)"
    );
    verdict.claim(
        ffs_trace.len() == 8 && sync_writes(&ffs_trace) == 4,
        "Figure 1: FFS issues 8 writes, half of them synchronous",
    );
    verdict.claim(
        lfs_trace.len() == 1 && sync_writes(&lfs_trace) == 0,
        "Figure 2: LFS issues one transfer, not synchronous",
    );
    verdict.finish(metrics)
}
