//! Record a workload on one file system, replay it on the other.
//!
//! The paper's conclusion: "the real test of a file system is its
//! performance over months and years of use" — which takes traces. This
//! example wraps LFS in a [`TracingFs`], runs the office workload through
//! it, serialises the trace to text, and replays it against the FFS
//! baseline for a trace-identical A/B comparison.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use std::sync::Arc;

use lfs_repro::ffs_baseline::{Ffs, FfsConfig};
use lfs_repro::lfs_core::{Lfs, LfsConfig};
use lfs_repro::obs::report::Report;
use lfs_repro::sim_disk::{Clock, DiskGeometry, SimDisk};
use lfs_repro::vfs::FileSystem;
use lfs_repro::workload::office::{run, OfficeSpec};
use lfs_repro::workload::trace::{from_text, replay, to_text, TracingFs};
use lfs_repro::workload::Stopwatch;

fn main() {
    // Record: drive LFS through the tracing wrapper.
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::wren_iv(), Arc::clone(&clock));
    let lfs = Lfs::format(disk, LfsConfig::paper(), Arc::clone(&clock)).unwrap();
    let mut traced = TracingFs::new(lfs);

    let mut spec = OfficeSpec::default_mix();
    spec.operations = 4_000;
    let watch = Stopwatch::start(Arc::clone(&clock));
    run(&mut traced, &spec).unwrap();
    traced.sync().unwrap();
    let lfs_secs = watch.elapsed_secs();

    let (mut lfs, ops) = traced.finish();
    let text = to_text(&ops);
    println!(
        "recorded {} operations ({} KB of trace text) in {lfs_secs:.1} virtual s on LFS",
        ops.len(),
        text.len() / 1024
    );
    println!("first lines of the trace:");
    for line in text.lines().take(6) {
        println!("  {line}");
    }

    let lfs_io = lfs.device().stats();

    // Replay: parse the text back and apply it to FFS.
    let parsed = from_text(&text).unwrap();
    assert_eq!(parsed.len(), ops.len());
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::wren_iv(), Arc::clone(&clock));
    let mut ffs = Ffs::format(disk, FfsConfig::paper(), Arc::clone(&clock)).unwrap();
    let watch = Stopwatch::start(Arc::clone(&clock));
    let outcome = replay(&mut ffs, &parsed);
    ffs.sync().unwrap();
    let ffs_secs = watch.elapsed_secs();

    println!(
        "\nreplayed on FFS: {} ok, {} failed, {ffs_secs:.1} virtual s ({:.1}x slower)",
        outcome.succeeded,
        outcome.failed,
        ffs_secs / lfs_secs
    );
    let ffs_io = ffs.device().stats();
    println!(
        "\ndisk traffic   LFS: {:>6} writes ({} sync)   FFS: {:>6} writes ({} sync)",
        lfs_io.writes, lfs_io.sync_writes, ffs_io.writes, ffs_io.sync_writes
    );

    // Both ended with the same tree.
    let lfs_files = lfs.readdir("/office0").unwrap().len();
    let ffs_files = ffs.readdir("/office0").unwrap().len();
    assert_eq!(lfs_files, ffs_files, "replayed tree diverged");
    println!("both file systems hold the same {lfs_files} files in /office0");

    let mut metrics = Report::new("example_trace_replay");
    metrics.add_run("record", "lfs", lfs.clock().now_ns(), lfs.obs());
    metrics.add_run("replay", "ffs", ffs.clock().now_ns(), ffs.obs());
    match metrics.write_bench_json() {
        Ok(path) => println!("metrics: {}", path.display()),
        Err(e) => eprintln!("warning: could not write metrics JSON: {e}"),
    }
}
