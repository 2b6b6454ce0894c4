//! Crash and recover: checkpoints and roll-forward in action (§4.4).
//!
//! Writes files, syncs some of them, crashes the disk mid-operation, and
//! remounts — showing what each recovery mode brings back.
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```

use std::sync::Arc;

use lfs_repro::lfs_core::{Lfs, LfsConfig};
use lfs_repro::obs::report::Report;
use lfs_repro::sim_disk::{Clock, DiskGeometry, SimDisk};
use lfs_repro::vfs::FileSystem;

fn main() {
    let geometry = DiskGeometry::wren_iv().with_sectors(64 * 2048); // 64 MB
    let clock = Clock::new();
    let disk = SimDisk::new(geometry.clone(), Arc::clone(&clock));
    let mut fs = Lfs::format(disk, LfsConfig::paper(), Arc::clone(&clock)).unwrap();

    // Phase 1: durable data, committed by a checkpoint.
    fs.mkdir("/safe").unwrap();
    fs.write_file("/safe/ledger", b"balance: 42").unwrap();
    fs.sync().unwrap();
    println!("checkpointed /safe/ledger");

    // Phase 2: written to the log, but after the last checkpoint. This
    // file system mounts with roll-forward (the default), so its fsync
    // pushes a partial segment and trusts roll-forward to find it; a
    // `roll_forward: false` system would have checkpointed here instead.
    let ino = fs
        .write_file("/safe/journal", b"entry 1\nentry 2\n")
        .unwrap();
    fs.fsync(ino).unwrap();
    println!("fsync'd /safe/journal (in the log, after the checkpoint)");

    // Phase 3: still sitting in the file cache — nowhere on disk.
    fs.write_file("/safe/scratch", b"unsaved thoughts").unwrap();
    println!("wrote /safe/scratch (cache only)");

    // CRASH. Take the raw platters; all memory state is gone.
    let image = fs.into_device().into_image();
    println!("\n*** power failure ***\n");

    let mut metrics = Report::new("example_crash_recovery");
    for (mode, roll_forward) in [("checkpoint-only", false), ("roll-forward", true)] {
        let clock = Clock::new();
        let disk = SimDisk::from_image(geometry.clone(), Arc::clone(&clock), image.clone());
        let mut cfg = LfsConfig::paper();
        cfg.roll_forward = roll_forward;
        let t0 = clock.now_ns();
        let mut fs = Lfs::mount(disk, cfg, Arc::clone(&clock)).unwrap();
        let ms = (clock.now_ns() - t0) as f64 / 1e6;

        println!("recovery with {mode}: {ms:.1} virtual ms");
        for path in ["/safe/ledger", "/safe/journal", "/safe/scratch"] {
            match fs.read_file(path) {
                Ok(data) => println!("  {path}: recovered ({} bytes)", data.len()),
                Err(e) => println!("  {path}: lost ({e})"),
            }
        }
        let report = fs.fsck().unwrap();
        println!("  fsck: {report}");
        metrics.add_run(mode, "lfs", clock.now_ns(), fs.obs());
        if roll_forward {
            println!(
                "  roll-forward replayed {} log chunks, {} inodes",
                fs.stats().rollforward_chunks,
                fs.stats().rollforward_inodes
            );
        }
        println!();
    }
    println!(
        "checkpoint-only recovery keeps what the last checkpoint saw; \n\
         roll-forward also recovers the fsync'd journal from the log tail. \n\
         (The image was written by a roll-forward system: mounting it \n\
         checkpoint-only shows what roll-forward buys, not a supported \n\
         pairing — a system that runs without roll-forward checkpoints \n\
         on every fsync, so synced always means synced.) \n\
         The cache-only scratch file is gone either way — exactly the \n\
         paper's stated loss window."
    );
    match metrics.write_bench_json() {
        Ok(path) => println!("metrics: {}", path.display()),
        Err(e) => eprintln!("warning: could not write metrics JSON: {e}"),
    }
}
