//! One trace, two file systems: an office workload written out as an
//! `lfs-trace v1` file and replayed on LFS and on the FFS baseline.
//!
//! The paper's conclusion: "the real test of a file system is its
//! performance over months and years of use" — which takes traces. This
//! example generates a multi-tenant office trace, prints its head in the
//! `lfs-trace v1` text format, parses the text back, replays it with
//! [`trace::replay`] on LFS and on FFS (each on a simulated Wren IV
//! behind the request engine), and checks that both end with the same
//! tree ([`trace::snapshot`]).
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use std::rc::Rc;
use std::sync::Arc;

use engine::{EngineConfig, EngineCore, EngineDisk};
use lfs_repro::ffs_baseline::{Ffs, FfsConfig};
use lfs_repro::lfs_core::{Lfs, LfsConfig};
use lfs_repro::obs::report::Report;
use lfs_repro::sim_disk::{Clock, DiskGeometry, SimDisk};
use lfs_repro::vfs::FileSystem;
use trace::{office, replay, snapshot, GenSpec, ReplayConfig, ReplayReport, Trace};

/// Replays `trace` on a fresh Wren IV formatted by `format`.
fn replay_on<F: FileSystem>(
    trace: &Trace,
    format: impl FnOnce(EngineDisk, Arc<Clock>) -> F,
) -> (F, ReplayReport) {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::wren_iv(), Arc::clone(&clock));
    let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
    let registry = core.borrow().disk().obs().clone();
    let mut fs = format(EngineDisk::new(Rc::clone(&core)), clock);
    let report = replay(&mut fs, &core, &registry, trace, &ReplayConfig::default()).unwrap();
    assert_eq!(report.failed_ops, 0, "operations failed during replay");
    (fs, report)
}

fn main() {
    // Four office tenants, 1000 operations each (§4.3.5: files < 8 KB).
    let text = office(&GenSpec::new(4, 1_000)).to_text();
    println!("{} KB of trace text; its head:", text.len() / 1024);
    for line in text.lines().take(10) {
        println!("  {line}");
    }
    let trace = Trace::parse(&text).unwrap();

    let (mut lfs, lfs_report) = replay_on(&trace, |dev, clock| {
        Lfs::format(dev, LfsConfig::paper(), clock).unwrap()
    });
    let (mut ffs, ffs_report) = replay_on(&trace, |dev, clock| {
        Ffs::format(dev, FfsConfig::paper(), clock).unwrap()
    });
    for (name, r) in [("LFS", &lfs_report), ("FFS", &ffs_report)] {
        println!(
            "\nreplayed on {name}: {} records, {:.2} virtual s, {:.0} ops/s, \
             {} dependency edges checked, {} violated",
            r.total_ops,
            r.elapsed_ns as f64 / 1e9,
            r.ops_per_sec(),
            r.dep_edges_checked,
            r.dep_violations
        );
    }
    println!(
        "\nFFS took {:.1}x as long as LFS",
        ffs_report.elapsed_ns as f64 / lfs_report.elapsed_ns as f64
    );

    // Both ended with the same tree: names, kinds, sizes and contents.
    let tree = snapshot(&mut lfs).unwrap();
    assert_eq!(tree, snapshot(&mut ffs).unwrap(), "replayed trees diverged");
    println!("both file systems hold the same {} paths", tree.len());

    let mut metrics = Report::new("example_trace_replay");
    metrics.add_run("replay", "lfs", lfs.clock().now_ns(), lfs.obs());
    metrics.add_run("replay", "ffs", ffs.clock().now_ns(), ffs.obs());
    match metrics.write_bench_json() {
        Ok(path) => println!("metrics: {}", path.display()),
        Err(e) => eprintln!("warning: could not write metrics JSON: {e}"),
    }
}
