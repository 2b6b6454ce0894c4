//! Crash-consistency torture sweep (§4.4).
//!
//! For every write index of a scripted workload — times three fault
//! modes (dropped write, torn write, lost reorder window) — crash the
//! volume there, remount, and verify the recovered tree against the
//! durability model. Runs every row of [`lfs_bench::crash_sweep::arms`]:
//! LFS and the FFS baseline on one disk, then LFS striped, with the
//! async cleaner, the adaptive cache, parallel recovery and a parity
//! rebuild in the loop. Exits non-zero on any violation or vacuous row.
//!
//! Everything is driven by the virtual clock and seeded fault plans, so
//! output (table and metrics JSON) is byte-identical across runs.
//!
//! Flags: `--smoke` (bounded CI-sized sweep), `--stride N` (test every
//! N-th crash index).

use std::process::ExitCode;

use lfs_bench::crash_sweep::{arms, sweep, SweepSpec};
use lfs_bench::{print_table, MetricsReport, Row, Verdict};

fn main() -> ExitCode {
    let mut spec = SweepSpec::full();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => spec = SweepSpec::smoke(),
            "--stride" => {
                spec.stride = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0)
                    .expect("--stride needs a positive integer");
            }
            other => {
                eprintln!("unknown flag: {other} (supported: --smoke, --stride N)");
                std::process::exit(2);
            }
        }
    }

    let mut metrics = MetricsReport::new("crash_sweep");
    let registry = obs::Registry::new();
    let mut verdict = Verdict::new();
    verdict.expect_cell("-", "sweep");
    let mut rows = Vec::new();
    let mut samples = Vec::new();

    for arm in arms() {
        for &mode in arm.modes {
            let out = sweep(&arm, mode, &spec);
            let counts = [
                ("crash_points", out.crash_points),
                ("recovered", out.recovered),
                ("detected_unmountable", out.detected_unmountable),
                ("violations", out.violations),
            ];
            let mut cells = Vec::new();
            for (name, count) in counts {
                let metric = format!("sweep.{}.{}.{name}", arm.prefix, mode.name());
                registry.counter(&metric).add(count);
                cells.push(count.to_string());
            }
            cells.push(if out.is_clean() { "yes" } else { "NO" }.to_string());
            let row = format!("{} {}", arm.label, mode.name());
            verdict.claim(
                out.violations == 0,
                format!("{row}: {} violations of the durability model", out.violations),
            );
            for (held, what) in out.guards {
                verdict.guard(held, what);
            }
            rows.push(Row::new(row, cells));
            samples.extend(out.samples);
        }
    }

    print_table(
        "Crash-consistency torture sweep (SS4.4)",
        "fs / fault mode",
        &["crash points", "recovered", "refused", "violations", "clean"],
        &rows,
    );
    if !samples.is_empty() {
        println!("\nfirst violations:");
        for s in &samples {
            println!("  {s}");
        }
    }
    println!(
        "\npaper (SS4.4): LFS recovery = checkpoint + bounded roll-forward; a \
         crash may lose recent un-synced work (the loss window) but must \
         never silently corrupt synced state. FFS may refuse a damaged \
         mount (detected), LFS must always come back."
    );
    metrics.add_registry("sweep", 0, &registry);
    verdict.finish(metrics)
}
