//! Degraded operation and online rebuild — what does losing a spindle
//! cost the foreground, and does the array come back whole?
//!
//! The LFS paper's claim that parity is nearly free hinges on the log:
//! full-segment writes compute parity straight from the write buffer,
//! so the healthy write path never pays RAID-5's read-modify-write.
//! This bench measures the other two regimes on a 4-spindle
//! parity-segment volume, in one continuous run of a closed-loop
//! read+overwrite workload:
//!
//! * `healthy` — the baseline phase.
//! * `degraded` — one spindle killed mid-run: every read touching it
//!   fans out to the survivors and XOR-reconstructs.
//! * `rebuilding` — a blank replacement installed, the idle-gated
//!   rebuild offered steps between foreground dispatches (the async
//!   cleaner's pacing contract), then drained to completion.
//!
//! A second, never-faulted control run executes the identical op
//! sequence. In-binary claims, each also recomputable from
//! `BENCH_degraded_rebuild.json`:
//!
//! * (a) degraded foreground throughput >= 50% of healthy;
//! * (b) idle-gated rebuilding keeps foreground p99 <= 1.5x healthy;
//! * (c) the rebuilt volume scrubs clean and its namespace digest
//!   equals the control run's — every byte the dead spindle held came
//!   back through parity.
//!
//! Everything runs on the shared virtual clock: output (table and
//! metrics JSON) is byte-identical across runs. `--smoke` shrinks the
//! op counts for CI; the claims are still judged.

use std::process::ExitCode;

use lfs_bench::degraded::{
    parity_lfs_cfg, run_arm, ArmOutcome, RebuildBenchConfig, SEGMENT_BYTES, SPINDLES,
    SPINDLE_SECTORS,
};
use lfs_bench::{print_table, volume_rig, MetricsReport, Row, Verdict};
use volume::{RebuildPolicy, VolumeConfig, VolumeDisk};

/// The spindle the bench kills and rebuilds.
const DEAD_SPINDLE: usize = 1;
/// Deterministic workload seed.
const SEED: u64 = 0xD15C;

/// Runs the workload once and returns its outcome with the end-of-run
/// registry. `fault` injects the kill / replace / rebuild sequence; the
/// control run executes the identical op stream healthy.
fn one_run(
    cfg: &RebuildBenchConfig,
    fault: bool,
    metrics: &mut MetricsReport,
    verdict: &mut Verdict,
) -> (ArmOutcome, obs::Snapshot) {
    let kill = |dev: &VolumeDisk| {
        if fault {
            dev.volume().borrow_mut().kill_spindle(DEAD_SPINDLE);
        }
    };
    // Idle-gated, one row per step: a step's transfer is one chunk per
    // spindle, small enough to hide in think-time gaps.
    let replace = |dev: &VolumeDisk| {
        if fault {
            dev.volume()
                .borrow_mut()
                .replace_spindle(DEAD_SPINDLE, RebuildPolicy::default().with_max_step_rows(1))
                .expect("replace the dead spindle");
        }
    };
    let (fs, out) = run_arm(
        volume_rig(
            VolumeConfig::parity_segment(SPINDLES, SEGMENT_BYTES),
            SPINDLE_SECTORS,
            None,
        ),
        parity_lfs_cfg(),
        cfg,
        &[("healthy", &|_| {}), ("degraded", &kill), ("rebuilding", &replace)],
        "degraded",
        false,
    );
    let label = format!("lfs/{}/s{SPINDLES}", if fault { "faulted" } else { "control" });
    metrics.add_lfs(&label, &fs);
    for (name, out) in &out.phases {
        verdict.guard(
            out.ops > 0 && 0 < out.p50_ns && out.p50_ns <= out.p99_ns,
            format!(
                "{label}: the {name} phase measured nothing coherent ({} ops, p50 {} ns, p99 {} ns)",
                out.ops, out.p50_ns, out.p99_ns
            ),
        );
    }
    (out, fs.obs().snapshot())
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut metrics = MetricsReport::new("degraded_rebuild");
    let mut verdict = Verdict::new();
    verdict.expect_cell("lfs", "lfs/faulted/s4");
    verdict.expect_cell("lfs", "lfs/control/s4");

    let cfg = RebuildBenchConfig::parity(smoke, SEED);
    let (faulted, faulted_end) = one_run(&cfg, true, &mut metrics, &mut verdict);
    let (control, control_end) = one_run(&cfg, false, &mut metrics, &mut verdict);

    let headers: Vec<&str> = faulted.phases.iter().map(|(n, _)| *n).collect();
    print_table(
        &format!(
            "degraded + rebuild, {} clients x {} ops/phase, {SPINDLES} spindles (parity-segment)",
            cfg.clients, cfg.ops_per_phase,
        ),
        "metric",
        &headers,
        &[
            Row::of("fg ops/s", &faulted.phases, |(_, o)| format!("{:.2}", o.ops_per_sec())),
            Row::of("fg p50 ms", &faulted.phases, |(_, o)| format!("{:.3}", o.p50_ns as f64 / 1e6)),
            Row::of("fg p99 ms", &faulted.phases, |(_, o)| format!("{:.3}", o.p99_ns as f64 / 1e6)),
            Row::of("rebuild steps", &faulted.phases, |(_, o)| o.rebuild_steps.to_string()),
        ],
    );
    println!(
        "  drained {} more steps after the measured phase; scrub clean: {}",
        faulted.drain_steps, faulted.scrub_clean
    );
    println!(
        "  namespace digest {:016x} (control {:016x})",
        faulted.digest, control.digest
    );

    let healthy = faulted.phase("healthy");
    let degraded = faulted.phase("degraded");
    let rebuilding = faulted.phase("rebuilding");

    // (a) Degraded throughput >= 50% of healthy.
    let tp_ratio = degraded.ops_per_sec() / healthy.ops_per_sec();
    println!("\n  degraded throughput / healthy = {tp_ratio:.3} (need >= 0.50)");
    verdict.claim(
        tp_ratio >= 0.50,
        format!(
            "degraded foreground throughput fell to {:.1}% of healthy (need >= 50%)",
            tp_ratio * 100.0
        ),
    );

    // (b) Idle-gated rebuild keeps foreground p99 <= 1.5x healthy.
    let p99_ratio = rebuilding.p99_ns as f64 / healthy.p99_ns.max(1) as f64;
    println!("  rebuilding p99 / healthy p99 = {p99_ratio:.2}x (bound 1.50x)");
    verdict.claim(
        p99_ratio <= 1.5,
        format!(
            "idle-gated rebuild inflated foreground p99 {p99_ratio:.2}x over healthy (bound: 1.5x)"
        ),
    );

    // (c) The rebuilt volume is whole: scrub clean, namespace identical
    // to the never-faulted control run.
    verdict.claim(
        faulted.scrub_clean && control.scrub_clean,
        "a post-run scrub found damage",
    );
    verdict.claim(
        faulted.digest == control.digest,
        format!(
            "post-rebuild namespace digest {:016x} != control {:016x}",
            faulted.digest, control.digest
        ),
    );

    // Vacuity guards: the regimes must actually have been exercised.
    verdict.guard(
        rebuilding.rebuild_steps > 0,
        "no rebuild step landed inside the measured rebuilding phase",
    );
    verdict.guard(
        faulted_end.counter("volume.degraded_reads") > 0,
        "the killed spindle was never in the read path",
    );
    verdict.guard(
        faulted_end.counter("volume.rebuild.runs_completed") == 1,
        "the rebuild did not run to completion",
    );
    verdict.guard(
        control_end.counter("volume.degraded_reads") == 0,
        "the control run must never reconstruct",
    );

    println!(
        "\npaper (S3/S4): the log's full-segment writes make parity free on \
         the healthy path; the price of redundancy is paid only while \
         degraded (fan-out reconstruction) and rebuilding (paced, \
         maintenance-class row copies)."
    );
    verdict.finish(metrics)
}
