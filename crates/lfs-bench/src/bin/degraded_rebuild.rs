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
//! sequence. In-binary assertions, each also recomputable from
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
//! op counts for CI; the assertions still run.

use std::sync::Arc;

use lfs_bench::degraded::{drain_rebuild, fill, run_phase, PhaseOutcome, RebuildBenchConfig};
use lfs_bench::trace_replay::snapshot_digest;
use lfs_bench::{print_table, MetricsReport, Row};
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{Clock, DiskGeometry};
use trace::replay::snapshot;
use volume::{RebuildPolicy, StripedVolume, VolumeConfig, VolumeDisk};

/// Spindles in the array (one of which dies).
const SPINDLES: usize = 4;
/// The spindle the bench kills and rebuilds.
const DEAD_SPINDLE: usize = 1;
/// LFS segment size; the parity chunk is `SEGMENT / (SPINDLES - 1)`,
/// so one segment write covers exactly one data row (64 KB chunks keep
/// a rebuild step's transfer comparable to one foreground op, which is
/// what lets the idle-gated rebuild hide in think-time gaps).
const SEGMENT_BYTES: usize = 192 * 1024;
/// Per-spindle size: 16 MB. Logical capacity 48 MB — the run's append
/// volume fits without sustained cleaning, isolating parity costs.
const SPINDLE_SECTORS: u64 = 32_768;
/// Modern-host CPU (MIPS): the disks are the contended resource.
const CPU_MIPS: f64 = 1000.0;
/// Size of every slot file.
const FILE_SIZE: usize = 64 * 1024;
/// Slot files per client.
const SLOTS_PER_CLIENT: usize = 8;
/// Mean think time: 4 clients offer well under one WREN IV's
/// bandwidth, so idle periods exist for the gated rebuild.
const THINK_NS: u64 = 700_000_000;
/// Deterministic workload seed.
const SEED: u64 = 0xD15C;

fn bench_cfg(smoke: bool) -> RebuildBenchConfig {
    RebuildBenchConfig {
        clients: if smoke { 2 } else { 4 },
        ops_per_phase: if smoke { 48 } else { 96 },
        slots_per_client: SLOTS_PER_CLIENT,
        file_size: FILE_SIZE,
        think_ns: THINK_NS,
        seed: SEED,
    }
}

fn lfs_cfg() -> LfsConfig {
    // Aligned metadata + seal-on-flush: the layout rules that close the
    // parity write hole (see the crash sweep), here so the bench
    // exercises the production configuration of the subsystem.
    LfsConfig::paper()
        .with_segment_bytes(SEGMENT_BYTES)
        .with_segment_aligned_metadata()
        .with_seal_on_flush()
}

fn rig() -> (VolumeDisk, Arc<Clock>) {
    let clock = Clock::new();
    let vol = StripedVolume::new(
        DiskGeometry::wren_iv().with_sectors(SPINDLE_SECTORS),
        Arc::clone(&clock),
        VolumeConfig::parity_segment(SPINDLES, SEGMENT_BYTES),
    );
    (VolumeDisk::new(vol.into_shared()), clock)
}

/// One run's phase outcomes plus its end-state audit.
struct RunResult {
    phases: Vec<(&'static str, PhaseOutcome)>,
    drain_steps: u64,
    scrub_clean: bool,
    digest: u64,
    /// `volume.degraded_reads` at the end of the run.
    degraded_reads: u64,
    /// `volume.rebuild.runs_completed` at the end of the run.
    rebuilds_completed: u64,
}

/// Publishes a phase's exact statistics as gauges, so CI can recompute
/// every assertion from the JSON artifact alone.
fn publish_phase(registry: &obs::Registry, name: &str, out: &PhaseOutcome) {
    let g = |k: &str, v: u64| registry.gauge(&format!("degraded.{name}.{k}")).set(v);
    g("ops", out.ops);
    g("elapsed_ns", out.elapsed_ns);
    g("p50_ns", out.p50_ns);
    g("p99_ns", out.p99_ns);
    g("rebuild_steps", out.rebuild_steps);
}

/// Runs the workload once. `fault` injects the kill / replace / rebuild
/// sequence; the control run executes the identical op stream healthy.
fn one_run(smoke: bool, fault: bool, metrics: &mut MetricsReport) -> RunResult {
    let cfg = bench_cfg(smoke);
    let (dev, clock) = rig();
    let pump = dev.clone();
    let mut fs = Lfs::format(dev, lfs_cfg(), clock).expect("format LFS");
    fs.set_cpu_mips(CPU_MIPS);
    let registry = fs.obs().clone();
    fill(&mut fs, &pump, &cfg).expect("fill");

    let mut phases: Vec<(&'static str, PhaseOutcome)> = Vec::new();

    let healthy = run_phase(&mut fs, &pump, &cfg, 0).expect("healthy phase");
    phases.push(("healthy", healthy));

    if fault {
        pump.kill_spindle(DEAD_SPINDLE);
    }
    let degraded = run_phase(&mut fs, &pump, &cfg, 1).expect("degraded phase");
    phases.push(("degraded", degraded));

    if fault {
        // Idle-gated, one row per step: a step's transfer is one chunk
        // per spindle, small enough to hide in think-time gaps.
        pump.replace_spindle(
            DEAD_SPINDLE,
            RebuildPolicy::default().with_max_step_rows(1),
        )
        .expect("replace the dead spindle");
    }
    let rebuilding = run_phase(&mut fs, &pump, &cfg, 2).expect("rebuilding phase");
    phases.push(("rebuilding", rebuilding));

    let drain_steps = drain_rebuild(&mut fs, &pump).expect("drain rebuild");

    let scrub = fs.scrub().expect("scrub");
    let snap = snapshot(&mut fs).expect("namespace snapshot");
    let digest = snapshot_digest(&snap);

    for (name, out) in &phases {
        publish_phase(&registry, name, out);
    }
    registry.gauge("degraded.drain_steps").set(drain_steps);
    registry
        .gauge("degraded.scrub_clean")
        .set(u64::from(scrub.is_clean()));
    registry.gauge("degraded.namespace_digest").set(digest);
    metrics.add_lfs(
        &format!("lfs/{}/s{SPINDLES}", if fault { "faulted" } else { "control" }),
        &fs,
    );

    let snap = registry.snapshot();
    RunResult {
        phases,
        drain_steps,
        scrub_clean: scrub.is_clean(),
        digest,
        degraded_reads: snap.counter("volume.degraded_reads"),
        rebuilds_completed: snap.counter("volume.rebuild.runs_completed"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut metrics = MetricsReport::new("degraded_rebuild");
    let mut failures: Vec<String> = Vec::new();

    let faulted = one_run(smoke, true, &mut metrics);
    let control = one_run(smoke, false, &mut metrics);

    let headers: Vec<&str> = faulted.phases.iter().map(|(n, _)| *n).collect();
    print_table(
        &format!(
            "degraded + rebuild, {} clients x {} ops/phase, {SPINDLES} spindles (parity-segment)",
            bench_cfg(smoke).clients,
            bench_cfg(smoke).ops_per_phase,
        ),
        "metric",
        &headers,
        &[
            Row::new(
                "fg ops/s",
                faulted
                    .phases
                    .iter()
                    .map(|(_, o)| format!("{:.2}", o.ops_per_sec()))
                    .collect(),
            ),
            Row::new(
                "fg p50 ms",
                faulted
                    .phases
                    .iter()
                    .map(|(_, o)| format!("{:.3}", o.p50_ns as f64 / 1e6))
                    .collect(),
            ),
            Row::new(
                "fg p99 ms",
                faulted
                    .phases
                    .iter()
                    .map(|(_, o)| format!("{:.3}", o.p99_ns as f64 / 1e6))
                    .collect(),
            ),
            Row::new(
                "rebuild steps",
                faulted
                    .phases
                    .iter()
                    .map(|(_, o)| o.rebuild_steps.to_string())
                    .collect(),
            ),
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

    let phase = |name: &str| {
        faulted
            .phases
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, o)| o)
            .expect("phase present")
    };
    let healthy = phase("healthy");
    let degraded = phase("degraded");
    let rebuilding = phase("rebuilding");

    // (a) Degraded throughput >= 50% of healthy.
    let tp_ratio = degraded.ops_per_sec() / healthy.ops_per_sec();
    println!("\n  degraded throughput / healthy = {tp_ratio:.3} (need >= 0.50)");
    if tp_ratio < 0.50 {
        failures.push(format!(
            "degraded foreground throughput fell to {:.1}% of healthy (need >= 50%)",
            tp_ratio * 100.0
        ));
    }

    // (b) Idle-gated rebuild keeps foreground p99 <= 1.5x healthy.
    let p99_ratio = rebuilding.p99_ns as f64 / healthy.p99_ns.max(1) as f64;
    println!("  rebuilding p99 / healthy p99 = {p99_ratio:.2}x (bound 1.50x)");
    if p99_ratio > 1.5 {
        failures.push(format!(
            "idle-gated rebuild inflated foreground p99 {p99_ratio:.2}x over healthy (bound: 1.5x)"
        ));
    }

    // (c) The rebuilt volume is whole: scrub clean, namespace identical
    // to the never-faulted control run.
    if !faulted.scrub_clean {
        failures.push("post-rebuild scrub found damage".to_string());
    }
    if faulted.digest != control.digest {
        failures.push(format!(
            "post-rebuild namespace digest {:016x} != control {:016x}",
            faulted.digest, control.digest
        ));
    }

    // Vacuity guards: the regimes must actually have been exercised.
    assert!(
        rebuilding.rebuild_steps > 0,
        "no rebuild step landed inside the measured rebuilding phase"
    );
    assert!(
        faulted.degraded_reads > 0,
        "the killed spindle was never in the read path"
    );
    assert_eq!(
        faulted.rebuilds_completed, 1,
        "the rebuild did not run to completion"
    );
    assert_eq!(
        control.degraded_reads, 0,
        "the control run must never reconstruct"
    );

    println!(
        "\npaper (S3/S4): the log's full-segment writes make parity free on \
         the healthy path; the price of redundancy is paid only while \
         degraded (fan-out reconstruction) and rebuilding (paced, \
         maintenance-class row copies)."
    );
    metrics.emit();

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("degraded_rebuild: FAILED: {f}");
        }
        std::process::exit(1);
    }
}
