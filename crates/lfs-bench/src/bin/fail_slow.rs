//! Fail-slow tolerance — does a limping spindle take the array's tail
//! latency with it, and does the system heal itself?
//!
//! Fail-slow hardware (a spindle serving at 10x its healthy time while
//! still returning correct bytes) is the failure mode RAID was never
//! built for: nothing errors, so nothing fails over, and every read
//! through the sick disk drags the foreground tail. This bench runs the
//! degraded-rebuild workload on a 4-spindle parity volume with one
//! spindle degrading mid-run, in three arms (see
//! [`lfs_bench::fail_slow`]): `hedged` (hedge deadline + health
//! monitor + hot spare), `nohedge` (the suffering baseline), and a
//! never-faulted `control`.
//!
//! In-binary claims, each also recomputable from
//! `BENCH_fail_slow.json`:
//!
//! * (a) hedged fail-slow foreground *read* p99 <= 2x the healthy
//!   baseline (the control arm's same phase on a never-faulted array) —
//!   hedged reconstruction bounds what the slow spindle can charge;
//! * (b) the no-hedge arm's fail-slow read p99 is worse than the
//!   hedged arm's — the protection is load-bearing, not vacuous;
//! * (c) the hedged arm heals itself: exactly one eviction, one hot
//!   spare consumed, one rebuild completed, scrub clean, and a
//!   namespace digest equal to the never-faulted control's;
//! * vacuity: hedges fired and reconstruction won races in the hedged
//!   arm; the control arm saw no eviction and no degraded read.
//!
//! Everything runs on the shared virtual clock; `--smoke` shrinks the
//! op counts for CI and the claims are still judged.

use std::process::ExitCode;

use lfs_bench::degraded::SPINDLES;
use lfs_bench::fail_slow::{
    bench_cfg, run_arm, spindle_counter_total, ArmResult, ARMS, HEDGE_DEADLINE_NS, MULTIPLIER_PCT,
};
use lfs_bench::{print_table, MetricsReport, Row, Verdict};

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut metrics = MetricsReport::new("fail_slow");
    let mut verdict = Verdict::new();
    for name in ["hedged", "nohedge", "control"] {
        verdict.expect_cell("lfs", &format!("lfs/{name}/s{SPINDLES}"));
    }

    let results: Vec<ArmResult> = ARMS
        .iter()
        .map(|spec| run_arm(spec, smoke, &mut metrics))
        .collect();
    let arm = |name: &str| {
        results
            .iter()
            .find(|r| r.spec.name == name)
            .expect("arm present")
    };
    let evictions = |r: &ArmResult| r.end.counter("volume.health.evictions");
    let spares_used = |r: &ArmResult| r.end.counter("volume.health.spares_used");
    let hedges = |r: &ArmResult| spindle_counter_total(&r.end, "hedges");
    let hedge_wins = |r: &ArmResult| spindle_counter_total(&r.end, "hedge_wins");
    let hedged = arm("hedged");
    let nohedge = arm("nohedge");
    let control = arm("control");
    let rebuilds_completed = hedged.end.counter("volume.rebuild.runs_completed");

    let headers: Vec<&str> = results.iter().map(|r| r.spec.name).collect();
    let cfg = bench_cfg(smoke);
    print_table(
        &format!(
            "fail-slow ({}x mid-run), {} clients x {} ops/phase, {SPINDLES} spindles \
             (parity-segment), hedge deadline {} ms",
            MULTIPLIER_PCT / 100,
            cfg.clients,
            cfg.ops_per_phase,
            HEDGE_DEADLINE_NS / 1_000_000,
        ),
        "metric",
        &headers,
        &[
            Row::of("healthy read p99 ms", &results, |r| {
                format!("{:.1}", r.run.phase("healthy").read_p99_ns as f64 / 1e6)
            }),
            Row::of("failslow read p99 ms", &results, |r| {
                format!("{:.1}", r.run.phase("failslow").read_p99_ns as f64 / 1e6)
            }),
            Row::of("failslow op p99 ms", &results, |r| {
                format!("{:.1}", r.run.phase("failslow").p99_ns as f64 / 1e6)
            }),
            Row::of("failslow ops/s", &results, |r| {
                format!("{:.2}", r.run.phase("failslow").ops_per_sec())
            }),
            Row::of("hedges (wins)", &results, |r| format!("{} ({})", hedges(r), hedge_wins(r))),
            Row::of("evictions", &results, |r| evictions(r).to_string()),
            Row::of("spares used", &results, |r| spares_used(r).to_string()),
            Row::of("scrub clean", &results, |r| r.run.scrub_clean.to_string()),
            Row::of("digest", &results, |r| format!("{:016x}", r.run.digest)),
        ],
    );

    // (a) Hedging bounds the fail-slow read tail: read p99 within 2x
    // the healthy baseline — the control arm's same phase, same ops on
    // a never-faulted array, so the only difference is the fault.
    // (Reads are the shieldable half of an op — a write lands on every
    // spindle and cannot be served from the survivors, so whole-op
    // latency is not the hedge's claim.)
    let hedged_ratio = hedged.run.phase("failslow").read_p99_ns as f64
        / control.run.phase("failslow").read_p99_ns.max(1) as f64;
    println!(
        "\n  hedged failslow read p99 / control (no-fault) read p99 = {hedged_ratio:.2}x \
         (bound 2.00x)"
    );
    verdict.claim(
        hedged_ratio <= 2.0,
        format!("hedged fail-slow read p99 is {hedged_ratio:.2}x the no-fault control (bound: 2x)"),
    );

    // (b) The baseline without hedging is worse — the protection is
    // load-bearing.
    let baseline_ratio = nohedge.run.phase("failslow").read_p99_ns as f64
        / hedged.run.phase("failslow").read_p99_ns.max(1) as f64;
    println!(
        "  nohedge failslow read p99 / hedged failslow read p99 = {baseline_ratio:.2}x \
         (need > 1.00x)"
    );
    verdict.claim(
        nohedge.run.phase("failslow").read_p99_ns > hedged.run.phase("failslow").read_p99_ns,
        format!(
            "the no-hedge arm's fail-slow read p99 ({} ns) is not worse than the hedged arm's \
             ({} ns)",
            nohedge.run.phase("failslow").read_p99_ns,
            hedged.run.phase("failslow").read_p99_ns
        ),
    );

    // (c) The hedged arm healed itself: one eviction, one spare, one
    // completed rebuild, a clean scrub, and the control's namespace.
    verdict.claim(
        evictions(hedged) == 1 && spares_used(hedged) == 1 && rebuilds_completed == 1,
        format!(
            "self-healing did not converge: {} evictions, {} spares used, {} rebuilds completed \
             (want 1/1/1)",
            evictions(hedged), spares_used(hedged), rebuilds_completed
        ),
    );
    for r in &results {
        verdict.claim(
            r.run.scrub_clean,
            format!("{}: the post-run scrub found damage", r.spec.name),
        );
        verdict.claim(
            r.run.digest == control.run.digest,
            format!(
                "{} namespace digest {:016x} != control {:016x}",
                r.spec.name, r.run.digest, control.run.digest
            ),
        );
    }

    // Vacuity guards: every phase measured something, and the
    // mechanisms must actually have been exercised.
    for r in &results {
        for (name, out) in &r.run.phases {
            verdict.guard(
                out.ops > 0 && 0 < out.read_p50_ns && out.read_p50_ns <= out.read_p99_ns,
                format!(
                    "{}: the {name} phase measured nothing coherent ({} ops, read p50 {} ns, \
                     p99 {} ns)",
                    r.spec.name, out.ops, out.read_p50_ns, out.read_p99_ns
                ),
            );
        }
    }
    verdict.guard(
        hedges(hedged) > 0,
        "no read was ever reported overdue in the hedged arm",
    );
    verdict.guard(
        hedge_wins(hedged) > 0,
        "reconstruction never beat the slow spindle in the hedged arm",
    );
    verdict.guard(
        hedged.run.drain_steps + hedged.run.phase("failslow").rebuild_steps > 0,
        "the hot-spare rebuild never stepped",
    );
    verdict.guard(
        evictions(control) == 0,
        "the monitor evicted a spindle on healthy media",
    );
    verdict.guard(
        control.end.counter("volume.degraded_reads") == 0,
        "the control arm must never serve a degraded read",
    );
    verdict.guard(
        evictions(nohedge) == 0,
        "the unmonitored arm cannot evict anything",
    );

    println!(
        "\nfail-slow is the failure RAID's error model misses: nothing faults, \
         so nothing fails over, and one sick spindle owns the tail. Hedged \
         reconstruction puts a price cap on every read (pay the survivors \
         instead of waiting), and the health monitor turns the latency \
         signature into an eviction + hot-spare rebuild with no operator in \
         the loop."
    );
    verdict.finish(metrics)
}
