//! Trace-driven multi-tenant replay with per-client QoS (§4.3.5).
//!
//! Rosenblum & Ousterhout validate LFS against an office/engineering
//! workload trace; this bench replays that trace — plus three
//! multi-tenant shapes (mail server, build farm, Zipf hot-file churn) —
//! through the full engine/volume stack, sweeping
//! `trace x {lfs, ffs} x spindles {1, 4} x QoS {off, on}` and reporting
//! per-tenant throughput and latency per cell.
//!
//! In-binary claims (all recomputable from `BENCH_trace_replay.json`):
//!
//! * **Proportional share** — in the Zipf-churn trace, flooder tenant 1
//!   carries weight 4 and flooder tenant 2 weight 1; with QoS on, over
//!   the contended window (before any tenant drains) tenant 1 must
//!   move at least 3x tenant 2's bytes. With QoS off the dispatcher is
//!   earliest-ready-first and the flooders split evenly.
//! * **Bounded latency class** — the Zipf probe (tenant 0, latency
//!   class) must keep its p99 op latency under the flood within 2x its
//!   solo p99 (the same probe replayed alone via
//!   [`trace::Trace::filter_client`]).
//! * **Paper headline** — the office trace through LFS must sustain
//!   >= 2x FFS's ops/s (1 spindle, QoS off).
//! * **Replay equivalence** — every cell of one trace (either file
//!   system, any spindle count, QoS on or off) ends in a byte-identical
//!   namespace digest; every happens-before edge is audited at dispatch
//!   (violations == 0, and the audit is non-vacuous).
//!
//! Everything runs on the shared virtual clock: output (tables and
//! metrics JSON) is byte-identical across runs.
//!
//! `--smoke` runs the CI-sized sweep: office at 1 and 8 clients plus a
//! small Zipf-churn trace, 1 spindle only.

use std::process::ExitCode;

use engine::QosClass;
use lfs_bench::trace_replay::{run_cell, CellResult, FsKind};
use lfs_bench::{fmt_rate, print_table, MetricsReport, Row, Verdict};
use trace::{by_name, GenSpec, Trace, TRACE_NAMES};

/// Weight given to Zipf flooder tenant 1 (tenant 2 keeps weight 1).
const HEAVY_WEIGHT: u64 = 4;
/// Contended-window share ratio the weighted flooder must reach.
const SHARE_RATIO_MIN: f64 = 3.0;
/// Flood-vs-solo p99 bound for the latency-class probe.
const P99_RATIO_MAX: f64 = 2.0;
/// Office-trace LFS/FFS throughput ratio floor (the paper's headline).
const LFS_FFS_RATIO_MIN: f64 = 2.0;

/// One trace to sweep, with the tenants the assertions look at.
struct TraceCase {
    name: String,
    trace: Trace,
}

fn zipf_with_weights(spec: &GenSpec) -> Trace {
    let mut t = by_name("zipf", spec).expect("zipf generator");
    // Tenant 0 is the latency-class probe (set by the generator);
    // tenants 1 and 2 are the weighted/unweighted flooder pair.
    t.qos = t.qos.with_weight(1, HEAVY_WEIGHT);
    t
}

fn cases(smoke: bool) -> Vec<TraceCase> {
    if smoke {
        vec![
            TraceCase {
                name: "office_c1".into(),
                trace: by_name("office", &GenSpec::small(1)).expect("office"),
            },
            TraceCase {
                name: "office_c8".into(),
                trace: by_name("office", &GenSpec::small(8)).expect("office"),
            },
            TraceCase {
                name: "zipf".into(),
                trace: zipf_with_weights(&GenSpec::small(4)),
            },
        ]
    } else {
        TRACE_NAMES
            .iter()
            .map(|&name| TraceCase {
                name: name.to_string(),
                trace: if name == "zipf" {
                    zipf_with_weights(&GenSpec::new(4, 60))
                } else {
                    by_name(name, &GenSpec::new(4, 60)).expect("known trace")
                },
            })
            .collect()
    }
}

fn find<'a>(cells: &'a [CellResult], label: &str) -> Option<&'a CellResult> {
    cells.iter().find(|c| c.label == label)
}

fn print_cells(case: &TraceCase, cells: &[CellResult]) {
    let rows: Vec<Row> = cells
        .iter()
        .map(|c| {
            Row::new(
                c.label.clone(),
                vec![
                    c.report.total_ops.to_string(),
                    fmt_rate(c.report.ops_per_sec()),
                    format!("{:.1}", c.report.elapsed_ns as f64 / 1e6),
                    c.report.dep_edges_checked.to_string(),
                    format!("{:016x}", c.snapshot_hash),
                ],
            )
        })
        .collect();
    print_table(
        &format!(
            "trace replay: {} ({} records, {} tenants)",
            case.name,
            case.trace.records.len(),
            case.trace.clients
        ),
        "cell",
        &["ops", "ops/s", "elapsed ms", "edges", "namespace digest"],
        &rows,
    );
}

fn print_tenants(title: &str, case: &TraceCase, cell: &CellResult) {
    let rows: Vec<Row> = cell
        .report
        .per_tenant
        .iter()
        .map(|t| {
            let qos = case.trace.qos.tenant(t.client);
            Row::new(
                format!("t{:02}", t.client),
                vec![
                    qos.class.name().to_string(),
                    qos.weight.to_string(),
                    t.ops.to_string(),
                    format!(
                        "{:.2}",
                        cell.report.contended_bytes.get(t.client).copied().unwrap_or(0) as f64
                            / 1e6
                    ),
                    format!("{:.0}", t.p99_ns() as f64 / 1e3),
                ],
            )
        })
        .collect();
    print_table(
        title,
        "tenant",
        &["class", "weight", "ops", "contended MB", "p99 us"],
        &rows,
    );
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let spindle_counts: &[usize] = if smoke { &[1] } else { &[1, 4] };

    let mut metrics = MetricsReport::new("trace_replay");
    let mut verdict = Verdict::new();

    for case in cases(smoke) {
        let mut cells: Vec<CellResult> = Vec::new();
        for &spindles in spindle_counts {
            for kind in [FsKind::Lfs, FsKind::Ffs] {
                for qos in ["off", "on"] {
                    let fs = kind.name();
                    verdict.expect_cell(fs, &format!("{}/{fs}/s{spindles}/q{qos}", case.name));
                    let cell =
                        run_cell(kind, &case.name, &case.trace, spindles, qos == "on", &mut metrics);
                    let r = &cell.report;
                    verdict.claim(
                        r.failed_ops == 0,
                        format!("{}: {} operations failed during replay", cell.label, r.failed_ops),
                    );
                    verdict.claim(
                        r.dep_violations == 0,
                        format!("{}: {} happens-before violations", cell.label, r.dep_violations),
                    );
                    verdict.guard(
                        r.dep_edges_checked > 0 && r.total_ops > 0,
                        format!("{}: replay or its dependency audit was vacuous", cell.label),
                    );
                    cells.push(cell);
                }
            }
        }
        print_cells(&case, &cells);

        // Replay equivalence: determinate traces end in the same place
        // on every file system, spindle count, and QoS policy.
        let digest0 = cells[0].snapshot_hash;
        for c in &cells[1..] {
            verdict.claim(
                c.snapshot_hash == digest0,
                format!(
                    "{}: namespace digest {:016x} != {}'s {:016x} (replay not equivalent)",
                    c.label, c.snapshot_hash, cells[0].label, digest0
                ),
            );
        }

        if case.name.starts_with("office") && case.trace.clients > 1 {
            let lfs = find(&cells, &format!("{}/lfs/s1/qoff", case.name));
            let ffs = find(&cells, &format!("{}/ffs/s1/qoff", case.name));
            if let (Some(lfs), Some(ffs)) = (lfs, ffs) {
                let ratio = lfs.report.ops_per_sec() / ffs.report.ops_per_sec();
                println!(
                    "  office headline: LFS {} ops/s vs FFS {} ops/s = {ratio:.2}x",
                    fmt_rate(lfs.report.ops_per_sec()),
                    fmt_rate(ffs.report.ops_per_sec()),
                );
                verdict.claim(
                    ratio >= LFS_FFS_RATIO_MIN,
                    format!(
                        "{}: LFS only {ratio:.2}x FFS ops/s (need >= {LFS_FFS_RATIO_MIN}x)",
                        case.name
                    ),
                );
            }
        }

        if case.name == "zipf" {
            let qon = find(&cells, "zipf/lfs/s1/qon").expect("zipf QoS cell");
            let qoff = find(&cells, "zipf/lfs/s1/qoff").expect("zipf baseline cell");
            print_tenants("zipf tenants, LFS s1, QoS on", &case, qon);
            let qos = &case.trace.qos;
            verdict.guard(
                qos.tenant(0).class == QosClass::Latency
                    && qos.tenant(1).weight == HEAVY_WEIGHT
                    && qos.tenant(2).weight == 1,
                "zipf: tenants are not the latency probe and the 4:1 flooder pair",
            );

            // Proportional share over the contended window: weight-4
            // flooder (t1) vs weight-1 flooder (t2).
            let ratio_on = qon.report.contended_ratio(1, 2);
            let ratio_off = qoff.report.contended_ratio(1, 2);
            println!(
                "  contended share t1/t2: {ratio_on:.2}x with QoS (weight {HEAVY_WEIGHT}), \
                 {ratio_off:.2}x without"
            );
            verdict.claim(
                ratio_on >= SHARE_RATIO_MIN,
                format!(
                    "zipf: weighted flooder got only {ratio_on:.2}x the contended bytes \
                     of the 1x flooder (need >= {SHARE_RATIO_MIN}x)"
                ),
            );

            // Bounded latency class: the probe's p99 under the flood vs
            // the same probe replayed alone.
            let solo_trace = case.trace.filter_client(0);
            verdict.expect_cell("lfs", "zipf_solo/lfs/s1/qon");
            let solo = run_cell(
                FsKind::Lfs,
                "zipf_solo",
                &solo_trace,
                1,
                true,
                &mut metrics,
            );
            let flood_p99 = qon.report.per_tenant[0].p99_ns();
            let solo_p99 = solo.report.per_tenant[0].p99_ns();
            println!(
                "  probe p99: {:.0} us under flood vs {:.0} us solo",
                flood_p99 as f64 / 1e3,
                solo_p99 as f64 / 1e3
            );
            verdict.claim(
                flood_p99 as f64 <= P99_RATIO_MAX * solo_p99 as f64,
                format!(
                    "zipf: latency-class probe p99 {flood_p99} ns under flood exceeds \
                     {P99_RATIO_MAX}x its solo p99 {solo_p99} ns"
                ),
            );
        }
    }

    println!(
        "\npaper (§4.3.5): trace replay is the real test; the QoS ledger turns the \
         replay's parallel process sets into proportional tenant shares without \
         starving anyone, and determinate traces land every file system in the \
         same final state."
    );
    verdict.finish(metrics)
}
