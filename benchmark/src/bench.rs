//! One workload, start to finish: untraced repeats until the time
//! budget is spent, the optional traced pass (one traced repeat, the
//! FFS arm, the layer drills), the verdict, and the three outputs — a
//! table for people, a JSON result file, and the one-line JSON the
//! benchmark driver reads.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{median, samples_beyond, MetricDef, Value, Values, END_TO_END, PER_LAYER};
use crate::run::{regime_checks, repeat, Check, Oracle, Repeat};
use crate::spanfs::SpanLog;
use crate::workload::Workload;
use crate::{drill, ffs_arm, host};

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Dev/test knob: multiplies every record count. Baselines are
    /// recorded at 1.
    pub scale: f64,
    /// Untraced repeats: at least this many…
    pub repeats: usize,
    /// …and more until this many seconds have been measured.
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

/// One host-time sample per repeat.
fn samples(repeats: &[Repeat], f: impl Fn(&Repeat) -> f64) -> Vec<f64> {
    repeats.iter().map(f).collect()
}

/// Names on which two repeats' exact metrics differ.
fn differing(a: &Values, b: &Values) -> Vec<&'static str> {
    a.iter()
        .filter(|(name, v)| b.get(*name) != Some(v))
        .map(|(name, _)| *name)
        .collect()
}

/// Layer metrics read off the traced repeat's spans.
fn span_metrics(log: &SpanLog) -> Values {
    let (measured, calls) = log
        .phase_totals("measured")
        .expect("the traced repeat records a measured phase");
    let mean = |name: &str, host: bool| {
        calls.get(name).map_or(
            Value::Na("the workload makes no such call in its measured phase"),
            |t| {
                let ns = if host { t.host_ns } else { t.virt_ns };
                Value::Num(ns as f64 / t.calls as f64 / 1e3)
            },
        )
    };
    let total_calls: u64 = calls.values().map(|t| t.calls).sum();
    let total_host: u64 = calls.values().map(|t| t.host_ns).sum();
    let mut out = Values::new();
    out.insert("vfs.calls", Value::Num(total_calls as f64));
    out.insert(
        "vfs.host_us_per_call",
        Value::Num(total_host as f64 / total_calls as f64 / 1e3),
    );
    out.insert("vfs.lookup.host_us", mean("lookup", true));
    out.insert("vfs.create.host_us", mean("create", true));
    out.insert("vfs.write.host_us", mean("write_at", true));
    out.insert("vfs.read.host_us", mean("read_at", true));
    out.insert("vfs.unlink.host_us", mean("unlink", true));
    out.insert("vfs.create.virt_us", mean("create", false));
    out.insert("vfs.write.virt_us", mean("write_at", false));
    out.insert("vfs.read.virt_us", mean("read_at", false));
    out.insert("vfs.unlink.virt_us", mean("unlink", false));
    out.insert("vfs.sync.virt_us", mean("sync", false));
    // The driver's self time: the replay span minus the vfs calls under it.
    out.insert(
        "trace.driver_host_share",
        Value::Num(1.0 - total_host as f64 / measured.host_ns() as f64),
    );
    out
}

/// Everything one run measured, ready to be rendered three ways.
struct Report<'a> {
    w: Workload,
    o: &'a Options,
    repeats: Vec<Repeat>,
    /// Every metric of the catalogue, by name.
    values: Values,
    checks: Vec<Check>,
    /// Per-repeat samples of the two host-time end-to-end metrics.
    host_ops: Vec<f64>,
    setup: Vec<f64>,
}

/// Runs the workload and reports; returns whether every check passed.
pub fn run_workload(w: Workload, o: &Options) -> bool {
    let oracle = Oracle::of(&w.generate(o.seed, o.scale));
    let start = Instant::now();
    let mut repeats = Vec::new();
    while repeats.len() < o.repeats.max(1) || start.elapsed().as_secs_f64() < o.seconds {
        repeats.push(repeat(w, o.seed, o.scale, &oracle, None));
    }
    let first = &repeats[0];
    let mut checks = first.checks.clone();
    let unequal: Vec<_> = repeats[1..]
        .iter()
        .flat_map(|r| differing(&first.exact, &r.exact))
        .collect();
    checks.push(Check::new(
        "virtual_metrics_identical_across_repeats",
        unequal.is_empty() && repeats.iter().all(|r| r.failed_ops == first.failed_ops),
        format!("{} repeats, differing: {unequal:?}", repeats.len()),
    ));
    // Before the traced pass, whose span log and drills would count.
    let peak_rss_mb = host::peak_rss_mb();

    let host_ops = samples(&repeats, |r| r.main_records as f64 / r.host.measured_s);
    let setup = samples(&repeats, |r| r.host.setup_s);
    let mut values: Values = first.exact.clone();
    let mut put = |name: &'static str, v: f64| {
        values.insert(name, Value::Num(v));
    };
    let median_of = |f: fn(&Repeat) -> f64| median(&samples(&repeats, f));
    put("host_ops_per_s", median(&host_ops));
    put("setup_s", median(&setup));
    put("host_peak_rss_mb", peak_rss_mb);
    put(
        "trace.parse_records_per_s",
        median_of(|r| r.host.parse_records_per_s),
    );
    put(
        "lfs-core.mount_host_ms",
        median_of(|r| r.host.mount_host_ms),
    );
    put("lfs-core.fsck_host_ms", median_of(|r| r.host.fsck_host_ms));
    put("host.wall_s", repeats.iter().map(|r| r.host.wall_s).sum());
    put("host.cpu_s", repeats.iter().map(|r| r.host.cpu_s).sum());

    if o.trace {
        let log = SpanLog::default();
        let traced = repeat(w, o.seed, o.scale, &oracle, Some(&log));
        let unequal = differing(&first.exact, &traced.exact);
        checks.push(Check::new(
            "traced_repeat_reproduces_virtual_metrics",
            unequal.is_empty(),
            format!("{} spans, differing: {unequal:?}", log.span_count()),
        ));
        values.extend(span_metrics(&log));
        values.insert(
            "host.tracing_overhead_share",
            Value::Num(traced.host.measured_s / median_of(|r| r.host.measured_s) - 1.0),
        );
        write_file(&trace_file(w, o), &log.chrome_trace());

        let (ffs_values, ffs_checks) = ffs_arm::run(w, o.seed, o.scale);
        values.extend(ffs_values);
        checks.extend(ffs_checks);
        values.extend(drill::run_all(o.seed));
    } else {
        let na = Value::Na("measured by the traced pass: run with --trace 1");
        for m in PER_LAYER {
            values.entry(m.name).or_insert(na);
        }
    }
    if o.scale == 1.0 {
        checks.extend(regime_checks(w, &values));
    } else {
        println!(
            "scale {}: regime checks need scale 1 and are skipped",
            o.scale
        );
    }

    let report = Report {
        w,
        o,
        repeats,
        values,
        checks,
        host_ops,
        setup,
    };
    report.print_table();
    let result_file = o.out.join(format!("{}.json", w.name()));
    write_file(&result_file, &report.result_json().pretty());
    println!("result: {}", result_file.display());
    if o.trace {
        println!("chrome trace: {}", trace_file(w, o).display());
    }
    println!("{}", report.driver_line().compact());
    report.passed()
}

fn trace_file(w: Workload, o: &Options) -> PathBuf {
    o.out.join(format!("{}.trace.json", w.name()))
}

impl Report<'_> {
    fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    fn first(&self) -> &Repeat {
        &self.repeats[0]
    }

    /// Fill and main records plus the tail files that were fsync'd.
    fn attempted(&self) -> u64 {
        let first = self.first();
        first.fill_records + first.main_records + first.synced_tail_files
    }

    fn host_samples(&self, name: &str) -> Option<&Vec<f64>> {
        match name {
            "host_ops_per_s" => Some(&self.host_ops),
            "setup_s" => Some(&self.setup),
            _ => None,
        }
    }

    /// Every metric by name with its unit and sample count, each
    /// repeat's host times, every check.
    fn print_table(&self) {
        let (first, values) = (self.first(), &self.values);
        println!(
            "== {} seed {} scale {} — {} untraced repeats{} ==",
            self.w.name(),
            self.o.seed,
            self.o.scale,
            self.repeats.len(),
            if self.o.trace { " + traced pass" } else { "" }
        );
        let records = first.main_records;
        println!("end-to-end ({records} main-trace records per repeat)");
        for m in END_TO_END {
            let v = values[m.name]
                .num()
                .expect("end-to-end metrics are numbers");
            let samples = match (m.name, self.host_samples(m.name)) {
                (_, Some(s)) => format!("n={} repeats {s:.4?}", s.len()),
                ("virt_op_tail_1pct_us", _) => format!("n={} samples", records.div_ceil(100)),
                ("virt_op_tail_01pct_us", _) => format!("n={} samples", records.div_ceil(1000)),
                ("host_peak_rss_mb", _) => "n=1 process".to_string(),
                _ => format!("n={records} records"),
            };
            println!("  {:<34} {v:>16.4} {:<8} {samples}", m.name, m.unit);
        }
        let attempted = self.attempted();
        println!(
            "  {:<34} {:>16.4} {:<8} n={attempted} (fill + main records + fsync'd tail files)",
            "failed_op_share",
            first.failed_ops as f64 / attempted as f64,
            "ratio"
        );
        if first.lost_synced > 0 {
            println!(
                "  LOST {} of {} fsync'd tail files across the crash (README, finding 3)",
                first.lost_synced, first.synced_tail_files
            );
        }
        println!("per-layer");
        for m in PER_LAYER {
            let note = match m.name {
                "trace.op_p50_us" => sample_note(records, 500),
                "trace.op_p99_us" => sample_note(records, 990),
                "trace.op_p999_us" => sample_note(records, 999),
                _ => String::new(),
            };
            let (name, unit, source) = (m.name, m.unit, m.source.code());
            match values[m.name] {
                Value::Num(v) => println!("  {name:<34} {v:>16.4} {unit:<8} {source} {note}"),
                Value::Na(why) => println!("  {name:<34} {:>16} {unit:<8} {source} ({why})", "n/a"),
            }
        }
        println!("repeats");
        for (i, r) in self.repeats.iter().enumerate() {
            println!(
                "  #{i}: setup {:.3} s, measured {:.3} s, wall {:.3} s, cpu {:.3} s{}",
                r.host.setup_s,
                r.host.measured_s,
                r.host.wall_s,
                r.host.cpu_s,
                if r.host.disturbed() {
                    "  DISTURBED"
                } else {
                    ""
                }
            );
        }
        println!("checks");
        for c in &self.checks {
            let verdict = if c.passed { "PASS" } else { "FAIL" };
            println!("  {verdict} {}: {}", c.name, c.detail.trim());
        }
    }

    /// The result file: every metric with its source, n/a reasons, the
    /// repeats and the checks.
    fn result_json(&self) -> Json {
        let first = self.first();
        let metric = |m: &MetricDef| {
            let mut members = vec![
                match self.values[m.name] {
                    Value::Num(v) => ("value", Json::Num(v)),
                    Value::Na(why) => ("na", Json::str(why)),
                },
                ("unit", Json::str(m.unit)),
                ("source", Json::str(m.source.code())),
                ("exact", Json::Bool(m.exact)),
            ];
            if let Some(samples) = self.host_samples(m.name) {
                let samples = samples.iter().map(|s| Json::Num(*s)).collect();
                members.push(("repeats", Json::Arr(samples)));
            }
            (m.name, Json::obj(members))
        };
        let repeat = |r: &Repeat| {
            Json::obj([
                ("setup_s", Json::Num(r.host.setup_s)),
                ("measured_s", Json::Num(r.host.measured_s)),
                ("wall_s", Json::Num(r.host.wall_s)),
                ("cpu_s", Json::Num(r.host.cpu_s)),
                ("disturbed", Json::Bool(r.host.disturbed())),
            ])
        };
        let check = |c: &Check| {
            Json::obj([
                ("name", Json::str(&c.name)),
                ("passed", Json::Bool(c.passed)),
                ("detail", Json::str(c.detail.trim())),
            ])
        };
        Json::obj([
            ("schema", Json::str("lfs-benchmark/result/v1")),
            ("workload", Json::str(self.w.name())),
            ("seed", Json::Num(self.o.seed as f64)),
            ("scale", Json::Num(self.o.scale)),
            ("checks_passed", Json::Bool(self.passed())),
            ("fill_records", Json::Num(first.fill_records as f64)),
            ("main_records", Json::Num(first.main_records as f64)),
            ("failed_ops", Json::Num(first.failed_ops as f64)),
            (
                "lost_synced_tail_files",
                Json::Num(first.lost_synced as f64),
            ),
            ("end_to_end", Json::obj(END_TO_END.iter().map(metric))),
            ("per_layer", Json::obj(PER_LAYER.iter().map(metric))),
            (
                "repeats",
                Json::Arr(self.repeats.iter().map(repeat).collect()),
            ),
            ("checks", Json::Arr(self.checks.iter().map(check).collect())),
        ])
    }

    /// The driver's line: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one. A metric with no value on this
    /// workload reads 0 here; the result file carries the reason.
    fn driver_line(&self) -> Json {
        let defs = if self.o.trace { PER_LAYER } else { END_TO_END };
        let metric = |m: &MetricDef| {
            let v = self.values[m.name].num().filter(|v| v.is_finite());
            let members = [
                ("value", Json::Num(v.unwrap_or(0.0))),
                ("unit", Json::str(m.unit)),
            ];
            (m.name, Json::obj(members))
        };
        Json::obj([
            ("correct", Json::Bool(self.passed())),
            ("attempted", Json::Num(self.attempted() as f64)),
            ("failed", Json::Num(self.first().failed_ops as f64)),
            ("metrics", Json::obj(defs.iter().map(metric))),
        ])
    }
}

fn sample_note(records: u64, permille: usize) -> String {
    format!(
        "n={records} records, {} beyond",
        samples_beyond(records as usize, permille)
    )
}

fn write_file(path: &Path, content: &str) {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    fs::write(path, content).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}
