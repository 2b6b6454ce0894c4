//! `BENCHMARK.json`, generated from the catalogue so the file the
//! driver reads cannot drift from what the benchmark reports.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workload::Workload;

/// How long one driver run measures: untraced repeats continue until
/// this many seconds have passed (three to nine repeats).
pub const RUN_SECONDS: u64 = 20;

/// The driver appends `--workload <name> --seed <n> --seconds <s>
/// --trace <0|1>`.
const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

fn metric(m: &MetricDef) -> Json {
    let mut members = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        (
            "better",
            Json::str(if m.higher_is_better {
                "higher"
            } else {
                "lower"
            }),
        ),
    ];
    if let Some(bound) = m.bound {
        members.push(("bound", Json::Num(bound)));
    }
    Json::obj(members)
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
    .pretty()
}
