//! The repo's one benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! lfs-benchmark run --workload <name|all> [--seed N] [--seconds S]
//!                   [--repeats N] [--trace 0|1] [--scale F] [--out DIR]
//! lfs-benchmark drill [--seed N]
//! lfs-benchmark manifest            # prints BENCHMARK.json
//! ```

use std::path::PathBuf;
use std::process::{exit, Command};

use lfs_benchmark::bench::{run_workload, Options};
use lfs_benchmark::drill;
use lfs_benchmark::manifest::manifest;
use lfs_benchmark::metrics::Value;
use lfs_benchmark::workload::Workload;

const USAGE: &str = "usage: lfs-benchmark run --workload <smallfile|hotcold_churn|array_mix|office_replay|all> \
[--seed N] [--seconds S] [--repeats N] [--trace 0|1] [--scale F] [--out DIR]\n       lfs-benchmark drill [--seed N]\n       lfs-benchmark manifest";

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    exit(2)
}

fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value '{value}' for {flag}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, flags)) = args.split_first() else {
        usage("missing command")
    };
    let mut workload = None;
    let mut o = Options {
        seed: 1,
        scale: 1.0,
        repeats: 3,
        seconds: 0.0,
        trace: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        let mut value = || {
            flags
                .next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value().clone()),
            "--seed" => o.seed = parsed(flag, value()),
            "--seconds" => o.seconds = parsed(flag, value()),
            "--repeats" => o.repeats = parsed(flag, value()),
            "--scale" => o.scale = parsed(flag, value()),
            "--out" => o.out = PathBuf::from(value()),
            "--trace" => {
                o.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage(&format!("bad value '{other}' for --trace")),
                }
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    match command.as_str() {
        "manifest" => print!("{}", manifest()),
        "drill" => {
            for (name, value) in drill::run_all(o.seed) {
                if let Value::Num(v) = value {
                    println!("{name:<34} {v:>14.2}");
                }
            }
        }
        "run" => match workload.as_deref() {
            None => usage("run needs --workload"),
            // One process per workload, one after the other, so that
            // peak RSS is each workload's own.
            Some("all") => {
                let exe = std::env::current_exe().expect("path of this executable");
                let mut failed = Vec::new();
                for w in Workload::ALL {
                    let status = Command::new(&exe)
                        .args(
                            args.iter()
                                .map(|a| if a == "all" { w.name() } else { a.as_str() }),
                        )
                        .status()
                        .expect("re-execute for one workload");
                    if !status.success() {
                        failed.push(w.name());
                    }
                }
                if !failed.is_empty() {
                    eprintln!("checks failed on: {failed:?}");
                    exit(1);
                }
            }
            Some(name) => {
                let w = Workload::parse(name)
                    .unwrap_or_else(|| usage(&format!("unknown workload '{name}'")));
                if !run_workload(w, &o) {
                    exit(1);
                }
            }
        },
        other => usage(&format!("unknown command '{other}'")),
    }
}
