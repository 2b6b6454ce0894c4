//! The benchmark's own tests: the inputs are reproducible and well
//! formed, the tracing wrapper is transparent, the committed manifest
//! and README match the catalogue, and every workload runs end to end
//! (scaled down) with every check passing.

use std::path::PathBuf;

use lfs_benchmark::bench::{run_workload, Options};
use lfs_benchmark::manifest::manifest;
use lfs_benchmark::metrics::{END_TO_END, PER_LAYER};
use lfs_benchmark::spanfs::{SpanFs, SpanLog};
use lfs_benchmark::workload::Workload;
use sim_disk::Clock;
use trace::{snapshot, Trace};
use vfs::model::ModelFs;
use vfs::FileSystem;

const SCALE: f64 = 0.02;

#[test]
fn same_seed_same_text_and_another_seed_differs() {
    for w in Workload::ALL {
        let a = w.generate(7, SCALE);
        assert_eq!(a, w.generate(7, SCALE), "{} is not reproducible", w.name());
        let b = w.generate(8, SCALE);
        assert_ne!(a.main, b.main, "{} ignores its seed", w.name());
    }
}

#[test]
fn generated_text_round_trips_through_the_parser() {
    for w in Workload::ALL {
        let pair = w.generate(3, SCALE);
        for text in [&pair.fill, &pair.main] {
            let parsed = Trace::parse(text).expect("generated text parses");
            assert!(!parsed.records.is_empty());
            let again = Trace::parse(&parsed.to_text()).expect("serialised trace parses");
            assert_eq!(parsed, again, "{} does not round-trip", w.name());
        }
    }
}

/// Ids ascend in file order and edges point at smaller ids, so feeding
/// the records to the model in id order respects every edge.
#[test]
fn dependency_edges_point_backwards() {
    let mut edges = 0;
    for w in Workload::ALL {
        let pair = w.generate(5, SCALE);
        for text in [&pair.fill, &pair.main] {
            let trace = Trace::parse(text).unwrap();
            for (i, r) in trace.records.iter().enumerate() {
                assert_eq!(r.id, i as u64, "{}: ids are not 0, 1, 2, …", w.name());
                assert!(
                    r.deps.iter().all(|d| *d < r.id),
                    "{}: forward edge",
                    w.name()
                );
                edges += r.deps.len();
            }
        }
    }
    assert!(
        edges > 0,
        "no workload has an explicit edge: the check is vacuous"
    );
}

/// Every `FileSystem` method, through the wrapper and bare, on a model
/// file system: same results, same final state, one span per call.
#[test]
fn spanfs_forwards_every_method() {
    fn script(fs: &mut dyn FileSystem) -> Vec<String> {
        let mut seen = Vec::new();
        let mut note = |what: &str, result: String| seen.push(format!("{what}: {result}"));
        fs.set_active_client(Some(3));
        note("mkdir", format!("{:?}", fs.mkdir("/d")));
        let ino = fs.create("/d/a").unwrap();
        note(
            "write_at",
            format!("{:?}", fs.write_at(ino, 0, b"hello world")),
        );
        let mut buf = [0u8; 5];
        note(
            "read_at",
            format!("{:?} {buf:?}", fs.read_at(ino, 6, &mut buf)),
        );
        note("truncate", format!("{:?}", fs.truncate(ino, 5)));
        note(
            "stat",
            format!("{:?}", fs.stat(ino).map(|m| (m.kind, m.size, m.nlink))),
        );
        note("lookup", format!("{:?}", fs.lookup("/d/a") == Ok(ino)));
        note("link", format!("{:?}", fs.link("/d/a", "/d/b")));
        note("rename", format!("{:?}", fs.rename("/d/b", "/d/c")));
        note("unlink", format!("{:?}", fs.unlink("/d/a")));
        note(
            "write_file",
            format!("{:?}", fs.write_file("/d/w", b"whole").is_ok()),
        );
        note("read_file", format!("{:?}", fs.read_file("/d/c")));
        let mut names: Vec<String> = fs
            .readdir("/d")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        names.sort();
        note("readdir", format!("{names:?}"));
        note("fsync", format!("{:?}", fs.fsync(ino)));
        note("sync", format!("{:?}", fs.sync()));
        note("drop_caches", format!("{:?}", fs.drop_caches()));
        note(
            "fs_stats",
            format!("{:?}", fs.fs_stats().map(|s| s.live_inodes)),
        );
        note("mkdir again", format!("{:?}", fs.mkdir("/e")));
        note("rmdir", format!("{:?}", fs.rmdir("/e")));
        fs.set_active_client(None);
        seen
    }

    let mut bare = ModelFs::new();
    let bare_results = script(&mut bare);

    let mut inner = ModelFs::new();
    let (log, clock) = (SpanLog::default(), Clock::new());
    let wrapped_results = log.phase("script", &clock, || {
        script(&mut SpanFs::new(&mut inner, &log, &clock))
    });

    assert_eq!(bare_results, wrapped_results);
    assert_eq!(snapshot(&mut bare).unwrap(), snapshot(&mut inner).unwrap());
    let (_, calls) = log.phase_totals("script").unwrap();
    let every_method = [
        "lookup",
        "create",
        "mkdir",
        "unlink",
        "rmdir",
        "rename",
        "link",
        "read_at",
        "write_at",
        "truncate",
        "stat",
        "readdir",
        "fsync",
        "sync",
        "drop_caches",
        "fs_stats",
        "set_active_client",
        "write_file",
        "read_file",
    ];
    for method in every_method {
        assert!(calls.contains_key(method), "no span for {method}");
    }
    assert_eq!(calls.len(), every_method.len());
}

fn repo_file(relative: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `BENCHMARK.json` is generated: `lfs-benchmark manifest` prints it.
#[test]
fn committed_manifest_is_the_generated_one() {
    assert_eq!(repo_file("../BENCHMARK.json"), manifest());
}

#[test]
fn readme_names_every_metric_and_workload() {
    let readme = repo_file("README.md");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            readme.contains(&format!("`{}`", m.name)),
            "README.md lacks `{}`",
            m.name
        );
    }
    for w in Workload::ALL {
        assert!(
            readme.contains(&format!("`{}`", w.name())),
            "README.md lacks `{}`",
            w.name()
        );
    }
}

/// The whole command, traced pass included, on every workload.
#[test]
fn every_workload_passes_its_checks_scaled_down() {
    for w in Workload::ALL {
        let options = Options {
            seed: 42,
            scale: SCALE,
            repeats: 2,
            seconds: 0.0,
            trace: true,
            out: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("selftest"),
        };
        assert!(run_workload(w, &options), "{} failed a check", w.name());
        let trace = std::fs::read_to_string(options.out.join(format!("{}.trace.json", w.name())))
            .expect("the traced pass writes a Chrome trace");
        assert!(trace.starts_with("{\"displayTimeUnit\"") && trace.trim_end().ends_with("]}"));
    }
}
