//! The committed knob table (`bench-baseline/KNOBS`) must stay in step
//! with the source: every `pub` field of every `*Config` / `*Policy` /
//! `*Spec` struct and every variant of the four policy enums has exactly
//! one line, every line names something that exists, and every
//! justification cites a real `ROWS` binary, `BENCHMARK.json` workload
//! or test file. Whether a cited row's numbers really move is checked
//! by flipping the knob and running `bench-baseline/bench_check.sh`,
//! not here. `scripts/loc.sh --knobs` counts by the same definition.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const ENUMS: [&str; 4] = [
    "StripePolicyKind",
    "CachePolicy",
    "CleanerPolicy",
    "CleanerRunMode",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `Struct.field` / `Enum::Variant` for every knob in the tree, by a
/// textual scan: top-level `pub struct <X>{Config,Policy,Spec} {` /
/// `pub enum <E> {` opens a block, a `}` in column 0 closes it, and
/// inside it one-indent `pub <name>:` lines (fields) or lines opening
/// with a capital (variants) are the knobs.
fn knobs_in_source(repo: &Path) -> Vec<String> {
    let mut files = Vec::new();
    rust_files(&repo.join("src"), &mut files);
    for entry in fs::read_dir(repo.join("crates")).expect("crates/") {
        let krate = entry.expect("dir entry").path();
        let name = krate.file_name().unwrap().to_str().unwrap().to_string();
        // Offline stand-ins for third-party crates: not our options.
        if name != "proptest" && name != "rand" {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    let mut knobs = Vec::new();
    for file in files {
        let mut block: Option<(String, bool)> = None;
        for line in fs::read_to_string(&file).expect("source file").lines() {
            if line.starts_with('}') {
                block = None;
            } else if let Some(rest) = line.strip_prefix("pub struct ") {
                let name: String = rest.chars().take_while(|c| c.is_alphanumeric()).collect();
                let is_knob_struct = ["Config", "Policy", "Spec"].iter().any(|s| name.ends_with(s));
                if is_knob_struct && rest[name.len()..].trim_start().starts_with('{') {
                    block = Some((name, false));
                }
            } else if let Some(rest) = line.strip_prefix("pub enum ") {
                let name: String = rest.chars().take_while(|c| c.is_alphanumeric()).collect();
                if ENUMS.contains(&name.as_str()) {
                    block = Some((name, true));
                }
            } else if let (Some((owner, is_enum)), Some(item)) = (&block, line.strip_prefix("    ")) {
                if *is_enum {
                    if item.starts_with(|c: char| c.is_ascii_uppercase()) {
                        let variant: String =
                            item.chars().take_while(|c| c.is_alphanumeric()).collect();
                        knobs.push(format!("{owner}::{variant}"));
                    }
                } else if let Some(field) = item.strip_prefix("pub ") {
                    if let Some((name, _)) = field.split_once(':') {
                        if name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
                            knobs.push(format!("{owner}.{name}"));
                        }
                    }
                }
            }
        }
    }
    knobs
}

#[test]
fn the_knob_table_matches_the_source() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = crate_dir.join("../..");
    let base = repo.join("bench-baseline");
    let table = fs::read_to_string(base.join("KNOBS")).expect("bench-baseline/KNOBS");
    let rows: BTreeSet<String> = fs::read_to_string(base.join("ROWS"))
        .expect("bench-baseline/ROWS")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect();
    let manifest = fs::read_to_string(repo.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads_at = manifest.find("\"workloads\"").expect("workloads in BENCHMARK.json");
    let workloads = &manifest[workloads_at..manifest.find("\"end_to_end\"").expect("end_to_end")];

    let mut listed = BTreeSet::new();
    let mut fences = 0;
    for line in table.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (entry, note) = match line.split_once('#') {
            Some((entry, note)) => (entry, note.trim()),
            None => (line, ""),
        };
        let mut words = entry.split_whitespace();
        let name = words.next().expect("a knob per line");
        assert!(listed.insert(name.to_string()), "{name} has two KNOBS lines");
        let kind = words.next().unwrap_or_else(|| panic!("{name}: no justification"));
        let arg = words.next();
        assert_eq!(words.next(), None, "{name}: trailing words before the note");
        match (kind, arg) {
            ("shape", None) | ("wired", None) => {}
            ("row", Some(bin)) => {
                assert!(rows.contains(bin), "{name}: `{bin}` is not a bench-baseline/ROWS binary")
            }
            ("workload", Some(w)) => assert!(
                workloads.contains(&format!("{{\"name\": \"{w}\"")),
                "{name}: `{w}` is not a BENCHMARK.json workload"
            ),
            ("fence", Some(test)) => {
                fences += 1;
                assert!(repo.join(test).is_file(), "{name}: fence test {test} does not exist");
                assert!(
                    test.contains("/tests/") && !note.is_empty(),
                    "{name}: a fence cites an integration test and names its safety property"
                );
                let field = name.split_once('.').expect("fenced knobs are fields").1;
                let source = fs::read_to_string(repo.join(test)).expect("fence test source");
                assert!(source.contains(field), "{name}: {test} never mentions `{field}`");
            }
            _ => panic!("{name}: `{kind}` is not one of row/workload/shape/wired/fence"),
        }
    }

    let in_source = knobs_in_source(&repo);
    let unique: BTreeSet<String> = in_source.iter().cloned().collect();
    assert_eq!(unique.len(), in_source.len(), "two knobs share a name: {in_source:?}");
    let unlisted: Vec<_> = unique.difference(&listed).collect();
    assert!(unlisted.is_empty(), "in source with no bench-baseline/KNOBS line: {unlisted:?}");
    let dead: Vec<_> = listed.difference(&unique).collect();
    assert!(dead.is_empty(), "bench-baseline/KNOBS lines naming nothing in source: {dead:?}");
    // Every enum the table promises to cover was actually found.
    for e in ENUMS {
        assert!(unique.iter().any(|k| k.starts_with(&format!("{e}::"))), "enum {e} not found");
    }
    assert!(fences <= 5, "{fences} fence lines: a new one needs the PR to argue for it");
}
