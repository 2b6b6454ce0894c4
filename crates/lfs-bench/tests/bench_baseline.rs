//! The committed smoke table (`bench-baseline/ROWS`) must stay in step
//! with the binaries: every row names a real binary and has its stdout
//! file and digest line, and every binary that parses `--smoke` has a
//! row. What the rows *measure* is checked by running them
//! (`bench-baseline/bench_check.sh`), not here.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

#[test]
fn the_smoke_table_matches_the_binaries() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let base = crate_dir.join("../../bench-baseline");
    let rows = fs::read_to_string(base.join("ROWS")).expect("bench-baseline/ROWS");
    let sums = fs::read_to_string(base.join("SHA256SUMS")).expect("bench-baseline/SHA256SUMS");

    let mut in_table = BTreeSet::new();
    for row in rows.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let bin = row.split_whitespace().next().expect("a binary per row");
        assert!(in_table.insert(bin.to_string()), "{bin} has two rows");
        assert!(
            crate_dir.join(format!("src/bin/{bin}.rs")).is_file(),
            "row `{row}` names a binary with no src/bin/{bin}.rs"
        );
        assert!(
            base.join(format!("{bin}.stdout")).is_file(),
            "row `{row}` has no bench-baseline/{bin}.stdout"
        );
        let digests = sums
            .lines()
            .filter(|l| l.ends_with(&format!("  BENCH_{bin}.json")))
            .count();
        assert_eq!(digests, 1, "row `{row}` needs exactly one SHA256SUMS line");
    }

    for entry in fs::read_dir(crate_dir.join("src/bin")).expect("src/bin") {
        let path = entry.expect("dir entry").path();
        let source = fs::read_to_string(&path).expect("binary source");
        let bin = path.file_stem().unwrap().to_str().unwrap();
        assert!(
            !source.contains("\"--smoke\"") || in_table.contains(bin),
            "{bin} parses --smoke but has no row in bench-baseline/ROWS"
        );
    }
}
