#!/bin/sh
# Line counts of the Rust sources under crates/*/src and src — the
# numbers ROADMAP's "tracked counts" and CHANGES entries quote.
#
#   total     every line of every .rs file
#   non-test  the same, without *tests.rs files and without in-file
#             `#[cfg(test)] mod … { … }` blocks (attribute line included)
#   code      non-test lines that are neither blank nor a `//` comment
#
# With --per-file, one "total non-test code path" row per file follows
# the totals (diff two commits' tables to see where lines went). With
# --per-crate, one such row per crates/<name> (and one for the root
# src) follows instead: which crate a change shrank or grew.
#
# With --knobs, the option and interface counts instead, by the
# definition `bench-baseline/KNOBS` and its test use (a textual scan of
# the same files, the offline shims crates/proptest and crates/rand
# excepted):
#
#   fields    `    pub <name>:` lines of every top-level
#             `pub struct <X>{Config,Policy,Spec} {`
#   <Enum>    variants of StripePolicyKind, CachePolicy, CleanerPolicy,
#             CleanerRunMode (one-indent lines that open with a capital)
#   <Trait>   `fn` items of FileSystem, BlockDevice, NodeStore
#   instruments  `<field>, Counter|Gauge|Hist, "<name>", …` lines of the
#             `obs::instruments!` declarations — the declared metric names
#
# Runs from any cwd; counts the tree the script sits in.
set -eu
cd "$(dirname "$0")/.."
if [ "${1:-}" = "--knobs" ]; then
    find crates/*/src src -name '*.rs' | grep -v -e '^crates/proptest/' -e '^crates/rand/' |
        LC_ALL=C sort | xargs awk '
    /^pub struct [A-Za-z0-9]*(Config|Policy|Spec) *\{/ { kind = "fields"; structs++; next }
    /^pub enum (StripePolicyKind|CachePolicy|CleanerPolicy|CleanerRunMode) *\{/ { kind = $3; next }
    /^pub trait (FileSystem|BlockDevice|NodeStore)[ :<{]/ { kind = $3; sub(/[:<{].*/, "", kind); next }
    /^\}/ { kind = ""; next }
    kind == "fields" && /^    pub [a-z_0-9]+:/ { n[kind]++ }
    kind ~ /Kind$|Policy$|Mode$/ && /^    [A-Z][A-Za-z0-9]*/ { n[kind]++ }
    kind ~ /^(FileSystem|BlockDevice|NodeStore)$/ && /^    fn / { n[kind]++ }
    /^ +[a-z_0-9]+, (Counter|Gauge|Hist), "/ { n["instruments"]++ }
    END {
        printf "fields           %3d  (pub fields of %d *Config/*Policy/*Spec structs)\n", n["fields"], structs
        split("StripePolicyKind CachePolicy CleanerPolicy CleanerRunMode FileSystem BlockDevice NodeStore", order, " ")
        for (i = 1; i <= 7; i++) printf "%-16s %3d\n", order[i], n[order[i]]
        printf "instruments      %3d\n", n["instruments"]
    }'
    printf "KNOBS lines      %3d\n" "$(grep -c '^[A-Za-z]' bench-baseline/KNOBS)"
    exit 0
fi
by=
[ "${1:-}" = "--per-file" ] && by=file
[ "${1:-}" = "--per-crate" ] && by=crate

find crates/*/src src -name '*.rs' | LC_ALL=C sort | xargs awk -v by="$by" '
function row(t, n, c, path) { return sprintf("%6d %6d %6d  %s\n", t, n, c, path) }
function flush_file() {
    if (file == "") return
    if (by == "file") rows = rows row(f_total, f_nontest, f_code, file)
    total += f_total; nontest += f_nontest; code += f_code
    crate = file; sub(/\/src\/.*/, "", crate); sub(/^src\/.*/, "src", crate)
    if (!(crate in c_total)) crates[++ncrates] = crate
    c_total[crate] += f_total; c_nontest[crate] += f_nontest; c_code[crate] += f_code
}
FNR == 1 {
    flush_file()
    file = FILENAME
    f_total = f_nontest = f_code = 0
    test_file = (file ~ /tests\.rs$/)
    pending = depth = in_test = 0
}
{
    f_total++
    if (test_file) next
    if (in_test) {
        depth += gsub(/\{/, "{") - gsub(/\}/, "}")
        if (depth <= 0) in_test = 0
        next
    }
    if (pending) {
        # The line after #[cfg(test)]: an inline module opens a block
        # to skip; anything else (a `mod x;`, a test-only fn) is kept
        # along with its attribute.
        pending = 0
        if ($0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/) {
            depth = gsub(/\{/, "{") - gsub(/\}/, "}")
            in_test = (depth > 0)
            next
        }
        f_nontest++; f_code++
    }
    if ($0 ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/) { pending = 1; next }
    f_nontest++
    if ($0 !~ /^[ \t]*$/ && $0 !~ /^[ \t]*\/\//) f_code++
}
END {
    flush_file()
    if (by == "crate") for (i = 1; i <= ncrates; i++) {
        c = crates[i]
        rows = rows row(c_total[c], c_nontest[c], c_code[c], c)
    }
    printf "total     %6d\nnon-test  %6d\ncode      %6d\n", total, nontest, code
    if (by != "") printf "\n%6s %6s %6s  %s\n%s", "total", "nontst", "code", by, rows
}'
