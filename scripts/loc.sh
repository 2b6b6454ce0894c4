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
# the totals (diff two commits' tables to see where lines went).
# Runs from any cwd; counts the tree the script sits in.
set -eu
cd "$(dirname "$0")/.."
per_file=0
[ "${1:-}" = "--per-file" ] && per_file=1

find crates/*/src src -name '*.rs' | LC_ALL=C sort | xargs awk -v per_file="$per_file" '
function flush_file() {
    if (file == "") return
    if (per_file) rows = rows sprintf("%6d %6d %6d  %s\n", f_total, f_nontest, f_code, file)
    total += f_total; nontest += f_nontest; code += f_code
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
    printf "total     %6d\nnon-test  %6d\ncode      %6d\n", total, nontest, code
    if (per_file) printf "\n%6s %6s %6s  %s\n%s", "total", "nontst", "code", "file", rows
}'
