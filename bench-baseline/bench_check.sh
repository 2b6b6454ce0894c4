#!/usr/bin/env bash
# Walks `bench-baseline/ROWS`: runs each row's binary from the repo root
# and fails unless it exits 0 (the binary is the one judge of its own
# claims and vacuity guards), prints exactly the committed
# `<binary>.stdout`, and writes a `BENCH_<binary>.json` whose sha256 is
# the one in `SHA256SUMS`. Every number is virtual time, so any diff is
# a real change. The JSONs stay in the repo root (gitignored) for CI to
# upload. Each row's wall seconds and their total go to stderr (stdout
# is what is diffed): what the pinned matrix costs on the host clock.
#
# `--bless` rewrites the stdout files and `SHA256SUMS` from this tree
# instead of checking them: only after a change whose every moved
# number is listed and explained; `git diff bench-baseline/` is then the
# list.
set -uo pipefail
cd "$(dirname "$0")/.."
unset BENCH_OUT_DIR
bless=false
case "${1:-}" in
    "") ;;
    --bless) bless=true ;;
    *) echo "usage: $0 [--bless]" >&2; exit 2 ;;
esac
base=bench-baseline
out="$(mktemp)"
sums="$(mktemp)"
trap 'rm -f "$out" "$sums"' EXIT
bad=0
total=0
fail() { echo "FAIL $*" >&2; bad=1; }
while read -r bin flags; do
    case "$bin" in ""|\#*) continue ;; esac
    echo "== $bin $flags" >&2
    t0=$(date +%s.%N)
    # shellcheck disable=SC2086  # flags are a word list
    cargo run --release --offline --quiet -p lfs-bench --bin "$bin" -- $flags >"$out"
    code=$?
    wall=$(awk -v a="$t0" -v b="$(date +%s.%N)" 'BEGIN { printf "%.1f", b - a }')
    total=$(awk -v t="$total" -v w="$wall" 'BEGIN { printf "%.1f", t + w }')
    echo "   $wall s wall" >&2
    [ "$code" -eq 0 ] || fail "$bin: exit $code"
    json="BENCH_$bin.json"
    if $bless; then
        cp "$out" "$base/$bin.stdout"
        sha256sum "$json" >>"$sums" || fail "$bin: no $json"
    else
        diff -u "$base/$bin.stdout" "$out" || fail "$bin: stdout differs from $base/$bin.stdout"
        grep " $json\$" "$base/SHA256SUMS" >"$sums" || fail "$bin: no digest line for $json"
        sha256sum --check --quiet "$sums" || fail "$bin: $json differs from its committed digest"
    fi
done <"$base/ROWS"
if $bless; then
    [ "$bad" -eq 0 ] || { echo "not blessing SHA256SUMS: a row failed" >&2; exit 1; }
    cp "$sums" "$base/SHA256SUMS"
    echo "blessed; review with: git diff $base/" >&2
fi
echo "bench_check: $total s wall over all rows" >&2
[ "$bad" -eq 0 ] && echo "bench_check: all rows ok" >&2
exit "$bad"
