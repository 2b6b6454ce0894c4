#!/usr/bin/env bash
# Prints every leaf whose value differs between two metrics JSONs (the
# `BENCH_<name>.json` a bench binary writes), one line per leaf:
#
#   <path>: <parent value> -> <change value>
#
# with `(absent)` for a leaf only one side has. An event ring (an
# `events` array) is a sequence, not a set of leaves: one event more or
# less would shift every later index, so each ring is diffed as an
# ordered list instead, one line per event only one side has:
#
#   <path>: - <parent event>     (removed)
#   <path>: + <change event>     (added)
#
# Exits 1 if anything differs, 0 if nothing does. A re-bless
# (`bench-baseline/bench_check.sh --bless`) shows only which rows'
# digests moved; run this on each moved row's JSON from before and
# after the change to list the cells behind it:
#
#   scripts/bench_json_diff.sh OLD/BENCH_fig3_small_file.json BENCH_fig3_small_file.json
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 PARENT.json CHANGE.json" >&2; exit 2; }
name='def name: map(if type == "number" then "[\(.)]"
                   elif test("^[A-Za-z_][A-Za-z0-9_]*$") then ".\(.)"
                   else "[\(tojson)]" end) | join("");'
diffs=$(jq -rn --slurpfile a "$1" --slurpfile b "$2" "$name"'
  def leaves: [paths(type != "object" and type != "array" or length == 0) as $p
               | select($p | index("events") | not)
               | {key: ($p | name), value: getpath($p)}];
  def shown($k): if has($k) then .[$k] | tojson else "(absent)" end;
  ($a[0] | leaves) as $xs | ($b[0] | leaves) as $ys
  | ($xs | from_entries) as $x | ($ys | from_entries) as $y
  | (($xs[] | .key), ($ys[] | .key | select(. as $k | $x | has($k) | not))) as $k
  | select(($x | has($k)) != ($y | has($k)) or $x[$k] != $y[$k])
  | "\($k): \($x | shown($k)) -> \($y | shown($k))"')
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
rings=$(jq -cn --slurpfile a "$1" --slurpfile b "$2" \
    '[$a[0], $b[0] | paths(type == "array") | select(.[-1] == "events")] | unique | .[]')
while read -r ring; do
    [ -n "$ring" ] || continue
    path=$(jq -rn --argjson p "$ring" "$name"' $p | name')
    jq -c --argjson p "$ring" 'getpath($p) // [] | .[]' "$1" >"$tmp/parent"
    jq -c --argjson p "$ring" 'getpath($p) // [] | .[]' "$2" >"$tmp/change"
    diff --unchanged-line-format= --old-line-format="$path: - %L" \
        --new-line-format="$path: + %L" "$tmp/parent" "$tmp/change" >>"$tmp/events" || true
done <<<"$rings"
[ -s "$tmp/events" ] && diffs=$(printf '%s\n%s' "$diffs" "$(cat "$tmp/events")")
diffs=$(printf '%s\n' "$diffs" | sed '/^$/d')
[ -z "$diffs" ] && exit 0
printf '%s\n' "$diffs"
exit 1
