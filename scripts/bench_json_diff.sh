#!/usr/bin/env bash
# Prints every leaf whose value differs between two metrics JSONs (the
# `BENCH_<name>.json` a bench binary writes), one line per leaf:
#
#   <path>: <parent value> -> <change value>
#
# with `(absent)` for a leaf only one side has, and exits 1 if any leaf
# differs, 0 if none does. A re-bless (`bench-baseline/bench_check.sh
# --bless`) shows only which rows' digests moved; run this on each moved
# row's JSON from before and after the change to list the cells behind it:
#
#   scripts/bench_json_diff.sh OLD/BENCH_fig3_small_file.json BENCH_fig3_small_file.json
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 PARENT.json CHANGE.json" >&2; exit 2; }
diffs=$(jq -rn --slurpfile a "$1" --slurpfile b "$2" '
  def name: map(if type == "number" then "[\(.)]"
                elif test("^[A-Za-z_][A-Za-z0-9_]*$") then ".\(.)"
                else "[\(tojson)]" end) | join("");
  def leaves: [paths(type != "object" and type != "array" or length == 0) as $p
               | {key: ($p | name), value: getpath($p)}];
  def shown($k): if has($k) then .[$k] | tojson else "(absent)" end;
  ($a[0] | leaves) as $xs | ($b[0] | leaves) as $ys
  | ($xs | from_entries) as $x | ($ys | from_entries) as $y
  | (($xs[] | .key), ($ys[] | .key | select(. as $k | $x | has($k) | not))) as $k
  | select(($x | has($k)) != ($y | has($k)) or $x[$k] != $y[$k])
  | "\($k): \($x | shown($k)) -> \($y | shown($k))"')
[ -z "$diffs" ] && exit 0
printf '%s\n' "$diffs"
exit 1
