#!/usr/bin/env bash
# Runs `run --workload all` twice on the same tree and fails unless the
# two sets agree: every exact metric (virtual time, counts) bit for bit,
# every host metric within its bound from BENCHMARK.json. Prints the
# spread it saw, so that a bound is only ever widened with the numbers
# shown here. Extra arguments go to `run` (e.g. `--seed 7 --repeats 5`).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$here/out/check-repeat"
rm -rf "$out"
mkdir -p "$out"
for set in a b; do
    echo "== set $set" >&2
    if ! cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
        run --workload all --out "$out/$set" "$@" >"$out/$set.log"; then
        echo "set $set failed a check; see $out/$set.log" >&2
        exit 1
    fi
done
python3 - "$here/../BENCHMARK.json" "$out/a" "$out/b" <<'PY'
import json, sys
manifest, a_dir, b_dir = sys.argv[1:]
manifest = json.load(open(manifest))
bounds = {m["name"]: m for m in manifest["end_to_end"]}
total_bad = 0
for w in (w["name"] for w in manifest["workloads"]):
    a = json.load(open(f"{a_dir}/{w}.json"))
    b = json.load(open(f"{b_dir}/{w}.json"))
    print(f"== {w}")
    bad = 0
    for kind in ("end_to_end", "per_layer"):
        for name, ma in a[kind].items():
            mb = b[kind][name]
            va, vb = ma.get("value"), mb.get("value")
            if ma["exact"]:
                if va != vb:
                    bad += 1
                    print(f"  FAIL {name}: exact metric differs: {va!r} vs {vb!r}")
            elif name in bounds and va and vb:
                higher = bounds[name]["better"] == "higher"
                worse = (va - vb) / va if higher else (vb - va) / va
                verdict = f"{100 * abs(worse):.1f}% {'worse' if worse > 0 else 'better'}"
                spread = abs(va - vb) / min(va, vb)
                ok = spread <= bounds[name]["bound"]
                bad += not ok
                print(f"  {'ok  ' if ok else 'FAIL'} {name}: {va:.6g} vs {vb:.6g} {ma['unit']}, "
                      f"spread {100 * spread:.1f}% (second set {verdict}), "
                      f"bound {100 * bounds[name]['bound']:.0f}%")
    if not bad:
        print("  exact metrics identical, host metrics within bound")
    total_bad += bad
sys.exit(1 if total_bad else 0)
PY
