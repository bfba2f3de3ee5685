#!/usr/bin/env python3
"""Compares two sets of bench_e2e records (NDJSON, as run.py appends them).

    python3 bench_e2e/compare.py BASE.ndjson NEW.ndjson

For every workload it takes the median of each end-to-end metric over the
untraced records of each file and prints the change, judged against the
metric's bound in BENCHMARK.json. Records carry a host fingerprint (nproc,
CPU model, compiler, build type); when the two sides were measured on
different hosts the workload reads "different host" instead of a delta.
Makespan digests are compared seed by seed: a speed-only change must leave
every one of them unchanged.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("nproc", "cpu", "compiler", "build_type")


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def host(record):
    h = record.get("host", {})
    return tuple(h.get(k) for k in HOST_KEYS)


def by_workload(records):
    out = {}
    for r in records:
        if not r.get("traced"):
            out.setdefault(r["workload"], []).append(r)
    return out


def quartile_spread(values):
    if len(values) < 2:
        return float("nan")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = by_workload(load(sys.argv[1]))
    new = by_workload(load(sys.argv[2]))
    status = 0
    for workload in sorted(set(base) | set(new)):
        a, b = base.get(workload, []), new.get(workload, [])
        if not a or not b:
            print(f"{workload}: only one side has records")
            continue
        hosts = {host(r) for r in a + b}
        if len(hosts) != 1:
            print(f"{workload}: different host, no delta "
                  f"({' vs '.join(str(h) for h in sorted(hosts, key=str))})")
            continue
        print(f"{workload}: {len(a)} vs {len(b)} runs on "
              f"{a[0]['host']['nproc']} x {a[0]['host']['cpu']}")
        for m in spec["end_to_end"]:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in a
                  if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b
                  if name in r["metrics"]]
            if not va or not vb:
                print(f"  {name:16s} missing")
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else float("nan")
            worse = change if m["better"] == "lower" else -change
            verdict = "worse beyond bound" if worse > m["bound"] else "ok"
            if worse > m["bound"]:
                status = 1
            print(f"  {name:16s} {ma:12.4f} -> {mb:12.4f} {m['unit']:4s} "
                  f"{change * 100:+7.2f}%  (spread {quartile_spread(va):.3f}"
                  f" / {quartile_spread(vb):.3f}, bound {m['bound']}) "
                  f"{verdict}")
        digests_a = {r["seed"]: r["digest"] for r in a}
        digests_b = {r["seed"]: r["digest"] for r in b}
        shared = sorted(set(digests_a) & set(digests_b))
        changed = [s for s in shared if digests_a[s] != digests_b[s]]
        if not shared:
            print("  makespan digests: no seed in common")
        else:
            print(f"  makespan digests: {len(shared) - len(changed)} of "
                  f"{len(shared)} shared seeds unchanged"
                  + (f", changed on seeds {changed}" if changed else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
