#!/usr/bin/env python3
"""Builds and runs the Lumos end-to-end benchmark (bench_e2e).

    python3 bench_e2e/run.py --workload cold-trace --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --selfcheck     # every workload and check, tiny model
    python3 bench_e2e/run.py --stages        # the per-stage table of both paths

Run from the repository root. The benchmark is built from source into
.bench_build/ (Release). Each run prints every metric by name, with its unit
and sample count, then the makespan digest, and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. Every run also appends a host-stamped record to
.bench_build/records.ndjson; bench_e2e/compare.py compares two such files.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "bench_e2e"
RUN_TIMEOUT_S = 170
WORKLOADS = ["cold-trace", "rebuild-grid", "replay-grid", "serve-mix"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_e2e; returns False on failure."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    try:
        if not any((CMAKE_DIR / f).exists()
                   for f in ("build.ninja", "Makefile")):
            cmd = ["cmake", "-S", str(ROOT / "bench_e2e"), "-B", str(CMAKE_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(["ninja", "--version"], capture_output=True,
                              check=False).returncode == 0:
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(CMAKE_DIR), "--target",
                        "bench_e2e", "-j", jobs], check=True,
                       stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"bench_e2e: build failed: {err}")
        return False
    return BINARY.exists()


def source_version():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in files + [ROOT / "CMakeLists.txt"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return "src-" + h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(record):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "compiler": record.get("compiler", "unknown"),
        "build_type": record.get("build_type", "unknown"),
        "source": source_version(),
    }


def run_binary(args):
    """Runs the benchmark binary; returns its record dict or None."""
    try:
        proc = subprocess.run([str(BINARY)] + args, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"bench_e2e: timed out after {RUN_TIMEOUT_S} s")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"bench_e2e: exit code {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("bench_e2e: last output line is not a record")
        return None


def print_table(record):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{'traced' if record['traced'] else 'untraced'}")
    print(f"  {'metric':44s} {'value':>14s} {'unit':6s} samples")
    for name, m in record["metrics"].items():
        note = f" ({m['note']})" if m["note"] else ""
        samples = m["samples"] if m["samples"] else "-"
        print(f"  {name:44s} {m['value']:14.4f} {m['unit']:6s} "
              f"{samples}{note}")
    if record["layer_self_ms"]:
        split = ", ".join(f"{k} {v:.1f}" for k, v in
                          sorted(record["layer_self_ms"].items()))
        print(f"  layer self time in the traced loop (ms): {split}")
    ops = record["attempted"]
    print(f"  operations {ops}, failed {record['failed']} "
          f"(failed_ops_frac {record['failed'] / max(ops, 1):.6f})")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  makespan digest {record['digest']} "
          f"({record['digest_entries']} simulated results)")


def result_line(record, names):
    """The final line, or None when a named metric is missing."""
    metrics = {}
    for name in names:
        m = record["metrics"].get(name)
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            log(f"bench_e2e: metric {name} missing from the record")
            return None
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": metrics})


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_names(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def selfcheck():
    """Every workload, untraced and traced, on the tiny model."""
    spec = load_spec()
    ok = True
    for workload in WORKLOADS:
        digests = []
        for trace in (0, 1):
            record = run_binary(["--workload", workload, "--seed", "1",
                                 "--seconds", "0.5", "--trace", str(trace),
                                 "--tiny"])
            if record is None:
                print(f"FAIL {workload} trace={trace}: no record")
                ok = False
                continue
            missing = [n for n in metric_names(spec, trace)
                       if n not in record["metrics"]]
            good = record["failed"] == 0 and not missing
            digests.append(record["digest"])
            print(f"{'PASS' if good else 'FAIL'} {workload} trace={trace}: "
                  f"{record['attempted']} ops, {record['failed']} failed, "
                  f"digest {record['digest']}"
                  + (f", missing {missing}" if missing else ""))
            for failure in record["failures"]:
                print(f"     {failure}")
            ok = ok and good
        if len(digests) == 2 and digests[0] != digests[1]:
            print(f"FAIL {workload}: digest differs between untraced and "
                  "traced runs")
            ok = False
    print("self-check", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed-loop length (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", default=str(BUILD / "records.ndjson"),
                        help="NDJSON file the host-stamped record is "
                             "appended to")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--stages", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    if args.selfcheck:
        return selfcheck()
    if args.stages:
        proc = subprocess.run([str(BINARY), "--stages", "--seed",
                               str(args.seed)], cwd=ROOT, check=False,
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode
    if args.workload is None:
        parser.error("--workload is required")

    spec = load_spec()
    names = metric_names(spec, args.trace)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    bin_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        bin_args += ["--spans", str(spans_dir /
                                    f"{args.workload}-seed{args.seed}.json")]
    record = run_binary(bin_args)
    if record is None:
        return 1
    record["host"] = fingerprint(record)
    with open(args.records, "a", encoding="utf-8") as out:
        out.write(json.dumps(record) + "\n")
    print_table(record)
    line = result_line(record, names)
    if line is None:
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
