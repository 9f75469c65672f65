#!/usr/bin/env python3
"""Builds the expert-search benchmark from the checkout and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py ... --short 1     # fifth-size corpus, one part
    python3 perfbench/run.py --selftest 1      # the checks' own test

Run from the root of the checkout. The first call configures and builds
(Release) into .bench_build/; later calls rebuild only what changed.
Build output goes to stderr; the last stdout line is the JSON result.

An untraced run is PARTS parts, each a fresh process that sets up, then
measures S / PARTS seconds and checks its answers. The result is the
median of each metric over the parts (set-up time, peak RSS and the
query figures alike, and the unbounded latency tail in the provenance
block), and the sum of their operation counts: the parts
fall at different moments, so one slow stretch of a shared host moves
one part, not the median. Traced runs are one process measuring S.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "kpef_perfbench")
PARTS = 5


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "kpef_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def run_part(flags):
    args = [BINARY] + [x for kv in flags.items() for x in kv]
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        return None
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def merge(parts):
    provenance = dict(parts[0][0])
    provenance["parts"] = len(parts)
    provenance["seconds"] = sum(p[0]["seconds"] for p in parts)
    ops = {}
    for prov, _ in parts:
        for kind, counts in prov["operations"].items():
            total = ops.setdefault(kind, {"attempted": 0, "failed": 0})
            total["attempted"] += counts["attempted"]
            total["failed"] += counts["failed"]
    provenance["operations"] = ops
    provenance["tail_ms"] = {
        q: statistics.median(p[0]["tail_ms"][q] for p in parts)
        for q in parts[0][0]["tail_ms"]}
    results = [p[1] for p in parts]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    result = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    return provenance, result


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    argv = sys.argv[1:] + ["--work-dir", os.path.join(ROOT, ".bench_run"),
                           "--out-dir", os.path.join(ROOT, ".bench_out")]
    flags = dict(zip(argv[0::2], argv[1::2]))
    single = (len(argv) % 2 != 0 or "--workload" not in flags
              or flags.get("--trace") != "0" or flags.get("--short", "0") != "0")
    if single:
        sys.stdout.flush()
        os.execv(BINARY, [BINARY] + argv)
    try:
        part_seconds = float(flags["--seconds"]) / PARTS
    except (KeyError, ValueError):
        os.execv(BINARY, [BINARY] + argv)  # let the benchmark report it
    parts = []
    for _ in range(PARTS):
        part = run_part(dict(flags, **{"--seconds": repr(part_seconds)}))
        if part is None:
            print("perfbench: a part failed", file=sys.stderr)
            return 1
        parts.append(part)
    provenance, result = merge(parts)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
