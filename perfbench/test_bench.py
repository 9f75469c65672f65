#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py

1. The checks' self-test: every check accepts a true answer and rejects
   perturbed ones (swapped expert, dropped paper, ...).
2. Every workload, serve_http too, in short mode, untraced and traced:
   the last line is the result object, the checks pass, no operation
   fails, and the metrics are exactly those BENCHMARK.json lists
   (end-to-end ones never 0).
3. In a directory holding only BENCHMARK.json and perfbench/, the command
   fails without printing a result.

Run from the root of the checkout; takes about a minute after the build.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    problems = []

    selftest = run(["--selftest", "1"])
    if selftest.returncode != 0:
        problems.append("selftest failed:\n" + selftest.stderr[-2000:])

    # serve_http is not in BENCHMARK.json (too noisy to gate, README), but
    # its run and its HTTP-body check still have to work.
    for workload in [w["name"] for w in spec["workloads"]] + ["serve_http"]:
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            tag = "%s trace=%s" % (workload, trace)
            out = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", trace, "--short", "1"])
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (tag, out.returncode, out.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if result.get("correct") is not True or result.get("failed") != 0 \
                    or result.get("attempted", 0) < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s\n%s" % (
                    tag, result.get("correct"), result.get("attempted"),
                    result.get("failed"), out.stderr[-2000:]))
            metrics = result.get("metrics", {})
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in metrics.items()}
            if got != want:
                problems.append("%s: metrics %s, want %s" % (tag, got, want))
            if trace == "0":
                zero = [k for k, v in metrics.items() if not v["value"] > 0]
                if zero:
                    problems.append("%s: end-to-end metrics read 0: %s" % (tag, zero))

    bare = os.path.join(ROOT, ".bench_run", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
               "--trace", "0"],
              cwd=bare)
    if out.returncode == 0 or out.stdout.strip():
        problems.append("bare checkout: exit %d, stdout %r" % (out.returncode, out.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("test_bench: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
