#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does), then runs every workload at
reduced size (--small: CG and HPL at 16 ranks, the
fat-trees at 64) with --trace 0 and --trace 1. Each run must exit 0, pass
every output check (correct, no failed job), print every metric
BENCHMARK.json names for that mode as a "metric NAME VALUE UNIT" line and
in the JSON result with the same unit, and nothing else; a traced run must
also write its span file. Exits 0 when everything passes.
"""
import json
import os
import subprocess
import sys

import run

# Every workload the benchmark defines, including fattree-storm-1024, which
# BENCHMARK.json leaves out (README.md, "Workloads and why").
WORKLOADS = ("cg-restart-128", "fattree-storm-1024", "fattree-storm-512",
             "hpl-faults-drain-128")


def check_run(workload, trace, spec):
    """Returns the list of problems found in one reduced-size run."""
    spans = os.path.join(run.BUILD, "spans", f"{workload}-seed7-small.jsonl")
    if os.path.exists(spans):
        os.remove(spans)
    cmd = [run.BINARY, "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last line is not a JSON result"]

    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("output checks failed: " + "; ".join(
            l for l in lines if l.startswith("CHECK FAILED")))
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"attempted {result.get('attempted')} "
                        f"failed {result.get('failed')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            problems.append(f"JSON lacks {m['name']} [{m['unit']}]")
        if printed.get(m["name"]) != m["unit"]:
            problems.append(f"no metric line for {m['name']} [{m['unit']}]")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unlisted metrics {sorted(extra)}")
    if trace and not (os.path.exists(spans) and os.path.getsize(spans) > 0):
        problems.append("no span file written")
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        run.build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"selftest: build failed: {err}")
        return 1
    failures = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            problems = check_run(name, trace, spec)
            status = "ok" if not problems else "FAIL"
            print(f"{status:4} {name} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    print("selftest passed" if not failures else
          f"selftest: {failures} run(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
