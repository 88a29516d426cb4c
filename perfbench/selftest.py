#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at the reduced (--small) size twice, untraced and
traced, and checks that
  - each run reports correct, with no failed operation;
  - the two runs produce the same output digest and the same sim metrics;
  - the printed metric names equal BENCHMARK.json's end_to_end names
    (untraced) and per_layer names (traced).
Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode:
        sys.exit("FAIL %s trace=%d: exit %d" % (workload, trace, out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    path = os.path.join(build, "results",
                        "%s-seed1-trace%d-small.json" % (workload, trace))
    with open(path) as f:
        return result, json.load(f)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            (r1, f1), (r2, f2) = run(w, trace), run(w, trace)
            for r in (r1, r2):
                if not r["correct"] or r["failed"] or r["attempted"] < 1:
                    sys.exit("FAIL %s trace=%d: %s" % (w, trace, r))
                if set(r["metrics"]) != names[trace]:
                    sys.exit("FAIL %s trace=%d: metric names differ: %s" % (
                        w, trace, sorted(set(r["metrics"]) ^ names[trace])))
            if f1["output_digest"] != f2["output_digest"]:
                sys.exit("FAIL %s trace=%d: digests differ" % (w, trace))
            if trace == 0:
                for k in ("sim_recovery_ms", "sim_success_pct", "sim_violation_min"):
                    if r1["metrics"][k] != r2["metrics"][k]:
                        sys.exit("FAIL %s: %s differs between runs" % (w, k))
            print("ok %-14s trace=%d digest %s" % (w, trace, f1["output_digest"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
