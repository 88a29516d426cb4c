#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload campaign_cold --seed 1 --seconds 25 --trace 0

Builds the simulator library and the perfbench binary from source into
$CARGO_TARGET_DIR (default .bench_build) under the current directory, then
runs one workload. The binary's last stdout line is the JSON result; a result
file describing machine, build and quartiles goes to <build dir>/results/.

    python3 perfbench/run.py --make-ref WORKLOAD   # re-record a reference
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    obj = os.path.join(build_dir, "perfbench")
    os.makedirs(obj, exist_ok=True)
    log = open(os.path.join(build_dir, "perfbench-build.log"), "w")
    steps = []
    if not os.path.isfile(os.path.join(obj, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", obj,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", obj, "-j", "4", "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
            fail("build failed; see " + log.name, 1)
    return os.path.join(obj, "perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    args = [binary] + sys.argv[1:] + ["--root", ROOT,
                                      "--ref-dir", os.path.join(HERE, "ref")]
    if "--make-ref" not in sys.argv:
        args += ["--out-dir", results]
    sys.exit(subprocess.run(args).returncode)


if __name__ == "__main__":
    main()
