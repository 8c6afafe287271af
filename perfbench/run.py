#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload dos_flood --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The binary is built with CMake into
.bench_build/perfbench (perfbench/CMakeLists.txt compiles ../src). Every
BS_* variable is removed from the environment first, so no simulator knob
changes what is measured. The binary's own JSON line (configuration,
sample counts, sim-time service metrics, repetition timings) is echoed,
and the last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). A failed correctness gate or determinism
check prints "correct": false and exits 1; a build failure exits 1 without
a result.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
# A measuring run must end within 180 s (the build, incremental after the
# first run of a checkout, comes before it).
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("BS_")}


def build(env):
    """Configures and builds the binary (incremental after the first run)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload " + args.workload)
        return 2

    env = clean_env()
    if not build(env):
        return 1
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: binary exceeded %d s" % RUN_LIMIT_S)
        return 1
    if done.stderr:
        log(done.stderr[-4000:])
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("perfbench: binary printed nothing (exit %d)" % done.returncode)
        return 1
    detail = json.loads(lines[-1])
    print(json.dumps(detail, sort_keys=True))

    if args.trace:
        wanted, source = spec["per_layer"], detail["layers"]
    else:
        wanted, source = spec["end_to_end"], detail["e2e"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        log("perfbench: binary did not report " + ", ".join(missing))
        return 1
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = done.returncode == 0 and not detail["failures"]
    for f in detail["failures"]:
        log("perfbench: FAILED: " + f)
    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
