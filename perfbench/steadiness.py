#!/usr/bin/env python3
"""Steadiness report: is the benchmark steady enough to compare two commits?

    python3 perfbench/steadiness.py

For each workload of BENCHMARK.json it makes two sets of ten runs of
perfbench/run.py (run i of each set uses seed i+1, so the sets measure the
same inputs) of run_seconds each, plus one run on a held-out seed, and
prints one line per run with its values. For every end-to-end metric it
then prints the spread of each set (the distance between the first and
third quartile, as a share of the median, with statistics.quantiles(n=4))
next to the metric's bound, and how far the second set's median moved
from the first set's in the metric's worse direction. A spread at or
above a third of the bound, or a shift beyond the bound, is flagged;
setup_s is exempt from the spread rule (its bound applies to the shift).
Runs go one at a time: about 45 minutes.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 7919
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), done.stderr[-2000:]))
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print("  run %s seed %d: %s" % (workload, seed, " ".join(
        "%s=%.6g" % kv for kv in values.items())), flush=True)
    return values


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0, med


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        sets = [[run_once(w, i + 1, seconds) for i in range(RUNS)]
                for _ in range(SETS)]
        held = run_once(w, HELD_OUT_SEED, seconds)
        print("\n%s (%d runs x %d sets, held-out seed %d)"
              % (w, RUNS, SETS, HELD_OUT_SEED))
        print("  %-14s %7s  %s  %8s  %12s" % ("metric", "bound",
              " ".join("spread%d" % (i + 1) for i in range(SETS)),
              "shift", "held-out"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [spread([r[name] for r in s]) for s in sets]
            first, last = stats[0][1], stats[-1][1]
            worse = (last - first) / first if first else 0.0
            if m["better"] == "higher":
                worse = -worse
            flags = []
            if name != "setup_s" and any(s >= bound / 3 for s, _ in stats):
                flags.append("SPREAD")
            if worse > bound:
                flags.append("SHIFT")
            ok = ok and not flags
            print("  %-14s %7.3f  %s  %+8.4f  %12.6g  %s"
                  % (name, bound,
                     " ".join("%7.4f" % s for s, _ in stats),
                     worse, held[name], " ".join(flags)), flush=True)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
