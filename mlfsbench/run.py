#!/usr/bin/env python3
"""Build and run the MLFS benchmark.

    python3 mlfsbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first call configures and builds the
simulator and the driver (Release) under .bench_build/mlfsbench; later
calls only rebuild what changed. With --workload, one workload runs and
the last line of output is its JSON result. Without it, every workload
runs in turn, each in its own process (so peak_rss_mb is per workload),
and the last line merges their results with metric names prefixed by the
workload. The exit code is non-zero when any output check fails.

Each workload's event_stream_hash is compared with the hashes recorded
in mlfsbench/baseline.json; a different hash for a recorded seed is
flagged as a decision change (the schedule itself changed).
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "mlfsbench")
BINARY = os.path.join(BUILD, "mlfsbench")
WORKLOADS = ["philly_overload", "philly_lowload", "philly_overload_mlfs",
             "rack_stream_durable"]
HASH_LINE = re.compile(r"^event_stream_hash (\S+) seed=(\d+) (0x[0-9a-f]+)$")


def build():
    """Configure once, then let the build tool decide what is stale."""
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "mlfsbench"],
                   check=True, stdout=log, stderr=log)


def recorded_hashes():
    with open(os.path.join(HERE, "baseline.json")) as f:
        return json.load(f)["event_stream_hashes"]


def flag_decision_change(lines, recorded):
    for line in lines:
        match = HASH_LINE.match(line)
        if not match:
            continue
        workload, seed, value = match.groups()
        expected = recorded.get(workload, {}).get(seed)
        if expected is None:
            print(f"hash check: no recorded hash for {workload} seed {seed}")
        elif expected == value:
            print(f"hash check: {workload} seed {seed} matches the recorded hash")
        else:
            print(f"hash check: DECISION CHANGE: {workload} seed {seed} hash {value} "
                  f"differs from the recorded {expected}")


def run_workload(workload, args, recorded):
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", str(args.trace), "--tmp", tmp],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    for line in lines:
        print(line)
    flag_decision_change(lines, recorded)
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"mlfsbench: build failed: {e}", file=sys.stderr)
        return 2
    recorded = recorded_hashes()

    if args.workload:
        code, result = run_workload(args.workload, args, recorded)
        if result is not None:
            print(json.dumps(result))
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(workload, args, recorded)
        worst = max(worst, code)
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
        print()
    print(json.dumps(merged))
    return worst if worst else (0 if merged["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
