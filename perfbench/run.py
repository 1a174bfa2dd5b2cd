#!/usr/bin/env python3
"""Build the castg benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs it on one CPU. An untraced run is
split over fresh processes of a sixth of the budget each, started while
the budget lasts, and each metric is the median over them. A traced run
is one process. The result JSON is the last line of stdout; context goes
to stderr. The exit code is non-zero, with no result line, when the
build or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 880
CHILD_TIMEOUT_S = 120
CHILD_SHARE = 1 / 6
# Metrics that must agree bit for bit across processes.
DETERMINISTIC = ("coverage_frac", "compact_tests")


def run_child(binary, args, seconds):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", args.trace]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"benchmark exited with {child.returncode}")
    lines = child.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark printed no result")
    return json.loads(lines[-1])


def combine(results):
    """Median of every metric over the processes; counts add up."""
    first = results[0]
    combined = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, metric in first["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name in DETERMINISTIC and len(set(values)) > 1:
            print(f"run.py: {name} differs between processes: {values}", file=sys.stderr)
            combined["correct"] = False
            combined["failed"] += 1
        combined["metrics"][name] = {"value": statistics.median(values), "unit": metric["unit"]}
    return combined


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join("perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build did not finish: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    # The runs share one CPU: a wake-up across cores on a shared host
    # takes as long as the host's idle state makes it, which moved the
    # daemon's set-up by a third between half-hours. On one CPU the
    # pipeline's hand-offs are local context switches.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    try:
        if args.trace == "1":
            results = [run_child(binary, args, args.seconds)]
        else:
            results = []
            start = time.monotonic()
            last = 0.0
            while not results or time.monotonic() - start + last <= args.seconds:
                t0 = time.monotonic()
                results.append(run_child(binary, args, CHILD_SHARE * args.seconds))
                last = time.monotonic() - t0
    except (OSError, ValueError, RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(f"run.py: {len(results)} process(es)", file=sys.stderr)
    print(json.dumps(combine(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
