#!/usr/bin/env python3
"""Gate the benchmark on its exact seed-1 counts.

Usage, from the repository root:

    python3 ci/check_bench_counts.py          # compare with ci/bench_counts.json
    python3 ci/check_bench_counts.py --regen  # rewrite ci/bench_counts.json

Runs every workload named in BENCHMARK.json through
`perfbench/run.py --seed 1 --seconds 0`, once traced and once untraced.
It keeps every traced metric whose unit is `count`, plus
`coverage_frac`, `compact_tests`, `attempted` and `failed` from the
untraced run. These numbers repeat bit for bit on any machine, so they
are compared exactly; no timing is kept. The check exits 1 when a number
differs from the committed file, when a run reports `"correct": false`
or `failed > 0`, or when a run fails. A change that moves a count
regenerates the file and says why, as for a golden.
"""

import argparse
import json
import os
import subprocess
import sys

COUNTS = os.path.join("ci", "bench_counts.json")
UNTRACED = ("coverage_frac", "compact_tests")


def run(workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", trace]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} --trace {trace}: run.py exited with {child.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        raise RuntimeError(f"{workload} --trace {trace}: correct {result['correct']}, "
                           f"failed {result['failed']} of {result['attempted']}")
    return result


def counts(workload):
    traced = run(workload, "1")
    out = {name: m["value"] for name, m in traced["metrics"].items() if m["unit"] == "count"}
    untraced = run(workload, "0")
    out.update({name: untraced["metrics"][name]["value"] for name in UNTRACED})
    out["attempted"] = untraced["attempted"]
    out["failed"] = untraced["failed"]
    return dict(sorted(out.items()))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--regen", action="store_true", help=f"rewrite {COUNTS}")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    try:
        actual = {w: counts(w) for w in workloads}
    except (OSError, ValueError, KeyError, RuntimeError) as e:
        print(f"check_bench_counts: {e}", file=sys.stderr)
        return 1

    if args.regen:
        with open(COUNTS, "w") as f:
            json.dump(actual, f, indent=2)
            f.write("\n")
        print(f"check_bench_counts: wrote {COUNTS}", file=sys.stderr)
        return 0

    with open(COUNTS) as f:
        expected = json.load(f)
    diffs = []
    for w in sorted(set(expected) | set(actual)):
        want, got = expected.get(w, {}), actual.get(w, {})
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                diffs.append(f"{w}: {name}: committed {want.get(name)}, now {got.get(name)}")
    for d in diffs:
        print(f"check_bench_counts: {d}", file=sys.stderr)
    if diffs:
        print(f"check_bench_counts: {len(diffs)} count(s) moved; if intended, run "
              f"`python3 ci/check_bench_counts.py --regen` and say why in CHANGES.md",
              file=sys.stderr)
        return 1
    print(f"check_bench_counts: {len(workloads)} workloads match {COUNTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
