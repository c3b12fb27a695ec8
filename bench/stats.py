#!/usr/bin/env python3
"""Run one workload over several seeds and summarise each metric.

    python3 bench/stats.py --workload quotient --seeds 1-10 --seconds 18 --trace 0

Runs bench/run.py once per seed, one run at a time, and prints for every
metric the median, the first and third quartiles (statistics.quantiles with
n=4) and the spread, (q3 - q1) / median.  The raw results are saved to
bench/out/stats-<workload>-trace<t>.json.  With --trace 1 it also prints the
tracing overhead against a saved --trace 0 summary of the same workload,
and whether every count metric repeated exactly across the runs of each seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def seed_list(text: str) -> list[int]:
    out = []
    for chunk in text.split(","):
        lo, _, hi = chunk.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
        "min": min(values),
        "max": max(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,3,4")
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [
            sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(dict(result, seed=seed))
        print(
            "seed %d: %s" % (seed, " ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            file=sys.stderr,
        )

    names = list(runs[0]["metrics"])
    summary = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in names}
    print("| metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|")
    for name in names:
        s = summary[name]
        print(
            "| %s | %s | %.6g | %.6g | %.6g | %.3f |"
            % (name, runs[0]["metrics"][name]["unit"], s["median"], s["q1"], s["q3"], s["spread"])
        )
    shares = {r["failed"] / r["attempted"] for r in runs}
    print("\nruns: %d, attempted: %s, failed share: %s, all correct: %s" % (
        len(runs), sorted({r["attempted"] for r in runs}), sorted(shares), all(r["correct"] for r in runs)))

    if args.trace:
        by_seed: dict[int, list] = {}
        for r in runs:
            by_seed.setdefault(r["seed"], []).append(r)
        repeats = all(
            all(
                rr["metrics"][n]["value"] == group[0]["metrics"][n]["value"]
                for rr in group
                for n in names
                if group[0]["metrics"][n]["unit"] in ("count", "ratio")
            )
            for group in by_seed.values()
        )
        print("count metrics repeat within each seed: %s" % repeats)
        base = os.path.join(OUT_DIR, "stats-%s-trace0.json" % args.workload)
        if os.path.exists(base):
            with open(base) as fh:
                untraced = json.load(fh)["summary"]["ops_per_s"]["median"]
            traced = summary["trace.ops_per_s"]["median"]
            print("tracing overhead: untraced/traced ops_per_s = %.3f" % (untraced / traced))

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "stats-%s-trace%d.json" % (args.workload, args.trace)), "w") as fh:
        json.dump({"args": vars(args), "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
