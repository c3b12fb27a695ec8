#!/usr/bin/env python3
"""Run one jetform benchmark workload and print its metrics.

    python3 bench/run.py --workload {oracle,quotient,expand} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout: jetform is imported from ./src and
nowhere else.  The process is a closed loop with one caller: each operation
starts when the previous one has returned.  With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The same object, with details, goes to
bench/out/, and a traced run also writes its spans there.  The exit code is
0 when every answer passed its check.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import subprocess
import sys
from time import perf_counter

import calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Set-up is measured this many times, once here and the rest in fresh
# interpreters, and reported as the median, unless one set-up already takes
# PROBE_LIMIT_S or more and is long enough to be steady on its own.
SETUP_REPEATS = 11
PROBE_LIMIT_S = 2.0
MIN_TAIL_SAMPLES = 10
CALIBRATE_EVERY_S = 0.1


def load_jetform():
    """Import jetform and its CLI from this checkout's src/ directory."""
    if not os.path.isfile(os.path.join(SRC, "jetform", "__init__.py")):
        sys.exit("bench: no jetform sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import jetform
    import jetform.cli  # noqa: F401  (the package does not import its CLI)

    if os.path.dirname(os.path.dirname(os.path.abspath(jetform.__file__))) != SRC:
        sys.exit("bench: jetform was imported from %s, not %s" % (jetform.__file__, SRC))
    return jetform


def probe_setup(workload_name: str) -> float:
    """One set-up in a fresh interpreter: import plus warm-up, in seconds
    at the reference speed."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", workload_name],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least MIN_TAIL_SAMPLES samples
    beyond it, capped at 99."""
    return max(50, min(99, int(100 * (1 - MIN_TAIL_SAMPLES / n))))


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args, WORKLOADS[args.workload]()


def main(argv=None) -> int:
    args, workload = parse_args(sys.argv[1:] if argv is None else argv)
    if args.probe_setup:
        speed = calibrate.speed()
        t0 = perf_counter()
        workload.warm_up(load_jetform())
        print(repr((perf_counter() - t0) / ((speed + calibrate.speed()) / 2)))
        return 0

    import random

    from workloads import rounds_for

    setup_speeds = [calibrate.speed()]
    t0 = perf_counter()
    jf = load_jetform()
    import_s = perf_counter() - t0

    rounds = rounds_for(args.seconds, workload.nominal_round_s)
    ops = workload.make_ops(random.Random(args.seed), rounds)
    inputs = workload.to_inputs(jf, ops)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = perf_counter()
    workload.warm_up(jf)
    setup_raw = import_s + perf_counter() - t0
    setup_speeds.append(calibrate.speed())
    setups = [setup_raw / statistics.fmean(setup_speeds)]
    if tracer is None and setup_raw < PROBE_LIMIT_S:
        setups += [probe_setup(args.workload) for _ in range(SETUP_REPEATS - 1)]

    # Closed loop, with the reference timed between operations about every
    # CALIBRATE_EVERY_S of work.  Between operations the collector frees the
    # last operation's cyclic garbage and then leaves everything alive
    # alone: the run keeps every answer for checking, and without
    # gc.freeze() later operations would pay for scanning earlier answers.
    latencies, outputs, stretch_ends = [], [], []
    gc.collect()
    gc.freeze()
    samples = [calibrate.speed()]
    busy = 0.0
    for i, op in enumerate(inputs):
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            out = workload.execute(jf, op)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        dt = perf_counter() - t0
        gc.collect()
        gc.freeze()
        latencies.append(dt)
        outputs.append(out)
        busy += dt
        if busy >= CALIBRATE_EVERY_S or i == len(inputs) - 1:
            samples.append(calibrate.speed())
            stretch_ends.append(len(latencies))
            busy = 0.0
    speeds = calibrate.local_speeds(samples, stretch_ends, latencies)

    import resource

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {"rounds": rounds, "setup_raw_s": setup_raw, "setup_speeds": setup_speeds, "speed_samples": samples}
    return report(args, workload, jf, tracer, ops, outputs, latencies, speeds, setups, peak_rss_mb, details)


def report(args, workload, jf, tracer, ops, outputs, latencies, speeds, setups, peak_rss_mb, details) -> int:
    import json
    import random
    import traceback

    failures = [(op, out) for op, out in zip(ops, outputs) if isinstance(out, Exception)]
    for op, exc in failures[:5]:
        print("bench: failed %.200r: %s" % (op, "".join(traceback.format_exception_only(exc)).strip()), file=sys.stderr)
    kept = [(op, out) for op, out in zip(ops, outputs) if not isinstance(out, Exception)]
    errors = workload.check(
        jf, [op for op, _ in kept], [out for _, out in kept], random.Random("check-%d" % args.seed)
    )
    for line in errors[:20]:
        print("bench: wrong answer: " + line, file=sys.stderr)

    scaled = [t / s for t, s in zip(latencies, speeds)]
    ops_per_s = len(kept) / sum(scaled)
    tail_q = tail_percentile(len(latencies))
    if tracer is not None:
        metrics = tracer.metrics(ops_per_s)
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
            "latency_tail_ms": {
                "value": statistics.quantiles(scaled, n=100, method="inclusive")[tail_q - 1] * 1e3,
                "unit": "ms",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tail_percentile": tail_q,
        "timed_s": sum(latencies),
        "raw_ops_per_s": len(kept) / sum(latencies),
        "raw_latency_p50_ms": statistics.median(latencies) * 1e3,
        "latencies_ms": [t * 1e3 for t in scaled],
        "setups_s": setups,
        "errors": errors[:100],
    })
    if tracer is not None:
        details["spans"] = tracer.write(stem + ".spans.tsv.gz")
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, details=details), fh, indent=1)
    print(
        "bench: %s seed=%d: %d ops (%d rounds) in %.2f s, tail = p%d, %d failed, %d wrong"
        % (args.workload, args.seed, len(ops), details["rounds"], sum(latencies), tail_q, len(failures), len(errors)),
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
