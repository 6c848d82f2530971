"""One benchmark process: set up one workload and run its ops.

``run.py`` starts this file in a fresh interpreter for every measurement:

    python3 bench/worker.py --workload W --seed N --mode setup
    python3 bench/worker.py --workload W --seed N --mode timed --seconds S
    python3 bench/worker.py --workload W --seed N --mode plain --ops K
    python3 bench/worker.py --workload W --seed N --mode traced --ops K --out PREFIX

``setup`` only times set-up; ``timed`` runs the workload's seeded pool of
ops as a closed loop (one op at a time, one client), round after round, for
S seconds; ``plain`` and ``traced`` run the first K ops of the seeded stream
once, without and with layer tracing.  The last line of stdout is a JSON
object with the process's numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter, process_time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path[:0] = [BENCH_DIR, SRC_DIR]

import inputs  # noqa: E402  (plain data only; superrep is not imported yet)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return values[max(0, math.ceil(q * len(values)) - 1)]


# Reference kernel: fixed work that does not touch the program.  Small-object
# arithmetic (Fraction) and random lookups in a table larger than a core's
# L2 cache, so that it slows like the program when another tenant shares
# the core or the cache.  The table is built once, before any clock starts;
# it adds about 10 MB to every timed worker's peak RSS.
_REF_TABLE = {(i % 1009, i): i for i in range(60000)}
_REF_KEYS = [(j % 1009, j) for j in random.Random(0).choices(range(60000), k=750)]
# The kernel's CPU time at the reference speed (about the fastest seen on a
# 2-vCPU Xeon VM); calibrated times are in seconds at this speed.
REF_KERNEL_S = 0.001
SETUP_KERNEL_CALLS = 10
# A timed loop runs at least this many rounds; peak RSS is read at the end
# of the last of them, so that it reflects a fixed amount of work (the pbw
# memo grows with every fresh algebra) and not the machine's speed.
RSS_ROUNDS = 3


def reference_kernel() -> None:
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i + 1) * Fraction(1, 3)
    acc: dict = {}
    for key in _REF_KEYS:
        acc[key[0]] = acc.get(key[0], 0) + _REF_TABLE[key]


def kernel_s(calls: int = 1) -> float:
    """CPU time of one reference_kernel() call, averaged over ``calls``."""
    t0 = process_time()
    for _ in range(calls):
        reference_kernel()
    return (process_time() - t0) / calls


def run_ops(op, ctx, pool, seconds: float | None = None, tracer=None,
            calibrate: bool = False) -> dict:
    """Run every op of ``pool`` once per round, one after another, and start
    further rounds until ``seconds`` of wall time have passed (None: one
    round; otherwise at least RSS_ROUNDS).  An op fails when it raises or
    returns False.

    Times are CPU time of this single-threaded process.  On a shared virtual
    machine even that moves by 30-50% within seconds for the same work (the
    core runs slower while other tenants' work shares it or its caches).  With
    ``calibrate`` each op runs between two calls of ``reference_kernel`` and
    its time is taken relative to theirs, in seconds at the reference speed
    (``REF_KERNEL_S``): op / (mean of the two kernel times) * REF_KERNEL_S.
    A slow spell slows op and kernel alike and drops out of the ratio; a
    slower program does not slow the kernel and shows in full.  Each op's
    latency is the median of its figures over the rounds, and throughput is
    the pool size over the sum of those latencies.  Without ``calibrate`` the
    figures are plain CPU times.  An op that failed in any round is charged
    the whole loop time, in plain CPU seconds, in every figure.  Wall time
    and the plain CPU time per op are reported too."""
    pool = list(pool)
    timed: list[list[float]] = [[] for _ in pool]
    plain: list[list[float]] = [[] for _ in pool]
    kernel: list[float] = []
    failed_ops, executions, failures, rounds, first_error = set(), 0, 0, 0, None
    wall0, cpu0 = perf_counter(), process_time()

    before = kernel_s() if calibrate else 0.0
    min_rounds = 1 if seconds is None else RSS_ROUNDS
    while rounds < min_rounds or (seconds is not None and perf_counter() - wall0 < seconds):
        for index, data in enumerate(pool):
            if tracer is not None:
                tracer.op = index
            t0 = process_time()
            try:
                ok = op(ctx, data)
                error = None if ok else f"op {index}: a check failed"
            except Exception:  # the loop must go on; the failure is reported
                ok, error = False, f"op {index}: " + traceback.format_exc()
            cpu = process_time() - t0
            plain[index].append(cpu)
            if calibrate:
                after = kernel_s()
                kernel.append(after)
                cpu *= 2 * REF_KERNEL_S / (before + after)
                before = after
            timed[index].append(cpu)
            executions += 1
            if not ok:
                failures += 1
                failed_ops.add(index)
                first_error = first_error or error
        rounds += 1
        if rounds == min_rounds:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop_s, loop_wall_s = process_time() - cpu0, perf_counter() - wall0
    latencies = sorted(loop_s if index in failed_ops else statistics.median(times)
                       for index, times in enumerate(timed))
    result = {
        "attempted": executions,
        "failed": failures,
        "error_rate": failures / executions,
        "rounds": rounds,
        "pool": len(pool),
        "loop_s": loop_s,
        "loop_wall_s": loop_wall_s,
        "throughput_ops_s": (len(pool) - len(failed_ops)) / sum(latencies),
        "latency_p50_ms": 1e3 * percentile(latencies, 0.5),
        "latency_p90_ms": 1e3 * percentile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb,
        "plain_cpu_p50_ms": 1e3 * percentile(sorted(map(statistics.median, plain)), 0.5),
        "first_error": first_error,
    }
    if calibrate:
        result["kernel_s"] = {"median": statistics.median(kernel), "min": min(kernel),
                              "max": max(kernel), "reference": REF_KERNEL_S}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "plain", "traced"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--out", help="path prefix for the span and function files")
    args = parser.parse_args(argv)

    if args.mode != "setup":
        ops = inputs.generate(args.workload, args.seed, args.ops)

    # set-up: from before the program is imported until the first op,
    # calibrated by the reference kernel run just before and just after it
    kernel_before = kernel_s(SETUP_KERNEL_CALLS)
    wall0, cpu0 = perf_counter(), process_time()
    import superrep
    import superrep.cli  # noqa: F401  (bound before tracing rebinds names)

    if os.path.dirname(os.path.abspath(superrep.__file__)) != os.path.join(SRC_DIR, "superrep"):
        raise SystemExit(f"superrep imported from {superrep.__file__}, not from {SRC_DIR}")
    tracer = None
    if args.mode == "traced":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    setup, op = workloads.WORKLOADS[args.workload]
    ctx = setup()
    setup_cpu_s, setup_wall_s = process_time() - cpu0, perf_counter() - wall0
    kernel_after = kernel_s(SETUP_KERNEL_CALLS)
    result = {"setup_s": setup_cpu_s * 2 * REF_KERNEL_S / (kernel_before + kernel_after),
              "setup_cpu_s": setup_cpu_s, "setup_wall_s": setup_wall_s}

    if args.mode != "setup":
        result.update(run_ops(op, ctx, ops, args.seconds, tracer,
                              calibrate=args.mode == "timed"))
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.out:
            tracer.write(args.out + ".spans.npy", args.out + ".functions.json")
    import numpy

    result["env"] = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                     "numpy": numpy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
