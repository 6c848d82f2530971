"""superrep benchmark: one run of one workload.

    python3 bench/run.py --workload {pbw,finite_xp,line_cert,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.  Every
measurement runs ``worker.py`` in a fresh interpreter with one BLAS/OpenMP
thread, one process and one thread of ops.

``--trace 0`` reports the end-to-end metrics, untraced.  Times are CPU time
of the worker, calibrated against a fixed reference kernel run next to each
op (see ``worker.run_ops``), in seconds at the reference speed: on a shared
virtual machine plain CPU time of the same work moves by 30-50% within
seconds.  Plain CPU and wall times are kept in the result file.

* ``setup_s``: median over ten fresh interpreters of the time from before
  ``import superrep`` to the first op (catalog and fixture parsing and
  validation included, input generation excluded);
* ``throughput_ops_s``, ``latency_p50_ms`` and ``latency_p90_ms`` of a closed
  loop, one client, that runs the workload's seeded pool of ops round after
  round for S seconds of wall time; an op's latency is its median over the
  rounds, and throughput is the pool size over the sum of those latencies;
* ``peak_rss_mb`` at the end of the loop's first three rounds, a fixed
  amount of work;
* ``ok_ratio``: 1 - error rate over every op run.

``--trace 1`` runs a fixed number of ops twice, untraced and traced
(``layertrace.py``), and reports the per-layer calls and self times (plain
CPU time) plus ``trace.overhead_ratio``.  The op count is fixed so that call
counts repeat exactly for a seed.

The full result, with the environment (nproc, Python, numpy), the error rate
and the number of ops attempted, goes to
``bench/out/<workload>-seed<N>-trace<T>.json``; the traced run also leaves
its spans and its layer table there.  The last line of stdout is the summary
JSON object.
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
WORKER = os.path.join(BENCH_DIR, "worker.py")

sys.path.insert(0, BENCH_DIR)
from inputs import WORKLOADS  # noqa: E402
from layertrace import layer_table, metric_names  # noqa: E402

SETUP_PROBES = 9  # set-up-only interpreters per run, besides the measured one
TRACE_OPS = {"pbw": 40, "finite_xp": 20, "line_cert": 40, "cli": 60}
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 60  # besides the timed loop's own seconds

END_TO_END = (
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def worker(workload: str, seed: int, mode: str, *extra: str, timeout: float) -> dict:
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--mode", mode, *extra]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker timed out after {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # the first interpreter warms the file cache and writes bytecode; discarded
    worker(workload, seed, "setup", timeout=SETUP_TIMEOUT_S)
    setups = [worker(workload, seed, "setup", timeout=SETUP_TIMEOUT_S)["setup_s"]
              for _ in range(SETUP_PROBES)]
    run = worker(workload, seed, "timed", "--seconds", str(seconds),
                 timeout=RUN_TIMEOUT_S + seconds)
    run["setup_samples_s"] = setups + [run["setup_s"]]
    run["setup_s"] = statistics.median(run["setup_samples_s"])
    run["ok_ratio"] = 1.0 - run["error_rate"]
    return run, {name: run[name] for name, _ in END_TO_END}


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    ops = str(TRACE_OPS[workload])
    prefix = os.path.join(OUT_DIR, workload)
    plain = worker(workload, seed, "plain", "--ops", ops, timeout=RUN_TIMEOUT_S)
    run = worker(workload, seed, "traced", "--ops", ops, "--out", prefix,
                 timeout=RUN_TIMEOUT_S)
    metrics = dict(run.pop("layers"))
    metrics["trace.overhead_ratio"] = run["loop_s"] / plain["loop_s"]
    with open(prefix + ".layers.txt", "w", encoding="utf-8") as fh:
        fh.write(layer_table(metrics))
    run["untraced"] = plain
    run["failed"] = max(run["failed"], plain["failed"])
    return run, {name: metrics[name] for name, _ in metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="superrep benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "superrep", "__init__.py")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.trace:
            run, values = traced(args.workload, args.seed)
            units = dict(metric_names())
        else:
            run, values = end_to_end(args.workload, args.seed, args.seconds)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    run.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, metrics=values)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(run, fh, indent=1)
        fh.write("\n")
    env = run["env"]
    print(f"# {args.workload} seed={args.seed}: {run['attempted']} ops attempted, "
          f"{run['failed']} failed (error_rate {run['error_rate']:.4g}); "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']}; {path}")
    if args.trace:
        print("# " + layer_table(values).rstrip().replace("\n", "\n# "))
    if run["first_error"]:
        print("# first failure: " + run["first_error"].replace("\n", "\n# "))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
