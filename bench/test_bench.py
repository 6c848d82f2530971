"""Self-test of the benchmark itself (not of the program).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import inputs  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path)
from layertrace import LAYERS, metric_names  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = inputs.generate(workload, 7, 40)
    assert first == inputs.generate(workload, 7, 40)
    assert any(inputs.generate(workload, seed, 40) != first for seed in (8, 9))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_call_counts_repeat(workload):
    results = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert all(r["correct"] for r in results)
    metrics = results[0]["metrics"]
    assert list(metrics) == [name for name, _ in metric_names()]
    for layer in LAYERS:
        assert f"{layer}.calls" in metrics and f"{layer}.self_s" in metrics
    assert metrics["trace.overhead_ratio"]["value"] > 0
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
             for r in results]
    assert calls[0] == calls[1]
    assert calls[0]["scalars.calls"] > 0


@pytest.fixture
def golden(monkeypatch):
    monkeypatch.chdir(ROOT)  # the malformed-input command names a relative path
    import workloads

    return workloads, workloads.load_golden()


def test_golden_outputs_match(golden):
    workloads, expected = golden
    result = worker.run_ops(workloads.cli_op, expected, range(len(expected)))
    assert result["failed"] == 0 and result["attempted"] == len(expected)


def test_one_byte_golden_change_fails_the_op(golden):
    workloads, expected = golden
    for index, entry in enumerate(expected):
        mutated = copy.deepcopy(expected)
        text = entry["stdout"]
        mutated[index]["stdout"] = text[:5] + chr(ord(text[5]) ^ 1) + text[6:]
        result = worker.run_ops(workloads.cli_op, mutated, [index, (index + 1) % len(expected)])
        assert (result["attempted"], result["failed"]) == (2, 1), entry["argv"]
        assert result["error_rate"] == 0.5


def test_raising_op_counts_as_error_and_the_run_goes_on():
    def op(ctx, data):
        if data == 1:
            raise RuntimeError("boom")
        return True

    result = worker.run_ops(op, None, [0, 1, 2, 3])
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert result["error_rate"] == 0.25
    assert "RuntimeError: boom" in result["first_error"]
    # a failed op is charged the whole loop in every latency figure
    assert result["latency_p90_ms"] == pytest.approx(1e3 * result["loop_s"])


def test_timed_loop_runs_rounds_and_calibrates():
    calls = []

    def op(ctx, data):
        calls.append(data)
        worker.reference_kernel()
        return True

    result = worker.run_ops(op, None, [0, 1], seconds=0.0, calibrate=True)
    assert calls == [0, 1] * worker.RSS_ROUNDS
    assert (result["rounds"], result["attempted"]) == (worker.RSS_ROUNDS, len(calls))
    # an op that is one kernel call takes about one kernel time at the reference speed
    assert 0.3 < result["latency_p50_ms"] / (1e3 * worker.REF_KERNEL_S) < 3


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "pbw", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
