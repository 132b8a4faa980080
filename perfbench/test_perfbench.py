"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench -q

The smoke runs start the real workloads (the service one starts a
server) and take a few minutes in all.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_p90_needs_ten_samples_beyond_it():
    assert harness.percentile([float(i) for i in range(90)], 90) == (None, 90)
    value, n = harness.percentile([float(i) for i in range(100)], 90)
    assert n == 100 and sum(1 for i in range(100) if i > value) == 10
    assert harness.percentile([5.0], 50) == (5.0, 1)


def test_times_are_scaled_by_the_speed_factor():
    result = harness.Pass(samples=[(i, "a", 0.01 * (i + 1), 2.0)
                                   for i in range(100)],
                          attempted=100, wall=1.0)
    scaled, raw = harness.end_to_end(result), harness.end_to_end(result, raw=True)
    assert result.speed() == 2.0
    assert scaled["latency_p50_ms"][0] == pytest.approx(raw["latency_p50_ms"][0] / 2)
    assert scaled["ops_per_s"][0] == pytest.approx(raw["ops_per_s"][0] * 2)
    assert 0.2 < harness.speed_factor() < 5.0


def test_self_time_of_a_span_tree():
    # op [0, 10] > analyze [1, 9] > balance [2, 5], mcr [5, 8] > howard [6, 7]
    spans = [["op", 0.0, 10.0, None, 0], ["analysis.analyze", 1.0, 9.0, 0, 0],
             ["symbolic.balance", 2.0, 5.0, 1, 0], ["csdf.mcr", 5.0, 8.0, 1, 0],
             ["csdf.howard", 6.0, 7.0, 3, 0]]
    assert tracing.self_times(spans) == [2.0, 2.0, 3.0, 2.0, 1.0]
    tracer = tracing.Tracer()
    tracer.spans = spans
    assert tracing.op_coverage(tracer) == [0.8]
    metrics = tracing.layer_metrics(tracer, ops=1)
    assert metrics["analysis.analyze.ms_per_op"] == 8000.0
    assert metrics["analysis.self.ms_per_op"] == 2000.0
    assert metrics["csdf.mcr.ms_per_op"] == 2000.0


def test_wrappers_come_off_again():
    import repro.analysis
    import repro.cache
    import repro.csdf.mcr

    before = (repro.analysis.analyze, repro.cache.cached,
              repro.csdf.mcr.cached, repro.analysis.GraphReport.summary)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert repro.csdf.mcr.cached is repro.cache.cached is not before[1]
        from repro.gallery import fig1_graph

        repro.analysis.analyze(fig1_graph()).summary()
    finally:
        patches.remove()
    assert (repro.analysis.analyze, repro.cache.cached,
            repro.csdf.mcr.cached, repro.analysis.GraphReport.summary) == before
    names = {span[0] for span in tracer.spans}
    assert {"analysis.analyze", "symbolic.balance", "csdf.mcr",
            "analysis.summary"} <= names
    assert tracer.counts()[(None, "cache.lookups")] > 0


def _context(tmp_path, seconds=1.0):
    return workloads.Context(ROOT, tmp_path, seed=3, seconds=seconds)


def test_perturbed_repetition_vector_fails_ops(tmp_path):
    workload = workloads.ColdAnalyze(_context(tmp_path))
    pool, ops = workload.inputs()
    ops = ops[:4]
    key = ops[0][1][1]
    gd, text = pool[key]
    wrong = dict(gd.expected_q)
    wrong[next(iter(wrong))] += 1
    pool[key] = (dataclasses.replace(gd, expected_q=wrong), text)
    result = workload.run_pass((pool, ops))
    workload.verify((pool, ops), [result])
    failed = {index for index, op in ops if op[1] == key}
    assert result.failed == failed
    assert harness.end_to_end(result)["failed_ratio"][0] > 0


def test_perturbed_fingerprint_fails_ops(tmp_path):
    workload = workloads.EditLoop(_context(tmp_path))
    docs, ops, samples, path = workload.inputs()
    ops = ops[:max(samples) + 1]
    index = min(samples)
    result = workload.run_pass((docs, ops, samples, path))
    result.records[index] = ("tampered",)
    workload.verify((docs, ops, samples, path), [result])
    assert result.failed == {index}


def _server_processes() -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        try:
            cmd = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if b"serve" in cmd and b"--host" in cmd and b"127.0.0.1" in cmd:
            found.append(int(entry.name))
    return found


@pytest.fixture(scope="module")
def smoke_runs():
    """A short traced run of every workload: (final line, report line)."""
    before = _server_processes()
    runs = {}
    for spec in SPEC["workloads"]:
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload",
             spec["name"], "--seed", "1", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr[-3000:]
        lines = out.stdout.strip().splitlines()
        runs[spec["name"]] = (json.loads(lines[-1]),
                              json.loads(lines[-2][len("perfbench: "):]))
    assert _server_processes() == before
    return runs


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(smoke_runs, workload):
    result, report = smoke_runs[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [m["name"] for m in SPEC["per_layer"]] == list(result["metrics"])
    for metric in SPEC["end_to_end"]:
        assert report["end_to_end"][metric["name"]]["value"] > 0
    assert report["end_to_end"]["latency_p90_ms"]["samples"] >= 100
    if workload != "service":
        assert report["per_layer"]["trace.coverage_min"] >= 0.95


def test_every_per_layer_metric_is_produced(smoke_runs):
    produced = set()
    for _result, report in smoke_runs.values():
        produced |= set(report["per_layer"])
    assert {m["name"] for m in SPEC["per_layer"]} <= produced


def test_binding_edits_never_solve_balance(smoke_runs):
    metrics = smoke_runs["edit_loop"][0]["metrics"]
    assert metrics["symbolic.balance.solves_per_binding_edit"]["value"] == 0
    assert metrics["symbolic.balance.solves_per_structural_edit"]["value"] > 0


def test_run_refuses_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_analyze",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
