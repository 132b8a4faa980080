"""The benchmark harness writes a ``record_bench`` row to
``BENCH_eventloop.json`` only when the bench that recorded it passed,
as it writes a bench's ``.txt``/``.csv`` tables only on success: a
failed run leaves the rows already on disk as they were."""

from __future__ import annotations

import json
from pathlib import Path

pytest_plugins = ["pytester"]

CONFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"

BENCHES = '''
def _row(record_bench, bench_id, wall_ms):
    record_bench(bench_id, actors=4, backend="arrays", wall_ms=wall_ms,
                 ready_visits=2)


def test_passing(record_bench):
    _row(record_bench, "good", 1.0)


def test_failing(record_bench):
    _row(record_bench, "bad", 2.0)
    assert False
'''


def test_rows_only_from_passing_benches(pytester):
    pytester.makeconftest(CONFTEST.read_text())
    pytester.makepyfile(test_benches=BENCHES)
    results = pytester.path / "results"
    results.mkdir()
    old = {"actors": 4, "backend": "arrays", "wall_ms": 9.0, "ready_visits": 1}
    (results / "BENCH_eventloop.json").write_text(json.dumps({"bad": old}))
    outcome = pytester.runpytest("-p", "no:cacheprovider")
    outcome.assert_outcomes(passed=1, failed=1)
    rows = json.loads((results / "BENCH_eventloop.json").read_text())
    assert rows == {
        "bad": old,
        "good": {"actors": 4, "backend": "arrays", "wall_ms": 1.0,
                 "ready_visits": 2},
    }
