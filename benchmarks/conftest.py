"""Benchmark harness plumbing.

Each bench regenerates one of the paper's tables/figures.  Because
pytest captures stdout, benches register their rendered tables through
the ``report`` fixture; a terminal-summary hook prints everything at
the end of the run (so ``pytest benchmarks/ --benchmark-only`` output
contains the paper's rows/series verbatim).  Tables are also written to
``benchmarks/results/`` as text and CSV.

Event-loop benches additionally register **machine-readable** rows
through the ``record_bench`` fixture.  The terminal-summary hook folds
them into ``benchmarks/results/BENCH_eventloop.json`` (schema:
``bench id -> {actors, backend, wall_ms, ready_visits}``), merging
with rows already on disk so partial bench runs never erase the other
benches' numbers.  Each row is tied to the test that recorded it and
written only when that test passed, as its ``.txt``/``.csv`` tables
are, so a failed bench leaves the file as it was.  CI uploads the file
every run, giving the perf trajectory a PR-over-PR record instead of
prose-only tables.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_eventloop.json"

_sections: list[tuple[str, str]] = []
#: bench id -> (node id of the test that recorded it, row)
_bench_rows: dict[str, tuple[str, dict]] = {}
#: node ids of the tests that passed (setup, call and teardown)
_passed: set[str] = set()


@pytest.fixture
def report():
    """``report(name, text)``: register a rendered artefact for the
    terminal summary and persist it under benchmarks/results/."""

    def _report(name: str, text: str) -> None:
        _sections.append((name, text))
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")

    return _report


@pytest.fixture
def record_bench(request):
    """``record_bench(bench_id, actors=, backend=, wall_ms=,
    ready_visits=)``: queue one machine-readable event-loop bench row
    for ``BENCH_eventloop.json``, written only if the requesting test
    passes."""

    def _record(bench_id: str, *, actors: int, backend: str,
                wall_ms: float, ready_visits: int) -> None:
        _bench_rows[bench_id] = (request.node.nodeid, {
            "actors": int(actors),
            "backend": str(backend),
            "wall_ms": round(float(wall_ms), 3),
            "ready_visits": int(ready_visits),
        })

    return _record


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.passed:
        _passed.add(item.nodeid)
    elif report.failed:
        _passed.discard(item.nodeid)


def _write_bench_json() -> None:
    rows = {bench_id: row for bench_id, (nodeid, row) in _bench_rows.items()
            if nodeid in _passed}
    if not rows:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    merged: dict[str, dict] = {}
    if BENCH_JSON.exists():
        try:
            merged = json.loads(BENCH_JSON.read_text())
        except (ValueError, OSError):
            merged = {}
    merged.update(rows)
    BENCH_JSON.write_text(
        json.dumps(dict(sorted(merged.items())), indent=2) + "\n"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    _write_bench_json()
    if not _sections:
        return
    terminalreporter.section("paper artefacts (regenerated)")
    for name, text in _sections:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"===== {name} =====")
        for line in text.splitlines():
            terminalreporter.write_line(line)
