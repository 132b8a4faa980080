"""The stateless endpoints share one op path: ``/analyze``,
``/analyze_parametric``, ``/simulate`` and ``/lint`` read their graph,
test hooks and arguments, key the result cache and reach a worker the
same way.  Each case runs once per endpoint over real HTTP.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.io import graph_to_payload
from repro.service.app import _ANALYZE_OPTIONS
from repro.tpdf import fig2_graph


def _body(endpoint: str, name: str) -> dict:
    graph = fig2_graph()
    graph.name = name  # a distinct content key per test
    body = {"graph": graph_to_payload(graph)}
    if endpoint == "analyze_parametric":
        body["domain"] = {"p": [1, 4]}
    else:
        body["bindings"] = {"p": 2}
    if endpoint == "simulate":
        body["options"] = {"limits": {"A": 4}}
    return body


ENDPOINTS = ("analyze", "analyze_parametric", "simulate", "lint")


def _post(client, endpoint: str, body: dict) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        conn.request("POST", f"/{endpoint}", body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _counters(client) -> tuple[int, int, int, int]:
    stats = client.stats()
    return (stats["cache"]["computed"], stats["cache"]["hits"],
            stats["pool"]["requests"], len(stats["workers"]))


def _delta(client, before) -> tuple[int, int, int]:
    """Cache computes, cache hits and pool requests since ``before``.
    ``/stats`` reads the pool counter before it pings each worker, so
    the pings of the call that took ``before`` are subtracted."""
    computed, hits, requests, pings = before
    after = _counters(client)
    return after[0] - computed, after[1] - hits, after[2] - requests - pings


@pytest.mark.parametrize("endpoint", ENDPOINTS)
def test_missing_graph_is_400(client, endpoint):
    body = _body(endpoint, "missing")
    del body["graph"]
    status, data = _post(client, endpoint, body)
    assert status == 400
    assert data["error"] == {
        "type": "BadRequest",
        "message": "request is missing a 'graph' payload object"}


@pytest.mark.parametrize("endpoint", ENDPOINTS)
def test_repeat_is_a_cache_hit(client, endpoint):
    body = _body(endpoint, f"repeat-{endpoint}")
    before = _counters(client)
    first = _post(client, endpoint, body)
    second = _post(client, endpoint, body)
    assert first[0] == 200 and second == first
    assert _delta(client, before) == (1, 1, 1)


@pytest.mark.parametrize("endpoint", ENDPOINTS)
def test_no_cache_reaches_a_worker(client, endpoint):
    body = _body(endpoint, f"no-cache-{endpoint}")
    assert _post(client, endpoint, body)[0] == 200
    before = _counters(client)
    status, data = _post(client, endpoint, {**body, "no_cache": True})
    assert status == 200 and data["graph_key"]
    assert _delta(client, before) == (0, 0, 1)


@pytest.mark.parametrize("endpoint, field, value, message", (
    ("analyze", "options", {"iterations": 2.5},
     "iterations must be an integer, got 2.5"),
    ("analyze_parametric", "max_boxes", 2.5,
     "max_boxes must be an integer, got 2.5"),
    ("simulate", "options", {"limits": {"A": 2.5}},
     "limit of 'A' must be an integer, got 2.5"),
    ("simulate", "options", {"limits": {"A": 4}, "cores": 1.5},
     "cores must be an integer, got 1.5"),
), ids=("iterations", "max_boxes", "limit", "cores"))
def test_fractional_counts_are_400(client, endpoint, field, value, message):
    """A served ``iterations=2.5`` used to run 2.5 iterations and report
    2; every count is now refused, naming it."""
    body = {**_body(endpoint, "counts"), field: value}
    status, data = _post(client, endpoint, body)
    assert status == 400
    assert data["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("value", (0, -2))
def test_iterations_below_one_is_400_before_any_worker(client, value):
    """``iterations`` is checked before the result-cache key is built,
    which leaves it out at default options: a refused request shares no
    single-flight entry with a valid one, alone or in one batch."""
    body = {**_body("analyze", "iterations"), "options": {"iterations": value}}
    before = _counters(client)
    status, data = _post(client, "analyze", body)
    assert status == 400
    assert data["error"] == {"type": "ValueError",
                             "message": f"iterations must be >= 1, got {value}"}
    assert _delta(client, before) == (0, 0, 0)
    graph = _body("analyze", "iterations-batch")["graph"]
    status, data = _post(client, "batch", {"graphs": [graph], "items": [
        {"graph": 0, "bindings": {"p": 2}, "options": {"iterations": value}},
        {"graph": 0, "bindings": {"p": 2}, "options": {"iterations": 4}},
    ]})
    refused, served = data["results"]
    assert status == 200 and refused["status"] == 400
    assert "report" in served and served["report"]["timed"] is None


@pytest.mark.parametrize("options", (None, {}), ids=("absent", "empty"))
def test_simulate_without_stop_condition_is_400(client, options):
    """Bugfix regression: a ``/simulate`` request without an
    ``options`` object skipped the front door's stop-condition check,
    reached a worker and answered with the worker's ``ValueError``.
    Absent or empty, the options are refused before any worker hop."""
    body = _body("simulate", "no-stop")
    del body["options"]
    if options is not None:
        body["options"] = options
    before = _counters(client)
    status, data = _post(client, "simulate", body)
    assert status == 400
    assert data["error"] == {
        "type": "BadRequest",
        "message": "simulate needs a stop condition in options: "
                   "'until', 'limits' or 'max_firings'"}
    assert _delta(client, before) == (0, 0, 0)


def test_analyze_option_names():
    """The wire accepts the stage switches plus the stages' parameters,
    and nothing else."""
    assert _ANALYZE_OPTIONS == {
        "iterations", "with_liveness", "with_mcr", "with_buffers",
        "with_throughput", "parametric_domain"}
