"""Wire-codec round trips: JSON in, bit-identical reports out.

The report codecs of :mod:`repro.io` must survive a *real* JSON round
trip — ``to_dict -> json.dumps -> json.loads -> from_dict`` — with
fingerprints preserved exactly: floats bit for bit, Fractions through
the ``$fraction`` tag, tuple-shaped fields (iteration ends, domain
bounds) re-tupled, piecewise-MCR payloads through the Poly renderer.
The error envelope round-trips the other direction: an exception
serialized server-side reconstructs as the same type client-side,
payload fields (blocked actors, attempt counts) included.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from repro.analysis import analyze, analyze_parametric, simulate
from repro.errors import (DeadlockError, GraphConstructionError,
                          ParametricMCRError, ReproError)
from repro.gallery import fig4_graph, parametric_radio_graph
from repro.io import (_scalar_from_wire, _scalar_to_wire,
                      parametric_report_from_dict, parametric_report_to_dict,
                      payload_fingerprint, report_from_dict, report_to_dict,
                      timed_result_from_dict, timed_result_to_dict,
                      trace_from_dict, trace_to_dict)
from repro.service import (BadRequest, ServiceError, SessionLost,
                           WorkerCrashError, error_from_dict, error_status,
                           error_to_dict)

from .conftest import corpus_items, small_csdf


def json_round_trip(data: dict) -> dict:
    """The exact bytes-on-the-wire transformation (tuples -> lists,
    dict keys -> strings, shortest-repr floats)."""
    return json.loads(json.dumps(data))


class TestReportRoundTrip:

    def test_corpus_reports_survive_json_exactly(self, corpus):
        # every shape of the seeded corpus: concrete, parametric,
        # control actors, deadlocking variants included
        step = max(1, len(corpus) // 16)
        for graph, bindings in corpus[::step]:
            want = analyze(graph, bindings, iterations=3)
            got = report_from_dict(json_round_trip(report_to_dict(want)))
            assert got.fingerprint() == want.fingerprint()
            assert got.graph is None  # wire form never carries the graph

    def test_deadlock_report_round_trips(self):
        want = analyze(fig4_graph("dead"), {"p": 1}, iterations=3)
        assert want.live is False
        got = report_from_dict(json_round_trip(report_to_dict(want)))
        assert got.fingerprint() == want.fingerprint()

    def test_piecewise_parametric_payload_round_trips(self):
        # parametric_domain produces a piecewise(-symbolic) MCR whose
        # payload carries Fractions inside rendered Poly strings
        graph = parametric_radio_graph()
        want = analyze_parametric(graph, {"b": (1, 4), "c": (1, 3)})
        got = parametric_report_from_dict(
            json_round_trip(parametric_report_to_dict(want))
        )
        assert got.fingerprint() == want.fingerprint()

    def test_report_with_embedded_parametric_round_trips(self):
        items = [item for item in corpus_items() if item[1]]
        graph, bindings = items[0]
        want = analyze(graph, bindings, iterations=3,
                       parametric_domain={"p": (1, 4)})
        got = report_from_dict(json_round_trip(report_to_dict(want)))
        assert got.fingerprint() == want.fingerprint()

    def test_timed_result_floats_are_bit_exact(self):
        want = analyze(small_csdf(seed=90), iterations=5, with_throughput=True)
        assert want.timed is not None
        got = timed_result_from_dict(
            json_round_trip(timed_result_to_dict(want.timed))
        )
        assert got.makespan == want.timed.makespan  # == : no tolerance
        assert got.iteration_ends == want.timed.iteration_ends
        assert got.peaks == want.timed.peaks
        assert got.firings == want.timed.firings

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(GraphConstructionError, match="kind"):
            report_from_dict({"kind": "something_else"})


class TestTraceRoundTrip:
    """The simulation-trace codec: timing view, fingerprints exact."""

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_control_traces_survive_json_exactly(self, seed):
        from repro.tpdf import random_consistent_graph

        graph = random_consistent_graph(6, extra_edges=3, n_cycles=1,
                                        seed=seed, with_control=True)
        want = simulate(graph,
                        limits={name: 4 for name in graph.kernels})
        got = trace_from_dict(json_round_trip(trace_to_dict(want)))
        assert got.fingerprint() == want.fingerprint()  # == : bit-exact
        assert len(got.firings) == len(want.firings)
        assert got.peaks == want.peaks
        # discards carry their channel/port/count payload through
        for mine, theirs in zip(got.discards, want.discards):
            assert (mine.channel, mine.port, mine.node, mine.count,
                    mine.time) == (theirs.channel, theirs.port,
                                   theirs.node, theirs.count, theirs.time)


class TestServiceSimulate:
    """``POST /simulate`` end to end: resident workers run the
    schedule-plane core; the wire trace fingerprints bit-for-bit
    against a direct in-process simulation."""

    def test_simulate_matches_direct(self, client):
        from repro.tpdf import random_consistent_graph

        graph = random_consistent_graph(6, extra_edges=3, n_cycles=1,
                                        seed=5, with_control=True)
        limits = {name: 4 for name in graph.kernels}
        served = client.simulate(graph, limits=limits)
        direct = simulate(graph, limits=limits)
        assert served.fingerprint() == direct.fingerprint()

    def test_capacitated_run_with_cores(self, client):
        from repro.tpdf import random_consistent_graph

        graph = random_consistent_graph(5, extra_edges=2, n_cycles=0,
                                        seed=9)
        limits = {name: 4 for name in graph.kernels}
        open_run = simulate(graph, limits=limits)
        capacities = {name: max(1, peak)
                      for name, peak in open_run.peaks.items()}
        served = client.simulate(graph, limits=limits, cores=2,
                                 capacities=capacities)
        direct = simulate(graph, limits=limits, cores=2,
                          capacities=capacities)
        assert served.fingerprint() == direct.fingerprint()

    def test_missing_stop_condition_is_rejected(self, client):
        from repro.tpdf import random_consistent_graph

        graph = random_consistent_graph(4, seed=1)
        with pytest.raises(BadRequest, match="stop condition"):
            client.simulate(graph)

    def test_unknown_option_is_rejected(self, client):
        import http.client
        import json as _json

        from repro.io import graph_to_payload
        from repro.tpdf import random_consistent_graph

        graph = random_consistent_graph(4, seed=1)
        body = _json.dumps({"graph": graph_to_payload(graph),
                            "options": {"record_values": True,
                                        "limits": {}}}).encode()
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=30)
        try:
            conn.request("POST", "/simulate", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = _json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "record_values" in data["error"]["message"]


    @pytest.mark.parametrize("options", (
        {"limits": {"typo": 4}, "max_firings": 1000},
        {"limits": {"k0": 4}, "cores": 0},
        {"limits": {"k0": 4}, "capacities": {"e1": "2"}},
        {"limits": {"k0": 4}, "capacities": {"e1": 2.5}},
        {"limits": {"k0": 4}, "capacities": {"e1": True}},
    ), ids=("unknown-limit", "zero-cores", "string-capacity",
            "float-capacity", "bool-capacity"))
    def test_bad_arguments_are_400_value_errors(self, client, options):
        import http.client
        import json as _json

        from repro.io import graph_to_payload
        from repro.tpdf import random_consistent_graph

        graph = random_consistent_graph(4, seed=1)
        body = _json.dumps({"graph": graph_to_payload(graph),
                            "options": options}).encode()
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=30)
        try:
            conn.request("POST", "/simulate", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = _json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert data["error"]["type"] == "ValueError"
        with pytest.raises(ValueError, match="unknown nodes|cores must be|"
                                             "'e1' must be an integer"):
            client.simulate(graph, **options)


class TestStatsEndpoint:
    """``GET /stats``: the result-cache eviction counter and the
    per-worker decode-cache occupancy rows."""

    def test_evictions_and_worker_rows(self, client):
        stats = client.stats()
        cache = stats["cache"]
        assert isinstance(cache["evictions"], int)
        assert cache["evictions"] >= 0
        assert cache["entries"] <= 256  # the default LRU bound
        workers = stats["workers"]
        assert len(workers) == 2  # the module service runs 2 workers
        for row in workers:
            assert {"slot", "pid", "alive"} <= set(row)
            if row["alive"]:
                assert row["resident_graphs"] >= 0
                assert row["sessions"] >= 0

    def test_decode_cache_grows_with_traffic(self, client):
        graph = small_csdf(seed=97)
        client.analyze(graph, no_cache=True)
        workers = client.stats()["workers"]
        resident = sum(row.get("resident_graphs", 0) for row in workers
                       if row["alive"])
        assert resident >= 1  # the analyzed graph stayed decoded


class TestScalarWire:
    """The scalar tagging layer: Fractions and numpy ints are the two
    value kinds JSON would silently mangle."""

    @pytest.mark.parametrize("value", [
        None, True, False, 0, -7, 3.5, float("inf"), "text",
        Fraction(3, 2), Fraction(-10, 4),
    ])
    def test_scalar_round_trip_preserves_value_and_type(self, value):
        back = _scalar_from_wire(json_round_trip(
            {"v": _scalar_to_wire(value)})["v"])
        assert back == value
        assert type(back) is type(value)

    def test_numpy_integers_normalize_to_int(self):
        wire = _scalar_to_wire(np.int64(42))
        assert wire == 42 and type(wire) is int  # json.dumps-safe

    def test_unencodable_scalar_is_rejected_eagerly(self):
        with pytest.raises(GraphConstructionError):
            _scalar_to_wire(object())


class TestPayloadFingerprint:

    def test_stable_across_encodings(self):
        from repro.io import graph_to_payload

        graph = small_csdf(seed=91)
        payload = graph_to_payload(graph)
        assert payload_fingerprint(payload) == payload_fingerprint(
            json_round_trip(payload)
        )

    def test_sensitive_to_content(self):
        from repro.io import graph_to_payload

        a = graph_to_payload(small_csdf(seed=92))
        b = graph_to_payload(small_csdf(seed=93))
        assert payload_fingerprint(a) != payload_fingerprint(b)


class TestErrorEnvelope:

    @pytest.mark.parametrize("exc, status", [
        (BadRequest("bad"), 400),
        (GraphConstructionError("nope"), 400),
        (TypeError("unhashable binding value for 'p'"), 400),
        (SessionLost("gone"), 410),
        (ReproError("generic"), 422),
        (WorkerCrashError("died", attempts=3), 503),
        (RuntimeError("unmapped"), 500),
    ])
    def test_status_mapping(self, exc, status):
        assert error_status(exc) == status

    def test_library_errors_reconstruct_as_same_type(self):
        for exc in (GraphConstructionError("x"), ParametricMCRError("y"),
                    BadRequest("z"), SessionLost("w"), ValueError("v"),
                    KeyError("k")):
            back = error_from_dict(json_round_trip(error_to_dict(exc)))
            assert type(back) is type(exc)
            assert str(back) == str(exc)

    def test_deadlock_blocked_set_round_trips(self):
        exc = DeadlockError("stuck", blocked=["a2", "a0"])
        back = error_from_dict(json_round_trip(error_to_dict(exc)))
        assert isinstance(back, DeadlockError)
        assert list(back.blocked) == ["a2", "a0"]

    def test_worker_crash_attempts_round_trip(self):
        exc = WorkerCrashError("kept dying", attempts=5)
        back = error_from_dict(json_round_trip(error_to_dict(exc)))
        assert isinstance(back, WorkerCrashError)
        assert back.attempts == 5

    def test_unknown_type_degrades_to_service_error(self):
        back = error_from_dict({"type": "SomethingExotic",
                                "message": "?"}, status=500)
        assert isinstance(back, ServiceError)
        assert back.type_name == "SomethingExotic"
        assert back.status == 500

    def test_double_round_trip_is_stable(self):
        # notably KeyError, whose str() re-quotes its argument
        exc = KeyError("actor_x")
        once = error_from_dict(json_round_trip(error_to_dict(exc)))
        twice = error_from_dict(json_round_trip(error_to_dict(once)))
        assert str(twice) == str(exc)
