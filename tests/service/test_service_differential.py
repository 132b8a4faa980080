"""Differential suite: the resident service against direct library calls.

Every result that crosses the service's wire — payload codec in,
worker-pool analysis, JSON report codec out — must be **bit-for-bit**
identical (``GraphReport.fingerprint``, floats compared exactly) to a
direct in-process ``analyze()`` of the same graph, over the seeded
random corpus.  Error surfaces are differential too: whatever a direct
call raises, the service must map to a structured error response that
the client reconstructs as the *same exception type*.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze, analyze_parametric
from repro.errors import GraphConstructionError
from repro.gallery import fig4_graph, parametric_radio_graph
from repro.service import BadRequest, ServiceClient, SessionNotFound

from .conftest import small_csdf

BATCH = 25  # graphs per /batch request (keeps request bodies modest)


@pytest.fixture(scope="module")
def direct_reports(corpus):
    return [analyze(graph, bindings, iterations=3)
            for graph, bindings in corpus]


class TestAnalyzeParity:
    """The acceptance criterion: service == direct, bit for bit."""

    def test_corpus_via_batch_endpoint(self, client, corpus, direct_reports):
        served = []
        for start in range(0, len(corpus), BATCH):
            served.extend(client.batch(corpus[start:start + BATCH],
                                       iterations=3))
        assert len(served) == len(direct_reports)
        mismatched = [
            index
            for index, (got, want) in enumerate(zip(served, direct_reports))
            if isinstance(got, BaseException)
            or got.fingerprint() != want.fingerprint()
        ]
        assert mismatched == []

    def test_single_analyze_matches_batch_and_direct(self, client, corpus,
                                                     direct_reports):
        # A few spot checks through the scalar endpoint (same cache,
        # different code path than /batch).
        for index in (0, len(corpus) // 2, len(corpus) - 1):
            graph, bindings = corpus[index]
            got = client.analyze(graph, bindings, iterations=3)
            assert got.fingerprint() == direct_reports[index].fingerprint()

    def test_deadlocking_graph_reports_not_live(self, client):
        dead = fig4_graph("dead")
        got = client.analyze(dead, {"p": 1}, iterations=3)
        want = analyze(fig4_graph("dead"), {"p": 1}, iterations=3)
        assert want.live is False and want.bounded is False
        assert got.fingerprint() == want.fingerprint()

    def test_option_variants_round_trip(self, client):
        graph = small_csdf(seed=8)
        for options in (
            {"with_throughput": True},
            {"with_buffers": False, "with_mcr": False},
            {"iterations": 6},
            {"iterations": 6, "with_throughput": True},
        ):
            got = client.analyze(graph, **options)
            want = analyze(graph, **options)
            assert got.fingerprint() == want.fingerprint(), options


class TestParametricParity:

    def test_parametric_endpoint(self, client):
        graph = parametric_radio_graph()
        domain = {"b": (1, 4), "c": (1, 3)}
        got = client.analyze_parametric(graph, domain)
        want = analyze_parametric(parametric_radio_graph(), domain)
        assert got.fingerprint() == want.fingerprint()

    def test_parametric_domain_option(self, client, corpus, direct_reports):
        # The corpus's parametric shapes, re-run with a piecewise
        # domain riding along on /analyze.
        checked = 0
        for (graph, bindings), _direct in zip(corpus, direct_reports):
            if not bindings or checked >= 3:
                continue
            got = client.analyze(graph, bindings, iterations=3,
                                 parametric_domain={"p": [1, 4]})
            want = analyze(graph, bindings, iterations=3,
                           parametric_domain={"p": (1, 4)})
            assert got.fingerprint() == want.fingerprint()
            checked += 1
        assert checked == 3


class TestErrorSurfaces:
    """Raised errors cross the wire as their original exception type."""

    def test_unhashable_bindings_is_typeerror_both_ways(self, client):
        graph = small_csdf(seed=9)
        with pytest.raises(TypeError) as direct:
            analyze(graph, {"p": [1, 2]})
        with pytest.raises(TypeError) as served:
            client.analyze(graph, {"p": [1, 2]})
        assert "p" in str(served.value)
        assert type(served.value) is type(direct.value)

    @pytest.mark.parametrize("endpoint, unknown, options", (
        ("analyze", "backend", {"backend": "reference"}),
        ("simulate", "ready_core",
         {"ready_core": "reference", "max_firings": 10}),
        ("analyze", "iteration", {"iteration": 3}),
    ), ids=("analyze-backend", "simulate-ready_core", "analyze-misspelled"))
    def test_unknown_option_is_http_400(self, client, endpoint, unknown,
                                        options):
        """Each plane runs one core behind the service: a request naming
        a retired core selector, like a misspelled option, gets the 400
        ``BadRequest`` envelope naming the option."""
        import http.client
        import json

        from repro.io import graph_to_payload
        from repro.tpdf import fig2_graph

        body = {"graph": graph_to_payload(fig2_graph()),
                "bindings": {"p": 2}, "options": options}
        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request("POST", f"/{endpoint}", body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert data["error"]["type"] == "BadRequest"
        assert data["error"]["message"] == (
            f"unknown {endpoint} options: {[unknown]}")

    @pytest.mark.parametrize("tokens", [1.7, True], ids=("float", "bool"))
    def test_non_integer_initial_tokens_is_http_400(self, client, tokens):
        """A document's ``"initial_tokens": 1.7`` used to be analyzed
        with 1 token: decoding now refuses it, naming the channel, and
        the service answers 400 with the library's exception type."""
        import http.client
        import json

        from repro.io import graph_to_payload
        from repro.tpdf import fig2_graph

        csdf = graph_to_payload(small_csdf(seed=9))
        tpdf = graph_to_payload(fig2_graph())
        for payload, error in ((csdf, "ValueError"),
                               (tpdf, "GraphConstructionError")):
            channel = payload["channels"][0]
            channel["initial_tokens"] = tokens
            body = {"graph": payload, "bindings": {"p": 2}}
            conn = http.client.HTTPConnection(client.host, client.port,
                                              timeout=30)
            try:
                conn.request("POST", "/analyze", body=json.dumps(body),
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                data = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 400
            assert data["error"]["type"] == error
            assert data["error"]["message"] == (
                f"channel {channel['name']!r}: initial tokens must be an "
                f"integer, got {tokens!r}")

    def test_malformed_payload_is_graph_construction_error(self, client):
        with pytest.raises(GraphConstructionError):
            client.analyze({"model": "csdf", "name": "broken"})

    def test_unknown_option_is_bad_request(self, client):
        with pytest.raises(BadRequest, match="bogus"):
            client.analyze(small_csdf(seed=9), bogus=True)

    def test_missing_graph_is_bad_request(self, client):
        with pytest.raises(BadRequest, match="graph"):
            client._request("POST", "/analyze", {"bindings": {}})

    def test_non_json_body_is_bad_request(self, client, service_handle):
        import http.client
        import json

        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request("POST", "/analyze", body=b"not json {",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert data["error"]["type"] == "BadRequest"

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(Exception) as excinfo:
            client._request("GET", "/nonsense")
        assert getattr(excinfo.value, "status", None) == 404 or isinstance(
            excinfo.value, BadRequest
        )

    def test_unknown_session_is_404(self, client):
        with pytest.raises(SessionNotFound):
            client._request("POST", "/session/s9999/edits", {"edits": []})


class TestSessionParity:
    """Edit-script replay inside a session == a direct EditSession on a
    decoded private clone (what the worker actually holds)."""

    def test_edit_replay_matches_direct_session(self, client):
        from repro.analysis import EditSession
        from repro.io import graph_from_payload, graph_to_payload

        graph = small_csdf(seed=3)
        actor = sorted(graph.actors)[0]
        script = [
            [{"op": "set_exec_time", "actor": actor, "value": 9}],
            [{"op": "set_exec_time", "actor": actor, "value": 2}],
        ]
        direct = EditSession(graph_from_payload(graph_to_payload(graph)),
                             None, iterations=3)
        baseline = direct.analyze()

        session = client.session(graph, iterations=3)
        try:
            assert session.report.fingerprint() == baseline.fingerprint()
            keys = [session.graph_key]
            for edits in script:
                for edit in edits:
                    direct.apply(edit)
                want = direct.analyze()
                got = session.edits(edits)
                assert got.fingerprint() == want.fingerprint()
                keys.append(session.graph_key)
            # each edit changed the graph's content key
            assert keys[0] != keys[1] != keys[2]
        finally:
            session.close()
