"""Tests for graph serialization, the rate-expression parser and the
worker hand-off codec."""

import pytest

from repro.analysis import analyze, warm_graph
from repro.cache import analysis_cache
from repro.csdf import CSDFGraph
from repro.errors import GraphConstructionError
from repro.io import (
    csdf_from_dict,
    csdf_from_json,
    csdf_to_dict,
    csdf_to_json,
    graph_from_payload,
    graph_to_payload,
    parse_poly,
    tpdf_from_dict,
    tpdf_from_json,
    tpdf_to_dict,
    tpdf_to_json,
)
from repro.symbolic import Poly
from repro.tpdf import (
    check_rate_safety,
    clock,
    fig2_graph,
    random_consistent_graph,
    repetition_vector,
)


class TestPolyParser:
    def test_constants(self):
        assert parse_poly("7") == Poly.const(7)
        assert parse_poly("1/2") == Poly.const(1).scale(1) / 1 if False else True
        # Fractions parse as rationals:
        from fractions import Fraction

        assert parse_poly("3/4").const_value() == Fraction(3, 4)

    def test_variables_and_products(self):
        assert parse_poly("2*p") == 2 * Poly.var("p")
        assert parse_poly("p*q") == Poly.var("p") * Poly.var("q")

    def test_powers(self):
        assert parse_poly("p**2") == Poly.var("p") ** 2

    def test_sums_and_differences(self):
        p = Poly.var("p")
        assert parse_poly("p + 1") == p + 1
        assert parse_poly("2*p - p") == p

    def test_parentheses(self):
        beta, n, l = (Poly.var(s) for s in ("beta", "N", "L"))
        assert parse_poly("beta*(N + L)") == beta * (n + l)

    def test_negation(self):
        assert parse_poly("-p + p").is_zero()

    def test_roundtrip_rendering(self):
        for text in ("3 + 12*N*beta + L*beta", "2*p", "p**2*q + 1"):
            poly = parse_poly(text)
            assert parse_poly(str(poly)) == poly

    def test_errors(self):
        for bad in ("", "p +", "(p", "p ** q", "p $"):
            with pytest.raises(ValueError):
                parse_poly(bad)


class TestTPDFRoundTrip:
    def test_fig2_roundtrip(self):
        graph = fig2_graph()
        clone = tpdf_from_json(tpdf_to_json(graph))
        assert repetition_vector(clone) == repetition_vector(graph)
        assert check_rate_safety(clone).safe
        assert set(clone.channels) == set(graph.channels)
        assert clone.parameters["p"].lo == 1

    def test_priorities_preserved(self):
        graph = fig2_graph()
        clone = tpdf_from_dict(tpdf_to_dict(graph))
        assert clone.node("F").port("from_e").priority == 2

    def test_clock_period_preserved(self):
        from repro.tpdf import TPDFGraph
        from repro.tpdf.builtins import ClockActor

        graph = TPDFGraph("clocked")
        clock(graph, "ck", period=125.0)
        k = graph.add_kernel("k")
        k.add_control_port("ctrl", 1)
        graph.connect("ck.tick", "k.ctrl")
        clone = tpdf_from_dict(tpdf_to_dict(graph))
        node = clone.node("ck")
        assert isinstance(node, ClockActor)
        assert node.period == 125.0

    def test_meta_preserved(self):
        from repro.tpdf import TPDFGraph, transaction

        graph = TPDFGraph()
        transaction(graph, "t", inputs=2)
        clone = tpdf_from_dict(tpdf_to_dict(graph))
        assert clone.node("t").meta["builtin"] == "transaction"
        assert clone.node("t").meta["action"] == "priority_deadline"

    def test_wrong_model_rejected(self):
        with pytest.raises(GraphConstructionError):
            tpdf_from_dict({"model": "csdf", "nodes": [], "channels": []})


class TestCSDFRoundTrip:
    def test_fig1_roundtrip(self, fig1):
        clone = csdf_from_json(csdf_to_json(fig1))
        from repro.csdf import concrete_repetition_vector, find_sequential_schedule

        assert concrete_repetition_vector(clone) == {"a1": 3, "a2": 2, "a3": 2}
        assert str(find_sequential_schedule(clone)) == "(a3)^2 (a1)^3 (a2)^2"
        assert clone.channel("e2").initial_tokens == 2

    def test_parametric_roundtrip(self):
        from repro.csdf import CSDFGraph

        g = CSDFGraph("param")
        g.add_actor("a", exec_time=[1.0, 2.5])
        g.add_actor("b")
        g.add_channel("e", "a", "b", [Poly.var("p"), 2 * Poly.var("p")], 1)
        clone = csdf_from_dict(csdf_to_dict(g))
        assert clone.channel("e").production.bind({"p": 2}).as_ints() == (2, 4)
        assert clone.actor("a").exec_times == (1.0, 2.5)

    def test_wrong_model_rejected(self):
        with pytest.raises(GraphConstructionError):
            csdf_from_dict({"model": "tpdf", "actors": [], "channels": []})

    @pytest.mark.parametrize("entry", [0, 3, 12, -2, "0", "7", "007", " 7", "7 ",
                                       "2*p", "1/2", True, False, "٣"])
    def test_rate_decode_matches_the_parser(self, entry):
        """Integers and digit strings skip the tokenizer; the decoded
        phase is the one parsing its ``str`` gives."""
        from repro.io import _rate_from_json

        try:
            expected = parse_poly(str(entry))
        except ValueError as exc:
            with pytest.raises(type(exc)):
                _rate_from_json(entry)
            return
        decoded = _rate_from_json(entry)
        assert decoded == expected
        assert repr(decoded) == repr(expected)
        assert hash(decoded) == hash(expected)

    def test_decoded_names_are_shared(self, fig1):
        text = csdf_to_json(fig1)
        first, second = csdf_from_json(text), csdf_from_json(text)
        assert first.actor_names() == second.actor_names()
        assert all(a is b for a, b in zip(first.actor_names(), second.actor_names()))


class TestCodec:
    """The pickle-safe payload codec underpinning the service's worker
    hand-off."""

    def test_payload_is_plain_data(self):
        graph = random_consistent_graph(5, extra_edges=2, seed=7,
                                        parametric=True, with_control=True)
        payload = graph_to_payload(graph)

        def plain(value):
            if isinstance(value, dict):
                return all(isinstance(k, str) and plain(v) for k, v in value.items())
            if isinstance(value, (list, tuple)):
                return all(plain(v) for v in value)
            return value is None or isinstance(value, (str, int, float, bool))

        assert plain(payload)

    def test_roundtrip_preserves_analysis_results(self):
        graph = random_consistent_graph(6, extra_edges=3, n_cycles=1, seed=11,
                                        with_control=True)
        clone = graph_from_payload(graph_to_payload(graph))
        assert analyze(clone).fingerprint() == analyze(graph).fingerprint()

    def test_roundtrip_strips_caches_and_callables(self):
        graph = random_consistent_graph(4, seed=2)
        for kernel in graph.kernels.values():
            kernel.function = lambda *tokens: tokens  # unpicklable closure
        analyze(graph)  # populate caches
        assert analysis_cache(graph)
        clone = graph_from_payload(graph_to_payload(graph))
        assert not analysis_cache(clone)
        assert all(k.function is None for k in clone.kernels.values())

    def test_kernel_modes_roundtrip(self, fig2):
        clone = graph_from_payload(graph_to_payload(fig2))
        assert clone.kernels["F"].modes == fig2.kernels["F"].modes

    def test_csdf_payload_roundtrip(self, fig1):
        clone = graph_from_payload(graph_to_payload(fig1))
        assert isinstance(clone, CSDFGraph)
        assert analyze(clone).fingerprint() == analyze(fig1).fingerprint()

    def test_frozen_memoized_view_is_encodable(self):
        graph = random_consistent_graph(4, seed=6)
        view = graph.as_csdf()
        assert view.frozen
        clone = graph_from_payload(graph_to_payload(view))
        assert not clone.frozen, "decoded copies are fresh and mutable"
        assert analyze(clone).fingerprint() == analyze(view).fingerprint()

    def test_unknown_payload_rejected(self):
        with pytest.raises(GraphConstructionError):
            graph_from_payload({"model": "hsdf?"})
        with pytest.raises(GraphConstructionError):
            graph_to_payload(object())  # type: ignore[arg-type]


class TestWarmGraph:
    """``warm_graph`` primes a decoded graph's caches in a service
    worker."""

    def test_warm_graph_populates_shared_caches(self):
        graph = random_consistent_graph(4, seed=8)
        assert not analysis_cache(graph.as_csdf())
        warm_graph(graph)
        cache = analysis_cache(graph.as_csdf())
        assert ("repetition_vector",) in cache

    def test_warm_graph_caches_negative_verdicts(self):
        bad = CSDFGraph("bad")
        bad.add_actor("a")
        bad.add_actor("b")
        bad.add_channel("ab", "a", "b", production=2, consumption=3)
        bad.add_channel("ab2", "a", "b", production=1, consumption=1)
        warm_graph(bad)  # must not raise
        assert ("base_solution",) in analysis_cache(bad)
