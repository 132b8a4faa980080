"""Tests for graph serialization, the rate-expression parser and the
worker hand-off codec."""

import re

import pytest

from repro.analysis import analyze
from repro.cache import analysis_cache
from repro.csdf import CSDFGraph, RateSequence
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

    @staticmethod
    def _one_channel(*productions) -> dict:
        """A CSDF document with one channel ``e<k>`` per production."""
        return {"model": "csdf", "actors": [{"name": "a"}, {"name": "b"}],
                "channels": [{"name": f"e{k}", "src": "a", "dst": "b",
                              "production": production, "consumption": [1]}
                             for k, production in enumerate(productions)]}

    @pytest.mark.parametrize("entry", [0, 3, 12, -2, "0", "7", "007", " 7", "7 ",
                                       "2*p", "1/2", "٣"])
    def test_rate_decode_matches_the_parser(self, entry):
        """Integers and digit strings skip the tokenizer; the decoded
        sequence is the one parsing the phase's ``str`` gives, and a
        refused phase is refused with the parser's error."""
        doc = self._one_channel([entry])
        try:
            expected = RateSequence([parse_poly(str(entry))])
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                csdf_from_dict(doc)
            return
        decoded = csdf_from_dict(doc).channel("e0").production
        assert decoded == expected
        assert repr(decoded) == repr(expected)
        assert hash(decoded) == hash(expected)
        assert decoded.entries == expected.entries

    @pytest.mark.parametrize("entry", [True, False, None])
    def test_boolean_and_null_rates_are_refused(self, entry):
        """``str(True)`` parses as a parameter named ``True``: a JSON
        boolean or null is refused, naming the phase, not decoded as
        a parameter."""
        with pytest.raises(ValueError, match=f"rate phase {entry!r} "):
            csdf_from_dict(self._one_channel([1, entry]))
        with pytest.raises(ValueError, match=f"rate phase {entry!r} "):
            graph_from_payload(self._one_channel([entry]))

    @pytest.mark.parametrize("tokens", [1.7, True])
    def test_non_integer_initial_tokens_refused(self, tokens):
        """``"initial_tokens": 1.7`` (or ``true``) used to decode as 1."""
        doc = self._one_channel([1])
        doc["channels"][0]["initial_tokens"] = tokens
        message = f"channel 'e0': initial tokens must be an integer, got {tokens!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            csdf_from_dict(doc)
        tpdf = tpdf_to_dict(fig2_graph())
        tpdf["channels"][0]["initial_tokens"] = tokens
        with pytest.raises(GraphConstructionError, match="channel 'e1': initial tokens"):
            tpdf_from_dict(tpdf)
        with pytest.raises(GraphConstructionError, match="channel 'e1': initial tokens"):
            graph_from_payload(tpdf)

    def test_each_distinct_expression_is_parsed_once(self, monkeypatch):
        import repro.io

        calls = []

        def counting(text):
            calls.append(text)
            return parse_poly(text)

        monkeypatch.setattr(repro.io, "parse_poly", counting)
        doc = self._one_channel(["2*p", "p"], ["p", 3], ["2*p"])
        graph = csdf_from_dict(doc)
        assert sorted(calls) == ["2*p", "p"]
        first, last = graph.channel("e0"), graph.channel("e2")
        assert first.production.entries[0] is last.production.entries[0]
        # a second document parses afresh
        csdf_from_dict(doc)
        assert len(calls) == 4

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
