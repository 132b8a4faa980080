"""Differential oracle for the MCR event graph.

:func:`repro.csdf.mcr._build_structure` emits the weight-free event
graph ``(nodes, (src, dst, distance) edges)`` straight from the
repetition vector and the rate tables.  The reference reads the same
structure back from the full HSDF expansion
(:func:`repro.csdf.sdf.expand_to_hsdf`), the way the MCR did before
the direct build; nodes, edges, distances and their order must match.
"""

import pytest

from repro import gallery
from repro.analysis import analyze
from repro.csdf import CSDFGraph, max_cycle_ratio, sdf
from repro.csdf.analysis import concrete_repetition_vector
from repro.csdf.mcr import _build_structure
from repro.errors import GraphConstructionError
from repro.tpdf import fig2_graph, random_consistent_graph

#: (actors, extra_edges, back_edges, parametric, with_control) — the
#: 200-graph corpus of tests/service/conftest.py.
SHAPES = (
    (3, 1, 0, False, False),
    (4, 2, 1, False, False),
    (5, 2, 0, False, True),
    (5, 3, 2, False, False),
    (6, 3, 1, False, True),
    (6, 2, 0, True, False),
    (7, 3, 0, True, True),
    (8, 4, 2, False, False),
)
SEEDS_PER_SHAPE = 25


def reference_structure(graph: CSDFGraph, bindings=None):
    """The event graph read back from the HSDF expansion: every
    expansion channel is an edge whose distance is its initial tokens
    over its rate, and every firing that no serialization ring leaves
    gets the one-iteration self-loop."""
    hsdf = sdf.expand_to_hsdf(graph, bindings)
    nodes = tuple(hsdf.actors)
    edges = []
    for channel in hsdf.channels.values():
        rate = int(channel.consumption.as_ints(None)[0])
        distance = channel.initial_tokens / rate if rate else 0.0
        edges.append((channel.src, channel.dst, distance))
    ringed = {c.src for c in hsdf.channels.values() if c.name.startswith("ring_")}
    for name in nodes:
        if name not in ringed:
            edges.append((name, name, 1.0))
    return nodes, tuple(edges)


def reference_flows(channel, q_src, q_dst, bindings=None):
    """Firing flows from symbolic cumulative rates, one ``Poly``
    evaluation per firing (the construction the prefix sums replace)."""
    production = channel.production.bind(bindings or {})
    consumption = channel.consumption.bind(bindings or {})
    produced = [int(production.cumulative(k).const_value()) for k in range(q_src + 1)]
    consumed = [int(consumption.cumulative(m).const_value()) for m in range(q_dst + 1)]
    total = produced[-1]
    assert total == consumed[-1]
    if total == 0:
        return []
    d = channel.initial_tokens
    flows = []
    for k in range(1, q_src + 1):
        for delta in range(0, (d + total) // total + 2):
            base = delta * total - d
            for m in range(1, q_dst + 1):
                count = (min(produced[k], base + consumed[m])
                         - max(produced[k - 1], base + consumed[m - 1]))
                if count > 0:
                    flows.append((k, m, delta, count))
    return flows


def _outcome(build, graph, bindings):
    try:
        return build(graph, bindings)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def assert_same_structure(graph: CSDFGraph, bindings=None):
    """Both builds agree; returns the outcome (a structure, or the
    ``(type, message)`` of the error both raised)."""
    built = _outcome(_build_structure, graph, bindings)
    assert built == _outcome(reference_structure, graph, bindings)
    return built


def same_structure(graph: CSDFGraph, bindings=None):
    """Both builds agree on a structure; returns ``(nodes, edges)``."""
    built = assert_same_structure(graph, bindings)
    assert isinstance(built[0], tuple), built
    return built


def _corpus():
    for n, extra, cycles, parametric, control in SHAPES:
        for seed in range(SEEDS_PER_SHAPE):
            graph = random_consistent_graph(
                n, extra_edges=extra, n_cycles=cycles, seed=seed,
                parametric=parametric, with_control=control,
            )
            yield graph.as_csdf(), {"p": 2} if parametric else None


def _gallery():
    yield "fig1", gallery.fig1_graph(), None
    yield "fig2_p2", fig2_graph().as_csdf(), {"p": 2}
    yield "fig2_p3", fig2_graph().as_csdf(), {"p": 3}
    yield "fig4a_p2", gallery.fig4_graph("a").as_csdf(), {"p": 2}
    yield "fig4b_p1", gallery.fig4_graph("b").as_csdf(), {"p": 1}
    yield "fig6", gallery.fig6_graph(image_size=8)[0].as_csdf(), None
    yield "fig7_qam16", gallery.fig7_graph().as_csdf(), {"beta": 2, "N": 4, "L": 1, "M": 4}
    yield "radio_b2c3", gallery.parametric_radio_graph(), {"b": 2, "c": 3}


class TestStructureMatchesExpansion:
    def test_corpus(self):
        count = 0
        for graph, bindings in _corpus():
            _nodes, edges = same_structure(graph, bindings)
            assert edges
            count += 1
        assert count == len(SHAPES) * SEEDS_PER_SHAPE

    @pytest.mark.parametrize("name", [label for label, _g, _b in _gallery()])
    def test_gallery(self, name):
        _label, graph, bindings = next(item for item in _gallery() if item[0] == name)
        same_structure(graph, bindings)

    def test_reserved_separator_rejected(self):
        g = CSDFGraph("bad")
        g.add_actor("a#1")
        g.add_actor("b")
        g.add_channel("e", "a#1", "b")
        built = assert_same_structure(g)
        assert built[0] is GraphConstructionError
        assert "reserved separator" in built[1]

    def test_reserved_separator_wins_over_inconsistency(self):
        g = CSDFGraph("bad")
        g.add_actor("a#1")
        g.add_actor("b")
        g.add_channel("e", "a#1", "b", production=2)
        g.add_channel("f", "b", "a#1", initial_tokens=1)
        assert assert_same_structure(g)[0] is GraphConstructionError

    def test_zero_total_channels(self):
        g = CSDFGraph("zeros")
        g.add_actor("a", exec_time=[1, 2])
        g.add_actor("b")
        g.add_actor("c")
        g.add_channel("idle", "a", "b", production=[0, 0], consumption=0)
        g.add_channel("flow", "a", "b", production=[1, 0], consumption=1)
        g.add_channel("mute", "b", "c", production=0, consumption=[0, 0])
        g.add_channel("back", "c", "a", production=[0, 2], consumption=[1, 1],
                      initial_tokens=2)
        nodes, edges = same_structure(g)
        assert len(nodes) == 5
        assert not [e for e in edges if e[0].startswith("b#") and e[1].startswith("c#")]

    def test_inconsistent_graph(self):
        g = CSDFGraph("mismatch")
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("e", "a", "b", production=2, consumption=1)
        g.add_channel("f", "b", "a", initial_tokens=1)
        built = assert_same_structure(g)
        assert built[0].__name__ == "InconsistentRatesError"

    def test_multi_iteration_tokens(self):
        g = CSDFGraph("deep")
        g.add_actor("a", exec_time=3)
        g.add_actor("b", exec_time=[1, 2, 1])
        g.add_channel("ab", "a", "b", production=3, consumption=[1, 0, 2])
        g.add_channel("ba", "b", "a", production=[2, 1, 0], consumption=3,
                      initial_tokens=7)
        nodes, edges = same_structure(g)
        assert {t for _s, _d, t in edges} >= {0.0, 1.0, 2.0}


class TestFlows:
    def test_prefix_sums_match_symbolic_cumulatives(self):
        for graph, bindings in _corpus():
            q = concrete_repetition_vector(graph, bindings)
            for channel in graph.channels.values():
                args = (channel, q[channel.src], q[channel.dst], bindings)
                assert list(sdf.channel_firing_flows(*args)) == reference_flows(*args)

    def test_parametric_rates_need_bindings(self):
        graph = fig2_graph().as_csdf()
        channel = next(c for c in graph.channels.values() if c.variables())
        with pytest.raises(KeyError):
            list(sdf.channel_firing_flows(channel, 2, 2))

    def test_serialization_ring_of_one_firing_is_the_self_loop(self):
        assert sdf.serialization_ring("a", 1) == [("a#1", "a#1", 1.0)]
        assert sdf.serialization_ring("a", 3) == [
            ("a#1", "a#2", 0.0), ("a#2", "a#3", 0.0), ("a#3", "a#1", 1.0),
        ]


class TestRingNamedChannel:
    """A channel whose name starts with ``ring_`` is a flow, not a
    serialization ring: its producer keeps its self-loop (the reader
    of the expansion told rings apart by channel name)."""

    def _graph(self, channel_name: str) -> CSDFGraph:
        g = CSDFGraph("named")
        g.add_actor("a", exec_time=5)
        g.add_actor("b", exec_time=1)
        g.add_channel(channel_name, "a", "b")
        return g

    def test_self_loop_kept(self):
        _nodes, edges = _build_structure(self._graph("ring_ab"), None)
        assert ("a#1", "a#1", 1.0) in edges
        assert max_cycle_ratio(self._graph("ring_ab")) == 5.0
        assert max_cycle_ratio(self._graph("ab")) == 5.0


class TestAnalyzeSkipsTheExpansion:
    """``analyze()`` reads its event graph from the rate tables and
    never builds the HSDF graph."""

    @pytest.fixture
    def expansions(self, monkeypatch):
        calls = []
        original = sdf._expand_to_hsdf

        def spy(graph, bindings):
            calls.append(graph.name)
            return original(graph, bindings)

        monkeypatch.setattr(sdf, "_expand_to_hsdf", spy)
        return calls

    def test_analyze(self, expansions):
        items = [
            (gallery.fig1_graph(), None),
            (fig2_graph(), {"p": 2}),
            (gallery.parametric_radio_graph(), {"b": 2, "c": 3}),
        ]
        items += [item for item in list(_corpus())[::20]]
        for graph, bindings in items:
            report = analyze(graph, bindings)
            assert report.mcr is not None, graph.name
        assert expansions == []

    def test_spy_sees_direct_expansions(self, expansions):
        graph = gallery.fig1_graph()
        sdf.expand_to_hsdf(graph)
        assert expansions == [graph.name]
