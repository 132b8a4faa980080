"""Differential oracle for the one event-graph builder and the MCR's
rings-and-cores decomposition.

:func:`repro.csdf.mcr._event_graph` builds the event graph of a set of
actors and channels on integer node indices, ``(src, dst, distance)``
edges, straight from the repetition vector and the rate tables.
:func:`repro.csdf.mcr.max_cycle_ratio` never builds the whole event
graph: its weight-free decomposition
(:func:`repro.csdf.mcr._decomposition`) keeps the ``(actor, q_a)``
pairs of the actors outside the cyclic cores, whose serialization
rings are closed-form, and builds each core's event graph.  The
capacity questions (:class:`repro.csdf.mcr._CapacityEventGraph`) build
the whole graph's.  The reference reads the whole event graph back
from the HSDF expansion (:func:`repro.csdf.sdf.expand_to_hsdf`): with
the builder's node indices mapped to firing names, each core's nodes,
edges, distances and their order must equal the expansion restricted
to the core's firings, the capacity event graph's edges the whole
expansion, and every actor outside the cores must have exactly its
ring there, whose exact sum is the closed-form ratio.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

import repro.csdf.mcr as mcr_mod
from repro import gallery
from repro.analysis import analyze
from repro.csdf import CSDFGraph, max_cycle_ratio, sdf
from repro.csdf.analysis import concrete_repetition_vector
from repro.csdf.digraph import adjacency, nontrivial_components
from repro.csdf.mcr import (
    _CapacityEventGraph, _decomposition, _event_graph, _ring_sum, mcr_reference,
)
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


def reference_event_graph(graph: CSDFGraph, bindings=None):
    """The event graph read back from the HSDF expansion.

    Returns ``(nodes, rings, flows)``: the expansion's actors, each
    actor's serialization edges (the expansion lists the rings of the
    actors firing more than once first, in ``q`` order; an actor firing
    once gets the one-iteration self-loop, told from ``q``), and every
    other expansion channel's edge in expansion order.  A channel's
    distance is its initial tokens over its rate.
    """
    hsdf = sdf.expand_to_hsdf(graph, bindings)
    q = concrete_repetition_vector(graph, bindings)
    edges = [
        (c.src, c.dst, c.initial_tokens / c.consumption.as_ints(None)[0])
        for c in hsdf.channels.values()
    ]
    rings = {}
    position = 0
    for name, count in q.items():
        if count > 1:
            rings[name] = edges[position:position + count]
            position += count
        else:
            node = sdf.firing_name(name, 1)
            rings[name] = [(node, node, 1.0)]
    return tuple(hsdf.actors), rings, edges[position:]


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


def _owner(node: str) -> str:
    return node.rpartition("#")[0]


def reference_core(graph: CSDFGraph, bindings, actors):
    """One core's ``(nodes, edges)`` from the expansion, in the
    builder's order: the core actors' firings and rings actor by actor,
    then the flows between core firings in expansion order."""
    nodes, rings, flows = reference_event_graph(graph, bindings)
    members = set(actors)
    core_nodes = tuple(n for a in actors for n in nodes if _owner(n) == a)
    edges = [e for a in actors for e in rings[a]]
    edges += [e for e in flows if _owner(e[0]) in members and _owner(e[1]) in members]
    return core_nodes, tuple(edges)


def _named(firings, edges):
    """A builder's ``edges`` over the ``(actor, count)`` pairs
    ``firings``, its node indices mapped to firing names: ``(nodes,
    edges)``."""
    nodes = tuple(sdf.firing_name(name, k)
                  for name, count in firings for k in range(1, count + 1))
    return nodes, tuple((nodes[u], nodes[v], distance) for u, v, distance in edges)


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def assert_decomposition_matches(graph: CSDFGraph, bindings=None):
    """Every core equals the expansion restricted to it, every other
    actor has exactly its ring there with its closed-form ratio, and
    every cycle of the expansion lies on such a ring or inside one
    core.  Returns the decomposition ``(rings, cores)``."""
    rings, cores = _decomposition(graph, bindings)
    q = concrete_repetition_vector(graph, bindings)
    in_cores = set()
    for firings, edges in cores:
        actors = [name for name, _count in firings]
        assert firings == tuple((name, q[name]) for name in actors)
        assert _named(firings, edges) == reference_core(graph, bindings, actors)
        in_cores.update(actors)
    assert rings == tuple((n, c) for n, c in q.items() if n not in in_cores)

    ref_nodes, ref_rings, flows = reference_event_graph(graph, bindings)
    hsdf = sdf.expand_to_hsdf(graph, bindings)
    for name, count in rings:
        inside = [e for e in flows if _owner(e[0]) == name == _owner(e[1])]
        assert inside == [], f"{name}: edges beside its ring {inside}"
        ring = ref_rings[name]
        weight = sum(Fraction(hsdf.actor(src).exec_time()) for src, _dst, _t in ring)
        tokens = sum(Fraction(t) for _src, _dst, t in ring)
        assert tokens == 1
        assert _ring_sum(graph.actor(name).exec_times, count) == weight / tokens

    # Completeness: each cyclic SCC of the whole event graph is one
    # outside actor's ring or lies inside one core.
    edges = [e for ring in ref_rings.values() for e in ring] + flows
    adj = adjacency(ref_nodes, ((src, dst) for src, dst, _t in edges))
    core_of = {a: i for i, (firings, _e) in enumerate(cores) for a, _c in firings}
    ring_actors = {name for name, _count in rings}
    for group in nontrivial_components(adj):
        owners = {_owner(ref_nodes[u]) for u in group}
        if owners <= ring_actors:
            assert len(owners) == 1 and len(group) == q[next(iter(owners))]
        else:
            assert len({core_of.get(a) for a in owners}) == 1 and owners <= set(core_of)
    return rings, cores


def assert_capacity_event_graph_matches(graph: CSDFGraph, bindings=None):
    """The capacity event graph's edges are the whole expansion's, node
    by node in expansion order: every actor's ring in ``q`` order, then
    every flow, each doing its source firing's execution time (integer
    work over the graph's common denominator)."""
    events = _CapacityEventGraph(graph, bindings)
    q = concrete_repetition_vector(graph, bindings)
    nodes, rings, flows = reference_event_graph(graph, bindings)
    numbered, _no_edges = _named(q.items(), ())
    assert numbered == nodes  # firings numbered in the expansion's order
    index = {node: i for i, node in enumerate(nodes)}
    hsdf = sdf.expand_to_hsdf(graph, bindings)
    expected = [[] for _ in nodes]
    for src, dst, distance in [e for name in q for e in rings[name]] + flows:
        work = Fraction(hsdf.actor(src).exec_time()) * events._scale
        expected[index[src]].append((index[dst], work, distance))
    assert events._edges == expected


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


class TestDecompositionMatchesExpansion:
    def test_corpus(self):
        count = cored = 0
        for graph, bindings in _corpus():
            _rings, cores = assert_decomposition_matches(graph, bindings)
            cored += bool(cores)
            count += 1
        assert count == len(SHAPES) * SEEDS_PER_SHAPE
        assert cored > 50  # the back-edge shapes exercise the cores

    @pytest.mark.parametrize("name", [label for label, _g, _b in _gallery()])
    def test_gallery(self, name):
        _label, graph, bindings = next(item for item in _gallery() if item[0] == name)
        assert_decomposition_matches(graph, bindings)

    def test_reserved_separator_rejected(self):
        g = CSDFGraph("bad")
        g.add_actor("a#1")
        g.add_actor("b")
        g.add_channel("e", "a#1", "b")
        built = _outcome(_decomposition, g, None)
        assert built == _outcome(sdf.expand_to_hsdf, g)
        assert built[0] is GraphConstructionError
        assert "reserved separator" in built[1]
        assert _outcome(max_cycle_ratio, g) == built

    def test_reserved_separator_wins_over_inconsistency(self):
        g = CSDFGraph("bad")
        g.add_actor("a#1")
        g.add_actor("b")
        g.add_channel("e", "a#1", "b", production=2)
        g.add_channel("f", "b", "a#1", initial_tokens=1)
        built = _outcome(_decomposition, g, None)
        assert built == _outcome(sdf.expand_to_hsdf, g)
        assert built[0] is GraphConstructionError
        assert _outcome(max_cycle_ratio, g) == built

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
        rings, cores = assert_decomposition_matches(g)
        assert rings == ()
        [(firings, edges)] = cores
        nodes, named = _named(firings, edges)
        assert len(nodes) == 5
        assert not [e for e in named if e[0].startswith("b#") and e[1].startswith("c#")]

    def test_inconsistent_graph(self):
        g = CSDFGraph("mismatch")
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("e", "a", "b", production=2, consumption=1)
        g.add_channel("f", "b", "a", initial_tokens=1)
        built = _outcome(_decomposition, g, None)
        assert built == _outcome(sdf.expand_to_hsdf, g)
        assert built[0].__name__ == "InconsistentRatesError"
        assert _outcome(max_cycle_ratio, g) == built

    def test_unbound_parameter_raises_key_error(self):
        graph = gallery.fig7_graph().as_csdf()
        assert _outcome(max_cycle_ratio, graph) == (KeyError, "'N'")
        assert _outcome(sdf.expand_to_hsdf, graph) == (KeyError, "'N'")

    def test_multi_iteration_tokens(self):
        g = CSDFGraph("deep")
        g.add_actor("a", exec_time=3)
        g.add_actor("b", exec_time=[1, 2, 1])
        g.add_channel("ab", "a", "b", production=3, consumption=[1, 0, 2])
        g.add_channel("ba", "b", "a", production=[2, 1, 0], consumption=3,
                      initial_tokens=7)
        _rings, [(_firings, edges)] = assert_decomposition_matches(g)
        assert {t for _s, _d, t in edges} >= {0, 1, 2}
        assert max_cycle_ratio(g) == pytest.approx(mcr_reference(g), abs=2e-6)


class TestCapacityEventGraphMatchesExpansion:
    def test_corpus(self):
        for graph, bindings in _corpus():
            assert_capacity_event_graph_matches(graph, bindings)

    @pytest.mark.parametrize("name", [label for label, _g, _b in _gallery()])
    def test_gallery(self, name):
        _label, graph, bindings = next(item for item in _gallery() if item[0] == name)
        assert_capacity_event_graph_matches(graph, bindings)


class TestRingsAreClosedForm:
    """An actor outside every cyclic core costs no expansion and no
    Howard solve: its ring ratio is read off its phase times."""

    @pytest.fixture
    def solver_calls(self, monkeypatch):
        calls = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(mcr_mod, name, wrapped)

        spy("howard", mcr_mod.howard)
        spy("_event_graph", mcr_mod._event_graph)
        return calls

    @staticmethod
    def _chain(r1, r2, r3, r4, exec_time=1):
        g = CSDFGraph("coprime")
        for name in "abc":
            g.add_actor(name, exec_time=exec_time)
        g.add_channel("ab", "a", "b", production=r1, consumption=r2)
        g.add_channel("bc", "b", "c", production=r3, consumption=r4)
        return g

    def test_acyclic_chain_solves_nothing(self, solver_calls):
        g = self._chain(13, 17, 19, 23)
        assert concrete_repetition_vector(g) == {"a": 391, "b": 299, "c": 247}
        assert max_cycle_ratio(g) == 391.0
        assert solver_calls == []

    def test_million_firing_chain(self):
        # q is about 1.03M firings per actor: the whole expansion is out
        # of reach, the rings' closed form is not.
        g = self._chain(1009, 1013, 1019, 1021)
        assert max_cycle_ratio(g) == 1034273.0

    def test_phase_cycles_and_leftover_prefix(self):
        times = (0.1, 0.2, 0.7)
        for count in range(1, 8):
            ring = [times[k % 3] for k in range(count)]
            assert _ring_sum(times, count) == sum(map(Fraction, ring))


class TestFlows:
    def test_prefix_sums_match_symbolic_cumulatives(self):
        for graph, bindings in _corpus():
            q = concrete_repetition_vector(graph, bindings)
            for channel in graph.channels.values():
                args = (channel, q[channel.src], q[channel.dst], bindings)
                assert list(sdf.channel_firing_flows(*args)) == reference_flows(*args)

    def test_random_channels_match_the_interval_overlaps(self):
        """Multi-phase rates with zero phases, and initial tokens
        reaching several iterations ahead."""
        rng = random.Random("channel-firing-flows")
        graph = CSDFGraph("flows")
        graph.add_actor("a")
        graph.add_actor("b")
        for i in range(300):
            production = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
            consumption = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
            production[-1] += 1
            consumption[0] += 1
            made, taken = sum(production), sum(consumption)
            per = made * taken // gcd(made, taken)
            channel = graph.add_channel(
                f"c{i}", "a", "b", production=production, consumption=consumption,
                initial_tokens=rng.randint(0, 3 * per))
            q_src = len(production) * per // made
            q_dst = len(consumption) * per // taken
            args = (channel, q_src, q_dst)
            assert list(sdf.channel_firing_flows(*args)) == reference_flows(*args)

    def test_parametric_rates_need_bindings(self):
        graph = fig2_graph().as_csdf()
        channel = next(c for c in graph.channels.values() if c.variables())
        with pytest.raises(KeyError):
            list(sdf.channel_firing_flows(channel, 2, 2))

    def test_serialization_ring_of_one_firing_is_the_self_loop(self):
        assert _event_graph({"a": 1}, ["a"], []) == ({"a": 0}, ((0, 0, 1),))
        assert _event_graph({"z": 2, "a": 3}, ["z", "a"], []) == (
            {"z": 0, "a": 2}, ((0, 1, 0), (1, 0, 1), (2, 3, 0), (3, 4, 0), (4, 2, 1)),
        )


class TestRingNamedChannel:
    """A channel whose name starts with ``ring_`` is a flow, not a
    serialization ring: its producer keeps its self-loop (a reader of
    the expansion that told rings apart by channel name got this
    wrong), in the decomposition and in the oracle alike."""

    def _graph(self, channel_name: str) -> CSDFGraph:
        g = CSDFGraph("named")
        g.add_actor("a", exec_time=5)
        g.add_actor("b", exec_time=1)
        g.add_channel(channel_name, "a", "b")
        return g

    def test_self_loop_kept(self):
        graph = self._graph("ring_ab")
        rings, cores = assert_decomposition_matches(graph)
        assert (rings, cores) == ((("a", 1), ("b", 1)), ())
        assert max_cycle_ratio(graph) == 5.0
        assert max_cycle_ratio(self._graph("ab")) == 5.0
        assert mcr_reference(graph) == pytest.approx(5.0, abs=2e-6)


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
