"""Tests for control areas and local solutions (Defs. 3 & 4, Example 3)."""

import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.csdf import cyclic_components
from repro.errors import AnalysisError
from repro.io import graph_from_payload
from repro.symbolic import Param, Poly, poly_gcd_many
from repro.tpdf import (
    LocalSolution,
    TPDFGraph,
    area_local_solution,
    control_area,
    fig2_graph,
    influenced,
    local_solution,
    predecessors,
    random_consistent_graph,
    repetition_vector,
    successors,
)
from repro.tpdf import areas

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from parity import _perfbench_graphs  # noqa: E402

P = Poly.var("p")


class TestNeighbourhoods:
    def test_prec_succ_of_c(self, fig2):
        assert predecessors(fig2, "C") == {"B"}
        assert successors(fig2, "C") == {"F"}

    def test_influenced(self, fig2):
        assert influenced(fig2, "C") == {"D", "E"}

    def test_area_matches_example3(self, fig2):
        assert control_area(fig2, "C") == {"B", "D", "E", "F"}

    def test_area_requires_control_actor(self, fig2):
        with pytest.raises(AnalysisError):
            control_area(fig2, "A")


class TestLocalSolutions:
    def test_example3_local_solution(self, fig2):
        local = area_local_solution(fig2, "C")
        assert local.factor == P
        assert local.counts == {
            "B": Poly.const(2),
            "D": Poly.const(1),
            "E": Poly.const(2),
            "F": Poly.const(2),
        }
        assert local.is_concrete()
        assert local.as_ints() == {"B": 2, "D": 1, "E": 2, "F": 2}

    def test_local_solution_of_whole_graph(self, fig2):
        local = local_solution(fig2, ["A", "B", "C", "D", "E", "F"])
        # gcd(r) = gcd(2, 2p, p, p, 2p, p) = 1 so q^L = q.
        assert local.factor == Poly.const(1)
        assert local.counts["B"] == 2 * P
        assert not local.is_concrete()
        with pytest.raises(AnalysisError):
            local.as_ints()

    def test_singleton_subset(self, fig2):
        local = local_solution(fig2, ["D"])
        assert local.counts["D"] == Poly.const(1)

    def test_empty_subset_rejected(self, fig2):
        with pytest.raises(AnalysisError):
            local_solution(fig2, [])

    def test_unknown_actor_rejected(self, fig2):
        with pytest.raises(AnalysisError):
            local_solution(fig2, ["ghost"])

    def test_str_rendering(self, fig2):
        text = str(area_local_solution(fig2, "C"))
        assert "B^2" in text and "x p" in text


class TestDeepPipelineArea:
    def test_transitive_influence(self):
        """A control actor whose prec/succ span a 3-deep pipeline: the
        one-step formula would miss the middle actor; the transitive
        reading captures it."""
        g = TPDFGraph()
        src = g.add_kernel("src")
        src.add_output("out", 1)
        src.add_output("sig", 1)
        m1 = g.add_kernel("m1")
        m1.add_input("in", 1)
        m1.add_output("out", 1)
        m2 = g.add_kernel("m2")
        m2.add_input("in", 1)
        m2.add_output("out", 1)
        snk = g.add_kernel("snk")
        snk.add_input("in", 1)
        snk.add_control_port("ctrl", 1)
        ctrl = g.add_control_actor("ctrl")
        ctrl.add_input("in", 1)
        ctrl.add_control_output("out", 1)
        g.connect("src.out", "m1.in")
        g.connect("m1.out", "m2.in")
        g.connect("m2.out", "snk.in")
        g.connect("src.sig", "ctrl.in")
        g.connect("ctrl.out", "snk.ctrl")
        area = control_area(g, "ctrl")
        assert area == {"src", "m1", "m2", "snk"}


def _plain_local_solution(graph, subset):
    """The polynomial-gcd local solution, the oracle of the monomial
    fast path: ``tau`` per actor and :func:`poly_gcd_many`."""
    q = repetition_vector(graph)
    csdf = graph.as_csdf()
    r = [q[name].try_div(Poly.const(csdf.tau(name))) for name in subset]
    factor = poly_gcd_many(r)
    return factor, {name: q[name].try_div(factor) for name in subset}


def _subsets(graph):
    """The cycles, control areas and whole node set of a graph."""
    yield from cyclic_components(graph.as_csdf())
    for name in graph.node_names():
        if graph.is_control_actor(name):
            yield tuple(sorted(control_area(graph, name)))
    yield tuple(graph.node_names())


def _oracle_graphs():
    from repro.gallery import fig3_graph, fig4_graph, fig7_graph

    yield "fig2", fig2_graph()
    yield "fig3", fig3_graph()
    yield "fig4a", fig4_graph("a")
    yield "fig4b", fig4_graph("b")
    yield "fig7", fig7_graph()
    shapes = ((3, 1, 0, False, False), (5, 2, 0, False, True), (5, 3, 2, False, False),
              (6, 3, 1, False, True), (6, 2, 0, True, False), (7, 3, 0, True, True),
              (8, 4, 2, False, False))
    for n, extra, cycles, parametric, control in shapes:
        for seed in range(6):
            yield f"n{n}s{seed}", random_consistent_graph(
                n, extra_edges=extra, n_cycles=cycles, seed=seed,
                parametric=parametric, with_control=control,
            )
    for n in (20, 40, 80):
        yield f"tpdf{n}", random_consistent_graph(n, extra_edges=n // 3, n_cycles=2, seed=n)
        yield f"param{n}", random_consistent_graph(
            n, extra_edges=n // 3, n_cycles=2, seed=n, parametric=True,
        )


class TestLocalSolutionOracle:
    def test_matches_polynomial_gcd(self):
        subsets = parametric = 0
        for label, graph in _oracle_graphs():
            for subset in _subsets(graph):
                factor, counts = _plain_local_solution(graph, subset)
                local = local_solution(graph, subset)
                assert (local.factor, str(local.factor)) == (factor, str(factor)), (label, subset)
                assert {n: str(c) for n, c in local.counts.items()} == {
                    n: str(c) for n, c in counts.items()}, (label, subset)
                assert local.counts == counts
                subsets += 1
                parametric += any(count.variables() for count in counts.values())
        assert subsets > 100 and parametric > 10

    def test_non_monomial_counts_take_the_polynomial_gcd(self):
        p = Param("p")
        graph = TPDFGraph("sum", parameters=[p])
        graph.add_kernel("A").add_output("out", P + 1)
        graph.add_kernel("B").add_input("in", 1)
        graph.add_kernel("C").add_input("in", 1)
        graph.node("B").add_output("out", 1)
        graph.connect("A.out", "B.in")
        graph.connect("B.out", "C.in")
        assert repetition_vector(graph)["B"] == P + 1
        for subset in (("B", "C"), ("A", "B", "C")):
            factor, counts = _plain_local_solution(graph, subset)
            local = local_solution(graph, subset)
            assert (local.factor, local.counts) == (factor, counts)
        assert local_solution(graph, ("B", "C")).factor == P + 1


def _constant_graphs():
    """The parameter-free oracle graphs and perfbench's TPDF documents
    (20 and 80 actors, a control actor each)."""
    for label, graph in _oracle_graphs():
        if not graph.parameters:
            yield label, graph
    graphs = _perfbench_graphs()
    for seed in (1, 2, 3):
        for n in (20, 80):
            yield f"perfbench{seed}:{n}", graph_from_payload(
                graphs.make_doc("tpdf", n, seed, 0).doc)


class TestIntegerLocalSolution:
    """Def. 4 of a constant-rate graph runs on the int ``q``: gcd(r)
    and ``q^L`` in ints, never the polynomial gcd."""

    def test_matches_polynomial_gcd(self):
        subsets = 0
        for label, graph in _constant_graphs():
            oracle = {subset: _plain_local_solution(graph, subset)
                      for subset in _subsets(graph)}
            with mock.patch.object(areas, "poly_gcd_many", side_effect=AssertionError), \
                    mock.patch.object(areas, "_monomial_gcd", side_effect=AssertionError), \
                    mock.patch.object(areas, "repetition_vector", side_effect=AssertionError):
                locals_ = {subset: local_solution(graph, subset) for subset in oracle}
            for subset, (factor, counts) in oracle.items():
                local = locals_[subset]
                expected = LocalSolution(subset, factor, counts)
                assert local.is_concrete(), (label, subset)
                assert local.as_ints() == {n: int(c.const_value()) for n, c in counts.items()}
                assert (str(local), repr(local)) == (str(expected), repr(expected))
                assert local == expected
                assert (local.factor, str(local.factor)) == (factor, str(factor))
                assert {n: str(c) for n, c in local.counts.items()} == {
                    n: str(c) for n, c in counts.items()}
                subsets += 1
        assert subsets > 100

    def test_counts_are_polys_on_request(self):
        local = local_solution(random_consistent_graph(6, 3, 1, seed=2), ("k0", "k1"))
        assert type(local.factor) is Poly
        assert all(type(count) is Poly for count in local.counts.values())
        assert all(type(count) is int for count in local.as_ints().values())

    def test_big_coprime_rates(self):
        """A cycle through rates 1009/1013 and 1019/1021: q is past a
        million, and the cycle's local solution is q itself."""
        g = TPDFGraph("coprime")
        for name in ("a", "b", "c"):
            g.add_kernel(name)
        g.node("a").add_output("o", 1009)
        g.node("b").add_input("i", 1013)
        g.node("b").add_output("o", 1019)
        g.node("c").add_input("i", 1021)
        g.node("c").add_output("o", 1013 * 1021)
        g.node("a").add_input("i", 1009 * 1019)
        g.connect("a.o", "b.i")
        g.connect("b.o", "c.i")
        g.connect("c.o", "a.i", initial_tokens=1009 * 1019)
        local = local_solution(g, ("a", "b", "c"))
        assert local.as_ints() == {"a": 1013 * 1021, "b": 1009 * 1021, "c": 1009 * 1019}
        assert str(local) == f"[a^{1013 * 1021} b^{1009 * 1021} c^{1009 * 1019}] x 1"
        factor, counts = _plain_local_solution(g, ("a", "b", "c"))
        assert local == LocalSolution(("a", "b", "c"), factor, counts)
