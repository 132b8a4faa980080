"""Differential oracle for the integer balance solve.

:func:`repro.symbolic.solve_balance` runs constant-rate systems on
integers and everything else on rational functions.  The symbolic path
accepts constant systems too, so it is the oracle: every constant
system here goes through both paths, called directly, and must yield
the same ``list(items())`` — same components, same breadth-first node
order, same values — or the same exception type and message.
"""

from fractions import Fraction

import pytest

from repro import gallery
from repro.csdf import CSDFGraph
from repro.csdf.analysis import cycle_totals, repetition_vector
from repro.symbolic import Poly, Rat, linsolve, solve_balance
from repro.tpdf import TPDFGraph, fig2_graph, random_consistent_graph

#: The parameter-free shapes of the 200-graph corpus
#: (tests/test_analysis_parallel.py): (actors, extra, back, control).
CONSTANT_SHAPES = (
    (3, 1, 0, False),
    (4, 2, 1, False),
    (5, 2, 0, True),
    (5, 3, 2, False),
    (6, 3, 1, True),
    (8, 4, 2, False),
)
SEEDS_PER_SHAPE = 25

ONE, TWO, THREE = Poly.const(1), Poly.const(2), Poly.const(3)

#: The constant-rate cases of tests/symbolic/test_linsolve.py, plus the
#: error paths a constant system can reach.
HAND_CASES = {
    "unit_chain": (["a", "b"], [("a", "b", ONE, ONE)]),
    "rate_ratio": (["a", "b"], [("a", "b", TWO, THREE)]),
    "consistent_cycle": (
        ["a", "b", "c"],
        [("a", "b", TWO, ONE), ("b", "c", ONE, TWO), ("c", "a", TWO, TWO)],
    ),
    "inconsistent_cycle": (
        ["a", "b"], [("a", "b", ONE, ONE), ("b", "a", TWO, ONE)],
    ),
    "zero_zero_edge": (
        ["a", "b"], [("a", "b", Poly(), Poly()), ("a", "b", ONE, ONE)],
    ),
    "only_vacuous_edges": (["a", "b"], [("a", "b", 0, 0)]),
    "production_into_zero": (["a", "b"], [("a", "b", ONE, Poly())]),
    "zero_production_forces_zero": (["a", "b"], [("a", "b", 0, 4)]),
    "negative_rate": (["a", "b"], [("a", "b", -1, ONE)]),
    "negative_consumption": (["a", "b"], [("a", "b", ONE, Fraction(-3, 2))]),
    "unknown_endpoint": (["a"], [("a", "zzz", ONE, ONE)]),
    "isolated_node": (["a", "b", "lonely"], [("a", "b", ONE, TWO)]),
    "components": (
        ["a", "b", "x", "y"], [("a", "b", TWO, ONE), ("x", "y", THREE, ONE)],
    ),
    "empty": ([], []),
    "plain_ints": (["a", "b", "c"], [("a", "b", 6, 4), ("b", "c", 10, 15)]),
    "fractional_rates": (
        ["a", "b", "c"],
        [("a", "b", Fraction(1, 2), 3), ("b", "c", Fraction(2, 3), Fraction(5, 7))],
    ),
    "bool_rates": (["a", "b"], [("a", "b", True, 2)]),
    "bfs_order": (
        ["d", "c", "b", "a"],
        [("a", "b", 1, 2), ("c", "d", 3, 1), ("b", "c", 2, 5)],
    ),
}


def _integer(nodes, edges):
    constant = linsolve._constant_edges(list(edges))
    assert constant is not None, "not a constant-rate system"
    return linsolve._solve_integer(nodes, constant)


def _symbolic(nodes, edges):
    return linsolve._solve_symbolic(nodes, list(edges))


def _outcome(solve, nodes, edges):
    try:
        result = solve(nodes, edges)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return [(node, value, repr(value)) for node, value in result.items()]


def assert_paths_agree(nodes, edges):
    integer = _outcome(_integer, nodes, edges)
    assert integer == _outcome(_symbolic, nodes, edges)
    # ... and solve_balance dispatches constant systems to the integer path
    assert _outcome(solve_balance, nodes, edges) == integer
    return integer


def _balance_system(csdf: CSDFGraph):
    edges = [
        (channel.src, channel.dst, produced, consumed)
        for channel, produced, consumed in cycle_totals(csdf)
        if not channel.is_selfloop()
    ]
    return csdf.actor_names(), edges


def _corpus():
    for n, extra, cycles, control in CONSTANT_SHAPES:
        for seed in range(SEEDS_PER_SHAPE):
            graph = random_consistent_graph(
                n, extra_edges=extra, n_cycles=cycles, seed=seed,
                with_control=control,
            )
            yield f"n{n}e{extra}c{cycles}s{seed}", graph.as_csdf()


def _gallery():
    """Figs. 1 and 6 as drawn; Fig. 4 (rates in ``p``) bound to
    constants."""
    yield "fig1", gallery.fig1_graph()
    for case in ("a", "b"):
        for p in (1, 2, 3):
            csdf = gallery.fig4_graph(case).as_csdf().bind({"p": p})
            yield f"fig4{case}_p{p}", csdf
    yield "fig6", gallery.fig6_graph(image_size=8)[0].as_csdf()


GALLERY = [label for label, _ in _gallery()]


class TestIntegerPathMatchesSymbolic:
    def test_corpus(self):
        count = 0
        for label, csdf in _corpus():
            nodes, edges = _balance_system(csdf)
            outcome = assert_paths_agree(nodes, edges)
            assert isinstance(outcome, list), (label, outcome)
            count += 1
        assert count == len(CONSTANT_SHAPES) * SEEDS_PER_SHAPE

    def test_corpus_with_a_perturbed_rate(self):
        """Scaling one production to ``2x + 1`` reaches the
        inconsistent-cycle error paths; both paths must raise alike."""
        errors = 0
        for label, csdf in _corpus():
            nodes, edges = _balance_system(csdf)
            for index in (0, len(edges) - 1):
                src, dst, produced, consumed = edges[index]
                perturbed = list(edges)
                perturbed[index] = (src, dst, produced * 2 + 1, consumed)
                outcome = assert_paths_agree(nodes, perturbed)
                errors += not isinstance(outcome, list)
        assert errors > 0

    @pytest.mark.parametrize("name", GALLERY)
    def test_gallery(self, name):
        csdf = dict(_gallery())[name]
        outcome = assert_paths_agree(*_balance_system(csdf))
        assert isinstance(outcome, list)

    @pytest.mark.parametrize("case", sorted(HAND_CASES))
    def test_hand_cases(self, case):
        nodes, edges = HAND_CASES[case]
        assert_paths_agree(nodes, edges)

    def test_error_cases_raise(self):
        for case in ("inconsistent_cycle", "production_into_zero",
                     "zero_production_forces_zero", "negative_rate",
                     "negative_consumption", "unknown_endpoint"):
            nodes, edges = HAND_CASES[case]
            outcome = _outcome(_integer, nodes, edges)
            assert not isinstance(outcome, list), case

    def test_parametric_systems_take_the_symbolic_path(self):
        p = Poly.var("p")
        assert linsolve._constant_edges([("a", "b", p, ONE)]) is None
        assert linsolve._constant_edges([("a", "b", ONE, "junk")]) is None
        with pytest.raises(TypeError):
            solve_balance(["a", "b"], [("a", "b", ONE, "junk")])


class TestNoRationalFunctions:
    """The integer path never builds a :class:`Rat`."""

    @pytest.fixture
    def rat_calls(self, monkeypatch):
        calls = []
        original = Rat.__init__

        def spy(self, *args, **kwargs):
            calls.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Rat, "__init__", spy)
        return calls

    def test_parameter_free_repetition_vector(self, rat_calls):
        for _label, csdf in list(_corpus())[::10]:
            repetition_vector(csdf)
        for _label, csdf in _gallery():
            repetition_vector(csdf)
        assert rat_calls == []

    def test_parametric_graph_still_uses_them(self, rat_calls):
        repetition_vector(fig2_graph().as_csdf())
        assert rat_calls

    def test_tpdf_view_of_a_constant_graph(self, rat_calls):
        graph = TPDFGraph("constant")
        a = graph.add_kernel("A")
        b = graph.add_kernel("B")
        a.add_output("out", [2, 1])
        b.add_input("in", 3)
        graph.connect("A.out", "B.in")
        assert repetition_vector(graph.as_csdf()) == {"A": TWO, "B": ONE}
        assert rat_calls == []
