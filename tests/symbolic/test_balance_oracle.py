"""Differential oracle for the monomial balance solve.

:func:`repro.symbolic.solve_balance` runs systems whose rates are all
monomials on ``(Fraction, exponent vector)`` pairs — constant systems
are the zero-exponent case — and everything else on rational
functions.  The symbolic path accepts every system, so it is the
oracle: every system here goes through both paths, called directly,
and must yield the same ``list(items())`` — same components, same
breadth-first node order, same values and reprs — or the same
exception type and message.
"""

import random
from fractions import Fraction

import pytest

from repro import gallery
from repro.csdf import CSDFGraph
from repro.csdf.analysis import cycle_totals, repetition_vector
from repro.symbolic import Poly, Rat, linsolve, solve_balance
from repro.gallery import fig7_graph
from repro.tpdf import TPDFGraph, fig2_graph, random_consistent_graph

#: The parameter-free shapes of the 200-graph corpus
#: (tests/service/conftest.py): (actors, extra, back, control).
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


def _monomial(nodes, edges):
    system = linsolve._monomial_edges(list(edges))
    assert system is not None, "not a monomial system"
    return linsolve._solve_monomial(nodes, *system)


def _symbolic(nodes, edges):
    return linsolve._solve_symbolic(nodes, list(edges))


def _outcome(solve, nodes, edges):
    try:
        result = solve(nodes, edges)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return [(node, value, repr(value)) for node, value in result.items()]


def assert_paths_agree(nodes, edges):
    monomial = _outcome(_monomial, nodes, edges)
    assert monomial == _outcome(_symbolic, nodes, edges)
    # ... and solve_balance dispatches monomial systems to the monomial path
    assert _outcome(solve_balance, nodes, edges) == monomial
    return monomial


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
            outcome = _outcome(_monomial, nodes, edges)
            assert not isinstance(outcome, list), case

    def test_parametric_systems_take_the_symbolic_path(self):
        p = Poly.var("p")
        assert linsolve._monomial_edges([("a", "b", p + 1, ONE)]) is None
        assert linsolve._monomial_edges([("a", "b", ONE, "junk")]) is None
        with pytest.raises(TypeError):
            solve_balance(["a", "b"], [("a", "b", ONE, "junk")])


#: Parameters, coefficients and exponents of the random monomial
#: systems: zero and fractional coefficients included.
PARAMS = ("p", "q", "r")
COEFFS = (0, 1, 1, 1, 2, 3, 4, 6, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
EXPONENTS = (0, 0, 0, 1, 2)
RANDOM_SYSTEMS = 1500


def _random_monomial(rng, zero=True):
    coeff = rng.choice(COEFFS if zero else COEFFS[1:])
    key = tuple(
        (name, exp) for name in PARAMS if (exp := rng.choice(EXPONENTS))
    )
    return Poly({key: Fraction(coeff)})


def _random_monomial_system(rng):
    """1-7 nodes in shuffled order and up to twice as many edges.  Most
    edges balance a hidden monomial solution; the rest are random,
    vacuous ``(0, 0)``, or off by a monomial factor, which reaches the
    inconsistent-cycle, production-into-zero and zero-solution
    errors."""
    nodes = [f"v{i}" for i in range(rng.randint(1, 7))]
    rng.shuffle(nodes)
    hidden = {node: _random_monomial(rng, zero=False) for node in nodes}
    edges = []
    for _ in range(rng.randint(0, 2 * len(nodes))):
        src, dst = rng.choice(nodes), rng.choice(nodes)
        scale = _random_monomial(rng, zero=False)
        roll = rng.random()
        if roll < 0.75:
            edges.append((src, dst, scale * hidden[dst], scale * hidden[src]))
        elif roll < 0.85:
            edges.append((src, dst, _random_monomial(rng), _random_monomial(rng)))
        elif roll < 0.9:
            edges.append((src, dst, Poly(), Poly()))
        else:
            skew = _random_monomial(rng, zero=False)
            edges.append((src, dst, scale * hidden[dst] * skew, scale * hidden[src]))
    return nodes, edges


def _parametric_gallery():
    """Figs. 2 and 4 with their parameters unbound."""
    yield "fig2", fig2_graph().as_csdf()
    for case in ("a", "b"):
        yield f"fig4{case}", gallery.fig4_graph(case).as_csdf()


class TestMonomialPathMatchesSymbolic:
    def test_random_monomial_systems(self):
        errors = solved = parametric = 0
        for seed in range(RANDOM_SYSTEMS):
            nodes, edges = _random_monomial_system(random.Random(seed))
            outcome = assert_paths_agree(nodes, edges)
            if isinstance(outcome, list):
                solved += 1
                parametric += any(value.variables() for _, value, _ in outcome)
            else:
                errors += 1
        # Both outcomes are well represented, and so are solutions in
        # the parameters.
        assert errors > RANDOM_SYSTEMS // 5 and solved > RANDOM_SYSTEMS // 3
        assert parametric > RANDOM_SYSTEMS // 5

    def test_negative_exponents_print_like_rat(self):
        """An inconsistent edge prints its intermediate solutions the
        way :class:`Rat` does: positive powers over negative ones."""
        p, r = Poly.var("p"), Poly.var("r")
        nodes = ["a", "b", "c"]
        edges = [("a", "b", ONE, p), ("b", "c", 2 * r * r, ONE), ("c", "c", ONE, TWO)]
        outcome = assert_paths_agree(nodes, edges)
        assert outcome == (
            linsolve.InconsistentRatesError,
            "balance violated on channel 'c' -> 'c': 1 * 2*r**2/p != 2 * 2*r**2/p",
        )

    @pytest.mark.parametrize("name", [label for label, _ in _parametric_gallery()])
    def test_parametric_gallery(self, name):
        csdf = dict(_parametric_gallery())[name]
        outcome = assert_paths_agree(*_balance_system(csdf))
        assert isinstance(outcome, list)


class TestNoRationalFunctions:
    """The monomial path never builds a :class:`Rat`."""

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
        # Fig. 7's source produces L*beta + N*beta: not a monomial.
        repetition_vector(fig7_graph().as_csdf())
        assert rat_calls

    def test_fig2_builds_none(self, rat_calls):
        assert repetition_vector(fig2_graph().as_csdf())["B"] == 2 * Poly.var("p")
        assert rat_calls == []

    def test_tpdf_view_of_a_constant_graph(self, rat_calls):
        graph = TPDFGraph("constant")
        a = graph.add_kernel("A")
        b = graph.add_kernel("B")
        a.add_output("out", [2, 1])
        b.add_input("in", 3)
        graph.connect("A.out", "B.in")
        assert repetition_vector(graph.as_csdf()) == {"A": TWO, "B": ONE}
        assert rat_calls == []
