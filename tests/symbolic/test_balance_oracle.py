"""Differential oracle for the integer and monomial balance solves.

:func:`repro.symbolic.solve_balance` runs a system whose rates are all
Python ints on integer pairs and answers with ints, a system whose
rates are all monomials on ``(integer pair, exponent vector)``
monomials — constant ``Poly`` systems are the zero-exponent case — and
everything else on rational functions.  The symbolic path accepts
every system, so it is the oracle: every system here goes through the
paths, called directly, and must yield the same solution — same
components, same breadth-first node order, same values, printed the
same — or the same exception type and message.

At the graph level the int pipeline of :mod:`repro.csdf.analysis`
(int per-cycle totals, the int solve, ``q = tau * r`` in ints) is
checked the same way against that pipeline fed ``Poly`` totals and
solved on ``Rat`` values, and a spy shows that ``analyze()`` of a
constant-rate graph builds no ``Fraction``, ``Poly`` or ``Rat`` in its
consistency, repetition and liveness stages.
"""

import fractions
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from repro import gallery
from repro.analysis import analyze
from repro.csdf import CSDFGraph
from repro.csdf import analysis
from repro.csdf.analysis import (base_solution, constant_repetition_vector,
                                 cycle_totals, repetition_vector)
from repro.io import graph_from_payload
from repro.symbolic import Poly, Rat, linsolve, solve_balance
from repro.gallery import fig7_graph
from repro.tpdf import TPDFGraph, fig2_graph, random_consistent_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from parity import _perfbench_graphs  # noqa: E402

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
    # coprime rates: q reaches 1013 * 1021 before the gcd has anything
    # to divide, and the closing edge is exact or off by one
    "big_coprime_chain": (
        ["a", "b", "c"], [("a", "b", 1009, 1013), ("b", "c", 1019, 1021)],
    ),
    "big_coprime_cycle": (
        ["a", "b", "c"],
        [("a", "b", 1009, 1013), ("b", "c", 1019, 1021),
         ("c", "a", 1013 * 1021, 1009 * 1019)],
    ),
    "big_coprime_cycle_off_by_one": (
        ["a", "b", "c"],
        [("a", "b", 1009, 1013), ("b", "c", 1019, 1021),
         ("c", "a", 1013 * 1021, 1009 * 1019 + 1)],
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
    return [(node, Poly.coerce(value), str(value)) for node, value in result.items()]


def _integral(edges) -> bool:
    return all(type(rate) is int for *_, produced, consumed in edges
               for rate in (produced, consumed))


def assert_paths_agree(nodes, edges):
    monomial = _outcome(_monomial, nodes, edges)
    assert monomial == _outcome(_symbolic, nodes, edges)
    # ... and solve_balance dispatches monomial systems to the monomial
    # path, which answers int rates with int components
    assert _outcome(solve_balance, nodes, edges) == monomial
    if isinstance(monomial, list):
        kind = int if _integral(edges) else Poly
        assert all(type(value) is kind
                   for value in solve_balance(nodes, edges).values())
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

#: perfbench's 80-actor ``cold_analyze`` documents: (seed, kind, index).
PERFBENCH_DOCS = [(seed, kind, index) for seed in (1, 2, 3)
                  for kind in ("csdf", "tpdf", "param") for index in range(3)]


@pytest.fixture(scope="module")
def perfbench_graphs():
    """The CSDF views of perfbench's 80-actor documents, decoded once."""
    graphs = _perfbench_graphs()
    out = {}
    for seed, kind, index in PERFBENCH_DOCS:
        graph = graph_from_payload(graphs.make_doc(kind, 80, seed, index).doc)
        out[(seed, kind, index)] = (
            graph.as_csdf() if isinstance(graph, TPDFGraph) else graph)
    return out


def _poly_totals(graph):
    """:func:`cycle_totals` with every total as a ``Poly``."""
    return [(channel, Poly.coerce(produced), Poly.coerce(consumed))
            for channel, produced, consumed in cycle_totals(graph)]


def _rat_pipeline(csdf):
    """``(r, q)`` of the graph-level pipeline fed ``Poly`` totals and
    solved on ``Rat`` values: the oracle of the int pipeline."""
    with mock.patch.object(analysis, "cycle_totals", _poly_totals), \
            mock.patch.object(analysis, "solve_balance", _symbolic):
        q, r = analysis._solve(csdf)
    if q is not None:  # no actors: nothing was solved
        return {}, {}
    taus = csdf.taus()
    return r, {name: Poly.const(taus[name]) * value for name, value in r.items()}


def _graph_outcome(compute):
    try:
        result = compute()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return [(name, Poly.coerce(value), str(value)) for name, value in result.items()]


def assert_graph_paths_agree(csdf):
    """The int ``q`` of a constant-rate graph, and the ``r`` and ``q``
    Polys built from it, against the ``Rat`` pipeline."""
    counts = _graph_outcome(lambda: constant_repetition_vector(csdf))
    assert counts == _graph_outcome(lambda: _rat_pipeline(csdf)[1])
    if isinstance(counts, list):
        assert all(type(value) is int
                   for value in constant_repetition_vector(csdf).values())
        assert _graph_outcome(lambda: repetition_vector(csdf)) == counts
        assert (_graph_outcome(lambda: base_solution(csdf))
                == _graph_outcome(lambda: _rat_pipeline(csdf)[0]))
    return counts


def _csdf(*channels, actors=()):
    """A CSDF graph of ``(name, src, dst, production, consumption)``
    channels; ``actors`` adds actors no channel names."""
    graph = CSDFGraph("case")
    for actor in dict.fromkeys([*actors, *(a for c in channels for a in c[1:3])]):
        graph.add_actor(actor)
    for name, src, dst, production, consumption in channels:
        graph.add_channel(name, src, dst, production, consumption)
    return graph


#: Constant-rate graphs reaching every error path of the graph-level
#: solve, and the shapes around them.
GRAPH_CASES = {
    "unbalanced_cycle": lambda: _csdf(("e1", "a", "b", 1, 1), ("e2", "b", "a", 2, 1)),
    "production_into_zero": lambda: _csdf(("e1", "a", "b", [1, 2], [0])),
    "unbalanced_self_loop": lambda: _csdf(
        ("e1", "a", "b", 1, 2), ("loop", "b", "b", [2, 1], [1])),
    "balanced_self_loop": lambda: _csdf(
        ("e1", "a", "b", 1, 2), ("loop", "b", "b", [2, 1], [3])),
    "vacuous_edge": lambda: _csdf(("e1", "a", "b", 0, 0), ("e2", "a", "b", 3, 1)),
    "vacuous_edge_only": lambda: _csdf(("e1", "a", "b", 0, 0)),
    "vacuous_edge_then_constraint": lambda: _csdf(
        ("e1", "a", "b", 0, 0), ("e2", "b", "c", 1, 2)),
    "isolated_actors": lambda: _csdf(("e1", "a", "b", 1, 2), actors=("lonely", "z")),
    "components": lambda: _csdf(("e1", "a", "b", 2, 1), ("e2", "x", "y", 3, [1, 2])),
    "big_coprime_cycle": lambda: _csdf(
        ("e1", "a", "b", 1009, 1013), ("e2", "b", "c", [1019, 0], [1021]),
        ("e3", "c", "a", 1013 * 1021, [1009 * 1019, 0])),
    "big_coprime_cycle_off_by_one": lambda: _csdf(
        ("e1", "a", "b", 1009, 1013), ("e2", "b", "c", [1019, 0], [1021]),
        ("e3", "c", "a", 1013 * 1021, [1009 * 1019 + 1, 0])),
    "no_actors": lambda: CSDFGraph("empty"),
}


class TestIntegerPathMatchesSymbolic:
    def test_corpus(self):
        count = 0
        for label, csdf in _corpus():
            nodes, edges = _balance_system(csdf)
            assert _integral(edges)
            outcome = assert_paths_agree(nodes, edges)
            assert isinstance(outcome, list), (label, outcome)
            assert isinstance(assert_graph_paths_agree(csdf), list), label
            count += 1
        assert count == len(CONSTANT_SHAPES) * SEEDS_PER_SHAPE

    @pytest.mark.parametrize("key", PERFBENCH_DOCS,
                             ids=lambda k: f"seed{k[0]}-{k[1]}{k[2]}")
    def test_perfbench_documents(self, perfbench_graphs, key):
        """80 actors: the constant-rate kinds on the int path, the
        parametric kind (rates in ``p``) on the monomial path."""
        csdf = perfbench_graphs[key]
        nodes, edges = _balance_system(csdf)
        assert _integral(edges) == (key[1] != "param")
        assert isinstance(assert_paths_agree(nodes, edges), list)
        if key[1] != "param":
            assert isinstance(assert_graph_paths_agree(csdf), list)
        else:
            assert constant_repetition_vector(csdf) is None

    def test_perfbench_documents_with_a_doubled_production(self, perfbench_graphs):
        """Doubling one channel's production breaks the balance on
        every undirected cycle through it: the int path raises what the
        ``Rat`` path raises, message for message."""
        errors = 0
        for (seed, kind, index), csdf in perfbench_graphs.items():
            if kind == "param" or index:
                continue
            channels = [c for c in csdf.channels.values() if not c.is_selfloop()]
            for channel in random.Random(seed).sample(channels, 8):
                mutant = csdf.bind({})
                mutant.channel(channel.name).production = [
                    2 * phase for phase in channel.production.as_ints()]
                errors += not isinstance(assert_graph_paths_agree(mutant), list)
        assert errors > 10

    @pytest.mark.parametrize("case", sorted(GRAPH_CASES))
    def test_graph_cases(self, case):
        assert_graph_paths_agree(GRAPH_CASES[case]())

    def test_graph_error_cases_raise(self):
        for case in ("unbalanced_cycle", "production_into_zero",
                     "unbalanced_self_loop", "vacuous_edge_then_constraint",
                     "big_coprime_cycle_off_by_one"):
            outcome = assert_graph_paths_agree(GRAPH_CASES[case]())
            assert not isinstance(outcome, list), case
        # tau = 2, 2, 1 and r = 1013 * 1021, 1009 * 1021, 1009 * 1019
        q = {"a": 2 * 1013 * 1021, "b": 2 * 1009 * 1021, "c": 1009 * 1019}
        assert assert_graph_paths_agree(GRAPH_CASES["big_coprime_cycle"]()) == [
            (name, Poly.const(count), str(count)) for name, count in q.items()]

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
    """The monomial path never builds a :class:`Rat`, and the int path
    builds no ``Fraction`` or ``Poly`` either."""

    @pytest.fixture
    def built(self, monkeypatch):
        """One entry per ``Fraction``, ``Poly`` or ``Rat`` built while
        the fixture is active: the names of the functions on the stack."""
        made = []

        def record():
            frame, names = sys._getframe(2), []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            made.append(names)

        def spy(owner, name, static=False):
            original = owner.__dict__[name]
            function = original.__func__ if static else original

            def wrapper(*args, **kwargs):
                record()
                return function(*args, **kwargs)

            monkeypatch.setattr(owner, name, staticmethod(wrapper) if static else wrapper)

        spy(fractions.Fraction, "__new__", static=True)
        spy(Poly, "__init__")
        spy(Poly, "term", static=True)
        spy(Rat, "__init__")
        return made

    @staticmethod
    def _stages(graph):
        """``analyze()`` running only its consistency, repetition and
        liveness stages."""
        report = analyze(graph, with_mcr=False, with_buffers=False,
                         with_throughput=False)
        assert report.consistent and report.live and report.repetition
        return report

    def test_analyze_of_constant_csdf_graphs(self, built):
        graphs = _perfbench_graphs()
        cases = [gallery.fig1_graph(), *(csdf for _, csdf in list(_corpus())[::10])]
        cases += [graph_from_payload(graphs.make_doc("csdf", n, 1, 0).doc)
                  for n in (20, 80)]
        del built[:]
        for graph in cases:
            self._stages(graph)
        assert built == []

    def test_analyze_of_constant_tpdf_graphs(self, built):
        """Cyclic TPDF graphs without control actors build nothing; with
        one, the only values built are rate safety's Def. 5 equations
        (:class:`~repro.tpdf.safety.SafetyCheck` holds Polys)."""
        graphs = _perfbench_graphs()
        plain = [random_consistent_graph(n, extra_edges=n // 2, n_cycles=2, seed=seed,
                                         with_control=False)
                 for n, seed in ((8, 1), (20, 2), (40, 3))]
        plain += [graph_from_payload(graphs.tpdf_doc(
            random.Random(f"spy:{n}"), n, f"plain{n}", control=False)[0])
            for n in (20, 80)]
        controlled = [graph_from_payload(graphs.make_doc("tpdf", n, 1, 0).doc)
                      for n in (20, 80)]
        controlled.append(random_consistent_graph(
            8, extra_edges=4, n_cycles=2, seed=1, with_control=True))
        del built[:]
        for graph in plain:
            report = self._stages(graph)
            assert report.safe is True
        assert built == []
        for graph in controlled:
            assert graph.controls
            self._stages(graph)
        assert built and all("check_rate_safety" in names for names in built)

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
