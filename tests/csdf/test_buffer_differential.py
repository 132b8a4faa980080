"""Capacity verdicts, periods and buffer-search results against the
executor.

``min_buffers_for_full_throughput``, ``buffer_throughput_tradeoff`` and
``bounded_feasible`` never run the executor: they ask the
capacity-bounded event graph (:class:`repro.csdf.mcr._CapacityEventGraph`)
for one exact verdict (does it keep the unconstrained MCR without
deadlock?) or for its exact period.  The oracle is the executor,
``self_timed_execution``, over a long run: a vector *sustains* when the
mean period of the last ``WINDOW`` of ``ITERATIONS`` iterations is the
MCR, and *deadlocks* when the run stalls.  This file pins

* the verdict, the period (the long-run mean within ``1e-9``
  relative, ``DeadlockError`` exactly when the run stalls) and
  ``bounded_feasible`` (False exactly when the run stalls) against the
  oracle on more than 1,000 capacity vectors:
  three random vectors per corpus graph (its control actors take no
  time), six per five-actor graph given two multi-phase self-loops
  (half of them with two zero-time actors), and the search's result
  on the EXT7 family with each channel in turn one below its value —
  1,539 vectors in all, 976 of which deadlock;
* every search result over the corpus, the EXT7 family
  (``random_consistent_graph(n, n // 2, 2, seed)``, n = 20, 40, 80,
  seeds 1-12) and the four EXT3 graphs: it sustains, both by the
  verdict and over the long run, and each of its channels is
  1-minimal (one less loses throughput or deadlocks);
* the search's result on two pipelines of about a thousand firings per
  iteration, and each channel one below it, against a shorter run;
* the exact target on a core where Howard's float ranking settles on a
  cycle just below the critical one.

Tier-1 runs every ``TIER1_STRIDE``-th input of each set; the CI
differential shard, which loads the derandomized ``repro-ci``
hypothesis profile, runs all of them.  Tier-1 also holds all 200
corpus search results to the verdict, to 1-minimality and to a shorter
run, the last ``SHORT_WINDOW`` of ``SHORT_ITERATIONS`` iterations,
which every one of them settles within.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

import pytest

from repro.csdf import (CSDFGraph, bounded_feasible, capacity_floors, max_cycle_ratio,
                        min_buffers_for_full_throughput, self_timed_execution)
from repro.csdf.mcr import _CapacityEventGraph, _cycle_ratios
from repro.errors import DeadlockError
from repro.io import csdf_from_dict, csdf_to_dict
from repro.tpdf import random_consistent_graph

ITERATIONS = 1024
WINDOW = 256
SHORT_ITERATIONS = 64
SHORT_WINDOW = 16
TIER1_STRIDE = 1 if os.environ.get("HYPOTHESIS_PROFILE") == "repro-ci" else 10

#: The 200-graph corpus of tests/service/conftest.py:
#: (actors, extra_edges, back_edges, parametric, with_control).
CORPUS_SHAPES = (
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
EXT7_SIZES = (20, 40, 80)
EXT7_SEEDS = range(1, 13)
SELF_LOOP_GRAPHS = 80
VECTORS_PER_CORPUS_GRAPH = 3
VECTORS_PER_SELF_LOOP_GRAPH = 6
#: EXT7 graphs whose search results are perturbed channel by channel.
NEAR_RESULT_GRAPHS = tuple((20, seed) for seed in EXT7_SEEDS) + ((40, 7),)


def _trim(items: list) -> list:
    return items[::TIER1_STRIDE]


def _corpus() -> list[tuple[str, CSDFGraph, dict | None]]:
    items = []
    for n, extra, cycles, parametric, control in CORPUS_SHAPES:
        for seed in range(SEEDS_PER_SHAPE):
            graph = random_consistent_graph(
                n, extra_edges=extra, n_cycles=cycles, seed=seed,
                parametric=parametric, with_control=control)
            items.append((f"corpus{n}:{extra}:{cycles}:{seed}", graph.as_csdf(),
                          {"p": 2} if parametric else None))
    return items


def _ext7(n: int, seed: int) -> CSDFGraph:
    return random_consistent_graph(n, n // 2, 2, seed).as_csdf()


def _ext3() -> list[tuple[str, CSDFGraph, dict | None]]:
    from repro.apps.ofdm import bindings_for, build_ofdm_tpdf
    from repro.tpdf import fig2_graph

    imbalanced = CSDFGraph("imbalanced")
    imbalanced.add_actor("src", exec_time=1)
    imbalanced.add_actor("mid", exec_time=2)
    imbalanced.add_actor("snk", exec_time=16)
    imbalanced.add_channel("a", "src", "mid", production=8, consumption=8)
    imbalanced.add_channel("b", "mid", "snk", production=8, consumption=8)
    ofdm = build_ofdm_tpdf().as_csdf()
    return [
        ("fig2_p4", fig2_graph().as_csdf(), {"p": 4}),
        ("ofdm_n16", ofdm, bindings_for(2, 16, 4, 4)),
        ("ofdm_n32", ofdm, bindings_for(2, 32, 4, 4)),
        ("imbalanced", imbalanced, None),
    ]


def _self_loop_graph(seed: int) -> CSDFGraph:
    """A five-actor graph given two multi-phase self-loops, each
    carrying one phase cycle's worth of tokens (so it is live); odd
    seeds also set two actors' execution times to 0."""
    rng = random.Random(f"buffer-self-loops:{seed}")
    base = random_consistent_graph(5, extra_edges=2, n_cycles=seed % 3,
                                   seed=seed, with_control=False).as_csdf()
    graph = csdf_from_dict(csdf_to_dict(base))
    for i, actor in enumerate(rng.sample(sorted(graph.actors), 2)):
        production = [rng.randint(0, 3) for _ in range(rng.randint(2, 3))]
        production[0] += 1
        consumption = rng.sample(production, len(production))
        graph.add_channel(f"loop{i}", actor, actor, production=production,
                          consumption=consumption,
                          initial_tokens=sum(consumption) + rng.randint(0, 1))
    if seed % 2:
        for actor in rng.sample(sorted(graph.actors), 2):
            graph.actor(actor).set_exec_time(0)
    return graph


def _random_vector(rng: random.Random, floors: dict[str, int]) -> dict:
    """Each channel unbounded (one in four) or at most three above its
    floor."""
    return {name: None if rng.random() < 0.25 else floor + rng.randint(0, 3)
            for name, floor in floors.items()}


def _long_run(graph, bindings, capacities, iterations: int = ITERATIONS,
              window: int = WINDOW) -> float | None:
    """The oracle: the mean period of the last ``window`` of
    ``iterations`` iterations, or ``None`` when the run deadlocks.

    A settled run repeats every ``k`` iterations, and its period is
    the mean over a whole number of repeats: a run whose iterations
    take 16, 16 and 20 in turn has period 52/3, while its last 256
    iterations average 17.34375.  So the window shrinks to a multiple
    of the least ``k`` (at most a quarter of the window) whose
    ``k``-iteration spans are equal over the window, and stays whole
    when none is."""
    try:
        ends = self_timed_execution(graph, bindings, iterations=iterations,
                                    capacities=capacities).iteration_ends
    except DeadlockError:
        return None
    tail = ends[-1 - window:]

    def repeats(k: int) -> bool:
        span = tail[-1] - tail[-1 - k]
        return all(abs(tail[i] - tail[i - k] - span) <= 1e-9 * max(1.0, span)
                   for i in range(k, len(tail)))

    k = next((k for k in range(1, window // 4 + 1) if repeats(k)), 1)
    window -= window % k
    return (ends[-1] - ends[-1 - window]) / window


def _sustains(period: float | None, mcr: float) -> bool:
    return period is not None and period <= mcr + 1e-9 * max(1.0, mcr)


def _exact_period(event_graph, capacities) -> float | None:
    """``event_graph.period(capacities)``, or ``None`` when it raises
    ``DeadlockError``."""
    try:
        return float(event_graph.period(capacities))
    except DeadlockError:
        return None


def _check_verdicts(cases) -> tuple[int, int]:
    """Each vector's verdict, exact period and ``bounded_feasible``
    answer against the oracle, over ``(graph, bindings, vectors)``
    cases; returns how many vectors were judged and how many of them
    deadlock."""
    judged = deadlocks = 0
    for graph, bindings, vectors in cases:
        verdict = _CapacityEventGraph(graph, bindings)
        mcr = max_cycle_ratio(graph, bindings)
        assert float(verdict.target) == mcr
        for capacities in vectors:
            period = _long_run(graph, bindings, capacities)
            case = (graph.name, capacities, period, mcr)
            assert verdict.sustains(capacities) == _sustains(period, mcr), case
            exact = _exact_period(verdict, capacities)
            if period is None:
                assert exact is None, case
            else:
                assert exact == pytest.approx(period, rel=1e-9, abs=0), case
            assert bounded_feasible(graph, capacities, bindings) == (period is not None), case
            judged += 1
            deadlocks += period is None
    return judged, deadlocks


FULL_CORPUS = _corpus()
CORPUS = _trim(FULL_CORPUS)


def _corpus_vectors():
    for label, graph, bindings in CORPUS:
        rng = random.Random(f"buffer-verdict:{label}")
        floors = capacity_floors(graph, bindings)
        yield graph, bindings, [_random_vector(rng, floors)
                                for _ in range(VECTORS_PER_CORPUS_GRAPH)]


def _self_loop_vectors():
    for seed in _trim(list(range(SELF_LOOP_GRAPHS))):
        graph = _self_loop_graph(seed)
        rng = random.Random(f"buffer-verdict:self-loops:{seed}")
        floors = capacity_floors(graph)
        yield graph, None, [_random_vector(rng, floors)
                            for _ in range(VECTORS_PER_SELF_LOOP_GRAPH)]


def _near_result_vectors():
    """The search's result, and the result with one channel one below
    its value (down to its initial tokens), one channel at a time."""
    for n, seed in _trim(list(NEAR_RESULT_GRAPHS)):
        graph = _ext7(n, seed)
        result = min_buffers_for_full_throughput(graph)
        yield graph, None, [result] + [
            {**result, name: value - 1} for name, value in result.items()
            if value > graph.channel(name).initial_tokens]


class TestVerdictAgainstExecutor:
    def test_corpus(self):
        judged, deadlocks = _check_verdicts(_corpus_vectors())
        assert 0 < deadlocks < judged

    def test_self_loops_and_zero_times(self):
        judged, deadlocks = _check_verdicts(_self_loop_vectors())
        assert 0 < deadlocks < judged

    def test_around_ext7_search_results(self):
        judged, deadlocks = _check_verdicts(_near_result_vectors())
        assert 0 < deadlocks < judged

    def test_token_free_reverse_cycle_deadlocks(self):
        """Two channels capped at their initial tokens in opposite
        directions: a cycle of reverse edges only, which weighs 0."""
        graph = CSDFGraph("opposed")
        graph.add_actor("a", exec_time=1)
        graph.add_actor("b", exec_time=1)
        graph.add_channel("ab", "a", "b", initial_tokens=1)
        graph.add_channel("ba", "b", "a", initial_tokens=1)
        verdict = _CapacityEventGraph(graph, None)
        assert not verdict.sustains({"ab": 1, "ba": 1})
        assert _long_run(graph, None, {"ab": 1, "ba": 1}) is None
        assert verdict.sustains({"ab": 2, "ba": 2})


def _search_inputs() -> list:
    ext7 = [(f"ext7:{n}:{seed}", _ext7(n, seed), None)
            for n in EXT7_SIZES for seed in EXT7_SEEDS]
    return [pytest.param(graph, bindings, id=label)
            for label, graph, bindings in CORPUS + _trim(ext7) + _ext3()]


def _checked_search(graph, bindings) -> dict:
    """The search's result, after checking that it keeps the graph's
    channel order, sustains by the verdict and is 1-minimal."""
    result = min_buffers_for_full_throughput(graph, bindings)
    assert list(result) == list(graph.channels)
    verdict = _CapacityEventGraph(graph, bindings)
    assert verdict.sustains(result)
    for name, value in result.items():
        if value > graph.channel(name).initial_tokens:
            assert not verdict.sustains({**result, name: value - 1}), name
    return result


@pytest.mark.parametrize("graph, bindings", _search_inputs())
def test_search_result_sustains_and_is_one_minimal(graph, bindings):
    result = _checked_search(graph, bindings)
    assert _long_run(graph, bindings, result) == max_cycle_ratio(graph, bindings)


def test_every_corpus_search_result_sustains():
    for label, graph, bindings in FULL_CORPUS:
        result = _checked_search(graph, bindings)
        period = _long_run(graph, bindings, result, SHORT_ITERATIONS, SHORT_WINDOW)
        assert period == max_cycle_ratio(graph, bindings), label


def _high_q_pipelines() -> list:
    """Two pipelines of about a thousand firings per iteration: the
    coprime chain 13/17, 19/23 (q = 391, 299, 247) and a fan of
    q = 1, 512, 512, 1 whose slow source makes one capacity below the
    result lose throughput instead of deadlocking."""
    chain = CSDFGraph("coprime")
    for name in "abc":
        chain.add_actor(name, exec_time=1)
    chain.add_channel("ab", "a", "b", production=13, consumption=17)
    chain.add_channel("bc", "b", "c", production=19, consumption=23)
    fan = CSDFGraph("fan")
    for name, time in (("a", 600), ("b", 1), ("c", 2), ("d", 1)):
        fan.add_actor(name, exec_time=time)
    fan.add_channel("ab", "a", "b", production=512, consumption=1)
    fan.add_channel("bc", "b", "c")
    fan.add_channel("cd", "c", "d", production=1, consumption=512)
    return [pytest.param(chain, id="coprime"), pytest.param(fan, id="fan")]


@pytest.mark.parametrize("graph", _high_q_pipelines())
def test_high_q_pipeline_verdicts(graph):
    """The search's result and each channel one below it, judged by the
    verdict and by the executor over the last ``SHORT_WINDOW`` of
    ``SHORT_ITERATIONS`` iterations (each iteration walks about a
    thousand firings): long chains of firings whose potentials rise
    together."""
    result = _checked_search(graph, None)
    verdict = _CapacityEventGraph(graph, None)
    mcr = max_cycle_ratio(graph)
    vectors = [result] + [{**result, name: value - 1} for name, value in result.items()
                          if value > graph.channel(name).initial_tokens]
    for capacities in vectors:
        period = _long_run(graph, None, capacities, SHORT_ITERATIONS, SHORT_WINDOW)
        assert verdict.sustains(capacities) == _sustains(period, mcr), (capacities, period)


def _tie_graph(b_time: float = 0.2) -> CSDFGraph:
    """A core where ``a`` (0.1) and ``b`` (``b_time``) share a one-token
    cycle beside ``c``'s 0.3 ring."""
    graph = CSDFGraph("tie")
    for name, time in (("a", 0.1), ("b", b_time), ("c", 0.3)):
        graph.add_actor(name, exec_time=time)
    graph.add_channel("ab", "a", "b")
    graph.add_channel("ba", "b", "a", initial_tokens=1)
    graph.add_channel("ac", "a", "c")
    graph.add_channel("ca", "c", "a", initial_tokens=2)
    return graph


def test_target_rises_past_a_float_tie():
    """On this core the cycle ``a -> b -> a``, ``Fraction(0.1) +
    Fraction(0.2)``, lies just above ``c``'s ring, ``Fraction(0.3)``:
    a Howard ranking cycles by float ratios within a tolerance settled
    on the ring.  Howard in integers finds the heavier cycle, and the
    verdict's target and period equal it (the verdict used to fail an
    assertion here)."""
    graph = _tie_graph()
    exact = Fraction(0.1) + Fraction(0.2)
    assert max(ratio for _core, ratio in _cycle_ratios(graph, None)) == exact
    verdict = _CapacityEventGraph(graph, None)
    assert verdict.target == verdict.period({}) == exact
    result = _checked_search(graph, None)
    stats: dict = {}
    assert min_buffers_for_full_throughput(graph, stats=stats) == result
    assert stats["target"] == float(exact)
    assert _sustains(_long_run(graph, None, result), float(exact))


def test_near_tie_mcr_warm_equals_cold():
    """``max_cycle_ratio`` of the tie graph, solved cold and reached by
    editing ``b`` from 0.25 to 0.2, warm-started from the policy of the
    0.25 graph: both are the exact maximum, ``a -> b -> a``
    (0.30000000000000004), where a float ranking within a tolerance
    settled cold on ``c``'s ring (0.3)."""
    cold = max_cycle_ratio(_tie_graph())
    assert cold == float(Fraction(0.1) + Fraction(0.2))
    graph = _tie_graph(0.25)
    max_cycle_ratio(graph)
    graph.actor("b").set_exec_time(0.2)
    assert max_cycle_ratio(graph) == cold
