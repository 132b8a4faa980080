"""Differential harness for the throughput-analysis core.

Cross-validates three independent computations of the steady-state
iteration period on hundreds of random graphs and a hand-built corpus:

1. **Howard's policy iteration** (`max_cycle_ratio`) — the fast path;
2. **parametric binary search** (`mcr_reference`) — the legacy solver,
   kept precisely to serve as this oracle;
3. **converged self-timed execution** — the timed event-driven
   simulation, whose steady period must equal the MCR (Reiter 1968).

The third leg is what makes the harness sharp: it already caught a
real modeling bug (iteration-crossing expansion channels with rate
``c > 1`` must contribute dependency distance ``tokens / c``, not the
raw token count).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import analysis_cache
from repro.csdf import (CSDFGraph, is_live, max_cycle_ratio,
                        min_buffers_for_full_throughput, self_timed_execution)
from repro.csdf.mcr import _cycle_ratios, _decomposition, _with_work, mcr_reference
from repro.errors import AnalysisError, DeadlockError
from repro.io import csdf_from_dict, csdf_to_dict
from repro.tpdf import random_consistent_graph

#: The reference search stops at 1e-6; allow both solvers that slack.
TOL = 2e-6

#: (actors, extra_edges, back_edges) shapes of the random corpus.
SHAPES = (
    (3, 1, 0),
    (4, 2, 1),
    (5, 2, 0),
    (5, 3, 2),
    (6, 3, 1),
    (6, 3, 2),
    (7, 3, 0),
    (8, 4, 2),
)
SEEDS_PER_SHAPE = 25  # 8 shapes x 25 seeds = 200 random graphs


def _random_csdf(n: int, extra: int, cycles: int, seed: int) -> CSDFGraph:
    return random_consistent_graph(
        n, extra_edges=extra, n_cycles=cycles, seed=seed, with_control=False
    ).as_csdf()


class TestHowardVsReference:
    """Leg 1 vs leg 2 over the full 200-graph random corpus."""

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"n{s[0]}e{s[1]}c{s[2]}")
    def test_agree_on_random_corpus(self, shape):
        n, extra, cycles = shape
        for seed in range(SEEDS_PER_SHAPE):
            graph = _random_csdf(n, extra, cycles, seed)
            fast = max_cycle_ratio(graph)
            oracle = mcr_reference(graph)
            assert fast == pytest.approx(oracle, abs=TOL), (
                f"Howard {fast} != reference {oracle} on shape {shape} seed {seed}"
            )

    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(3, 8),
        cycles=st.integers(0, 2),
    )
    @settings(max_examples=50, deadline=None)
    def test_agree_property(self, seed, n, cycles):
        graph = _random_csdf(n, n // 2, cycles, seed)
        assert max_cycle_ratio(graph) == pytest.approx(mcr_reference(graph), abs=TOL)


class TestAgainstSelfTimedExecution:
    """Leg 3: the converged event-driven period equals the MCR."""

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"n{s[0]}e{s[1]}c{s[2]}")
    def test_period_matches_mcr(self, shape):
        n, extra, cycles = shape
        for seed in range(10):
            graph = _random_csdf(n, extra, cycles, seed)
            mcr = max_cycle_ratio(graph)
            period = self_timed_execution(graph, iterations=15).iteration_period
            assert period == pytest.approx(mcr, abs=1e-9), (
                f"self-timed period {period} != MCR {mcr} on shape {shape} seed {seed}"
            )


class TestHandBuiltCorpus:
    def test_fig1(self, fig1):
        assert max_cycle_ratio(fig1) == pytest.approx(3.0, abs=TOL)
        assert mcr_reference(fig1) == pytest.approx(3.0, abs=TOL)

    def test_bottleneck_actor_dominates(self):
        """An acyclic pipeline is bounded by its slowest actor (the
        per-actor serialization cycle)."""
        g = CSDFGraph("pipe")
        g.add_actor("a", exec_time=1.0)
        g.add_actor("b", exec_time=7.0)
        g.add_actor("c", exec_time=2.0)
        g.add_channel("ab", "a", "b")
        g.add_channel("bc", "b", "c")
        assert max_cycle_ratio(g) == pytest.approx(7.0, abs=TOL)

    def test_multirate_backedge_distance(self):
        """Regression for the dependency-distance bug: a rate-2 back
        edge with 2 initial tokens is ONE iteration of slack (2 tokens
        / 2 per firing), not two — the cycle a->b->a bounds the period
        at exec(a) + exec(b) = 2, and the simulation confirms it."""
        g = CSDFGraph("mr")
        g.add_actor("a", exec_time=1.0)
        g.add_actor("b", exec_time=1.0)
        g.add_channel("fwd", "a", "b", production=2, consumption=2)
        g.add_channel("back", "b", "a", production=2, consumption=2,
                      initial_tokens=2)
        mcr = max_cycle_ratio(g)
        assert mcr == pytest.approx(2.0, abs=TOL)
        period = self_timed_execution(g, iterations=12).iteration_period
        assert period == pytest.approx(mcr, abs=1e-9)

    def test_cycle_with_more_slack_is_faster(self):
        """Two tokens on the back edge let iterations overlap: the
        cycle ratio halves."""
        g = CSDFGraph("slack2")
        g.add_actor("a", exec_time=1.0)
        g.add_actor("b", exec_time=1.0)
        g.add_channel("fwd", "a", "b")
        g.add_channel("back", "b", "a", initial_tokens=2)
        assert max_cycle_ratio(g) == pytest.approx(1.0, abs=TOL)

    def test_single_firing_self_loop_is_critical(self):
        """A cyclic core whose critical cycle is the one-token self-loop
        of an actor firing once per iteration: the loop a->b->a carries
        two tokens (ratio (10 + 1) / 2 = 5.5), but ``a`` cannot overlap
        its own firings, so the period is exec(a) = 10."""
        g = CSDFGraph("selfloop")
        g.add_actor("a", exec_time=10.0)
        g.add_actor("b", exec_time=1.0)
        g.add_channel("fwd", "a", "b")
        g.add_channel("back", "b", "a", initial_tokens=2)
        assert max_cycle_ratio(g) == pytest.approx(10.0, abs=TOL)
        assert mcr_reference(g) == pytest.approx(10.0, abs=TOL)
        period = self_timed_execution(g, iterations=12).iteration_period
        assert period == pytest.approx(10.0, abs=1e-9)

    def test_deadlock_raises_in_both_solvers(self):
        g = CSDFGraph("dead")
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("ab", "a", "b")
        g.add_channel("ba", "b", "a")
        with pytest.raises(AnalysisError):
            max_cycle_ratio(g)
        with pytest.raises(AnalysisError):
            mcr_reference(g)

    def test_zero_time_token_free_cycle_deadlocks(self):
        """Bugfix regression: only token-free cycles of positive weight
        were refused, so this cycle of two zero-time actors had an MCR
        of 0.0 while ``is_live`` said False and the executor stalled."""
        g = CSDFGraph("dead0")
        g.add_actor("a", exec_time=0)
        g.add_actor("b", exec_time=0)
        g.add_channel("ab", "a", "b")
        g.add_channel("ba", "b", "a")
        assert not is_live(g)
        with pytest.raises(DeadlockError):
            self_timed_execution(g)
        for solve in (max_cycle_ratio, mcr_reference):
            with pytest.raises(DeadlockError, match="zero tokens"):
                solve(g)

    def test_empty_graph(self):
        assert max_cycle_ratio(CSDFGraph("empty")) == 0.0

    def test_csdf_phases(self):
        """Cyclo-static rates: the paper's Fig. 1 shape with slow third
        phase — solvers agree and match the simulation."""
        g = CSDFGraph("phased")
        g.add_actor("a", exec_time=[1.0, 3.0])
        g.add_actor("b", exec_time=2.0)
        g.add_channel("ab", "a", "b", production=[1, 2], consumption=3)
        g.add_channel("ba", "b", "a", production=3, consumption=[1, 2],
                      initial_tokens=3)
        fast, oracle = max_cycle_ratio(g), mcr_reference(g)
        assert fast == pytest.approx(oracle, abs=TOL)
        period = self_timed_execution(g, iterations=15).iteration_period
        assert period == pytest.approx(fast, abs=1e-9)


def _self_loop_core(seed: int) -> tuple[CSDFGraph, float]:
    """A seeded cyclic core whose critical cycle is the self-loop of its
    one single-firing actor, with that actor's execution time.

    ``hot`` fires once per iteration and produces ``m`` tokens per
    firing into a chain of ``k`` actors firing ``m`` times each; the
    back edge carries enough tokens for ``k + 1`` iterations, so every
    cycle through the chain, and every chain actor's own ring
    (``m`` firings of at most 3), stays below ``hot``'s time.
    """
    import random

    rng = random.Random(f"selfloop:{seed}")
    k, m = rng.randint(1, 4), rng.randint(1, 3)
    hot = float(rng.randint(40, 60))
    g = CSDFGraph(f"selfloop{seed}")
    g.add_actor("hot", exec_time=hot)
    chain = [f"b{i}" for i in range(k)]
    for name in chain:
        g.add_actor(name, exec_time=float(rng.randint(1, 3)))
    g.add_channel("out", "hot", chain[0], production=m, consumption=1)
    for i, (src, dst) in enumerate(zip(chain, chain[1:])):
        g.add_channel(f"c{i}", src, dst)
    g.add_channel("back", chain[-1], "hot", production=1, consumption=m,
                  initial_tokens=m * (k + 1))
    return g, hot


class TestSingleFiringSelfLoops:
    """Cores whose critical cycle is a q_a = 1 actor's self-loop: the
    one cycle of the event graph that no channel contributes."""

    @pytest.mark.parametrize("seed", range(20))
    def test_three_legs_agree_on_the_self_loop(self, seed):
        graph, hot = _self_loop_core(seed)
        fast = max_cycle_ratio(graph)
        assert fast == pytest.approx(hot, abs=TOL)
        assert mcr_reference(graph) == pytest.approx(fast, abs=TOL)
        period = self_timed_execution(graph, iterations=12).iteration_period
        assert period == pytest.approx(fast, abs=1e-9)


class TestCaching:
    def test_mcr_is_memoized_per_version(self, fig1):
        first = max_cycle_ratio(fig1)
        assert ("mcr", ()) in analysis_cache(fig1)
        assert max_cycle_ratio(fig1) == first

    def test_mutation_invalidates(self):
        g = CSDFGraph("grow")
        g.add_actor("a", exec_time=2.0)
        g.add_channel("loop", "a", "a", initial_tokens=1)
        assert max_cycle_ratio(g) == pytest.approx(2.0, abs=TOL)
        g.add_actor("b", exec_time=5.0)
        g.add_channel("ab", "a", "b")
        g.add_channel("ba", "b", "a", initial_tokens=1)
        assert max_cycle_ratio(g) == pytest.approx(7.0, abs=TOL)


class TestHowardFallback:
    """When Howard's iteration gives up within its ``max(64, 4n)`` sweep
    budget, ``howard`` finishes the core with the exact cycle-ratio
    loop (``_exact_mcr``).  The path stays because Howard can need
    Omega(n^2) iterations (Hansen & Zwick, ISAAC 2010); here the solve
    is forced to give up on every component."""

    @staticmethod
    def _graphs() -> list[CSDFGraph]:
        """Fresh graphs: no memoized ratio or content-store hit can
        answer before the component solve."""
        from repro.gallery import fig1_graph

        return [fig1_graph()] + [
            _random_csdf(n, extra, cycles, seed)
            for (n, extra, cycles) in SHAPES[3:6]
            for seed in range(3)
        ]

    @staticmethod
    def _give_up(monkeypatch) -> list:
        import repro.csdf.mcr as mcr_mod

        calls = []

        def give_up(edges, initial_policy=None):
            calls.append(len(edges))
            return None

        monkeypatch.setattr(mcr_mod, "_howard_solve", give_up)
        return calls

    @staticmethod
    def _unit_work_cores(graph: CSDFGraph) -> list:
        """Every core's integer event graph with work 1 on every edge."""
        return [_with_work(edges, [1.0] * sum(count for _name, count in firings))[1]
                for firings, edges in _decomposition(graph, None)[1]]

    def test_fallback_equals_howard(self, monkeypatch):
        from fractions import Fraction

        from repro.csdf.mcr import howard

        converged = [[ratio for _core, ratio in _cycle_ratios(graph, None)]
                     for graph in self._graphs()]
        unit = [[howard(core)[0] for core in self._unit_work_cores(graph)]
                for graph in self._graphs()]
        calls = self._give_up(monkeypatch)
        for graph, expected, expected_unit in zip(self._graphs(), converged, unit):
            calls.clear()
            ratios = [ratio for _core, ratio in _cycle_ratios(graph, None)]
            assert calls, f"{graph.name}: Howard was not asked"
            assert all(type(ratio) is Fraction for ratio in ratios)
            assert ratios == expected, graph.name
            assert max_cycle_ratio(graph) == pytest.approx(mcr_reference(graph), abs=TOL)
            solved = [howard(core) for core in self._unit_work_cores(graph)]
            assert [policy for _ratio, policy in solved] == [{}] * len(solved)
            assert [ratio for ratio, _policy in solved] == expected_unit, graph.name

    @pytest.mark.parametrize("exec_time", (1, 0))
    def test_token_free_cycle_still_raises(self, monkeypatch, exec_time):
        calls = self._give_up(monkeypatch)
        g = CSDFGraph("dead")
        g.add_actor("a", exec_time=exec_time)
        g.add_actor("b", exec_time=exec_time)
        g.add_channel("ab", "a", "b")
        g.add_channel("ba", "b", "a")
        with pytest.raises(DeadlockError, match="zero tokens"):
            max_cycle_ratio(g)
        assert calls

    def test_buffer_search_on_a_fallback_core(self, monkeypatch):
        """The fallback's ratio is exact, so the buffer search takes it
        as its target and returns what it returns on Howard's."""
        from repro.gallery import fig1_graph

        expected = min_buffers_for_full_throughput(fig1_graph())
        calls = self._give_up(monkeypatch)
        assert min_buffers_for_full_throughput(fig1_graph()) == expected
        assert calls


#: Phase times of the near-tie corpus: sums of a few of them collide,
#: or miss each other by a float rounding.
TIE_TIMES = (0.1, 0.2, 0.3, 0.7)


def _tie_prone(seed: int) -> tuple[CSDFGraph, dict]:
    """A fresh mutable random graph and phase times for it drawn from
    ``TIE_TIMES``."""
    rng = random.Random(seed)
    graph = random_consistent_graph(
        rng.randint(3, 8), rng.randint(1, 4), rng.randint(1, 3), seed=seed,
        with_control=False,
    ).as_csdf()
    graph = csdf_from_dict(csdf_to_dict(graph))
    times = {name: [rng.choice(TIE_TIMES) for _ in actor.exec_times]
             for name, actor in graph.actors.items()}
    return graph, times


def _ratios_at(graph: CSDFGraph, times: dict, shift: float = 0.0) -> list:
    for name, phases in times.items():
        graph.actor(name).set_exec_time([time + shift for time in phases])
    return [ratio for _core, ratio in _cycle_ratios(graph, None)]


class TestNearTies:
    """Every core ratio is the exact maximum, whatever policy Howard
    starts from: solved cold, and reached by an execution-time edit
    from other times (warm-started from the policy converged there),
    the ratios are equal."""

    @pytest.mark.parametrize("shift", (0.05, 0.15))
    def test_warm_equals_cold(self, shift):
        for seed in range(300):
            graph, times = _tie_prone(seed)
            cold = _ratios_at(graph, times)
            graph, _times = _tie_prone(seed)
            _ratios_at(graph, times, shift)
            assert _ratios_at(graph, times) == cold, seed
