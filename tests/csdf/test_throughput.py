"""Tests for self-timed execution (latency & throughput), the capacity
contract every execution entry point shares, and the buffer search."""

import re

import pytest

from repro.analysis import probe_capacities
from repro.csdf import (
    CSDFGraph,
    capacity_floors,
    iteration_latency,
    max_cycle_ratio,
    min_buffers_for_full_throughput,
    self_timed_execution,
    self_timed_execution_reference,
    throughput_vs_cores,
)
from repro.errors import DeadlockError
from repro.sim import Simulator
from repro.tpdf import random_consistent_graph

#: The corpus grid of tests/sim/test_eventloop_differential.py.
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

#: The executor and its differential oracle, each called by name.
EXECUTORS = {"arrays": self_timed_execution,
             "reference": self_timed_execution_reference}


def pipeline(times=(1.0, 2.0, 1.0)) -> CSDFGraph:
    g = CSDFGraph("pipe")
    names = [f"s{i}" for i in range(len(times))]
    for name, t in zip(names, times):
        g.add_actor(name, exec_time=t)
    for a, b in zip(names, names[1:]):
        g.add_channel(None, a, b, 1, 1)
    return g


class TestSingleIteration:
    def test_latency_is_chain_sum_on_one_core(self):
        assert iteration_latency(pipeline(), cores=1) == 4.0

    def test_latency_unlimited_cores_equals_critical_path(self):
        assert iteration_latency(pipeline()) == 4.0  # chain: no parallelism

    def test_parallel_branches_overlap(self):
        g = CSDFGraph()
        g.add_actor("src", exec_time=1.0)
        for i in range(3):
            g.add_actor(f"w{i}", exec_time=5.0)
            g.add_channel(None, "src", f"w{i}", 1, 1)
        assert iteration_latency(g) == 6.0
        assert iteration_latency(g, cores=1) == 16.0

    def test_multirate_iteration(self, fig1):
        result = self_timed_execution(fig1)
        assert result.firings == 7  # 3 + 2 + 2
        assert result.iterations == 1


class TestPipelining:
    def test_steady_state_period_bounded_by_bottleneck(self):
        g = pipeline((1.0, 3.0, 1.0))
        result = self_timed_execution(g, iterations=6)
        # Bottleneck actor takes 3.0 per iteration: the steady-state
        # period cannot beat it, and pipelining should reach it.
        assert result.iteration_period >= 3.0 - 1e-9
        assert result.iteration_period == pytest.approx(3.0)

    def test_pipelining_beats_serial_iterations(self):
        g = pipeline((2.0, 2.0, 2.0))
        one = self_timed_execution(g, iterations=1).makespan
        many = self_timed_execution(g, iterations=5)
        assert many.makespan < 5 * one  # overlap happened

    def test_iteration_ends_monotone(self):
        result = self_timed_execution(pipeline(), iterations=4)
        ends = result.iteration_ends
        assert len(ends) == 4
        assert all(a < b for a, b in zip(ends, ends[1:]))

    def test_throughput_property(self):
        from repro.analysis import analyze

        report = analyze(pipeline((1.0, 4.0, 1.0)), iterations=5,
                         with_throughput=True)
        assert report.period == report.mcr == 4.0
        assert report.throughput == 1.0 / report.period
        assert report.timed.iteration_period == report.period  # converged


class TestCoreBudgets:
    def test_more_cores_never_slower(self, fig1):
        sweep = throughput_vs_cores(fig1, core_budgets=(1, 2, 4), iterations=3)
        m1 = sweep[1].makespan
        m2 = sweep[2].makespan
        m4 = sweep[4].makespan
        assert m2 <= m1 + 1e-9
        assert m4 <= m2 + 1e-9

    def test_single_core_makespan_is_total_work(self):
        g = pipeline((1.0, 1.0, 1.0))
        result = self_timed_execution(g, iterations=2, cores=1)
        assert result.makespan == pytest.approx(6.0)

    def test_peaks_recorded(self, fig1):
        result = self_timed_execution(fig1, iterations=2)
        assert all(v >= 0 for v in result.peaks.values())
        assert result.peaks["e2"] >= 2  # initial tokens counted


class TestScaleInvariance:
    """Scaling every execution time by 1e6 changes no token dynamics,
    so the search must return the same capacities: its target and
    verdicts are exact, with no tolerance relative to the period
    scale."""

    def scaled_pipeline(self, scale: float) -> CSDFGraph:
        g = CSDFGraph(f"scaled_{scale:g}")
        g.add_actor("src", exec_time=1.0 * scale)
        g.add_actor("mid", exec_time=3.0 * scale)
        g.add_actor("snk", exec_time=1.0 * scale)
        g.add_channel("a", "src", "mid", 1, 1)
        g.add_channel("b", "mid", "snk", 1, 1)
        return g

    def test_scaled_search_returns_the_unscaled_capacities(self):
        base = min_buffers_for_full_throughput(self.scaled_pipeline(1.0))
        scaled = min_buffers_for_full_throughput(self.scaled_pipeline(1e6))
        assert scaled == base


class TestErrors:
    def test_deadlock_detected(self):
        g = CSDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("fwd", "a", "b", 1, 1)
        g.add_channel("back", "b", "a", 1, 1)
        with pytest.raises(DeadlockError):
            self_timed_execution(g)

    def test_zero_iterations_rejected(self, fig1):
        with pytest.raises(ValueError):
            self_timed_execution(fig1, iterations=0)

    def test_parametric_needs_bindings(self):
        from repro.symbolic import Poly

        g = CSDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("e", "a", "b", Poly.var("p"), 1)
        result = self_timed_execution(g, bindings={"p": 3})
        assert result.firings == 4


def _random_csdf(n: int, extra: int, cycles: int, seed: int) -> CSDFGraph:
    return random_consistent_graph(
        n, extra_edges=extra, n_cycles=cycles, seed=seed, with_control=False
    ).as_csdf()


def _two_actor_graph(initial=3, production=1):
    g = CSDFGraph("pc")
    g.add_actor("prod", exec_time=1.0)
    g.add_actor("cons", exec_time=1.0)
    g.add_channel("e", "prod", "cons", production, 1, initial_tokens=initial)
    return g


def _deadlock_key(exc):
    return (str(exc), tuple(exc.blocked))


class TestCapacityNameValidation:
    """Satellite bugfix: a typo'd channel name in ``capacities`` used to
    be silently dropped — the run then executed *unconstrained* on the
    channel the caller thought was bounded.  Every entry point now
    rejects unknown names with a ValueError naming the offenders."""

    @pytest.mark.parametrize("execute", EXECUTORS.values(), ids=EXECUTORS)
    def test_execution_cores(self, execute):
        with pytest.raises(ValueError, match="typo"):
            execute(
                _two_actor_graph(), iterations=2,
                capacities={"typo": 4, "e": 4},
            )

    def test_probe_capacities(self):
        with pytest.raises(ValueError, match="typo"):
            probe_capacities(_two_actor_graph(), [{"e": 4}, {"typo": 4}],
                             iterations=2)

    def test_buffer_search_pins(self):
        with pytest.raises(ValueError, match="typo"):
            min_buffers_for_full_throughput(
                _two_actor_graph(), capacities={"typo": 4})

    @pytest.mark.parametrize("ready_core", Simulator.READY_CORES)
    def test_simulator(self, ready_core):
        tpdf = random_consistent_graph(
            4, extra_edges=1, n_cycles=0, seed=2, with_control=False
        )
        with pytest.raises(ValueError, match="typo"):
            Simulator(tpdf, capacities={"typo": 4}, ready_core=ready_core)

    def test_error_names_every_offender(self):
        with pytest.raises(ValueError) as info:
            self_timed_execution(
                _two_actor_graph(), iterations=1,
                capacities={"bad1": 1, "bad2": 1},
            )
        assert "bad1" in str(info.value) and "bad2" in str(info.value)


#: Capacity values that are not integers.  Before the type check, a
#: string failed deep in the initial-token comparison with a
#: ``TypeError``, 2.5 ran (as capacity 2 in the Simulator) and ``True``
#: ran as capacity 1.
BAD_CAPACITIES = ("2", 2.5, True)


class TestCapacityValueValidation:
    """Bugfix regression: every capacity-accepting entry point rejects
    a non-integer capacity with a ValueError naming the channel and the
    value."""

    @staticmethod
    def _message(name, value):
        return f"channel {name!r} must be an integer, got {re.escape(repr(value))}"

    @pytest.mark.parametrize("value", BAD_CAPACITIES, ids=repr)
    @pytest.mark.parametrize("execute", EXECUTORS.values(), ids=EXECUTORS)
    def test_execution_cores(self, execute, value):
        with pytest.raises(ValueError, match=self._message("e", value)):
            execute(_two_actor_graph(initial=0), iterations=2,
                    capacities={"e": value})

    @pytest.mark.parametrize("value", BAD_CAPACITIES, ids=repr)
    def test_probe_capacities(self, value):
        with pytest.raises(ValueError, match=self._message("e", value)):
            probe_capacities(_two_actor_graph(initial=0),
                             [{"e": 4}, {"e": value}], iterations=2)

    @pytest.mark.parametrize("value", BAD_CAPACITIES, ids=repr)
    def test_buffer_search_pins(self, value):
        with pytest.raises(ValueError, match=self._message("e", value)):
            min_buffers_for_full_throughput(
                _two_actor_graph(initial=0), capacities={"e": value})

    @pytest.mark.parametrize("value", BAD_CAPACITIES, ids=repr)
    def test_bounded_feasible(self, value):
        from repro.csdf import bounded_feasible

        with pytest.raises(ValueError, match=self._message("e", value)):
            bounded_feasible(_two_actor_graph(initial=0), {"e": value})

    @pytest.mark.parametrize("value", BAD_CAPACITIES, ids=repr)
    @pytest.mark.parametrize("ready_core", Simulator.READY_CORES)
    def test_simulator(self, ready_core, value):
        tpdf = random_consistent_graph(
            4, extra_edges=1, n_cycles=0, seed=2, with_control=False
        )
        name = next(iter(tpdf.channels))
        with pytest.raises(ValueError, match=self._message(name, value)):
            Simulator(tpdf, capacities={name: value}, ready_core=ready_core)

    def test_integer_types_and_unbounded_are_admitted(self):
        np = pytest.importorskip("numpy")

        g = _two_actor_graph(initial=0)
        plain = self_timed_execution(g, iterations=2, capacities={"e": 2})
        assert self_timed_execution(
            g, iterations=2, capacities={"e": np.int64(2)}) == plain
        assert self_timed_execution(
            g, iterations=2, capacities={"e": None}
        ) == self_timed_execution(g, iterations=2)


class TestInitialTokensContract:
    """Satellite bugfix: a capacity below a channel's initial tokens is
    a documented up-front deadlock — never a silent over-capacity run —
    and every entry point agrees bit for bit."""

    def test_differential_across_backends(self):
        g = _two_actor_graph(initial=3)
        keys = set()
        for execute in EXECUTORS.values():
            with pytest.raises(DeadlockError) as info:
                execute(g, iterations=2, capacities={"e": 2})
            keys.add(_deadlock_key(info.value))
        (outcome,) = probe_capacities(g, [{"e": 2}], iterations=2)
        assert isinstance(outcome, DeadlockError)
        keys.add(_deadlock_key(outcome))
        assert len(keys) == 1, keys
        ((message, blocked),) = keys
        assert "initial tokens" in message and "e" in message
        assert blocked  # deterministic scan-order blocked set

    @pytest.mark.parametrize("ready_core", Simulator.READY_CORES)
    def test_simulator_agrees(self, ready_core):
        tpdf = random_consistent_graph(
            4, extra_edges=1, n_cycles=1, seed=6, with_control=False
        )
        carrier = next(
            (c for c in tpdf.channels.values() if c.initial_tokens > 0), None
        )
        assert carrier is not None
        with pytest.raises(DeadlockError, match="initial tokens"):
            Simulator(
                tpdf, capacities={carrier.name: carrier.initial_tokens - 1},
                ready_core=ready_core,
            )

    @pytest.mark.parametrize("execute", EXECUTORS.values(), ids=EXECUTORS)
    def test_capacity_at_initial_tokens_is_admitted(self, execute):
        g = _two_actor_graph(initial=3)
        result = execute(g, iterations=2, capacities={"e": 3})
        assert result.peaks["e"] <= 3


class TestProbeCapacities:
    def test_equals_one_run_per_vector(self):
        """Each outcome is what one ``self_timed_execution`` returns or
        raises for its vector; TPDF graphs run as their CSDF view."""
        tpdf = random_consistent_graph(
            5, extra_edges=2, n_cycles=1, seed=3, with_control=False
        )
        graph = tpdf.as_csdf()
        peaks = self_timed_execution(graph, iterations=3).peaks
        vectors = [
            None,
            dict(peaks),
            {name: max(1, peak - 1) for name, peak in peaks.items()},
            {name: max(floor, 1)
             for name, floor in capacity_floors(graph).items()},
        ]
        outcomes = probe_capacities(tpdf, vectors, iterations=3)
        assert len(outcomes) == len(vectors)
        for caps, outcome in zip(vectors, outcomes):
            try:
                expected = self_timed_execution(graph, iterations=3,
                                                capacities=caps)
            except DeadlockError as exc:
                assert isinstance(outcome, DeadlockError)
                assert _deadlock_key(outcome) == _deadlock_key(exc)
            else:
                assert outcome == expected


class TestNegativeCapacity:
    """Bugfix regression: the arrays core copied the caller's capacities
    into a slot array pre-filled with its ``-1`` "unbounded" sentinel,
    so a capacity of exactly -1 read as *no bound* and the run
    succeeded, while the reference core rejected it.  The admission
    check now runs once, on the name-keyed mapping, before any slot
    mapping: -1 is below every channel's initial tokens everywhere."""

    def test_executor_cores_agree(self):
        g = _two_actor_graph(initial=0, production=2)
        keys = set()
        for execute in EXECUTORS.values():
            with pytest.raises(DeadlockError) as info:
                execute(g, iterations=2, capacities={"e": -1})
            keys.add(_deadlock_key(info.value))
        assert keys == {("channel capacity below initial tokens: e",
                         ("prod", "cons"))}

    def test_probe_capacities_returns_the_deadlock(self):
        g = _two_actor_graph(initial=0, production=2)
        free, negative = probe_capacities(g, [None, {"e": -1}], iterations=2)
        assert free.firings > 0
        assert isinstance(negative, DeadlockError)
        assert "initial tokens" in str(negative)

    @pytest.mark.parametrize("ready_core", Simulator.READY_CORES)
    def test_simulator_cores(self, ready_core):
        tpdf = random_consistent_graph(
            4, extra_edges=1, n_cycles=0, seed=2, with_control=False
        )
        name = next(iter(tpdf.channels))
        with pytest.raises(DeadlockError, match="initial tokens"):
            Simulator(tpdf, capacities={name: -1}, ready_core=ready_core)


class TestBufferSearch:
    """Pins and their checks, and the results' sustain property on the
    graphs that used to expose the finite-horizon probes."""

    def test_pinned_channels_kept_and_others_minimized(self):
        graph = _random_csdf(6, 3, 1, seed=2)
        base = min_buffers_for_full_throughput(graph)
        name = sorted(base)[0]
        # Pinning at the search's own minimum must reproduce the
        # unpinned sizing exactly (same prefix on every probe).
        pinned = min_buffers_for_full_throughput(
            graph, capacities={name: base[name]}
        )
        assert pinned == base
        # The returned sizing is verified feasible under the pins.
        result = self_timed_execution(graph, iterations=4, capacities=pinned)
        assert result.peaks[name] <= base[name]

    def test_below_floor_pins_rejected(self):
        g = _two_actor_graph(initial=0)
        # Capacity 0 on the only channel: the producer can never write.
        with pytest.raises(ValueError, match="floor"):
            min_buffers_for_full_throughput(g, capacities={"e": 0})

    def test_pin_below_initial_tokens_is_deadlock(self):
        g = _two_actor_graph(initial=3)
        with pytest.raises(DeadlockError, match="initial tokens"):
            min_buffers_for_full_throughput(g, capacities={"e": 2})

    def test_none_pin_keeps_the_channel_unbounded(self, fig1):
        """Bugfix regression: the capacity contract admits ``None`` as
        "unbounded", and the floor checks compared it with an int."""
        caps = min_buffers_for_full_throughput(fig1, capacities={"e1": None})
        assert caps["e1"] is None
        assert set(caps) == set(fig1.channels)
        run = self_timed_execution(fig1, iterations=64, capacities=caps)
        assert run.iteration_period == max_cycle_ratio(fig1)

    def test_pins_that_lose_throughput_rejected(self):
        """Bugfix regression: pins above their floors were trusted, so
        this graph came back as ``{e1: 4, e2: 2, e3: 2}``, whose
        128-iteration period is 7.0 against an MCR of 4.0.  The pins
        are now judged first, with every free channel unbounded."""
        graph = _random_csdf(3, 1, 0, seed=10)
        assert max_cycle_ratio(graph) == 4.0
        assert self_timed_execution(
            graph, iterations=128, capacities={"e1": 4}
        ).iteration_period == 7.0
        with pytest.raises(ValueError,
                           match="pinned capacities lose throughput: e1=4"):
            min_buffers_for_full_throughput(graph, capacities={"e1": 4})

    def test_sustaining_pins_kept(self):
        graph = _random_csdf(3, 1, 0, seed=10)
        caps = min_buffers_for_full_throughput(graph, capacities={"e1": 7})
        assert caps["e1"] == 7
        assert self_timed_execution(
            graph, iterations=128, capacities=caps
        ).iteration_period == 4.0

    def test_ofdm_vector_sustains_at_1024_iterations(self):
        """The OFDM graph once had ``e_con_tran`` accepted at capacity
        2, whose delta pattern ``1, 1, 3`` (period 5/3) aliased a
        finite-horizon probe into reading 1.0."""
        from repro.apps.ofdm import bindings_for, build_ofdm_tpdf

        graph = build_ofdm_tpdf().as_csdf()
        bindings = bindings_for(2, 16, 4, 4)
        stats: dict = {}
        caps = min_buffers_for_full_throughput(graph, bindings, stats=stats)
        ends = self_timed_execution(graph, bindings, iterations=1024,
                                    capacities=caps).iteration_ends
        assert (ends[-1] - ends[-257]) / 256 == stats["target"]
        assert stats["target"] == max_cycle_ratio(graph, bindings)

    def test_stats_hold_the_verdicts_and_the_target(self, fig1):
        stats: dict = {}
        min_buffers_for_full_throughput(fig1, stats=stats)
        assert sorted(stats) == ["probes", "target"]
        assert stats["probes"] > 0
        assert stats["target"] == max_cycle_ratio(fig1)

    def test_deadlocked_graph_raises_deadlock(self):
        g = CSDFGraph("dead")
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("ab", "a", "b")
        g.add_channel("ba", "b", "a")
        with pytest.raises(DeadlockError, match="zero tokens"):
            min_buffers_for_full_throughput(g)


class TestCapacityFloorSoundness:
    """The search starts each channel at its floor because every lower
    capacity is provably infeasible: over the 200-graph corpus, every
    channel bounded at ``floor - 1`` (all others unbounded) deadlocks
    on both cores."""

    @pytest.mark.parametrize(
        "shape", SHAPES, ids=lambda s: f"n{s[0]}e{s[1]}c{s[2]}"
    )
    def test_floor_minus_one_deadlocks(self, shape):
        n, extra, cycles = shape
        channels = 0
        for seed in range(SEEDS_PER_SHAPE):
            graph = _random_csdf(n, extra, cycles, seed)
            for name, floor in capacity_floors(graph).items():
                channels += 1
                for execute in EXECUTORS.values():
                    with pytest.raises(DeadlockError):
                        execute(graph, iterations=2,
                                capacities={name: floor - 1})
        assert channels >= SEEDS_PER_SHAPE * (n - 1)


class TestAnalyzeIterationsOption:
    """Bugfix regression: ``analyze`` used to accept ``iterations < 1``
    and run every static stage before the executor rejected it, or
    return a clean report when the throughput stage did not run."""

    @pytest.mark.parametrize("options", ({}, {"with_throughput": False}),
                             ids=("default", "no_throughput"))
    @pytest.mark.parametrize("iterations", (0, -3))
    def test_rejected_before_any_stage(self, iterations, options):
        from repro.analysis import analyze
        from repro.cache import analysis_cache
        from repro.gallery import fig1_graph

        graph = fig1_graph()
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            analyze(graph, iterations=iterations, **options)
        assert not analysis_cache(graph), "no stage may have run"

    def test_rejected_when_throughput_skipped(self):
        from repro.analysis import analyze
        from repro.tpdf import fig2_graph

        with pytest.raises(ValueError, match="iterations must be >= 1"):
            analyze(fig2_graph(), iterations=0)
