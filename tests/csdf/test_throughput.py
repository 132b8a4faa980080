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
        result = self_timed_execution(pipeline((1.0, 4.0, 1.0)), iterations=5)
        assert result.throughput == pytest.approx(1.0 / result.iteration_period)


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


class TestConvergedTargetTolerance:
    """Bugfix regression: the converged-target check of
    ``min_buffers_for_full_throughput`` compared the measured period to
    the analytic MCR with an *absolute* ``1e-6`` — at large period
    scales float noise alone fails it, silently leaving the noisy
    simulated estimate as the search target.  The check is now
    relative to the period scale; both branches are exercised at
    scales 1e0 and 1e6."""

    def scaled_pipeline(self, scale: float) -> CSDFGraph:
        g = CSDFGraph(f"scaled_{scale:g}")
        g.add_actor("src", exec_time=1.0 * scale)
        g.add_actor("mid", exec_time=3.0 * scale)
        g.add_actor("snk", exec_time=1.0 * scale)
        g.add_channel("a", "src", "mid", 1, 1)
        g.add_channel("b", "mid", "snk", 1, 1)
        return g

    @pytest.mark.parametrize("scale", (1.0, 1e6))
    def test_converged_run_adopts_the_analytic_mcr(self, scale):
        from repro.csdf import max_cycle_ratio, min_buffers_for_full_throughput

        g = self.scaled_pipeline(scale)
        stats: dict = {}
        caps = min_buffers_for_full_throughput(g, iterations=8, stats=stats)
        assert stats["target_is_analytic"], scale
        assert stats["target"] == max_cycle_ratio(g, None)
        # The sized buffers sustain the analytic period at this scale.
        result = self_timed_execution(g, iterations=8, capacities=caps)
        from repro.csdf.throughput import _steady_period
        assert _steady_period(result) == pytest.approx(
            stats["target"], rel=1e-12)

    def test_scaled_search_returns_the_unscaled_capacities(self):
        """Scaling every exec time by 1e6 changes no token dynamics,
        so the minimal capacities must be identical — which requires
        the *probe acceptance* (not just the target check) to judge
        periods relative to their scale."""
        from repro.csdf import min_buffers_for_full_throughput

        base = min_buffers_for_full_throughput(
            self.scaled_pipeline(1.0), iterations=8)
        scaled = min_buffers_for_full_throughput(
            self.scaled_pipeline(1e6), iterations=8)
        assert scaled == base

    @pytest.mark.parametrize("scale", (1.0, 1e6))
    def test_unconverged_run_keeps_the_measured_target(self, scale):
        """A run whose steady window still lags the MCR at the probe
        horizon must keep the measured target — the relative tolerance
        must not *over*-accept either."""
        from repro.csdf import max_cycle_ratio, min_buffers_for_full_throughput

        # An 8-actor ring with all 3 tokens clumped on one edge: the
        # MCR is 8/3, but the wavefront needs many iterations to
        # spread out, so the 4-iteration steady window measures 3.5.
        g = CSDFGraph(f"ring_{scale:g}")
        for i in range(8):
            g.add_actor(f"a{i}", exec_time=1.0 * scale)
        for i in range(8):
            g.add_channel(f"e{i}", f"a{i}", f"a{(i + 1) % 8}",
                          initial_tokens=3 if i == 7 else 0)
        stats: dict = {}
        min_buffers_for_full_throughput(g, iterations=4, stats=stats)
        assert not stats["target_is_analytic"]
        assert stats["target"] == pytest.approx(3.5 * scale, rel=1e-12)
        assert stats["target"] > max_cycle_ratio(g, None)


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


class TestWarmStartedBufferSearch:
    """The symbolic-bound warm start of ``min_buffers_for_full_throughput``
    must be a pure accelerator: identical capacities to the cold
    search, fewer probe executions where the bound bites."""

    def graphs(self):
        from repro.apps.ofdm import bindings_for, build_ofdm_tpdf
        from repro.tpdf import fig2_graph

        imbalanced = CSDFGraph("imbalanced")
        imbalanced.add_actor("src", exec_time=1)
        imbalanced.add_actor("mid", exec_time=2)
        imbalanced.add_actor("snk", exec_time=16)
        imbalanced.add_channel("a", "src", "mid", production=8, consumption=8)
        imbalanced.add_channel("b", "mid", "snk", production=8, consumption=8)
        return [
            (fig2_graph().as_csdf(), {"p": 4}),
            (build_ofdm_tpdf().as_csdf(), bindings_for(2, 16, 4, 4)),
            (imbalanced, None),
        ]

    def test_warm_equals_cold(self):
        from repro.csdf import min_buffers_for_full_throughput

        for graph, bindings in self.graphs():
            warm = min_buffers_for_full_throughput(
                graph, bindings, iterations=5)
            cold = min_buffers_for_full_throughput(
                graph, bindings, iterations=5, warm_start=False)
            assert warm == cold, graph.name

    def test_warm_start_saves_probes_on_imbalanced_pipeline(self):
        """A fast producer runs iterations ahead, so the unconstrained
        peak (the cold search ceiling) far exceeds one iteration's
        traffic (the symbolic bound)."""
        from repro.csdf import min_buffers_for_full_throughput

        graph, bindings = self.graphs()[-1]
        warm_stats, cold_stats = {}, {}
        warm = min_buffers_for_full_throughput(
            graph, bindings, iterations=8, stats=warm_stats)
        cold = min_buffers_for_full_throughput(
            graph, bindings, iterations=8, warm_start=False, stats=cold_stats)
        assert warm == cold
        assert warm_stats["probes"] < cold_stats["probes"]
        assert warm_stats["probes_saved"] > 0

    def test_result_still_sustains_full_throughput(self):
        from repro.csdf import min_buffers_for_full_throughput

        graph, bindings = self.graphs()[-1]
        caps = min_buffers_for_full_throughput(graph, bindings, iterations=8)
        unconstrained = self_timed_execution(graph, bindings, iterations=8)
        constrained = self_timed_execution(
            graph, bindings, iterations=8, capacities=caps)
        assert constrained.iteration_period == pytest.approx(
            unconstrained.iteration_period, abs=1e-9)

    def test_failed_warm_probe_narrows_the_search(self):
        """Bugfix regression: a *failing* warm probe used to be
        discarded, leaving the search range at ``0..peak``.  The OFDM
        demodulator has channels whose symbolic bound (one iteration's
        traffic) is below the pipelining slack the steady state needs,
        so its warm probes genuinely fail — the fix turns each failure
        into a floor (``lo = warm + 1``), recorded by the
        ``warm_failed`` / ``probes_saved`` counters, with capacities
        still identical to the cold search."""
        from repro.apps.ofdm import bindings_for, build_ofdm_tpdf
        from repro.csdf import min_buffers_for_full_throughput

        graph = build_ofdm_tpdf().as_csdf()
        bindings = bindings_for(2, 16, 4, 4)
        warm_stats, cold_stats = {}, {}
        warm = min_buffers_for_full_throughput(
            graph, bindings, iterations=5, stats=warm_stats)
        cold = min_buffers_for_full_throughput(
            graph, bindings, iterations=5, warm_start=False, stats=cold_stats)
        assert warm == cold
        assert warm_stats["warm_failed"] > 0
        assert warm_stats["probes_saved"] > 0
        # The narrowing pays for the failed probes: the warm search
        # never does worse than the cold one overall.
        assert warm_stats["probes"] <= cold_stats["probes"]

    def test_warm_bounds_are_clamped_to_one(self):
        """Bugfix regression: a symbolic bound can evaluate to 0 at a
        degenerate binding (no initial tokens, zero traffic).  An
        unclamped warm bound of 0 would make the first probe a
        capacity-0 execution — guaranteed deadlock on any channel that
        carries traffic — so bounds are clamped to >= 1."""
        from repro.csdf.throughput import _symbolic_warm_bounds
        from repro.symbolic import Poly

        p = Poly.var("p")
        g = CSDFGraph("degenerate")
        g.add_actor("a", exec_time=1.0)
        g.add_actor("b", exec_time=1.0)
        # At p = 0 this channel's rates — and its symbolic bound p —
        # evaluate to 0.
        g.add_channel("zero", "a", "b", production=p, consumption=p)
        g.add_channel("unit", "a", "b", production=1, consumption=1)
        bounds = _symbolic_warm_bounds(g, {"p": 0})
        assert bounds["zero"] == 1
        assert all(bound >= 1 for bound in bounds.values())

    def test_short_horizon_request_is_floored_to_a_steady_window(self):
        """Bugfix regression: ``iterations=2`` used to leave both the
        target and every probe verdict on the aliasing-prone
        last-two-ends delta (only two iteration ends — no steady
        window).  The search now floors its executed iterations, so a
        short request returns the same sound capacities as the default
        horizon, and the result still sustains full throughput."""
        from repro.csdf import min_buffers_for_full_throughput

        graph, bindings = self.graphs()[-1]
        stats: dict = {}
        short = min_buffers_for_full_throughput(
            graph, bindings, iterations=2, stats=stats)
        assert stats["iterations"] >= 4  # the floor, not the request
        floored = min_buffers_for_full_throughput(
            graph, bindings, iterations=stats["iterations"])
        assert short == floored
        unconstrained = self_timed_execution(graph, bindings, iterations=12)
        constrained = self_timed_execution(
            graph, bindings, iterations=12, capacities=short)
        assert constrained.iteration_period == pytest.approx(
            unconstrained.iteration_period, abs=1e-9)

    def test_steady_period_short_horizon_is_conservative(self):
        """Direct ``_steady_period`` guard: two iteration ends return
        the max per-iteration delta (over-estimates reject capacities,
        never falsely accept them), not the bare last delta."""
        from repro.csdf.throughput import _steady_period
        from repro.csdf import TimedResult

        # Fill-dominated first iteration (5.0), fast second delta (1.0):
        # the old estimator reported 1.0, the guard reports 5.0.
        two = TimedResult(makespan=6.0, iterations=2, firings=4,
                          iteration_ends=[5.0, 6.0], peaks={})
        assert _steady_period(two) == 5.0
        # Slow second delta dominates symmetrically.
        slow = TimedResult(makespan=9.0, iterations=2, firings=4,
                           iteration_ends=[2.0, 9.0], peaks={})
        assert _steady_period(slow) == 7.0
        # Single iteration keeps the makespan semantics.
        one = TimedResult(makespan=3.0, iterations=1, firings=2,
                          iteration_ends=[3.0], peaks={})
        assert _steady_period(one) == 3.0

    def test_steady_window_period_rejects_aliasing_capacity(self):
        """Bugfix regression: the last-two-ends delta aliases on
        capacity-bounded steady states whose iteration deltas cycle.
        On the OFDM graph, ``e_con_tran`` at capacity 2 runs a
        ``1, 1, 3`` delta pattern (true period 5/3) that the old
        estimator measured as 1.0 at the default horizon — a false
        acceptance.  The steady-window estimate rejects it."""
        from repro.csdf.throughput import _steady_period
        from repro.apps.ofdm import bindings_for, build_ofdm_tpdf
        from repro.csdf import min_buffers_for_full_throughput

        graph = build_ofdm_tpdf().as_csdf()
        bindings = bindings_for(2, 16, 4, 4)
        caps = min_buffers_for_full_throughput(graph, bindings, iterations=5)
        # The accepted sizing really sustains the target over a long
        # horizon (mean period == the unconstrained one), which the
        # falsely accepted smaller capacity did not.
        long_constrained = self_timed_execution(
            graph, bindings, iterations=16, capacities=caps)
        long_free = self_timed_execution(graph, bindings, iterations=16)
        assert _steady_period(long_constrained) == pytest.approx(
            _steady_period(long_free), abs=1e-9)


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


def _plain_greedy_search(graph, iterations):
    """The greedy search with no capacity floors and no probe memo:
    every probe executes.  The oracle the shipped search (which skips
    provably-infeasible and repeated probes) must match exactly.  It
    starts from the same vector: the unconstrained peaks when a probe
    accepts them, else the peaks plus each channel's largest production
    phase.  Returns ``(capacities, executed probes)``, the start probe
    included."""
    from repro.csdf.simulation import rate_table
    from repro.csdf.throughput import (
        _MIN_PROBE_ITERATIONS,
        _steady_period,
        _symbolic_warm_bounds,
    )

    iterations = max(iterations, _MIN_PROBE_ITERATIONS)
    unconstrained = self_timed_execution(graph, iterations=iterations)
    target = _steady_period(unconstrained)
    mcr = max_cycle_ratio(graph, None)
    if abs(target - mcr) <= 1e-6 * max(1.0, abs(mcr)):
        target = mcr
    slack = 1e-6 * max(1.0, abs(target))
    capacities = dict(unconstrained.peaks)
    probes = 0

    def sustains(caps):
        nonlocal probes
        probes += 1
        try:
            result = self_timed_execution(
                graph, iterations=iterations, capacities=caps)
        except DeadlockError:
            return False
        return _steady_period(result) <= target + slack

    def feasible(name, value):
        return sustains({**capacities, name: value})

    if not sustains(capacities):
        production = rate_table(graph).production
        for name in capacities:
            capacities[name] += max(production[name])

    warm_bounds = _symbolic_warm_bounds(graph, None)
    for name in sorted(capacities):
        lo, hi = 0, capacities[name]
        warm = warm_bounds.get(name)
        if warm is not None and warm < hi:
            if feasible(name, warm):
                hi = warm
            else:
                lo = warm + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(name, mid):
                hi = mid
            else:
                lo = mid + 1
        capacities[name] = hi
    return capacities, probes


class TestBufferSearch:
    """The shipped search discards below-floor probes and memoizes
    verdicts; neither may change a single returned capacity."""

    def _assert_matches_plain_search(self, graph):
        stats: dict = {}
        caps = min_buffers_for_full_throughput(graph, iterations=4,
                                               stats=stats)
        plain, plain_probes = _plain_greedy_search(graph, iterations=4)
        assert caps == plain
        # Every probe the plain search executes is either executed,
        # floored or answered from the memo by the shipped one.
        assert (stats["probes"] + stats["probes_floored"]
                + stats["probes_memoized"]) == plain_probes
        assert stats["probes"] <= plain_probes

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_plain_greedy_search(self, seed):
        self._assert_matches_plain_search(_random_csdf(6, 3, 1, seed=seed))

    def test_matches_plain_greedy_search_on_ext7_graph(self):
        """The 40-actor graph of the EXT7 buffer-search bench."""
        graph = random_consistent_graph(
            40, extra_edges=20, n_cycles=2, seed=7, with_control=False,
        ).as_csdf()
        self._assert_matches_plain_search(graph)

    def test_pinned_channels_kept_and_others_minimized(self):
        graph = _random_csdf(6, 3, 1, seed=2)
        base = min_buffers_for_full_throughput(graph, iterations=4)
        name = sorted(base)[0]
        # Pinning at the search's own minimum must reproduce the
        # unpinned sizing exactly (same prefix on every probe).
        pinned = min_buffers_for_full_throughput(
            graph, iterations=4, capacities={name: base[name]}
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

    @pytest.mark.parametrize("iterations", (0, -3))
    def test_fewer_than_one_iteration_rejected(self, fig1, iterations):
        """Bugfix regression: the horizon floor turned any request
        below four iterations, negative ones included, into four."""
        with pytest.raises(ValueError, match="need at least one iteration"):
            min_buffers_for_full_throughput(fig1, iterations=iterations)

    def test_short_horizons_still_floored(self, fig1):
        stats: dict = {}
        min_buffers_for_full_throughput(fig1, iterations=1, stats=stats)
        assert stats["iterations"] == 4


class TestSearchSustainsThroughput:
    """Bugfix regression: the search used to start from the
    unconstrained peaks without probing them.  Space is reserved when a
    firing starts, so those peaks often lose throughput: 58 of the 200
    service-corpus graphs came back with capacities up to 1.75x slower
    than the unconstrained graph over a 128-iteration window."""

    WINDOW = 128

    def test_corpus_results_sustain_the_unconstrained_period(self):
        from repro.csdf.throughput import _steady_period

        from ..service.conftest import corpus_items

        slower = []
        for index, (tpdf, bindings) in enumerate(corpus_items()):
            graph = tpdf.as_csdf()
            caps = min_buffers_for_full_throughput(graph, bindings)
            free = _steady_period(self_timed_execution(
                graph, bindings, iterations=self.WINDOW))
            bounded = _steady_period(self_timed_execution(
                graph, bindings, iterations=self.WINDOW, capacities=caps))
            if bounded > free + 1e-6 * max(1.0, free):
                slower.append((index, free, bounded))
        assert slower == []


class TestCapacityFloorSoundness:
    """The search may skip below-floor probes only because they are
    provably infeasible: over the 200-graph corpus, every channel
    bounded at ``floor - 1`` (all others unbounded) deadlocks on both
    cores."""

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
