"""Tests for capacity-bounded (blocking-write) self-timed execution."""

import pytest

from repro.csdf import (
    CSDFGraph,
    minimal_buffer_schedule,
    self_timed_execution,
)
from repro.csdf.throughput import buffer_throughput_tradeoff
from repro.errors import DeadlockError


def producer_consumer(prod_time=1.0, cons_time=3.0) -> CSDFGraph:
    g = CSDFGraph("pc")
    g.add_actor("prod", exec_time=prod_time)
    g.add_actor("cons", exec_time=cons_time)
    g.add_channel("e", "prod", "cons", 1, 1)
    return g


class TestBlockingWrites:
    def test_capacity_respected(self):
        g = producer_consumer()
        result = self_timed_execution(g, iterations=6, capacities={"e": 2})
        assert result.peaks["e"] <= 2

    def test_unbounded_producer_runs_ahead(self):
        g = producer_consumer()
        result = self_timed_execution(g, iterations=6)
        # Fast producer fills the FIFO well past 2 without back-pressure.
        assert result.peaks["e"] > 2

    def test_tight_buffer_serializes(self):
        g = producer_consumer(prod_time=1.0, cons_time=1.0)
        tight = self_timed_execution(g, iterations=8, capacities={"e": 1})
        loose = self_timed_execution(g, iterations=8, capacities={"e": 8})
        assert tight.makespan >= loose.makespan

    def test_throughput_unaffected_when_consumer_is_bottleneck(self):
        g = producer_consumer(prod_time=1.0, cons_time=3.0)
        small = self_timed_execution(g, iterations=8, capacities={"e": 2})
        big = self_timed_execution(g, iterations=8, capacities={"e": 100})
        assert small.iteration_period == pytest.approx(big.iteration_period)

    def test_selfloop_capacity(self):
        g = CSDFGraph()
        g.add_actor("a", exec_time=1.0)
        g.add_channel("loop", "a", "a", 1, 1, initial_tokens=1)
        result = self_timed_execution(g, iterations=4, capacities={"loop": 1})
        assert result.iterations == 4

    def test_undersized_buffer_deadlocks(self):
        from repro.errors import DeadlockError

        g = CSDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("e", "a", "b", 3, 3)  # one firing needs 3 slots
        with pytest.raises(DeadlockError):
            self_timed_execution(g, capacities={"e": 2})


class TestMinBuffersForFullThroughput:
    def test_result_achieves_unconstrained_period(self, fig1):
        from repro.csdf import min_buffers_for_full_throughput

        caps = min_buffers_for_full_throughput(fig1)
        unconstrained = self_timed_execution(fig1, iterations=5)
        constrained = self_timed_execution(fig1, iterations=5, capacities=caps)
        assert constrained.iteration_period == pytest.approx(
            unconstrained.iteration_period
        )

    def test_result_not_larger_than_unconstrained_peaks(self, fig1):
        from repro.csdf import min_buffers_for_full_throughput

        caps = min_buffers_for_full_throughput(fig1)
        peaks = self_timed_execution(fig1, iterations=5).peaks
        for name, cap in caps.items():
            assert cap <= peaks[name]

    def test_slow_consumer_needs_no_deep_fifo(self):
        from repro.csdf import min_buffers_for_full_throughput

        g = producer_consumer(prod_time=1.0, cons_time=4.0)
        caps = min_buffers_for_full_throughput(g)
        # The consumer is the bottleneck: a couple of slots suffice even
        # though the unconstrained producer piles up many tokens.
        assert caps["e"] <= 3
        unbounded_peak = self_timed_execution(g, iterations=6).peaks["e"]
        assert unbounded_peak > caps["e"]


class TestAnalyticTargetPeriod:
    """The sizing target is Howard's MCR, which equals the converged
    simulated period on the Fig. 8 graphs."""

    @staticmethod
    def fig8_graphs():
        from repro.apps.ofdm import bindings_for, build_ofdm_csdf, build_ofdm_tpdf
        from repro.apps.ofdm.qam import scheme_for_m
        from repro.tpdf import restrict_to_selection

        tpdf = build_ofdm_tpdf()
        port = "qam" if scheme_for_m(4) == "qam16" else "qpsk"
        restricted = restrict_to_selection(tpdf, "DUP", ["in", port])
        restricted = restrict_to_selection(restricted, "TRAN", [port, "out"])
        bindings = bindings_for(2, 16, 2, 4)
        return [(restricted.as_csdf(), bindings), (build_ofdm_csdf(), bindings)]

    def test_simulated_period_equals_mcr_on_fig8_graphs(self):
        """The old target (measured unconstrained period) and the new
        one (Howard's MCR) coincide on both Fig. 8 implementations."""
        from repro.csdf import max_cycle_ratio

        for graph, bindings in self.fig8_graphs():
            simulated = self_timed_execution(
                graph, bindings, iterations=6
            ).iteration_period
            assert simulated == pytest.approx(max_cycle_ratio(graph, bindings),
                                              abs=1e-9)

    def test_mcr_target_on_random_corpus(self):
        """Property sweep: on converging random graphs the analytic
        target yields capacities that achieve the MCR period."""
        from repro.csdf import max_cycle_ratio, min_buffers_for_full_throughput
        from repro.tpdf import random_consistent_graph

        for seed in range(6):
            g = random_consistent_graph(
                4, extra_edges=1, n_cycles=1, seed=seed, with_control=False
            ).as_csdf()
            caps = min_buffers_for_full_throughput(g)
            constrained = self_timed_execution(g, iterations=8, capacities=caps)
            assert constrained.iteration_period == pytest.approx(
                max_cycle_ratio(g), abs=1e-6
            )


class TestTradeoff:
    def test_monotone_throughput(self, fig1):
        points = buffer_throughput_tradeoff(fig1, scales=(1.0, 2.0, 4.0))
        budgets = [budget for budget, _ in points]
        periods = [period for _, period in points]
        assert budgets == sorted(budgets)
        # Larger buffers never hurt throughput.
        assert all(a >= b - 1e-9 for a, b in zip(periods, periods[1:]))

    def test_minimal_capacities_complete(self, fig1):
        _, minimal = minimal_buffer_schedule(fig1)
        result = self_timed_execution(fig1, iterations=3, capacities=minimal)
        assert result.iterations == 3

    def test_ofdm_tradeoff_periods(self):
        """The exact steady periods, which a short run misreads (its last
        two iterations read 2.0 and 1.0)."""
        from repro.apps.ofdm import bindings_for, build_ofdm_tpdf

        graph = build_ofdm_tpdf().as_csdf()
        points = buffer_throughput_tradeoff(
            graph, bindings_for(2, 16, 2, 4), scales=(1.0, 2.0)
        )
        assert [period for _, period in points] == [2.5, 1.25]
        assert points[0][0] < points[1][0]

    def test_deadlocking_scale_raises(self):
        """Capacities scaled below a channel's initial tokens are refused
        up front, as the executors do."""
        g = producer_consumer()
        g.channel("e").initial_tokens = 4
        assert buffer_throughput_tradeoff(g, scales=(1.0,)) == [(4, 3.0)]
        with pytest.raises(DeadlockError, match="capacity below initial tokens: e"):
            buffer_throughput_tradeoff(g, scales=(0.5,))
