"""Capacity-bounded (blocking-write) execution in the TPDF simulator.

The value-carrying :class:`~repro.sim.Simulator` shares the capacity
contract of the csdf executors: unknown channel names raise
``ValueError`` naming the offenders, a capacity below a channel's
initial tokens is an up-front :class:`~repro.errors.DeadlockError`,
and a firing may start only when every bounded output channel has room
for its declared production (reserved at start, converted to queued
tokens at completion, a self-loop's own consumption credited).
"""

import pytest

from repro.errors import DeadlockError
from repro.sim import Simulator
from repro.tpdf import TPDFGraph, random_consistent_graph


def _pipeline(prod_time=1.0, cons_time=3.0, initial=0) -> TPDFGraph:
    g = TPDFGraph("pc")
    prod = g.add_kernel("prod", exec_time=prod_time)
    cons = g.add_kernel("cons", exec_time=cons_time)
    prod.add_output("o", 1)
    cons.add_input("i", 1)
    g.connect(("prod", "o"), ("cons", "i"), name="e", initial_tokens=initial)
    return g


def _trace_key(trace):
    return [
        (f.node, f.index, f.start, f.end) for f in trace.firings
    ], dict(trace.peaks)


class TestValidation:
    def test_unknown_channel_names_rejected(self):
        g = _pipeline()
        with pytest.raises(ValueError) as info:
            Simulator(g, capacities={"typo1": 4, "typo2": 2, "e": 4})
        assert "typo1" in str(info.value) and "typo2" in str(info.value)

    def test_capacity_below_initial_tokens_is_deadlock(self):
        g = _pipeline(initial=3)
        with pytest.raises(DeadlockError, match="initial tokens"):
            Simulator(g, capacities={"e": 2})

    def test_capacity_at_initial_tokens_admitted(self):
        g = _pipeline(initial=3)
        trace = Simulator(g, capacities={"e": 3}).run(
            limits={"prod": 4, "cons": 4}
        )
        assert trace.peaks["e"] <= 3


class TestBackPressure:
    def test_fast_producer_is_throttled(self):
        g = _pipeline(prod_time=1.0, cons_time=3.0)
        limits = {"prod": 12, "cons": 12}
        unbounded = Simulator(g).run(limits=limits)
        assert unbounded.peaks["e"] > 2
        bounded = Simulator(g, capacities={"e": 2}).run(limits=limits)
        assert bounded.peaks["e"] <= 2
        # All work still completes; the producer just starts later.
        assert len(bounded.firings) == len(unbounded.firings)
        assert bounded.firings[-1].end >= unbounded.firings[-1].end

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_respect_bounds_and_complete(self, seed):
        g = random_consistent_graph(
            6, extra_edges=2, n_cycles=1, seed=seed, with_control=False
        )
        limits = {name: 6 for name in g.node_names()}
        unbounded = Simulator(g).run(limits=limits)
        caps = {
            name: max(c.initial_tokens, unbounded.peaks[name], 1)
            for name, c in g.channels.items()
        }
        sim = Simulator(g, capacities=caps)
        trace = sim.run(limits=limits)
        for name, peak in trace.peaks.items():
            assert peak <= caps[name]
        # Generous bounds (the unbounded peaks) delay but never drop
        # firings.
        assert len(trace.firings) == len(unbounded.firings)
        # No reservation leaks once the run quiesces.
        assert all(
            state.reserved == 0 for state in sim._channels.values()
        )

    @pytest.mark.parametrize("seed", (1, 4, 9))
    def test_ready_cores_agree_under_capacities(self, seed):
        g = random_consistent_graph(
            6, extra_edges=2, n_cycles=1, seed=seed, with_control=False
        )
        limits = {name: 6 for name in g.node_names()}
        caps = {
            name: max(c.initial_tokens, 3)
            for name, c in g.channels.items()
        }
        keys = {
            core: _trace_key(
                Simulator(g, capacities=caps, ready_core=core).run(
                    limits=limits
                )
            )
            for core in Simulator.READY_CORES
        }
        assert keys["arrays"] == keys["reference"]

    @pytest.mark.parametrize("seed", (3, 7))
    def test_control_graphs_respect_bounds(self, seed):
        g = random_consistent_graph(
            6, extra_edges=2, n_cycles=1, seed=seed, with_control=True
        )
        limits = {name: 5 for name in g.node_names()}
        unbounded = Simulator(g).run(limits=limits)
        caps = {
            name: max(c.initial_tokens, unbounded.peaks[name], 1)
            for name, c in g.channels.items()
        }
        trace = Simulator(g, capacities=caps).run(limits=limits)
        for name, peak in trace.peaks.items():
            assert peak <= caps[name]
        assert len(trace.firings) == len(unbounded.firings)
