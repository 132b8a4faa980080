"""One rule for count-valued inputs (:func:`repro.errors.as_count`).

Iteration, core, firing, limit, box and token counts, and capacities,
must be integers (``operator.index``; numpy integers pass) and not
``bool``: a float used to run truncated or rounded (``iterations=2.5``
ran 18 firings of Fig. 1, ``cores=1.5`` ran as 2, a limit of 2.5 fired
three times).  The error is a ``ValueError`` naming the count and the
value, so the service answers 400.
"""

from __future__ import annotations

import re

import pytest

from repro.analysis import (analyze, analyze_parametric, probe_capacities,
                            simulate)
from repro.csdf import CSDFGraph, RateSequence
from repro.csdf.throughput import (self_timed_execution,
                                   self_timed_execution_reference)
from repro.errors import as_count
from repro.sim import Simulator

EXECUTORS = (self_timed_execution, self_timed_execution_reference)


def _refused(name, value):
    return pytest.raises(
        ValueError, match=re.escape(f"{name} must be an integer, got {value!r}"))


class TestAsCount:
    def test_integers_pass(self):
        assert as_count("n", 3) == 3
        assert type(as_count("n", 3)) is int

    @pytest.mark.parametrize("value", (2.5, 2.0, True, False, "2", None))
    def test_non_integers_refused(self, value):
        with _refused("n", value):
            as_count("n", value)

    def test_minimum(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            as_count("n", 0, minimum=1)
        assert as_count("n", -4, minimum=None) == -4

    def test_numpy_integers_pass(self):
        np = pytest.importorskip("numpy")
        value = as_count("n", np.int64(5))
        assert value == 5 and type(value) is int


class TestIterations:
    @pytest.mark.parametrize("value", (2.5, True))
    def test_analyze(self, fig1, value):
        with _refused("iterations", value):
            analyze(fig1, iterations=value)

    @pytest.mark.parametrize("value", (2.5, True))
    @pytest.mark.parametrize("execute", EXECUTORS)
    def test_executors(self, fig1, execute, value):
        with _refused("iterations", value):
            execute(fig1, iterations=value)

    def test_probe_capacities(self, fig1):
        with _refused("iterations", 2.5):
            probe_capacities(fig1, [None], iterations=2.5)
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            probe_capacities(fig1, [], iterations=0)


class TestCores:
    @pytest.mark.parametrize("execute", EXECUTORS)
    def test_executors_refuse_fractions(self, fig1, execute):
        with _refused("cores", 1.5):
            execute(fig1, iterations=2, cores=1.5)

    @pytest.mark.parametrize("execute", EXECUTORS)
    def test_executors_refuse_zero(self, fig1, execute):
        """``cores=0`` used to end in "stalled after 0 firings"."""
        with pytest.raises(ValueError, match="cores must be >= 1, got 0"):
            execute(fig1, iterations=2, cores=0)

    @pytest.mark.parametrize("ready_core", Simulator.READY_CORES)
    def test_simulator(self, fig2, ready_core):
        with _refused("cores", 1.5):
            Simulator(fig2, {"p": 2}, cores=1.5, ready_core=ready_core)


class TestSimulateCounts:
    @pytest.mark.parametrize("ready_core", Simulator.READY_CORES)
    def test_limit_values(self, fig2, ready_core):
        """A limit of 2.5 used to fire its node three times."""
        sim = Simulator(fig2, {"p": 2}, ready_core=ready_core)
        with _refused("limit of 'A'", 2.5):
            sim.run(limits={"A": 2.5})
        assert not sim.trace.firings

    def test_max_firings(self, fig2):
        with _refused("max_firings", 10.5):
            simulate(fig2, {"p": 2}, max_firings=10.5)


def test_max_boxes():
    from repro.gallery import parametric_radio_graph

    with _refused("max_boxes", 2.5):
        analyze_parametric(parametric_radio_graph(),
                           {"b": (1, 2), "c": (1, 2)}, max_boxes=2.5)


class TestBooleanRates:
    """A ``bool`` phase used to be accepted as the rate 1 or 0."""

    @pytest.mark.parametrize("phase", (True, False))
    def test_rate_sequence(self, phase):
        with pytest.raises(ValueError, match=f"rate phase {phase!r} is a bool"):
            RateSequence.of(phase)
        with pytest.raises(ValueError, match=f"rate phase {phase!r} is a bool"):
            RateSequence([1, phase])

    def test_add_channel(self):
        g = CSDFGraph("g")
        g.add_actor("a")
        g.add_actor("b")
        with pytest.raises(ValueError, match="rate phase True is a bool"):
            g.add_channel("ab", "a", "b", production=[True])
