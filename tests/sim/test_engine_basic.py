"""Tests for the discrete-event engine: plain dataflow execution."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.symbolic import Param
from repro.tpdf import TPDFGraph


def build_pipeline(prod=1, cons=1, exec_times=(1.0, 1.0)):
    g = TPDFGraph("pipe")
    a = g.add_kernel("a", exec_time=exec_times[0])
    a.add_output("out", prod)
    b = g.add_kernel("b", exec_time=exec_times[1])
    b.add_input("in", cons)
    g.add_kernel("c")  # disconnected sink-less actor never fires... add port
    g.node("c").add_input("in", 1)
    b.add_output("out", 1)
    g.connect("a.out", "b.in", name="ab")
    g.connect("b.out", "c.in", name="bc")
    return g


class TestBasicExecution:
    def test_limits_cap_source(self):
        g = build_pipeline()
        trace = Simulator(g).run(limits={"a": 3})
        assert trace.count("a") == 3
        assert trace.count("b") == 3
        assert trace.count("c") == 3

    def test_timing_sequential_dependency(self):
        g = build_pipeline(exec_times=(2.0, 3.0))
        trace = Simulator(g).run(limits={"a": 1})
        a_rec = trace.firings_of("a")[0]
        b_rec = trace.firings_of("b")[0]
        assert a_rec.end == 2.0
        assert b_rec.start == 2.0
        assert b_rec.end == 5.0

    def test_multirate_firing_counts(self):
        g = build_pipeline(prod=3, cons=2)
        trace = Simulator(g).run(limits={"a": 2})
        # a produces 6 tokens; b consumes 2 per firing -> 3 firings.
        assert trace.count("b") == 3

    def test_horizon_cuts_execution(self):
        g = build_pipeline(exec_times=(10.0, 10.0))
        trace = Simulator(g).run(until=25.0, limits={"a": 100})
        assert trace.count("a") == 2  # third completes at 30 > 25

    def test_parametric_rates_bound(self):
        p = Param("p")
        g = TPDFGraph("param", parameters=[p])
        a = g.add_kernel("a")
        a.add_output("out", p)
        b = g.add_kernel("b")
        b.add_input("in", 1)
        g.connect("a.out", "b.in")
        trace = Simulator(g, bindings={"p": 4}).run(limits={"a": 1})
        assert trace.count("b") == 4

    def test_runaway_guard(self):
        g = build_pipeline()
        with pytest.raises(SimulationError):
            Simulator(g).run(max_firings=10)


class TestFunctions:
    def test_value_flow(self):
        g = TPDFGraph()
        a = g.add_kernel("a", function=lambda n, c: n * 10)
        a.add_output("out", 1)
        got = []
        b = g.add_kernel("b", function=lambda n, c: got.append(c["in"][0]))
        b.add_input("in", 1)
        g.connect("a.out", "b.in")
        Simulator(g).run(limits={"a": 3})
        assert got == [0, 10, 20]

    def test_list_output_must_match_rate(self):
        g = TPDFGraph()
        a = g.add_kernel("a", function=lambda n, c: [1, 2, 3])
        a.add_output("out", 2)
        b = g.add_kernel("b")
        b.add_input("in", 1)
        g.connect("a.out", "b.in")
        with pytest.raises(SimulationError):
            Simulator(g).run(limits={"a": 1})

    def test_dict_output_per_port(self):
        g = TPDFGraph()
        a = g.add_kernel("a", function=lambda n, c: {"x": [1], "y": [2, 3]})
        a.add_output("x", 1)
        a.add_output("y", 2)
        b = g.add_kernel("b")
        b.add_input("in", 1)
        c = g.add_kernel("c")
        c.add_input("in", 2)
        g.connect("a.x", "b.in")
        g.connect("a.y", "c.in")
        trace = Simulator(g, record_values=True).run(limits={"a": 1})
        assert trace.firings_of("c")[0].consumed["in"] == [2, 3]

    def test_dict_output_wrong_count(self):
        g = TPDFGraph()
        a = g.add_kernel("a", function=lambda n, c: {"x": [1, 2]})
        a.add_output("x", 1)
        b = g.add_kernel("b")
        b.add_input("in", 1)
        g.connect("a.x", "b.in")
        with pytest.raises(SimulationError):
            Simulator(g).run(limits={"a": 1})

    def test_scalar_replicated(self):
        g = TPDFGraph()
        a = g.add_kernel("a", function=lambda n, c: 7)
        a.add_output("out", 3)
        b = g.add_kernel("b")
        b.add_input("in", 3)
        g.connect("a.out", "b.in")
        trace = Simulator(g, record_values=True).run(limits={"a": 1})
        assert trace.firings_of("b")[0].consumed["in"] == [7, 7, 7]

    def test_time_fn_overrides_exec_time(self):
        g = TPDFGraph()
        a = g.add_kernel("a", exec_time=1.0)
        a.meta["time_fn"] = lambda n, consumed: 42.0
        a.add_output("out", 1)
        b = g.add_kernel("b")
        b.add_input("in", 1)
        g.connect("a.out", "b.in")
        trace = Simulator(g).run(limits={"a": 1})
        assert trace.firings_of("a")[0].end == 42.0


class TestCoreContention:
    def build_parallel(self):
        g = TPDFGraph()
        src = g.add_kernel("src", exec_time=0.0)
        for i in range(3):
            src.add_output(f"o{i}", 1)
            worker = g.add_kernel(f"w{i}", exec_time=10.0)
            worker.add_input("in", 1)
            g.connect(f"src.o{i}", f"w{i}.in")
        return g

    def test_unlimited_cores_full_parallel(self):
        g = self.build_parallel()
        trace = Simulator(g).run(limits={"src": 1})
        assert trace.end_time() == 10.0

    def test_single_core_serializes(self):
        g = self.build_parallel()
        trace = Simulator(g, cores=1).run(limits={"src": 1})
        assert trace.end_time() == 30.0

    def test_two_cores(self):
        g = self.build_parallel()
        trace = Simulator(g, cores=2).run(limits={"src": 1})
        assert trace.end_time() == 20.0


class TestBufferPeaks:
    def test_peaks_recorded(self):
        g = build_pipeline(prod=4, cons=1)
        trace = Simulator(g).run(limits={"a": 2})
        assert trace.peaks["ab"] >= 4

    def test_initial_tokens_counted(self):
        g = TPDFGraph()
        a = g.add_kernel("a")
        a.add_output("out", 1)
        b = g.add_kernel("b")
        b.add_input("in", 1)
        g.connect("a.out", "b.in", initial_tokens=5)
        sim = Simulator(g)
        assert sim.trace.peaks["e1"] == 5


class TestArgumentChecks:
    """Bad arguments fail up front with a typed error, on both cores."""

    @pytest.mark.parametrize("ready_core", Simulator.READY_CORES)
    def test_unknown_limit_names_raise_before_any_firing(self, fig2,
                                                         ready_core):
        sim = Simulator(fig2, bindings={"p": 2}, ready_core=ready_core)
        with pytest.raises(ValueError, match="unknown nodes: AX"):
            sim.run(limits={"AX": 4}, max_firings=1000)
        assert len(sim.trace.firings) == 0

    @pytest.mark.parametrize("ready_core", Simulator.READY_CORES)
    @pytest.mark.parametrize("cores", (0, -1))
    def test_cores_below_one_rejected(self, fig2, ready_core, cores):
        with pytest.raises(ValueError, match="cores must be >= 1"):
            Simulator(fig2, bindings={"p": 2}, cores=cores,
                      ready_core=ready_core)

    @pytest.mark.parametrize("ready_core", Simulator.READY_CORES)
    def test_missing_binding_raises_key_error(self, fig2, ready_core):
        with pytest.raises(KeyError):
            Simulator(fig2, ready_core=ready_core)
