"""The schedule-plane / value-plane split of the arrays simulator core.

Covers:

* the :data:`~repro.sim.INITIAL_TOKEN` sentinel — initial tokens are
  distinguishable from a genuine produced ``None`` by forwarding
  kernels, on every ready core;
* ``Simulator.stats()`` reports the engine that actually runs
  (``{"ready_core": ..., "plane": "arrays"|"python"}``);
* data-dependent ``time_fn`` kernels under capacities and core
  budgets, including reservation/release when the ``time_fn`` firing
  is the capacity blocker;
* the lazy value plane: payload FIFOs are allocated **only** for
  channels with a value-touching endpoint (spy-counted), and a whole
  graph without one runs every node as a counter kernel
  (``fast_path``);
* the one drain loop: counter kernels never reach the firing-rule
  methods (spy-asserted on a 40-actor graph with one control actor);
* the payload FIFO (a list plus a head index) against
  ``collections.deque`` over random extend/take/drop sequences.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import INITIAL_TOKEN, InitialToken, Simulator
from repro.sim import schedplane
from repro.tpdf import TPDFGraph

READY_CORES = Simulator.READY_CORES


def _forwarding_graph(collected):
    """src -> fwd -> snk, with two initial tokens on src->fwd; fwd
    forwards payloads verbatim and snk collects them."""
    g = TPDFGraph("forwarding")
    src = g.add_kernel("src", exec_time=1.0, function=lambda n, c: None)
    src.add_output("out", 1)
    fwd = g.add_kernel("fwd", exec_time=1.0,
                       function=lambda n, c: list(c["in"]))
    fwd.add_input("in", 1)
    fwd.add_output("out", 1)
    snk = g.add_kernel("snk", exec_time=0.0)
    snk.add_input("in", 1)
    snk.function = lambda n, c: collected.extend(c["in"])
    g.connect("src.out", "fwd.in", name="e_in", initial_tokens=2)
    g.connect("fwd.out", "snk.in", name="e_mid")
    return g


class TestInitialTokenSentinel:

    def test_singleton_and_falsy(self):
        assert InitialToken() is INITIAL_TOKEN
        assert not INITIAL_TOKEN  # old ``if consumed.get(port):`` guards hold
        assert INITIAL_TOKEN is not None
        assert repr(INITIAL_TOKEN) == "InitialToken"

    @pytest.mark.parametrize("ready_core", READY_CORES)
    def test_forwarded_initial_tokens_are_distinguishable(self, ready_core):
        collected: list = []
        sim = Simulator(_forwarding_graph(collected), ready_core=ready_core)
        sim.run(limits={"src": 2, "fwd": 4, "snk": 4})
        # two initial tokens forwarded first, then two produced Nones —
        # the sentinel tells them apart where the old None pre-fill
        # could not
        assert collected[:2] == [INITIAL_TOKEN, INITIAL_TOKEN]
        assert all(v is INITIAL_TOKEN for v in collected[:2])
        assert collected[2:] == [None, None]
        assert all(v is None for v in collected[2:])

    @pytest.mark.parametrize("ready_core", READY_CORES)
    def test_unconsumed_initial_tokens_visible_on_channel(self, ready_core):
        g = TPDFGraph("idle")
        src = g.add_kernel("src", exec_time=1.0)
        src.add_output("out", 1)
        snk = g.add_kernel("snk", exec_time=1.0,
                           function=lambda n, c: None)
        snk.add_input("in", 1)
        g.connect("src.out", "snk.in", name="e", initial_tokens=3)
        sim = Simulator(g, ready_core=ready_core)
        sim.run(limits={"src": 0, "snk": 1})
        assert sim.tokens_in("e") == 2
        assert sim.channel_values("e") == [INITIAL_TOKEN, INITIAL_TOKEN]


class TestStatsReportsPlane:

    #: Each READY_CORES entry and the engine that actually executes it.
    EXPECTED_PLANE = {"arrays": "arrays", "reference": "python"}

    def test_ready_cores_table_is_exhaustive(self):
        assert set(Simulator.READY_CORES) == set(self.EXPECTED_PLANE)

    @pytest.mark.parametrize("ready_core", READY_CORES)
    def test_plane_matches_actual_engine(self, ready_core):
        g = TPDFGraph("tiny")
        src = g.add_kernel("src", exec_time=1.0)
        src.add_output("out", 1)
        snk = g.add_kernel("snk", exec_time=1.0)
        snk.add_input("in", 1)
        g.connect("src.out", "snk.in", name="e")
        sim = Simulator(g, ready_core=ready_core)
        stats = sim.stats()
        assert stats["ready_core"] == ready_core
        assert stats["plane"] == self.EXPECTED_PLANE[ready_core]
        sim.run(limits={"src": 3})
        stats = sim.stats()
        assert stats["plane"] == self.EXPECTED_PLANE[ready_core]
        # the plane object exists iff the arrays engine actually ran
        assert (sim._plane is not None) == (ready_core == "arrays")
        if ready_core == "arrays":
            assert stats["value_channels"] + stats["schedule_only_channels"] \
                == len(g.channels)
        else:
            assert "value_channels" not in stats
        assert stats["events"] == sim.ready_stats["events"]


def _time_fn_graph():
    """src --(capped)--> mid --> snk where mid's duration is
    data-dependent (reads the payload produced by src)."""
    g = TPDFGraph("timefn")
    src = g.add_kernel("src", exec_time=0.5, function=lambda n, c: n)
    src.add_output("out", 2)
    mid = g.add_kernel("mid", exec_time=1.0)
    mid.add_input("in", 2)
    mid.add_output("out", 1)
    mid.meta["time_fn"] = (
        lambda n, c: 0.5 + 0.25 * sum(
            v for v in c["in"] if isinstance(v, int)) % 4
    )
    snk = g.add_kernel("snk", exec_time=2.0)
    snk.add_input("in", 1)
    g.connect("src.out", "mid.in", name="e_src")
    g.connect("mid.out", "snk.in", name="e_mid")
    return g


def _fingerprint(graph, ready_core, cores=None, capacities=None, limits=None):
    sim = Simulator(graph, cores=cores, ready_core=ready_core,
                    capacities=capacities)
    sim.run(limits=limits, max_firings=20_000)
    return sim.trace.fingerprint(), sim


class TestTimeFnUnderConstraints:
    """Data-dependent durations were only differential-tested without
    capacities before the plane split; pin them under back-pressure
    and core budgets too."""

    @pytest.mark.parametrize("cores", (None, 1, 2))
    @pytest.mark.parametrize("capacities",
                             (None, {"e_src": 2, "e_mid": 1}),
                             ids=("open", "capped"))
    def test_parity_under_caps_and_cores(self, cores, capacities):
        limits = {"src": 6}
        prints = {}
        for core in READY_CORES:
            prints[core], sim = _fingerprint(
                _time_fn_graph(), core, cores=cores,
                capacities=capacities, limits=limits,
            )
            if capacities:
                for name, cap in capacities.items():
                    assert sim.trace.peaks[name] <= cap
        assert prints["arrays"] == prints["reference"]

    @pytest.mark.parametrize("ready_core", READY_CORES)
    def test_time_fn_reservation_released_when_blocker(self, ready_core):
        """The ``time_fn`` firing *is* the capacity blocker: ``e_mid``
        has room for exactly one token, so every in-flight mid firing
        holds the whole reservation; it must convert to a queued token
        at completion and drop back to zero."""
        graph = _time_fn_graph()
        sim = Simulator(graph, ready_core=ready_core,
                        capacities={"e_mid": 1})
        sim.run(limits={"src": 6}, max_firings=20_000)
        assert sim.trace.peaks["e_mid"] == 1
        assert sim.channel_reserved("e_mid") == 0
        assert sim.channel_reserved("e_src") == 0
        # back-pressure throttles mid: it can only fire once per snk
        # consumption, so the run still completes all upstream work
        assert sim.trace.count("mid") == sim.trace.count("snk") > 0

    def test_time_fn_sees_value_plane_payloads(self):
        """The duration really is data-dependent through the value
        plane: doubling the produced values changes the schedule."""
        def build(scale):
            g = _time_fn_graph()
            g.node("src").function = lambda n, c: scale * n
            return g

        base, _ = _fingerprint(build(1), "arrays", limits={"src": 6})
        scaled, _ = _fingerprint(build(2), "arrays", limits={"src": 6})
        ref_base, _ = _fingerprint(build(1), "reference", limits={"src": 6})
        assert base != scaled
        assert base == ref_base


class TestLazyValuePlane:

    def _run(self, graph, monkeypatch, **kwargs):
        allocations = []
        real = schedplane._make_queue

        def spy(values):
            queue = real(values)
            allocations.append(queue)
            return queue

        monkeypatch.setattr(schedplane, "_make_queue", spy)
        sim = Simulator(graph, ready_core="arrays", **kwargs)
        sim.run(limits={name: 4 for name in graph.kernels},
                max_firings=20_000)
        return sim, allocations

    def test_pure_timing_graph_allocates_no_payload_storage(self, monkeypatch):
        from repro.tpdf import random_consistent_graph

        graph = random_consistent_graph(12, extra_edges=5, n_cycles=2,
                                        seed=11, with_control=False)
        sim, allocations = self._run(graph, monkeypatch)
        assert allocations == []  # spy-counted: zero FIFOs materialized
        stats = sim.stats()
        assert stats["fast_path"] is True
        assert stats["counter_nodes"] == len(graph.kernels)
        assert stats["value_channels"] == 0
        assert stats["schedule_only_channels"] == len(graph.channels)
        assert sim.trace.count(next(iter(graph.kernels))) == 4

    def test_only_value_bearing_channels_materialize(self, monkeypatch):
        g = TPDFGraph("mixed")
        src = g.add_kernel("src", exec_time=1.0, function=lambda n, c: n)
        src.add_output("out", 1)
        a = g.add_kernel("a", exec_time=1.0)
        a.add_input("in", 1)
        a.add_output("out", 1)
        b = g.add_kernel("b", exec_time=1.0)
        b.add_input("in", 1)
        b.add_output("out", 1)
        snk = g.add_kernel("snk", exec_time=1.0)
        snk.add_input("in", 1)
        snk.meta["time_fn"] = lambda n, c: 1.0
        g.connect("src.out", "a.in", name="e_fn_out")   # producer computes
        g.connect("a.out", "b.in", name="e_pure")       # pure -> pure
        g.connect("b.out", "snk.in", name="e_timefn")   # consumer reads
        sim, allocations = self._run(g, monkeypatch)
        assert len(allocations) == 2
        plane = sim._plane
        assert plane.queues[plane.slot_of["e_pure"]] is None
        assert plane.queues[plane.slot_of["e_fn_out"]] is not None
        assert plane.queues[plane.slot_of["e_timefn"]] is not None
        assert sim.stats()["fast_path"] is False
        assert sim.stats()["schedule_only_channels"] == 1
        assert sim.stats()["counter_nodes"] == 2  # a and b

    def test_record_values_materializes_everything(self, monkeypatch):
        g = TPDFGraph("recorded")
        src = g.add_kernel("src", exec_time=1.0)
        src.add_output("out", 1)
        snk = g.add_kernel("snk", exec_time=1.0)
        snk.add_input("in", 1)
        g.connect("src.out", "snk.in", name="e")
        sim, allocations = self._run(g, monkeypatch, record_values=True)
        assert len(allocations) == 1
        assert sim.trace.firings_of("snk")[0].consumed == {"in": [None]}


class TestCounterKernels:

    def test_only_control_paths_reach_the_firing_rule_methods(
            self, monkeypatch):
        """One control actor steers one sink; the other 40 kernels
        start and complete inline on the counters."""
        from repro.tpdf import random_consistent_graph
        from repro.tpdf.consistency import concrete_repetition_vector

        graph = random_consistent_graph(40, extra_edges=20, n_cycles=2,
                                        seed=5, with_control=True)
        q = concrete_repetition_vector(graph, {})
        limits = {name: 2 * q[name] for name in graph.kernels}
        reached = set()
        for method in ("_control_ready", "_kernel_plan"):
            real = getattr(schedplane.SimPlane, method)

            def spy(plane, pos, _real=real):
                reached.add(plane.names[pos])
                return _real(plane, pos)

            monkeypatch.setattr(schedplane.SimPlane, method, spy)
        sim = Simulator(graph)
        trace = sim.run(limits=limits, max_firings=50_000)
        assert reached == {"ctrl0", "sink0"}
        assert trace.count("ctrl0") == trace.count("sink0") == 2
        assert sim.stats()["counter_nodes"] == 40
        assert sim.stats()["fast_path"] is False
        reference = Simulator(graph, ready_core="reference")
        reference.run(limits=limits, max_firings=50_000)
        assert trace.fingerprint() == reference.trace.fingerprint()


class TestPayloadFifo:
    """The value plane's FIFO behaves as a deque of payloads."""

    def test_compaction_cuts_the_consumed_prefix(self):
        fifo = schedplane._make_queue(range(10))
        assert fifo.take(5) == [0, 1, 2, 3, 4]
        assert (fifo.head, len(fifo.items)) == (5, 10)
        fifo.drop(1)  # consumed prefix 6 > half of 10: cut off
        assert (fifo.head, fifo.items) == (0, [6, 7, 8, 9])
        assert list(fifo) == [6, 7, 8, 9] and fifo.peek() == 6

    @settings(max_examples=200, deadline=None)
    @given(
        initial=st.integers(0, 6),
        ops=st.lists(st.tuples(st.sampled_from(("extend", "take", "drop")),
                               st.integers(0, 9)), max_size=60),
    )
    def test_matches_deque(self, initial, ops):
        fifo = schedplane._make_queue(INITIAL_TOKEN for _ in range(initial))
        model = deque(INITIAL_TOKEN for _ in range(initial))
        for op, count in ops:
            if op == "extend":
                values = [object() for _ in range(count)]
                fifo.extend(values)
                model.extend(values)
            else:
                count = min(count, len(model))
                want = [model.popleft() for _ in range(count)]
                if op == "take":
                    got = fifo.take(count)
                    assert len(got) == count
                    assert all(g is w for g, w in zip(got, want))
                else:
                    fifo.drop(count)
            live = list(fifo)
            assert len(live) == len(model)
            assert all(g is w for g, w in zip(live, model))
            if model:
                assert fifo.peek() is model[0]
            # memory stays within twice the live payloads
            assert len(fifo.items) <= 2 * len(model)


class TestPlaneTraceEquivalence:
    """Columnar record construction is invisible to trace consumers."""

    def test_lazy_firings_materialize_identically(self):
        from repro.tpdf import random_consistent_graph

        graph = random_consistent_graph(6, extra_edges=3, n_cycles=1,
                                        seed=4, with_control=True)
        limits = {name: 4 for name in graph.kernels}
        sims = {}
        for core in ("arrays", "reference"):
            sims[core] = Simulator(graph, ready_core=core)
            sims[core].run(limits=limits)
        arrays, reference = sims["arrays"], sims["reference"]
        assert arrays.trace.fingerprint() == reference.trace.fingerprint()
        # materialize after fingerprinting: same records, same order
        assert len(arrays.trace.firings) == len(reference.trace.firings)
        for got, want in zip(arrays.trace.firings, reference.trace.firings):
            assert (got.node, got.index, got.start, got.end, got.mode) == (
                want.node, want.index, want.start, want.end, want.mode)
        # fingerprint unchanged by materialization
        assert arrays.trace.fingerprint() == reference.trace.fingerprint()

    def test_incremental_runs_accumulate_records(self):
        g = TPDFGraph("steps")
        src = g.add_kernel("src", exec_time=1.0)
        src.add_output("out", 1)
        snk = g.add_kernel("snk", exec_time=1.0)
        snk.add_input("in", 1)
        g.connect("src.out", "snk.in", name="e")
        sim = Simulator(g, ready_core="arrays")
        sim.run(limits={"src": 2})
        first = len(sim.trace.firings)  # materializes mid-stream
        assert first > 0
        sim.run(limits={"src": 4})
        assert len(sim.trace.firings) > first
        ref = Simulator(g, ready_core="reference")
        ref.run(limits={"src": 2})
        ref.run(limits={"src": 4})
        assert sim.trace.fingerprint() == ref.trace.fingerprint()
