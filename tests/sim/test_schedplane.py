"""The schedule-plane / value-plane split of the arrays simulator core.

Covers the satellites of the plane refactor:

* the :data:`~repro.sim.INITIAL_TOKEN` sentinel — initial tokens are
  distinguishable from a genuine produced ``None`` by forwarding
  kernels, on every ready core;
* ``Simulator.stats()`` reports the engine that actually runs
  (``{"ready_core": ..., "plane": "arrays"|"python"}``);
* data-dependent ``time_fn`` kernels under capacities and core
  budgets, including reservation/release when the ``time_fn`` firing
  is the capacity blocker;
* the lazy value plane: payload deques are allocated **only** for
  channels with a value-touching endpoint (spy-counted), and a
  whole graph without one degenerates to the counters-only fast path.
"""

import pytest

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
        assert allocations == []  # spy-counted: zero deques materialized
        stats = sim.stats()
        assert stats["fast_path"] is True
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
