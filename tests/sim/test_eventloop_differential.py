"""Differential harness for the event-loop cores.

The timed CSDF executor is one core, ``self_timed_execution`` (an
event loop over the struct-of-arrays template of
:mod:`repro.csdf.statearrays`), and its oracle is the legacy
full-rescan loop ``self_timed_execution_reference`` (the
``mcr_reference`` pattern); both are called here by name.  The
value-carrying TPDF simulator keeps both cores behind
``Simulator(..., ready_core=...)`` (its ``"arrays"`` core is the
schedule-plane / value-plane split of :mod:`repro.sim.schedplane`).

Equality is **bit for bit** across both: every float time, every
firing order decision (the scan-order tie-break governs sequence
numbers and therefore simultaneous-event ordering), every peak, every
discard, every deadlock blocked-set.  The corpus covers 200 seeded
random graphs x core budgets {None, 1, 2, 8} x capacity constraints
on/off, the gallery/Fig. 8 graphs, and the control/clock/mode
machinery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csdf import (
    CSDFGraph,
    self_timed_execution,
    self_timed_execution_reference,
)
from repro.errors import DeadlockError
from repro.sim import Simulator
from repro.tpdf import (
    ControlToken,
    Mode,
    fig2_graph,
    random_consistent_graph,
    select_one,
)

#: (actors, extra_edges, back_edges) shapes of the random corpus —
#: the same grid the MCR differential harness sweeps.
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

CORE_BUDGETS = (None, 1, 2, 8)


def _random_csdf(n: int, extra: int, cycles: int, seed: int) -> CSDFGraph:
    return random_consistent_graph(
        n, extra_edges=extra, n_cycles=cycles, seed=seed, with_control=False
    ).as_csdf()


def _result_key(graph, **kwargs):
    """Exact observable outcome of one executor run: either the full
    TimedResult contents or the deadlock blocked-set."""
    executor = kwargs.pop("executor")
    try:
        r = executor(graph, **kwargs)
    except DeadlockError as exc:
        return ("deadlock", tuple(exc.blocked))
    return (
        r.makespan,
        r.iterations,
        r.firings,
        tuple(r.iteration_ends),
        tuple(r.peaks.items()),  # insertion order included
    )


def _assert_parity(graph, **kwargs):
    """The executor and its oracle produce the identical result key."""
    assert (_result_key(graph, executor=self_timed_execution, **kwargs)
            == _result_key(graph, executor=self_timed_execution_reference,
                           **kwargs))


def _tight_capacities(graph, iterations):
    """Capacities one below the unconstrained peaks (clamped to >= 1):
    exercises blocking writes, reservation wakeups and — on cyclic
    graphs — deadlocks."""
    peaks = self_timed_execution_reference(
        graph, iterations=iterations
    ).peaks
    return {name: max(1, peak - 1) for name, peak in peaks.items()}


class TestTimedExecutorParity:
    """New core == reference on the random corpus x cores x capacities."""

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"n{s[0]}e{s[1]}c{s[2]}")
    def test_random_corpus_unconstrained(self, shape):
        n, extra, cycles = shape
        for seed in range(SEEDS_PER_SHAPE):
            graph = _random_csdf(n, extra, cycles, seed)
            for cores in CORE_BUDGETS:
                _assert_parity(graph, iterations=3, cores=cores)

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"n{s[0]}e{s[1]}c{s[2]}")
    def test_random_corpus_capacity_constrained(self, shape):
        n, extra, cycles = shape
        for seed in range(10):
            graph = _random_csdf(n, extra, cycles, seed)
            capacities = _tight_capacities(graph, iterations=3)
            for cores in (None, 2):
                _assert_parity(
                    graph, iterations=3, cores=cores, capacities=capacities
                )

    def test_deadlock_parity_includes_blocked_sets(self):
        """Both cores stall identically — same exception, same
        blocked actors — on a tokenless cycle and undersized buffers."""
        cycle = CSDFGraph("dead")
        cycle.add_actor("a")
        cycle.add_actor("b")
        cycle.add_channel("ab", "a", "b")
        cycle.add_channel("ba", "b", "a")
        _assert_parity(cycle)
        key = _result_key(cycle, executor=self_timed_execution)
        assert key[0] == "deadlock" and set(key[1]) == {"a", "b"}

        undersized = CSDFGraph("small")
        undersized.add_actor("a")
        undersized.add_actor("b")
        undersized.add_channel("e", "a", "b", 3, 3)
        for execute in EXECUTORS.values():
            with pytest.raises(DeadlockError) as exc:
                execute(undersized, capacities={"e": 2})
            assert exc.value.blocked == ["a", "b"]

    def test_gallery_and_fig8_graphs(self, fig1):
        from repro.apps.ofdm import bindings_for, build_ofdm_csdf, build_ofdm_tpdf
        from repro.gallery import parametric_radio_graph

        cases = [
            (fig1, None),
            (fig2_graph().as_csdf(), {"p": 1}),
            (fig2_graph().as_csdf(), {"p": 4}),
            (parametric_radio_graph(), {"b": 2, "c": 3}),
            (build_ofdm_tpdf().as_csdf(), bindings_for(2, 16, 4, 4)),
            (build_ofdm_csdf(), bindings_for(2, 32, 2, 4)),
        ]
        for graph, bindings in cases:
            for cores in CORE_BUDGETS:
                _assert_parity(graph, bindings=bindings, iterations=4,
                               cores=cores)
            capacities = _tight_capacities(graph, iterations=4) if bindings is None else None
            if capacities is None:
                peaks = self_timed_execution_reference(
                    graph, bindings, iterations=4
                ).peaks
                capacities = {k: max(1, v - 1) for k, v in peaks.items()}
            _assert_parity(graph, bindings=bindings, iterations=4,
                           capacities=capacities)

    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(3, 8),
        cycles=st.integers(0, 2),
        cores=st.sampled_from(CORE_BUDGETS),
        constrain=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_parity_property(self, seed, n, cycles, cores, constrain):
        graph = _random_csdf(n, n // 2, cycles, seed)
        capacities = _tight_capacities(graph, iterations=3) if constrain else None
        _assert_parity(graph, iterations=3, cores=cores, capacities=capacities)

    def test_ready_visit_hierarchy(self):
        """The point of the array-state core: it only ever queues actors
        that *became* startable, so it examines far fewer actors than
        the full rescan (>= 2x on the corpus shapes), all while
        producing identical results."""
        totals = {core: 0 for core in EXECUTORS}
        events = {core: 0 for core in EXECUTORS}
        for seed in range(10):
            graph = _random_csdf(8, 4, 2, seed)
            for core, execute in EXECUTORS.items():
                stats = {}
                execute(graph, iterations=4, stats=stats)
                totals[core] += stats["ready_visits"]
                events[core] += stats["events"]
        assert events["arrays"] == events["reference"]
        assert totals["arrays"] * 2 <= totals["reference"]


def _sim_fingerprint(graph, ready_core, cores=None, limits=None, until=None,
                     record_values=False, bindings=None):
    sim = Simulator(graph, bindings=bindings, cores=cores,
                    ready_core=ready_core, record_values=record_values)
    trace = sim.run(until=until, limits=limits, max_firings=20_000)
    return trace.fingerprint()


def _assert_sim_parity(graph, **kwargs):
    arrays = _sim_fingerprint(graph, "arrays", **kwargs)
    ref = _sim_fingerprint(graph, "reference", **kwargs)
    assert arrays == ref


class TestSimulatorParity:
    """Trace fingerprints (firing order, times, modes, discards, peaks)
    match bit for bit between the arrays and reference ready checks."""

    @pytest.mark.parametrize("with_control", (False, True),
                             ids=("plain", "controlled"))
    def test_random_graphs(self, with_control):
        for seed in range(25):
            graph = random_consistent_graph(
                5, extra_edges=2, n_cycles=1, seed=seed,
                with_control=with_control,
            )
            source = next(iter(graph.kernels))
            for cores in (None, 1, 2):
                _assert_sim_parity(graph, cores=cores, limits={source: 4})

    def test_fig2_graph(self, fig2):
        source = next(iter(fig2.kernels))
        for cores in (None, 1, 3):
            _assert_sim_parity(fig2, cores=cores, limits={source: 4},
                               bindings={"p": 2})

    def test_mode_machinery(self):
        """Selections, rejections (discard debts) and priorities flow
        through the arrays core unchanged."""
        for decision in (
            lambda n, inputs: select_one("from_left"),
            lambda n, inputs: ControlToken(Mode.WAIT_ALL),
            lambda n, inputs: ControlToken(Mode.HIGHEST_PRIORITY),
        ):
            arrays = _controlled_fingerprint(decision, "arrays")
            ref = _controlled_fingerprint(decision, "reference")
            assert arrays == ref

    def test_clock_driven_graph(self):
        from repro.tpdf import TPDFGraph, clock

        def build():
            g = TPDFGraph("clocked")
            src = g.add_kernel("src", exec_time=1.0, function=lambda n, c: n)
            src.add_output("out", 1)
            snk = g.add_kernel("snk", exec_time=0.5)
            snk.add_input("in", 1, priority=1)
            snk.add_control_port("ctrl", 1)
            clock(g, "clk", period=2.0)
            g.connect("src.out", "snk.in", name="data")
            g.connect("clk.tick", "snk.ctrl", name="ticks")
            return g

        fingerprints = {
            core: _sim_fingerprint(build(), core, limits={"src": 5},
                                   until=20.0)
            for core in Simulator.READY_CORES
        }
        assert fingerprints["arrays"] == fingerprints["reference"]

    def test_visit_reduction_on_wide_graph(self):
        graph = random_consistent_graph(
            20, extra_edges=10, n_cycles=2, seed=3, with_control=False
        )
        source = next(iter(graph.kernels))
        sims = {}
        for core in Simulator.READY_CORES:
            sim = Simulator(graph, ready_core=core)
            sim.run(limits={source: 6}, max_firings=50_000)
            sims[core] = sim
        assert (sims["arrays"].ready_stats["events"]
                == sims["reference"].ready_stats["events"])
        assert (sims["arrays"].ready_stats["visits"] * 2
                <= sims["reference"].ready_stats["visits"])

    @pytest.mark.parametrize("capped", (False, True), ids=("open", "capped"))
    @pytest.mark.parametrize("cores", (None, 2))
    @pytest.mark.parametrize("steer", (("qam", 4), ("qpsk", 2)),
                             ids=("qam", "qpsk"))
    def test_ofdm_steered(self, steer, cores, capped):
        """The Fig. 7 demodulator steered to one demapper: counter
        kernels (FFT and the selected demapper) drain and fill payload
        channels while TRAN leaves discard debts on the idle input.
        Capped runs bound every channel by one iteration's production."""
        from repro.apps.ofdm import bindings_for, build_ofdm_tpdf
        from repro.csdf.simulation import rate_table
        from repro.tpdf.consistency import concrete_repetition_vector

        branch, m = steer
        graph = build_ofdm_tpdf()
        graph.node("CON").decision = (
            lambda n, inputs: ControlToken(Mode.SELECT_ONE, (branch,)))
        bindings = bindings_for(4, 64, 4, m)
        capacities = None
        if capped:
            q = concrete_repetition_vector(graph, bindings)
            production = rate_table(graph.as_csdf(), bindings).production
            capacities = {
                name: channel.initial_tokens + sum(
                    production[name][k % len(production[name])]
                    for k in range(q[channel.src]))
                for name, channel in graph.channels.items()
            }
        sims = {}
        for core in Simulator.READY_CORES:
            sims[core] = Simulator(graph, bindings=bindings, cores=cores,
                                   ready_core=core, capacities=capacities)
            sims[core].run(limits={"SRC": 6})
        arrays, reference = sims["arrays"].trace, sims["reference"].trace
        assert arrays.fingerprint() == reference.fingerprint()
        assert arrays.count("SNK") == 6 and arrays.discards
        assert sims["arrays"].stats()["counter_nodes"] == 6

    @pytest.mark.parametrize("core", ("bogus", "wakeup"))
    def test_invalid_ready_core_rejected(self, fig2, core):
        with pytest.raises(ValueError, match="ready_core must be one of"):
            Simulator(fig2, ready_core=core)


def _fanout(chains: int):
    """One source feeding ``chains`` two-actor chains with exec times
    1-9: ``1 + 2 * chains`` actors, most of them in flight at once."""
    from repro.tpdf import TPDFGraph

    g = TPDFGraph(f"fanout{chains}")
    src = g.add_kernel("src", exec_time=1)
    for i in range(chains):
        src.add_output(f"o{i}", 1)
        head = g.add_kernel(f"h{i}", exec_time=1 + i % 9)
        head.add_input("in", 1)
        head.add_output("out", 1)
        tail = g.add_kernel(f"t{i}", exec_time=1 + (4 * i + 3) % 9)
        tail.add_input("in", 1)
        g.connect(f"src.o{i}", f"h{i}.in")
        g.connect(f"h{i}.out", f"t{i}.in")
    return g


class TestWideFanoutParity:
    """201 actors with over 128 completions queued at once: the arrays
    cores' event heap at a size the corpus never reaches still matches
    the reference cores bit for bit."""

    @pytest.mark.parametrize("cores", (None, 2))
    def test_executor(self, cores):
        _assert_parity(_fanout(100).as_csdf(), iterations=8, cores=cores)

    @pytest.mark.parametrize("record_values", (False, True),
                             ids=("counters", "values"))
    @pytest.mark.parametrize("cores", (None, 2))
    def test_simulator(self, cores, record_values):
        _assert_sim_parity(_fanout(100), cores=cores, limits={"src": 8},
                           record_values=record_values)


def _sim_result_key(graph, ready_core, cores, limits, capacities=None,
                    bindings=None):
    """Exact observable outcome of one simulator run: the trace
    fingerprint (firing order/times/modes, discards, peaks) or the
    up-front capacity deadlock's blocked set."""
    try:
        sim = Simulator(graph, bindings=bindings, cores=cores,
                        ready_core=ready_core, capacities=capacities)
    except DeadlockError as exc:
        return ("deadlock", tuple(exc.blocked))
    sim.run(limits=limits, max_firings=20_000)
    return (sim.trace.fingerprint(), len(sim.trace.discards),
            sim.ready_stats["events"])


def _sim_tight_capacities(graph, limits):
    """Capacities one below an unconstrained reference run's peaks
    (clamped to >= 1): back-pressure on every channel, and — where a
    peak-1 bound falls below the initial marking — the up-front
    capacity deadlock."""
    sim = Simulator(graph, ready_core="reference")
    sim.run(limits=limits, max_firings=20_000)
    return {name: max(1, peak - 1) for name, peak in sim.trace.peaks.items()}


class TestSimulatorCorpusParity:
    """The schedule/value-plane split (``ready_core="arrays"``, the
    default) is pinned bit for bit against the legacy reference oracle
    over the 200-graph corpus x core budgets
    {None, 1, 2, 8} x capacity constraints on/off — the acceptance bar
    of the plane refactor.  Control machinery rides along on odd
    seeds (control actor + controlled sink per graph)."""

    @pytest.mark.parametrize("constrained", (False, True),
                             ids=("open", "capped"))
    @pytest.mark.parametrize("shape", SHAPES,
                             ids=lambda s: f"n{s[0]}e{s[1]}c{s[2]}")
    def test_random_corpus(self, shape, constrained):
        n, extra, cycles = shape
        for seed in range(SEEDS_PER_SHAPE):
            graph = random_consistent_graph(
                n, extra_edges=extra, n_cycles=cycles, seed=seed,
                with_control=bool(seed % 2),
            )
            limits = {name: 4 for name in graph.kernels}
            capacities = (
                _sim_tight_capacities(graph, limits) if constrained else None
            )
            for cores in CORE_BUDGETS:
                keys = {
                    core: _sim_result_key(graph, core, cores, limits,
                                          capacities)
                    for core in Simulator.READY_CORES
                }
                assert keys["arrays"] == keys["reference"], (
                    f"shape={shape} seed={seed} cores={cores} "
                    f"constrained={constrained}"
                )


def _controlled_fingerprint(decision, ready_core):
    """The select/reject scenario of the engine mode tests: src feeds
    two branches, a control actor picks at the sink."""
    from repro.tpdf import TPDFGraph

    g = TPDFGraph()
    src = g.add_kernel("src", exec_time=0.0, function=lambda n, c: n)
    src.add_output("o1", 1)
    src.add_output("o2", 1)
    src.add_output("sig", 1)
    left = g.add_kernel("left", exec_time=1.0)
    left.add_input("in", 1)
    left.add_output("out", 1)
    right = g.add_kernel("right", exec_time=2.0)
    right.add_input("in", 1)
    right.add_output("out", 1)
    ctrl = g.add_control_actor("ctrl", decision=decision)
    ctrl.add_input("in", 1)
    ctrl.add_control_output("out", 1)
    sink = g.add_kernel("sink", exec_time=0.0)
    sink.add_input("from_left", 1, priority=1)
    sink.add_input("from_right", 1, priority=2)
    sink.add_control_port("ctrl", 1)
    g.connect("src.o1", "left.in")
    g.connect("src.o2", "right.in")
    g.connect("src.sig", "ctrl.in")
    g.connect("left.out", "sink.from_left", name="e_left")
    g.connect("right.out", "sink.from_right", name="e_right")
    g.connect("ctrl.out", "sink.ctrl")
    return _sim_fingerprint(g, ready_core, limits={"src": 3})
