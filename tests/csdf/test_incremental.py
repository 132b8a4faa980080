"""Warm-vs-cold differential suite for delta-aware incremental
re-analysis.

The incremental machinery (binding-only carry-forward, SCC-granular
MCR cache keys, the carried executor template, Howard warm-starts)
exists to make re-analysis cheap after small edits — but its
acceptance criterion is stronger than "fast": a warm re-analysis must
be **bit-for-bit identical** (``GraphReport.fingerprint``) to a cold
analysis of the same graph, for *every* edit class.  This suite
asserts exactly that on the 200-graph random corpus under seeded
random edit scripts, at default options and with the timed run asked
for, plus targeted checks that the reuse actually happens (out-of-core
edits never re-solve the cyclic core, an unchanged graph re-solves
nothing, one cyclic-component pass serves liveness and the MCR) and
never goes stale (structural edits always recompute, and a report's
values are copies the caller cannot write back into the cache).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.analysis import EditSession, analyze
from repro.cache import (
    analysis_cache,
    bindings_key,
    bump_version,
    cached,
    version_of,
)
from repro.csdf import (ArrayState, CSDFGraph, array_state, max_cycle_ratio,
                        self_timed_execution)
from repro.errors import GraphConstructionError
from repro.io import csdf_from_dict, csdf_to_dict, graph_from_payload
from repro.tpdf import random_consistent_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from parity import _perfbench_graphs  # noqa: E402

#: (actors, extra_edges, back_edges) shapes; 8 shapes x 25 seeds = 200
#: random graphs (the same corpus family as the MCR differential).
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
SEEDS_PER_SHAPE = 25
EDITS_PER_GRAPH = 4

ANALYZE_OPTIONS = dict(iterations=2)
#: The same options with the timed self-timed run asked for.
TIMED_OPTIONS = dict(ANALYZE_OPTIONS, with_throughput=True)


def _mutable_csdf(n: int, extra: int, cycles: int, seed: int) -> CSDFGraph:
    """A fresh *mutable* CSDF corpus graph (``as_csdf()`` products are
    frozen shared memos, so edits go through a round-trip clone)."""
    frozen = random_consistent_graph(
        n, extra_edges=extra, n_cycles=cycles, seed=seed, with_control=False
    ).as_csdf()
    return csdf_from_dict(csdf_to_dict(frozen))


def _concrete(rates) -> list[int]:
    return [int(entry.evaluate({})) for entry in rates]


def _apply_random_edit(session: EditSession, rng: random.Random) -> str:
    """Apply one random edit from the covered edit classes.

    Edits are biased towards consistency-preserving shapes (balanced
    rate scaling, repetition-compatible new channels) so most steps
    exercise the full performance chain, but deliberately may deadlock
    or disconnect the graph — warm and cold must agree on *those*
    verdicts too.
    """
    graph = session.graph
    actors = list(graph.actors)
    channels = list(graph.channels)
    kind = rng.choice((
        "exec_same", "exec_same", "exec_resize", "tokens", "rate_scale",
        "add_channel", "remove_channel",
    ))

    if kind == "exec_same":
        # Binding-only: new values, same phase count.
        name = rng.choice(actors)
        times = graph.actor(name).exec_times
        session.set_exec_time(
            name, tuple(float(rng.randint(1, 6)) for _ in times))
    elif kind == "exec_resize":
        # Structural: the phase count feeds tau and hence q.
        name = rng.choice(actors)
        session.set_exec_time(
            name, tuple(float(rng.randint(1, 4))
                        for _ in range(rng.randint(1, 3))))
    elif kind == "tokens":
        name = rng.choice(channels)
        session.set_initial_tokens(
            name, rng.randint(0, graph.channel(name).initial_tokens + 4))
    elif kind == "rate_scale":
        # Scale production, consumption and tokens of one channel by the
        # same factor: the balance equations are preserved exactly.
        name = rng.choice(channels)
        channel = graph.channel(name)
        m = rng.choice((2, 3))
        session.set_production(name, tuple(m * r for r in _concrete(channel.production)))
        session.set_consumption(name, tuple(m * r for r in _concrete(channel.consumption)))
        session.set_initial_tokens(name, m * channel.initial_tokens)
    elif kind == "add_channel":
        from repro.csdf.analysis import concrete_repetition_vector
        from math import gcd

        src, dst = rng.sample(actors, 2)
        try:
            q = concrete_repetition_vector(graph, None)
            g = gcd(q[src], q[dst])
            production, consumption = q[dst] // g, q[src] // g
            # Seed one local iteration's worth of tokens so a back edge
            # stays live; forward edges get a small random fill.
            tokens = consumption * q[dst] if rng.random() < 0.5 else rng.randint(0, 2)
        except Exception:
            # Current graph is inconsistent/dead: any rates do.
            production, consumption, tokens = 1, 1, rng.randint(0, 2)
        session.add_channel(None, src, dst, production=production,
                            consumption=consumption, initial_tokens=tokens)
    else:  # remove_channel
        session.remove_channel(rng.choice(channels))
    return kind


def _cold_report(graph: CSDFGraph, options: dict = ANALYZE_OPTIONS):
    """Cold oracle: analyze a fresh serialization round-trip clone
    (no caches, no shared version state, nothing to reuse)."""
    return analyze(csdf_from_dict(csdf_to_dict(graph)), None, **options)


def _replay_random_edits(shape: tuple, options: dict) -> None:
    """Seeded random edit scripts on every seed of ``shape``: after
    each edit the warm report equals a cold clone's, bit for bit."""
    n, extra, cycles = shape
    for seed in range(SEEDS_PER_SHAPE):
        graph = _mutable_csdf(n, extra, cycles, seed)
        rng = random.Random((n, extra, cycles, seed).__hash__())
        session = EditSession(graph, **options)
        warm = session.analyze()
        assert warm.fingerprint() == _cold_report(graph, options).fingerprint()
        for step in range(EDITS_PER_GRAPH):
            kind = _apply_random_edit(session, rng)
            warm = session.analyze()
            cold = _cold_report(graph, options)
            assert warm.fingerprint() == cold.fingerprint(), (
                f"warm/cold divergence: shape={shape} seed={seed} "
                f"step={step} edit={kind} options={options}"
            )


class TestWarmColdDifferential:
    """The acceptance criterion: warm == cold bit-for-bit on randomized
    edit sequences over the 200-graph corpus."""

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"n{s[0]}e{s[1]}c{s[2]}")
    def test_random_edit_scripts(self, shape):
        _replay_random_edits(shape, ANALYZE_OPTIONS)

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"n{s[0]}e{s[1]}c{s[2]}")
    def test_random_edit_scripts_with_the_timed_run(self, shape):
        """The timed run clones the carried executor template."""
        _replay_random_edits(shape, TIMED_OPTIONS)

    def test_unchanged_resubmission_is_reused(self, monkeypatch):
        """A second ``analyze()`` of an unchanged graph solves no cycle
        ratio again: its MCR is a per-graph cache hit."""
        import repro.csdf.mcr as mcr_mod

        solves = []
        howard = mcr_mod.howard

        def spy(*args, **kwargs):
            solves.append(None)
            return howard(*args, **kwargs)

        monkeypatch.setattr(mcr_mod, "howard", spy)
        graph = _mutable_csdf(5, 2, 1, 3)  # one cyclic core
        session = EditSession(graph, **ANALYZE_OPTIONS)
        first = session.analyze()
        assert solves
        solves.clear()
        second = session.analyze()
        assert solves == []
        assert second.fingerprint() == first.fingerprint()

    def test_execution_time_edit_recomputes_one_ring(self, monkeypatch):
        """After an execution-time edit of an actor outside the cyclic
        cores, the MCR sums that actor's ring alone: every other ring
        is a content-store hit, and the result equals a cold clone's."""
        import repro.csdf.mcr as mcr_mod

        sums = []
        ring_sum = mcr_mod._ring_sum

        def spy(times, count):
            sums.append(times)
            return ring_sum(times, count)

        monkeypatch.setattr(mcr_mod, "_ring_sum", spy)
        graph = _mutable_csdf(8, 2, 1, 3)
        session = EditSession(graph, **ANALYZE_OPTIONS)
        session.analyze()
        rings, _cores = mcr_mod._decomposition(graph, None)
        assert len(sums) == len(rings) > 1
        name = rings[0][0]
        sums.clear()
        session.set_exec_time(name, [7.5] * len(graph.actor(name).exec_times))
        warm = session.analyze()
        assert sums == [graph.actor(name).exec_times]
        cold = analyze(csdf_from_dict(csdf_to_dict(graph)), **ANALYZE_OPTIONS)
        assert warm.fingerprint() == cold.fingerprint()

    def test_overrides_hold_for_one_call(self):
        """``EditSession.analyze``'s keyword overrides replace the
        session's options for that call only."""
        graph = _mutable_csdf(4, 2, 1, 0)
        session = EditSession(graph, **TIMED_OPTIONS)
        lean = session.analyze(with_buffers=False, iterations=3)
        full = session.analyze()
        bare = session.analyze(with_throughput=False)
        assert lean.buffers is None and len(lean.timed.iteration_ends) == 3
        assert full.buffers is not None and len(full.timed.iteration_ends) == 2
        assert bare.timed is None
        assert full.fingerprint() == _cold_report(graph, TIMED_OPTIONS).fingerprint()

    def test_report_never_aliases_the_cache(self):
        """Writing into a report reaches neither a re-analysis of the
        unchanged graph nor one after a binding edit, which carries the
        binding-insensitive entries forward."""
        graph = CSDFGraph("pair")
        graph.add_actor("a", exec_time=3)
        graph.add_actor("b", exec_time=1)
        graph.add_channel("ab", "a", "b", production=2)
        report = analyze(graph, None, **TIMED_OPTIONS)
        report.repetition["b"] = 7
        report.buffers["ab"] = 99
        report.timed.peaks["ab"] = 99
        report.timed.iteration_ends.append(1e9)

        def cold():
            return _cold_report(graph, TIMED_OPTIONS).fingerprint()

        assert analyze(graph, None, **TIMED_OPTIONS).fingerprint() == cold()
        graph.actor("b").set_exec_time(2)  # binding-only edit
        assert analyze(graph, None, **TIMED_OPTIONS).fingerprint() == cold()


class TestAnalyzeBatch:
    """``analyze_batch`` is a sequential loop over :func:`analyze`."""

    @staticmethod
    def _items():
        a = random_consistent_graph(4, seed=1, parametric=True)
        b = random_consistent_graph(5, seed=2)
        bad = CSDFGraph("bad")
        bad.add_actor("x")
        bad.add_actor("y")
        bad.add_channel("xy", "x", "y", production=2, consumption=3)
        bad.add_channel("xy2", "x", "y", production=1, consumption=1)
        return [(a, {"p": 1}), b, (a, {"p": 2}), (a, {"p": 2}),
                bad, (b.as_csdf(), None), (a, {"p": 4})]

    def test_mixed_items_match_direct_analyze(self, monkeypatch):
        import repro.analysis as analysis

        def pairs(items):
            return [item if isinstance(item, tuple) else (item, None)
                    for item in items]

        # Direct analyses of an identical, separately built item list:
        # the batch below starts from cold caches.
        expected = [analyze(graph, bindings, iterations=3).fingerprint()
                    for graph, bindings in pairs(self._items())]
        items = self._items()

        direct = analysis.analyze
        new_entries: list[int] = []

        def entries(graph):
            return (len(analysis_cache(graph))
                    + len(analysis_cache(analysis._csdf_view(graph))))

        def spy(graph, *args, **kwargs):
            before = entries(graph)
            report = direct(graph, *args, **kwargs)
            new_entries.append(entries(graph) - before)
            return report

        monkeypatch.setattr(analysis, "analyze", spy)
        reports = analysis.analyze_batch(items, iterations=3)

        assert [r.fingerprint() for r in reports] == expected
        assert all(r.graph is graph and r.bindings == dict(bindings or {})
                   for r, (graph, bindings) in zip(reports, pairs(items)))
        # Items of the same graph share its cache: the repeated (a, p=2)
        # item computes nothing its first occurrence did not.
        assert new_entries[2] > 0 and new_entries[3] == 0
        # The inconsistent item's failure stays on its own report.
        assert not reports[4].consistent and "consistency" in reports[4].errors
        assert all(r.consistent for i, r in enumerate(reports) if i != 4)


class TestCyclicComponentsMemo:
    """One cyclic-component pass per structure version serves liveness
    and the MCR."""

    #: perfbench's 80-actor ``cold_analyze`` documents at seed 3.
    PERFBENCH = [(kind, index) for kind in ("csdf", "tpdf", "param")
                 for index in range(3)]

    @pytest.mark.parametrize("kind, index", PERFBENCH,
                             ids=[f"{k}{i}" for k, i in PERFBENCH])
    def test_one_cyclic_component_pass(self, monkeypatch, kind, index):
        """A cold ``analyze()`` finds the cyclic components once; an
        execution-time edit finds them not at all, a token edit once."""
        import repro.csdf.schedule as schedule_mod

        passes: list = []
        compute = schedule_mod._cyclic_components

        def spy(graph):
            passes.append(graph.name)
            return compute(graph)

        monkeypatch.setattr(schedule_mod, "_cyclic_components", spy)
        doc = _perfbench_graphs().make_doc(kind, 80, 3, index)
        graph = graph_from_payload(doc.doc)
        report = analyze(graph, doc.bindings)
        assert report.live and report.mcr is not None
        assert schedule_mod.cyclic_components(_csdf_of(graph))
        assert len(passes) == 1
        if not isinstance(graph, CSDFGraph):
            return
        name = next(iter(graph.actors))
        graph.actor(name).set_exec_time(
            [7.5] * len(graph.actor(name).exec_times))
        analyze(graph, doc.bindings)
        assert len(passes) == 1
        channel = next(iter(graph.channels.values()))
        channel.initial_tokens += 1
        analyze(graph, doc.bindings)
        assert len(passes) == 2


def _csdf_of(graph):
    return graph if isinstance(graph, CSDFGraph) else graph.as_csdf()


class TestSCCGranularity:
    """Reuse happens (out-of-core edits skip the core) and never goes
    stale (in-core and structural edits recompute)."""

    @staticmethod
    def _core_and_tail() -> CSDFGraph:
        graph = CSDFGraph("scc_demo")
        for name in ("a", "b", "c", "t"):
            graph.add_actor(name, exec_time=2.0)
        graph.add_channel("ab", "a", "b")
        graph.add_channel("bc", "b", "c")
        graph.add_channel("ca", "c", "a", initial_tokens=1)
        graph.add_channel("at", "a", "t")  # acyclic tail
        return graph

    @pytest.fixture
    def howard_spy(self, monkeypatch):
        import repro.csdf.mcr as mcr_mod

        calls: list = []
        real = mcr_mod.howard

        def spy(edges, initial_policy=None):
            calls.append(initial_policy)
            return real(edges, initial_policy)

        monkeypatch.setattr(mcr_mod, "howard", spy)
        return calls

    def test_out_of_core_edit_skips_core_scc(self, howard_spy):
        graph = self._core_and_tail()
        assert max_cycle_ratio(graph) == pytest.approx(6.0)  # (2+2+2)/1
        howard_spy.clear()

        graph.actor("t").set_exec_time(9.0)  # binding edit, outside the cycle
        assert max_cycle_ratio(graph) == pytest.approx(9.0)  # t's ring
        # t's ring ratio is closed-form and the core's fingerprint is
        # unchanged: nothing is solved.
        assert howard_spy == [], f"Howard ran after an out-of-core edit: {howard_spy}"

    def test_in_core_edit_warm_starts_howard(self, howard_spy):
        graph = self._core_and_tail()
        max_cycle_ratio(graph)
        howard_spy.clear()

        graph.actor("a").set_exec_time(5.0)  # in-core binding edit
        assert max_cycle_ratio(graph) == pytest.approx(9.0)  # (5+2+2)/1
        assert howard_spy, "changed core SCC must be re-solved"
        # The SCC shape is unchanged, so the remembered cycle policy
        # seeds the solve instead of the cold heaviest-edge heuristic.
        assert all(policy is not None for policy in howard_spy)

    def test_structural_edit_never_reuses_stale_scc(self):
        graph = self._core_and_tail()
        assert max_cycle_ratio(graph) == pytest.approx(6.0)
        graph.channel("ca").initial_tokens = 2  # structural: distances move
        warm = max_cycle_ratio(graph)
        cold = max_cycle_ratio(csdf_from_dict(csdf_to_dict(graph)))
        assert warm == cold == pytest.approx(3.0)  # 6/2

    def test_rate_edit_never_reuses_stale_scc(self):
        graph = self._core_and_tail()
        analyze(graph, None, **ANALYZE_OPTIONS)
        graph.channel("at").production = (2,)
        warm = analyze(graph, None, **ANALYZE_OPTIONS)
        assert warm.fingerprint() == _cold_report(graph).fingerprint()


class TestVersionCounters:
    """Unit semantics of bump_version's two counters and the
    carry-forward of binding-insensitive cache entries."""

    @staticmethod
    def _graph() -> CSDFGraph:
        graph = CSDFGraph("records")
        graph.add_actor("a", exec_time=1.0)
        graph.add_actor("b", exec_time=2.0)
        graph.add_channel("ab", "a", "b", initial_tokens=1)
        return graph

    @staticmethod
    def _cache_rate_products(graph: CSDFGraph) -> object:
        sentinel = object()
        cached(graph, ("repetition_vector",), lambda: sentinel)
        return sentinel

    def test_phase_count_change_is_structural(self):
        graph = self._graph()
        self._cache_rate_products(graph)
        before = version_of(graph)
        graph.actor("a").set_exec_time((1.0, 2.0))  # 1 phase -> 2 phases
        assert version_of(graph) == before + 1
        assert ("repetition_vector",) not in analysis_cache(graph)

    def test_channel_edits_are_structural(self):
        graph = self._graph()
        for mutate in (
            lambda: setattr(graph.channel("ab"), "initial_tokens", 3),
            lambda: setattr(graph.channel("ab"), "production", (2,)),
            lambda: setattr(graph.channel("ab"), "consumption", (2,)),
        ):
            self._cache_rate_products(graph)
            mutate()
            assert ("repetition_vector",) not in analysis_cache(graph)

    def test_one_argument_bump_is_structural(self):
        graph = self._graph()
        self._cache_rate_products(graph)
        before = version_of(graph)
        bump_version(graph)  # the one-argument form
        assert version_of(graph) == before + 1
        assert ("repetition_vector",) not in analysis_cache(graph)

    def test_unknown_kind_rejected(self):
        graph = self._graph()
        with pytest.raises(ValueError, match="unknown mutation kind"):
            bump_version(graph, kind="cosmetic")

    def test_many_binding_bumps_keep_the_rate_products(self):
        from repro.csdf.analysis import repetition_vector
        from repro.csdf.simulation import rate_table

        graph = self._graph()
        q = repetition_vector(graph)
        table = rate_table(graph)
        template = array_state(graph, None)
        for _ in range(300):  # between two analyses
            bump_version(graph, kind="binding")
        assert repetition_vector(graph) is q
        assert rate_table(graph) is table
        assert array_state(graph, None).in_edges is template.in_edges

    def test_carry_forward_keeps_binding_insensitive_entries(self):
        graph = self._graph()
        sentinel = object()
        cached(graph, ("repetition_vector",), lambda: sentinel)
        cached(graph, ("mcr", ()), lambda: 42.0)
        graph.actor("b").set_exec_time(9.0)  # binding-only bump
        cache = analysis_cache(graph)
        assert cache.get(("repetition_vector",)) is sentinel  # carried
        assert ("mcr", ()) not in cache  # timed result dropped

    def test_structural_bump_drops_everything(self):
        graph = self._graph()
        cached(graph, ("repetition_vector",), lambda: {"a": 1})
        graph.channel("ab").initial_tokens = 5
        assert not analysis_cache(graph)


def _assert_read_only(state):
    """Item assignment into every field of ``state`` raises, one level
    down too (edge mirrors and execution-time phases)."""
    for name in ArrayState.__slots__:
        value = getattr(state, name)
        with pytest.raises(TypeError):
            value[0] = 99
        if isinstance(value, tuple) and value and isinstance(value[0], tuple):
            with pytest.raises(TypeError):
                value[0][0] = 99


class TestFrozenTemplate:
    """S1: the memoized SoA template cannot be written into."""

    def test_template_fields_reject_writes(self):
        _assert_read_only(array_state(_mutable_csdf(4, 2, 1, 0), None))

    def test_template_after_binding_edit_is_also_frozen(self):
        graph = _mutable_csdf(4, 2, 1, 1)
        first = array_state(graph, None)
        name = next(iter(graph.actors))
        graph.actor(name).set_exec_time(5.0)  # binding edit: rates carried
        carried = array_state(graph, None)
        assert carried is not first and carried.in_edges is first.in_edges
        _assert_read_only(carried)

    def test_writing_execution_times_cannot_change_a_later_run(self):
        from repro.gallery import fig1_graph

        graph = fig1_graph()
        graph.actor("a1").set_exec_time([1.0, 2.0, 3.0])
        assert self_timed_execution(graph).makespan == 8.0
        state = array_state(graph, None)
        try:
            state.exec_phases[state.order.index("a1")] = (99.0,)
        except TypeError:
            pass
        assert self_timed_execution(graph).makespan == 8.0


class TestUnhashableBindings:
    """S3: unhashable parameter values fail eagerly, naming the culprit."""

    def test_bindings_key_names_the_parameter(self):
        with pytest.raises(TypeError, match="'p' has unhashable value"):
            bindings_key({"p": [1, 2]})

    def test_analyze_rejects_unhashable_binding(self):
        graph = _mutable_csdf(3, 1, 0, 0)
        with pytest.raises(TypeError, match="'p' has unhashable value"):
            analyze(graph, {"p": [1, 2]})

    def test_edit_session_rejects_unhashable_binding(self):
        graph = _mutable_csdf(3, 1, 0, 1)
        session = EditSession(graph)
        with pytest.raises(TypeError, match="'q' has unhashable value"):
            session.analyze(bindings={"q": {1: 2}})


class TestEditSessionApply:
    """Declarative edit dispatch (the CLI --edits surface)."""

    @staticmethod
    def _session() -> EditSession:
        graph = CSDFGraph("ops")
        graph.add_actor("a", exec_time=1.0)
        graph.add_actor("b", exec_time=1.0)
        graph.add_channel("ab", "a", "b", initial_tokens=0)
        return EditSession(graph)

    def test_apply_dispatches_every_op(self):
        session = self._session()
        session.apply({"op": "set_exec_time", "actor": "a", "value": 3})
        session.apply({"op": "set_initial_tokens", "channel": "ab", "value": 2})
        session.apply({"op": "add_actor", "name": "c", "exec_time": 2})
        session.apply({"op": "add_channel", "src": "b", "dst": "c"})
        session.apply({"op": "set_production", "channel": "ab", "value": [2]})
        session.apply({"op": "set_consumption", "channel": "ab", "value": [2]})
        session.apply({"op": "remove_actor", "name": "c"})
        graph = session.graph
        assert graph.actor("a").exec_times == (3,)
        assert "c" not in graph.actors
        assert len(graph.channels) == 1

    def test_unknown_op_rejected(self):
        with pytest.raises(GraphConstructionError, match="unknown edit op"):
            self._session().apply({"op": "paint", "color": "red"})

    def test_missing_field_rejected(self):
        with pytest.raises(GraphConstructionError, match="missing required field"):
            self._session().apply({"op": "set_exec_time", "actor": "a"})

    def test_unexpected_field_rejected(self):
        with pytest.raises(GraphConstructionError, match="unexpected fields"):
            self._session().apply(
                {"op": "remove_channel", "name": "ab", "force": True})

    def test_remove_unknown_channel_reports_name(self):
        with pytest.raises(GraphConstructionError, match="nope"):
            self._session().apply({"op": "remove_channel", "name": "nope"})

    def test_session_requires_csdf(self):
        from repro.tpdf import TPDFGraph

        with pytest.raises(TypeError, match="EditSession edits CSDF"):
            EditSession(TPDFGraph("t"))
