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
    content_store,
    version_of,
)
from repro.csdf import (ArrayState, CSDFGraph, array_state, cyclic_components,
                        max_cycle_ratio, self_timed_execution)
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
        ratio again: every core's ratio is a hit in its record."""
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

    def test_execution_time_edit_outside_the_cores_solves_nothing(self, monkeypatch):
        """An execution-time edit of an actor outside the cyclic cores
        drops no entry of a default ``analyze()`` and solves no core
        again, and the result equals a cold clone's."""
        import repro.csdf.mcr as mcr_mod

        solves = []
        howard = mcr_mod.howard

        def spy(*args, **kwargs):
            solves.append(None)
            return howard(*args, **kwargs)

        monkeypatch.setattr(mcr_mod, "howard", spy)
        graph = _mutable_csdf(8, 2, 1, 3)
        session = EditSession(graph, **ANALYZE_OPTIONS)
        session.analyze()
        rings, cores = mcr_mod._decomposition(graph, None)
        assert rings and cores and solves
        entries = set(analysis_cache(graph))
        name = rings[0][0]
        solves.clear()
        session.set_exec_time(name, [7.5] * len(graph.actor(name).exec_times))
        assert set(analysis_cache(graph)) == entries
        warm = session.analyze()
        assert solves == []
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


    @pytest.mark.parametrize("kind, index", PERFBENCH,
                             ids=[f"{k}{i}" for k, i in PERFBENCH])
    def test_one_actor_graph_pass(self, monkeypatch, kind, index):
        """The cyclic components and the buffer schedule's sink
        distances come from one Tarjan pass over the actor graph per
        cold ``analyze()``, and an execution-time edit runs none."""
        import repro.csdf.digraph as digraph

        doc = _perfbench_graphs().make_doc(kind, 80, 3, index)
        graph = graph_from_payload(doc.doc)
        csdf = _csdf_of(graph)
        actor_adj = digraph.adjacency(
            list(csdf.actors), ((c.src, c.dst) for c in csdf.channels.values()))
        passes: list = []
        tarjan = digraph.tarjan_components

        def spy(n_nodes, adj):
            passes.append(adj == actor_adj)
            return tarjan(n_nodes, adj)

        for module in list(sys.modules.values()):
            if getattr(module, "tarjan_components", None) is tarjan:
                monkeypatch.setattr(module, "tarjan_components", spy)
        report = analyze(graph, doc.bindings)
        assert report.buffers and cyclic_components(csdf)
        assert passes.count(True) == 1
        if csdf is not graph:
            return
        name = next(iter(graph.actors))
        graph.actor(name).set_exec_time(
            [7.5] * len(graph.actor(name).exec_times))
        assert analyze(graph, doc.bindings).buffers == report.buffers
        assert passes.count(True) == 1


def _csdf_of(graph):
    return graph if isinstance(graph, CSDFGraph) else graph.as_csdf()


def _core_of(graph: CSDFGraph, channel) -> tuple | None:
    """The cyclic component holding ``channel``, or None."""
    return next((core for core in cyclic_components(graph)
                 if channel.src in core and channel.dst in core), None)


def _structural_script(session: EditSession, rng: random.Random,
                       steps: int) -> int:
    """``steps`` seeded edits, each followed by a warm ``analyze()``
    checked against a cold clone: token edits inside a core (driving it
    to deadlock with none and back to its tokens) and outside every
    core, balanced rate scalings and back, a sink added and removed,
    and execution-time edits.  Returns how many of the warm reports
    found a deadlock."""
    graph = session.graph
    undo: list = []
    dead = 0
    for step in range(steps):
        channels = list(graph.channels.values())
        inside = [c for c in channels if _core_of(graph, c)]
        outside = [c for c in channels if not _core_of(graph, c)]
        kind = rng.choice(("core_tokens", "tokens", "rate", "sink", "exec"))
        if undo and rng.random() < 0.4:
            kind, edit = "undo", undo.pop()
            edit()
        elif kind == "core_tokens" and inside:
            channel = rng.choice(inside)
            tokens = channel.initial_tokens
            session.set_initial_tokens(channel.name, rng.choice((0, tokens + 1)))
            undo.append(lambda c=channel.name, t=tokens: session.set_initial_tokens(c, t))
        elif kind == "tokens" and outside:
            channel = rng.choice(outside)
            session.set_initial_tokens(channel.name, rng.randint(0, 3))
        elif kind == "rate":
            channel = rng.choice(channels)
            production = _concrete(channel.production)
            consumption = _concrete(channel.consumption)
            tokens = channel.initial_tokens
            m = rng.choice((2, 3))
            session.set_production(channel.name, [m * r for r in production])
            session.set_consumption(channel.name, [m * r for r in consumption])
            session.set_initial_tokens(channel.name, m * tokens)

            def restore(c=channel.name, p=production, k=consumption, t=tokens):
                session.set_production(c, p)
                session.set_consumption(c, k)
                session.set_initial_tokens(c, t)
            undo.append(restore)
        elif kind == "sink":
            sink = f"sink{step}"
            session.add_actor(sink, exec_time=2.0)
            session.add_channel(f"to_{sink}", rng.choice(list(graph.actors)), sink)
            undo.append(lambda a=sink: session.remove_actor(a))
        else:
            name = rng.choice(list(graph.actors))
            times = graph.actor(name).exec_times
            session.set_exec_time(name, [float(rng.randint(1, 6)) for _ in times])
        warm = session.analyze()
        assert warm.fingerprint() == _cold_report(graph).fingerprint(), (
            f"warm/cold divergence: {graph.name} step={step} edit={kind}")
        dead += warm.live is False
    return dead


class TestStructuralEdits:
    """Token, rate and topology edits re-run only the cyclic cores
    whose content changed, and stay bit-for-bit a cold analysis."""

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"n{s[0]}e{s[1]}c{s[2]}")
    def test_random_structural_scripts(self, shape):
        n, extra, cycles = shape
        dead = 0
        for seed in range(SEEDS_PER_SHAPE):
            session = EditSession(_mutable_csdf(n, extra, cycles, seed),
                                  **ANALYZE_OPTIONS)
            session.analyze()
            dead += _structural_script(session, random.Random(f"{shape}:{seed}"), 8)
        assert dead or not cycles  # shapes with back edges reach deadlocks

    def test_scripts_on_perfbench_edit_documents(self):
        graphs = _perfbench_graphs()
        for index in range(3):
            model = graphs.csdf_model(random.Random(f"3:edit:{index}"), 80,
                                      f"edit{index}")
            session = EditSession(graphs.build_csdf(model))
            session.analyze()
            _structural_script(session, random.Random(index), 12)

    @pytest.fixture
    def spies(self, monkeypatch):
        """The cores each ``analyze()`` runs a local iteration of and
        builds an event graph for."""
        import repro.csdf.mcr as mcr_mod
        import repro.csdf.schedule as schedule_mod

        runs: list = []
        builds: list = []
        run, build = schedule_mod._run_passes, mcr_mod._event_graph

        def run_spy(name, tables, targets, policy):
            runs.append(tables[0])  # the actors run
            return run(name, tables, targets, policy)

        def build_spy(q, actors, channels):
            builds.append(tuple(actors))
            return build(q, actors, channels)

        monkeypatch.setattr(schedule_mod, "_run_passes", run_spy)
        monkeypatch.setattr(mcr_mod, "_event_graph", build_spy)
        return runs, builds

    @staticmethod
    def _session(index: int) -> EditSession:
        graphs = _perfbench_graphs()
        model = graphs.csdf_model(random.Random(f"3:edit:{index}"), 80,
                                  f"edit{index}")
        session = EditSession(graphs.build_csdf(model))
        session.analyze()
        return session

    @staticmethod
    def _warm(session: EditSession, spies) -> tuple:
        """``(report, cores run, cores built)`` of one warm analysis,
        checked against a cold clone (outside the spies' record)."""
        runs, builds = spies
        runs.clear()
        builds.clear()
        warm = session.analyze()
        seen = (list(runs), list(builds))
        assert warm.fingerprint() == _cold_report(session.graph).fingerprint()
        return warm, *seen

    @pytest.mark.parametrize("index", range(3))
    def test_edits_outside_every_core_run_no_core(self, spies, index):
        session = self._session(index)
        graph = session.graph
        source = next(iter(graph.actors))
        session.add_actor("sink0", exec_time=2.0)
        session.add_channel("to_sink0", source, "sink0")
        assert self._warm(session, spies)[1:] == ([], [])
        session.remove_actor("sink0")
        assert self._warm(session, spies)[1:] == ([], [])
        channel = next(c for c in graph.channels.values() if not _core_of(graph, c))
        session.set_initial_tokens(channel.name, channel.initial_tokens + 2)
        assert self._warm(session, spies)[1:] == ([], [])

    @pytest.mark.parametrize("index", range(3))
    def test_an_edit_inside_one_core_runs_that_core(self, spies, index):
        session = self._session(index)
        graph = session.graph
        assert len(cyclic_components(graph)) > 1
        channel = next(c for c in graph.channels.values()
                       if _core_of(graph, c) and c.initial_tokens)
        core = _core_of(graph, channel)
        tokens = channel.initial_tokens
        session.set_initial_tokens(channel.name, tokens + 1)
        assert self._warm(session, spies)[1:] == ([core], [core])
        session.set_initial_tokens(channel.name, 0)  # deadlocks the core
        warm, runs, builds = self._warm(session, spies)
        assert not warm.live and (runs, builds) == ([core], [])
        # Back to earlier states: the core is a store hit.
        for value in (tokens + 1, tokens):
            session.set_initial_tokens(channel.name, value)
            warm, runs, builds = self._warm(session, spies)
            assert warm.live and (runs, builds) == ([], [])


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


class TestOneRecordPerCore:
    """Liveness and the MCR share one record per cyclic core, kept in
    the graph's one content store under the core's content key."""

    @pytest.mark.parametrize("kind", ("csdf", "param", "tpdf"))
    def test_cold_analyze_stores_exactly_the_core_records(self, kind):
        from repro.cache import ContentStore
        from repro.csdf.schedule import core_layer

        doc = _perfbench_graphs().make_doc(kind, 80, 3, 0)
        graph = graph_from_payload(doc.doc)
        report = analyze(graph, doc.bindings)
        assert report.live and report.mcr is not None
        csdf = _csdf_of(graph)
        records = core_layer(csdf, doc.bindings)[1]
        assert records and len(records) == len(cyclic_components(csdf))
        store = csdf._analysis_content
        assert isinstance(store, ContentStore) and content_store(csdf) is store
        assert len(store) == len(records)
        assert all(store.get(record.key) is record for record in records)

    def test_all_hit_mcr_builds_no_firing_times(self, monkeypatch):
        """A repeat ``max_cycle_ratio`` reads every core's ratio from
        its record by its actors' phase times: on an unchanged graph,
        and after an execution-time edit outside every core, neither
        Howard nor a per-firing time tuple runs."""
        import repro.csdf.mcr as mcr_mod

        graph = _mutable_csdf(8, 2, 1, 3)
        first = max_cycle_ratio(graph)
        rings, cores = mcr_mod._decomposition(graph, None)
        assert rings and cores
        calls = []
        for name in ("howard", "_firing_times"):
            def spy(*args, _name=name, _real=getattr(mcr_mod, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(mcr_mod, name, spy)
        assert max_cycle_ratio(graph) == first
        name = rings[0][0]
        graph.actor(name).set_exec_time([9.5] * len(graph.actor(name).exec_times))
        warm = max_cycle_ratio(graph)
        assert calls == []
        assert warm == max_cycle_ratio(csdf_from_dict(csdf_to_dict(graph)))

    def test_a_token_edit_inside_one_core_adds_one_record(self):
        session = TestStructuralEdits._session(0)
        graph = session.graph
        store = content_store(graph)
        before = len(store)
        channel = next(c for c in graph.channels.values()
                       if _core_of(graph, c) and c.initial_tokens)
        tokens = channel.initial_tokens
        session.set_initial_tokens(channel.name, tokens + 1)
        session.analyze()
        assert len(store) == before + 1
        session.set_initial_tokens(channel.name, tokens)
        session.analyze()
        assert len(store) == before + 1

    def test_a_balanced_rate_scaling_keeps_the_record(self):
        """A core channel's phases and tokens scaled alike move neither
        its firings nor its flows: the core keeps its record."""
        from repro.csdf.schedule import core_layer

        session = TestStructuralEdits._session(0)
        graph = session.graph
        records = core_layer(graph)[1]
        channel = next(c for c in graph.channels.values()
                       if _core_of(graph, c) and c.initial_tokens)
        session.set_production(channel.name, [2 * r for r in _concrete(channel.production)])
        session.set_consumption(channel.name, [2 * r for r in _concrete(channel.consumption)])
        session.set_initial_tokens(channel.name, 2 * channel.initial_tokens)
        warm = session.analyze()
        assert core_layer(graph)[1] == records
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
        assert array_state(graph, None).in_edges == template.in_edges

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
        graph.actor(name).set_exec_time(5.0)  # binding edit
        carried = array_state(graph, None)
        assert carried is not first and carried.in_edges == first.in_edges
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
