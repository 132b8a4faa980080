"""Differential oracles for the untimed token loops.

The greedy buffer schedule runs on a wake-up heap and schedule
construction on an exact-order worklist
(:mod:`repro.csdf.buffers`, :mod:`repro.csdf.schedule`).  The full-scan
loops they replaced are kept here as their oracles, and every input
must give the same firings and peaks — or, on a deadlock, the same
message, blocked actors and partial schedule.  Inputs: the 200-graph
corpus, 20-80-actor graphs with cyclo-static phases, control actors or
a parameter, a token-starved variant of each (every initial token
count halved, so many of them deadlock), and hand cases with
self-loops, cyclo-static phases and custom repetitions.

Both loops read their rates from :func:`repro.csdf.simulation.rate_table`;
the last class pins that table against a direct ``as_ints`` and
against the executor template, across execution-time and rate edits.
"""

import random
from functools import reduce
from math import gcd

import pytest

from repro.analysis import EditSession
from repro.csdf import CSDFGraph, TokenState, find_sequential_schedule
from repro.csdf.buffers import _minimal_buffer_schedule, _sink_distance
from repro.csdf.simulation import rate_table
from repro.csdf.statearrays import ArrayState, array_state
from repro.errors import DeadlockError
from repro.gallery import fig1_graph, fig4_graph
from repro.io import csdf_from_dict, csdf_to_dict
from repro.tpdf import random_consistent_graph

#: The 200-graph corpus of tests/service/conftest.py:
#: (actors, extra_edges, back_edges, parametric, with_control).
CORPUS_SHAPES = (
    (3, 1, 0, False, False),
    (4, 2, 1, False, False),
    (5, 2, 0, False, True),
    (5, 3, 2, False, False),
    (6, 3, 1, False, True),
    (6, 2, 0, True, False),
    (7, 3, 0, True, True),
    (8, 4, 2, False, False),
)
SEEDS_PER_SHAPE = 25
LARGE_SIZES = (20, 40, 60, 80)


# -- the replaced loops, kept as oracles ------------------------------------

def _plain_greedy_schedule(graph, bindings, repetitions):
    """The full-scan greedy buffer schedule: probe every fireable actor
    on a copy of the state and fire the one with the smallest
    ``(total fill, sink distance, name)``."""
    targets = dict(repetitions)
    state = TokenState(graph, bindings)
    remaining = dict(targets)
    firings = []
    depth = _sink_distance(graph)
    while any(count > 0 for count in remaining.values()):
        candidates = [a for a, left in remaining.items() if left > 0 and state.can_fire(a)]
        if not candidates:
            blocked = [a for a, left in remaining.items() if left > 0]
            raise DeadlockError(
                f"buffer-minimizing schedule stalled; blocked actors: {blocked}",
                blocked=blocked,
                partial_schedule=firings,
            )
        best = best_key = None
        for actor in candidates:
            probe = state.copy()
            probe.fire(actor)
            key = (probe.total_tokens(), depth.get(actor, 0), actor)
            if best_key is None or key < best_key:
                best, best_key = actor, key
        state.fire(best)
        remaining[best] -= 1
        firings.append(best)
    return firings, dict(state.peak)


def _plain_sequential_schedule(graph, bindings, policy, repetitions):
    """The pass loop: scan every actor in order each pass, firing the
    fireable ones (repeatedly under ``"grouped"``)."""
    targets = dict(repetitions)
    order = [name for name in graph.actor_names() if name in targets]
    state = TokenState(graph, bindings)
    remaining = dict(targets)
    firings = []

    def fire(actor):
        state.fire(actor)
        remaining[actor] -= 1
        firings.append(actor)

    while any(count > 0 for count in remaining.values()):
        progressed = False
        for actor in order:
            if remaining[actor] <= 0 or not state.can_fire(actor):
                continue
            fire(actor)
            progressed = True
            if policy == "grouped":
                while remaining[actor] > 0 and state.can_fire(actor):
                    fire(actor)
        if not progressed:
            blocked = [actor for actor, count in remaining.items() if count > 0]
            raise DeadlockError(
                f"graph {graph.name!r} deadlocks under policy {policy!r}: "
                f"actors {blocked} cannot complete the iteration",
                blocked=blocked,
                partial_schedule=firings,
            )
    return firings


# -- inputs ----------------------------------------------------------------

def _cyclo_static_graph(n, seed):
    """A consistent, live CSDF graph: a spanning chain, ``n // 3``
    extra forward edges and short back edges carrying one iteration of
    their consumer; a quarter of the actors are two-phase."""
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(n)]
    tau = {a: 2 if rng.random() < 0.25 else 1 for a in names}
    base = {a: rng.randint(1, 3) for a in names}
    norm = reduce(gcd, base.values())
    graph = CSDFGraph(f"cs{n}_{seed}")
    for a in names:
        graph.add_actor(a, exec_time=tuple(float(rng.randint(1, 5)) for _ in range(tau[a])))

    def phases(total, count):
        if count == 1:
            return [total]
        first = rng.randint(0, total)
        return [first, total - first]

    def connect(src, dst, back=False):
        g = gcd(base[src], base[dst])
        cons = phases(base[src] // g, tau[dst])
        tokens = sum(cons) * (base[dst] // norm) if back else 0
        graph.add_channel(f"c{len(graph.channels)}", src, dst,
                          production=phases(base[dst] // g, tau[src]),
                          consumption=cons, initial_tokens=tokens)

    for src, dst in zip(names, names[1:]):
        connect(src, dst)
    for _ in range(n // 3):
        i, j = sorted(rng.sample(range(n), 2))
        connect(names[i], names[j])
    for _ in range(max(2, n // 10)):
        i = rng.randrange(n - 2)
        j = min(n - 1, i + rng.randint(2, max(3, n // 8)))
        connect(names[j], names[i], back=True)
    return graph


def _starved(graph):
    """A mutable copy with every channel's initial tokens halved."""
    data = csdf_to_dict(graph)
    for channel in data["channels"]:
        channel["initial_tokens"] //= 2
    data["name"] += "_starved"
    return csdf_from_dict(data)


def _with_starved(cases):
    for label, graph, bindings in cases:
        yield label, graph, bindings
        yield f"{label}_starved", _starved(graph), bindings


def _corpus():
    for n, extra, cycles, parametric, control in CORPUS_SHAPES:
        for seed in range(SEEDS_PER_SHAPE):
            graph = random_consistent_graph(
                n, extra_edges=extra, n_cycles=cycles, seed=seed,
                parametric=parametric, with_control=control,
            )
            yield (f"n{n}e{extra}c{cycles}s{seed}", graph.as_csdf(),
                   {"p": 2} if parametric else None)


def _large():
    for n in LARGE_SIZES:
        for seed in range(2):
            yield f"cs{n}_{seed}", _cyclo_static_graph(n, seed), None
        tpdf = random_consistent_graph(n, extra_edges=n // 3, n_cycles=2, seed=n)
        yield f"tpdf{n}", tpdf.as_csdf(), None
        param = random_consistent_graph(
            n, extra_edges=n // 3, n_cycles=2, seed=n + 1, parametric=True,
            with_control=False,
        )
        yield f"param{n}", param.as_csdf(), {"p": 3}


def _self_loop_graph():
    g = CSDFGraph("selfloops")
    for name in ("src", "mid", "snk"):
        g.add_actor(name)
    g.add_channel("e1", "src", "mid", [2, 0, 1], 1)
    g.add_channel("e2", "mid", "snk", 1, [1, 2])
    g.add_channel("s1", "mid", "mid", [1, 0], [0, 1], initial_tokens=1)
    g.add_channel("s2", "snk", "snk", 2, 2, initial_tokens=2)
    return g


def _tie_graph():
    """Equal net changes everywhere: the tie-breaks decide."""
    g = CSDFGraph("ties")
    for name in ("z", "y", "x", "w"):
        g.add_actor(name)
    g.add_channel("zy", "z", "y", 1, 1)
    g.add_channel("zx", "z", "x", 1, 1)
    g.add_channel("yw", "y", "w", 1, 1)
    g.add_channel("xw", "x", "w", 1, 1)
    return g


def _hand():
    yield "fig1", fig1_graph(), None
    for case in ("a", "b"):
        yield f"fig4{case}", fig4_graph(case).as_csdf(), {"p": 2}
    yield "selfloops", _self_loop_graph(), None
    yield "ties", _tie_graph(), None


CORPUS = list(_with_starved(_corpus()))
LARGE = list(_with_starved(_large()))
HAND = list(_with_starved(_hand()))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DeadlockError as exc:
        return "deadlock", str(exc), exc.blocked, exc.partial_schedule


def _targets(graph, bindings):
    from repro.csdf.analysis import concrete_repetition_vector

    return concrete_repetition_vector(graph, bindings)


def _greedy(graph, bindings):
    schedule, peaks = _minimal_buffer_schedule(graph, bindings)
    return list(schedule), peaks


def _sequential(graph, bindings, policy, repetitions):
    return list(find_sequential_schedule(
        graph, bindings, policy=policy, repetitions=repetitions,
    ))


def _assert_greedy_agrees(graph, bindings):
    expected = _outcome(_plain_greedy_schedule, graph, bindings, _targets(graph, bindings))
    assert _outcome(_greedy, graph, bindings) == expected
    return expected


def _assert_sequential_agrees(graph, bindings, policy, repetitions=None):
    repetitions = repetitions if repetitions is not None else _targets(graph, bindings)
    expected = _outcome(_plain_sequential_schedule, graph, bindings, policy,
                        repetitions)
    assert _outcome(_sequential, graph, bindings, policy,
                    repetitions) == expected
    return expected


def _deadlocks(outcome):
    return isinstance(outcome, tuple) and outcome[0] == "deadlock"


class TestGreedyBufferSchedule:
    def test_corpus(self):
        outcomes = [_assert_greedy_agrees(g, b) for _, g, b in CORPUS]
        assert len(outcomes) == 400
        assert 0 < sum(map(_deadlocks, outcomes)) < len(outcomes)

    @pytest.mark.parametrize("label", [label for label, _, _ in LARGE])
    def test_large(self, label):
        _, graph, bindings = next(case for case in LARGE if case[0] == label)
        _assert_greedy_agrees(graph, bindings)

    @pytest.mark.parametrize("label", [label for label, _, _ in HAND])
    def test_hand_cases(self, label):
        _, graph, bindings = next(case for case in HAND if case[0] == label)
        _assert_greedy_agrees(graph, bindings)

    def test_large_graphs_deadlock_when_starved(self):
        starved = [_assert_greedy_agrees(g, b) for label, g, b in LARGE
                   if label.endswith("_starved")]
        assert any(map(_deadlocks, starved))


class TestSequentialSchedule:
    @pytest.mark.parametrize("policy", ["grouped", "round_robin"])
    def test_corpus(self, policy):
        outcomes = [_assert_sequential_agrees(g, b, policy) for _, g, b in CORPUS]
        assert 0 < sum(map(_deadlocks, outcomes)) < len(outcomes)

    @pytest.mark.parametrize("policy", ["grouped", "round_robin"])
    @pytest.mark.parametrize("label", [label for label, _, _ in LARGE])
    def test_large(self, label, policy):
        _, graph, bindings = next(case for case in LARGE if case[0] == label)
        _assert_sequential_agrees(graph, bindings, policy)

    @pytest.mark.parametrize("policy", ["grouped", "round_robin"])
    @pytest.mark.parametrize("label", [label for label, _, _ in HAND])
    def test_hand_cases(self, label, policy):
        _, graph, bindings = next(case for case in HAND if case[0] == label)
        _assert_sequential_agrees(graph, bindings, policy)

    @pytest.mark.parametrize("policy", ["grouped", "round_robin"])
    def test_target_repetitions(self, policy):
        graph = _self_loop_graph()
        for repetitions in ({"src": 2, "mid": 6, "snk": 3}, {"mid": 2},
                            {"src": 0, "mid": 0, "snk": 0}):
            _assert_sequential_agrees(graph, None, policy, repetitions)
        _assert_sequential_agrees(fig4_graph("b").as_csdf(), {"p": 2}, policy)


def _mirror_phases(template, slot, side):
    """The phase tuple of channel ``slot`` in the template's per-actor
    edge mirrors (``side`` is ``in_edges`` or ``out_edges``)."""
    matches = [(p, c) for edges in getattr(template, side)
               for s, p, c in edges if s == slot]
    assert len(matches) == 1
    phases, const = matches[0]
    return (const,) if phases is None else phases


class TestRateTable:
    def test_phases_match_as_ints_and_the_template(self):
        for label, graph, bindings in LARGE[::3] + HAND:
            table = rate_table(graph, bindings)
            state = TokenState(graph, bindings)
            template = ArrayState(graph, bindings)
            for slot, channel in enumerate(graph.channels.values()):
                prod = channel.production.as_ints(bindings)
                cons = channel.consumption.as_ints(bindings)
                assert table.production[channel.name] == prod, label
                assert table.consumption[channel.name] == cons, label
                assert state.supply(channel.src, channel.name) == prod[0]
                assert state.demand(channel.dst, channel.name) == cons[0]
                assert _mirror_phases(template, slot, "out_edges") == prod
                assert _mirror_phases(template, slot, "in_edges") == cons

    def test_one_table_per_version_and_bindings(self):
        graph = fig4_graph("a").as_csdf()
        assert rate_table(graph, {"p": 2}) is rate_table(graph, {"p": 2})
        assert TokenState(graph, {"p": 2})._prod is rate_table(graph, {"p": 2}).production
        assert rate_table(graph, {"p": 3}) is not rate_table(graph, {"p": 2})

    def test_survives_an_execution_time_edit(self):
        graph = csdf_from_dict(csdf_to_dict(_cyclo_static_graph(20, 1)))
        session = EditSession(graph)
        session.analyze()
        table = rate_table(graph)
        template = array_state(graph, None)
        session.set_exec_time("a3", 7.0)
        assert rate_table(graph) is table
        # The executor template is rebuilt, its edge mirrors carried.
        patched = array_state(graph, None)
        assert patched is not template
        assert patched.in_edges is template.in_edges
        assert patched.out_edges is template.out_edges

    def test_rebuilt_after_a_rate_edit(self):
        graph = csdf_from_dict(csdf_to_dict(_cyclo_static_graph(20, 1)))
        session = EditSession(graph)
        session.analyze()
        table = rate_table(graph)
        channel = graph.channel("c0")
        production = tuple(2 * r for r in channel.production.as_ints())
        consumption = tuple(2 * r for r in channel.consumption.as_ints())
        session.set_production("c0", production)
        session.set_consumption("c0", consumption)
        fresh = rate_table(graph)
        assert fresh is not table
        assert fresh.production["c0"] == production
        assert fresh.consumption["c0"] == consumption
        template = array_state(graph, None)
        slot = list(graph.channels).index("c0")
        assert _mirror_phases(template, slot, "out_edges") == production
