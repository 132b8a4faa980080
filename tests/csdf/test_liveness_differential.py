"""Liveness verdicts against the whole-graph oracle, deadlocks included.

:func:`repro.csdf.is_live` decides liveness cycle by cycle (Sec.
III-C): every cyclic component runs alone, round robin, for one local
iteration on its local solution (Def. 4), and the acyclic parts are
live by construction.  The oracle is the whole-graph round robin over
one global iteration, ``find_sequential_schedule(graph, bindings,
policy="round_robin")``: a consistent graph is live iff it completes.
Both must give the same verdict on

* the 200-graph corpus (CSDF views, under their bindings);
* the gallery's CSDF views and their HSDF expansions;
* the EXT7 family, ``random_consistent_graph(n, n // 2, 2, seed)`` for
  n = 20, 40, 80 and seeds 1-12;
* every token mutation of each of those graphs: each channel holding
  tokens, self-loops included, set to none, half and one less, which
  makes more than half of all inputs deadlock.

A local iteration runs in place (:func:`repro.csdf.local_iteration`),
and on the same inputs it must give what the component built as a
graph of its own gives: ``find_sequential_schedule(cycle_subgraph(...),
policy="round_robin", repetitions=q^L)``, firings, or deadlock message,
blocked actors and partial schedule alike.

The last tests pin what the cycle-local check does: its counts are the
symbolic local solution evaluated at the valuation, an acyclic graph
runs no local iteration at all (the coprime chain's global iteration
is about 3.1M firings), and its errors are the whole-graph ones.
"""

from __future__ import annotations

from math import gcd

import pytest

import repro.csdf.schedule as schedule_module
from repro import gallery
from repro.csdf import (CSDFGraph, concrete_repetition_vector, cycle_subgraph,
                        cyclic_components, expand_to_hsdf,
                        find_sequential_schedule, is_live, local_iteration)
from repro.errors import DeadlockError
from repro.io import csdf_from_dict, csdf_to_dict
from repro.symbolic import InconsistentRatesError, Param
from repro.tpdf import local_solution, random_consistent_graph

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
EXT7_SIZES = (20, 40, 80)
EXT7_SEEDS = range(1, 13)


def _corpus():
    for n, extra, cycles, parametric, control in CORPUS_SHAPES:
        for seed in range(SEEDS_PER_SHAPE):
            graph = random_consistent_graph(
                n, extra_edges=extra, n_cycles=cycles, seed=seed,
                parametric=parametric, with_control=control)
            yield (f"corpus{n}:{extra}:{cycles}:{seed}", graph,
                   {"p": 2} if parametric else None)


def _gallery():
    """``(label, CSDF graph, bindings)``: the CSDF views of the gallery."""
    return [
        ("fig1", gallery.fig1_graph(), None),
        ("radio", gallery.parametric_radio_graph(), {"b": 2, "c": 3}),
        ("fig2", gallery.fig2_graph().as_csdf(), {"p": 2}),
        ("fig3", gallery.fig3_graph().as_csdf(), None),
        ("fig4a", gallery.fig4_graph("a").as_csdf(), {"p": 2}),
        ("fig4b", gallery.fig4_graph("b").as_csdf(), {"p": 1}),
        ("fig4dead", gallery.fig4_graph("dead").as_csdf(), {"p": 1}),
        ("fig6", gallery.fig6_graph(8)[0].as_csdf(), None),
        ("fig7", gallery.fig7_graph().as_csdf(),
         {"beta": 2, "N": 4, "L": 1, "M": 4}),
    ]


def _sources(source):
    if source == "corpus":
        return [(label, graph.as_csdf(), bindings)
                for label, graph, bindings in _corpus()]
    if source == "gallery":
        return _gallery()
    if source == "hsdf":
        return [(f"{label}/hsdf", expand_to_hsdf(graph, bindings), None)
                for label, graph, bindings in _gallery()]
    return [(f"ext7:{n}:{seed}",
             random_consistent_graph(n, n // 2, 2, seed).as_csdf(), None)
            for n in EXT7_SIZES for seed in EXT7_SEEDS]


def _mutations(graph):
    """``(label, copy)`` per token mutation: every channel that holds
    tokens set to none, half and one less."""
    doc = csdf_to_dict(graph)
    for channel in graph.channels.values():
        tokens = channel.initial_tokens
        for value in sorted({0, tokens // 2, tokens - 1} if tokens else ()):
            copy = csdf_from_dict(doc)
            copy.channel(channel.name).initial_tokens = value
            yield f"{channel.name}={value}", copy


def _oracle(graph, bindings) -> bool:
    try:
        find_sequential_schedule(graph, bindings, policy="round_robin")
    except DeadlockError:
        return False
    return True


@pytest.mark.parametrize("source", ("corpus", "gallery", "hsdf", "ext7"))
def test_verdicts_match_the_whole_graph_oracle(source):
    checked = dead = selfloops = 0
    for label, graph, bindings in _sources(source):
        cases = [("", graph)] + list(_mutations(graph))
        for mutation, case in cases:
            want = _oracle(case, bindings)
            assert is_live(case, bindings) == want, (label, mutation)
            checked += 1
            dead += not want
        selfloops += sum(channel.initial_tokens > 0 and channel.is_selfloop()
                         for channel in graph.channels.values())
    expected = {"corpus": (580, 292), "gallery": (15, 6), "hsdf": (35, 26),
                "ext7": (221, 174)}
    assert (checked, dead) == expected[source]
    if source in ("gallery", "hsdf"):
        assert selfloops  # the radio's agc_state and its expansion


def _outcome(run):
    try:
        return list(run())
    except DeadlockError as exc:
        return "deadlock", str(exc), exc.blocked, exc.partial_schedule


@pytest.mark.parametrize("source", ("corpus", "gallery", "hsdf", "ext7"))
def test_in_place_local_iterations_match_the_isolated_subgraph(source):
    """Every cyclic component of every input and token mutation, run in
    place and as its own graph, for q^L."""
    runs = dead = 0
    for label, graph, bindings in _sources(source):
        q = concrete_repetition_vector(graph, bindings)
        taus = graph.taus()
        for mutation, case in [("", graph)] + list(_mutations(graph)):
            for subset in cyclic_components(case):
                factor = gcd(*(q[name] // taus[name] for name in subset))
                counts = {name: q[name] // factor for name in subset}
                want = _outcome(lambda: find_sequential_schedule(
                    cycle_subgraph(case, subset), bindings,
                    policy="round_robin", repetitions=counts))
                got = _outcome(lambda: local_iteration(case, subset, counts, bindings))
                assert got == want, (label, mutation, subset)
                runs += 1
                dead += want[0] == "deadlock"
    expected = {"corpus": (531, 292), "gallery": (11, 6), "hsdf": (90, 27),
                "ext7": (280, 174)}
    assert (runs, dead) == expected[source]


def _spy(monkeypatch):
    """Record the graph name, policy and targets of every run of the
    token loop."""
    calls = []
    run = schedule_module._run_passes

    def spy(name, tables, targets, policy):
        calls.append((name, policy, dict(targets)))
        return run(name, tables, targets, policy)

    monkeypatch.setattr(schedule_module, "_run_passes", spy)
    return calls


def test_local_counts_are_the_local_solution_at_the_valuation(monkeypatch):
    """One round robin per cyclic component, on the component alone,
    for q^L of :func:`repro.tpdf.local_solution` evaluated at the
    bindings; Fig. 4's cycles have two phases per actor."""
    calls = _spy(monkeypatch)
    cyclic = 0
    fig4 = [(f"fig4{case}", gallery.fig4_graph(case), {"p": p})
            for case, p in (("a", 2), ("b", 3))]
    for label, graph, bindings in [*_corpus(), *fig4]:
        csdf = graph.as_csdf()
        components = cyclic_components(csdf)
        calls.clear()
        assert is_live(csdf, bindings), label
        expected = []
        for subset in components:
            counts = local_solution(graph, subset).counts
            expected.append((f"{csdf.name}/cycle({','.join(subset)})",
                             "round_robin",
                             {name: count.evaluate_int(bindings or {})
                              for name, count in counts.items()}))
        assert calls == expected, label
        cyclic += bool(components)
    assert cyclic == 102


def test_acyclic_graphs_build_no_schedule(monkeypatch):
    """The coprime chain has about 1.03M firings per actor in one
    global iteration and no cycle: its verdict takes no firing."""
    calls = _spy(monkeypatch)
    coprime = CSDFGraph("coprime")
    for name in ("a", "b", "c"):
        coprime.add_actor(name)
    coprime.add_channel("ab", "a", "b", production=1009, consumption=1013)
    coprime.add_channel("bc", "b", "c", production=1019, consumption=1021)
    assert is_live(coprime)
    assert is_live(gallery.fig2_graph().as_csdf(), {"p": 2})
    assert calls == []


def test_unbound_parameter_on_an_acyclic_channel_raises():
    """Every channel's rates are read first, as the whole-graph round
    robin read them: a parameter missing from the bindings raises even
    where no cycle reads it."""
    p = Param("p")
    graph = CSDFGraph("open")
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_channel("ab", "a", "b", production=p, consumption=p)
    assert cyclic_components(graph) == ()
    with pytest.raises(KeyError, match="'p'"):
        is_live(graph)
    assert is_live(graph, {"p": 3})


def test_inconsistent_graph_raises_as_the_oracle_does():
    graph = CSDFGraph("unbalanced")
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_channel("one", "a", "b")
    graph.add_channel("two", "a", "b", production=2)
    with pytest.raises(InconsistentRatesError) as want:
        _oracle(graph, None)
    with pytest.raises(InconsistentRatesError) as got:
        is_live(graph)
    assert str(got.value) == str(want.value)
