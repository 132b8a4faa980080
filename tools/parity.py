#!/usr/bin/env python
"""Parity digests: one sha256 per named set of analysis results.

A refactor that promises bit-identical results is checked by hashing
what the analyses return on fixed inputs, once per tree, and comparing
the digests::

    PYTHONPATH=src python tools/parity.py
    PYTHONPATH=/path/to/other/checkout/src python tools/parity.py

or in one command, against any revision of this repository::

    python tools/parity.py --against REV [set ...]

which extracts ``REV``'s ``src`` with ``git archive`` into a temporary
directory (no worktree is left behind), hashes the named sets on that
tree and on this checkout, each in its own process, and prints per
set whether the two agree and, where they do not, how many items
differ and the label of the first.

``repro`` is whatever ``PYTHONPATH`` resolves (this checkout's ``src``
when it resolves none); the script prints the path it hashed.  The
perfbench inputs are built by ``perfbench/graphs.py`` of *this*
checkout, loaded read-only, so both trees are hashed on the same
documents; the seeded corpus and the gallery come from the generators
of the tree under test (``repro.tpdf.random_consistent_graph``,
``repro.gallery``).

Sets (each item is ``(label, outcome)``, an outcome being the result
or the error's type name and message; the digest is a sha256 over the
items' ``repr`` lines):

``analyze``
    ``analyze()`` fingerprints: the 200-graph corpus with the timed run
    at 3 and 4 iterations, and eight gallery graphs and perfbench's
    ``cold_analyze`` inputs of seeds 1-3 at default options (no timed
    run).
``mcr``
    ``max_cycle_ratio`` over the corpus, with its bindings and without.
``parametric``
    ``parametric_mcr`` fingerprints on three gallery domains, with the
    piecewise and the concrete value at every grid point.
``warm``
    600 perfbench-style ``EditSession`` edits (70% execution-time, 30%
    token, rate and topology edits) on three 80-actor graphs, one
    fingerprint after each.
``decode``
    Every corpus, gallery and perfbench (seeds 1-3) document through
    the decoder: the document's ``payload_fingerprint``, the decoded
    graph's ``describe()``, the fingerprint of its re-encoded payload
    and, for TPDF, ``as_csdf().describe()``.
``simulate``
    ``simulate()`` trace fingerprints on perfbench's ``simulate``
    inputs: the OFDM Fig. 7 graph steered to 16-QAM and to QPSK, and
    seeds 1-3's random 40/60/80-actor TPDF graphs under their core
    budgets and capacities.
``summary``
    ``analyze()``'s ``summary()`` text and the key order of its
    ``skipped`` and ``errors``: the corpus at default options and with
    each performance-stage switch flipped (the MCR and buffer stages
    off, the timed run on), and the gallery's TPDF graphs without
    bindings.  Every input runs its liveness stage (each corpus
    graph is live under its bindings), so the set is blind to the
    verdict of a graph whose liveness was not checked.
``service``
    Served and direct results side by side, through a two-worker
    service: ``analyze()`` fingerprints, ``simulate()`` traces (each
    node limited to two iterations), ``run_diagnostics`` findings and,
    on parametric graphs, ``analyze_parametric`` fingerprints.  Inputs:
    the corpus's first three seeds per shape, and the gallery.
``liveness``
    ``is_live`` verdicts on CSDF views under their bindings and, for
    TPDF graphs, ``check_liveness`` reports: ``live``, the reason and,
    per cycle, its actors, local counts, schedule, witnesses and
    reason.  Inputs: the corpus, the gallery and the EXT7 family
    (``random_consistent_graph(n, n // 2, 2, seed)``, n = 20, 40, 80,
    seeds 1-12), each graph followed by its token mutations — every
    channel holding tokens set to none, half and one less — most of
    which deadlock.
``buffers``
    ``min_buffers_for_full_throughput(csdf, bindings)`` on the CSDF
    views of the corpus (under its bindings), the EXT7 family above and
    the four EXT3 graphs (Fig. 2 at p = 4, OFDM at N = 16 and 32, and
    the imbalanced pipeline): the capacity mappings, in channel order.
``executor``
    ``self_timed_execution`` on the CSDF views of the corpus (under its
    bindings) for four iterations, at core budgets none, 1 and 2 and
    capacities none, ``capacity_floors`` and the floors plus one: the
    makespan, iteration and firing counts, iteration ends and sorted
    peaks, or, for a deadlock, the ``DeadlockError`` message and
    blocked set.
``balance``
    The balance-equation products of the CSDF view: the rendered
    ``repetition_vector``, ``concrete_repetition_vector`` under the
    input's bindings and, for TPDF, the ``local_solution`` of every
    cyclic component and the ``area_local_solution`` of every control
    actor (``str`` and ``repr``), each outcome or its error's type and
    message.  Inputs: the corpus, the gallery and perfbench's
    ``cold_analyze`` documents (seeds 1-3), each followed by its rate
    mutations — every data channel that is no self-loop with its
    production doubled, which breaks the balance on any undirected
    cycle through it.

Usage::

    python tools/parity.py [set ...]                 # default: every set
    python tools/parity.py --against REV [set ...]

Exit status 0; the digests are for comparing, not for judging.  With
``--against``, 1 when any set differs.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent

#: (actors, extra_edges, back_edges, parametric, with_control): the
#: 200-graph corpus of ``tests/service/conftest.py``.
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
CORPUS_SEEDS = 25
PERFBENCH_SEEDS = (1, 2, 3)
#: perfbench ``cold_analyze``: kinds, sizes, distinct graphs per class.
PERFBENCH_KINDS = ("csdf", "tpdf", "param")
PERFBENCH_SIZES = (20, 40, 80)
PERFBENCH_POOL = 3
#: perfbench ``simulate``: random TPDF sizes, repetition-vector
#: iterations each graph runs, and the OFDM runs (demapper, M).
SIM_SIZES = (40, 60, 80)
SIM_ITERATIONS = 4
SIM_OFDM = (("qam", 4), ("qpsk", 2))
WARM_EDITS = 600
WARM_SESSIONS = 3
WARM_ACTORS = 80
#: perfbench ``edit_loop``'s block of edit classes.
WARM_BLOCK = (["exec_core"] * 7 + ["exec_out"] * 7 + ["tokens"] * 2
              + ["rates"] * 2 + ["topology"] * 2)

Item = tuple[Any, Any]


def _import_repro() -> ModuleType:
    try:
        import repro
    except ModuleNotFoundError:
        sys.path.append(str(ROOT / "src"))
        import repro
    return repro


def _perfbench_graphs() -> ModuleType:
    """``perfbench/graphs.py`` of this checkout, under a private name."""
    name = "_parity_perfbench_graphs"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "graphs.py")
        assert spec is not None and spec.loader is not None
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve through it
        spec.loader.exec_module(module)
    return sys.modules[name]


def _outcome(call: Callable[[], Any]) -> Any:
    try:
        return call()
    except Exception as exc:  # an error is a result: type and message
        return (type(exc).__name__, str(exc))


def _corpus(trim: int | None) -> list[tuple[str, Any, Any]]:
    from repro.tpdf import random_consistent_graph

    items = []
    for n, extra, cycles, parametric, control in CORPUS_SHAPES:
        for seed in range(CORPUS_SEEDS):
            graph = random_consistent_graph(
                n, extra_edges=extra, n_cycles=cycles, seed=seed,
                parametric=parametric, with_control=control,
            )
            items.append((f"corpus{n}:{extra}:{cycles}:{seed}", graph,
                          {"p": 2} if parametric else None))
    return items[:trim]


def _gallery(trim: int | None) -> list[tuple[str, Any, Any]]:
    from repro import gallery
    from repro.tpdf import fig2_graph

    makers: list[tuple[str, Callable[[], Any], Any]] = [
        ("fig1", gallery.fig1_graph, None),
        ("fig2_p2", fig2_graph, {"p": 2}),
        ("fig2_p3", fig2_graph, {"p": 3}),
        ("fig4a_p2", lambda: gallery.fig4_graph("a"), {"p": 2}),
        ("fig4b_p1", lambda: gallery.fig4_graph("b"), {"p": 1}),
        ("fig6", lambda: gallery.fig6_graph(image_size=8)[0], None),
        ("fig7_qam16", gallery.fig7_graph, {"beta": 2, "N": 4, "L": 1, "M": 4}),
        ("radio_b2c3", gallery.parametric_radio_graph, {"b": 2, "c": 3}),
    ]
    return [(label, make(), bindings) for label, make, bindings in makers[:trim]]


def _perfbench_payloads(trim: int | None) -> list[tuple[str, dict, Any]]:
    graphs = _perfbench_graphs()
    items = []
    for seed in PERFBENCH_SEEDS:
        for kind in PERFBENCH_KINDS:
            for size in PERFBENCH_SIZES:
                for index in range(PERFBENCH_POOL):
                    gd = graphs.make_doc(kind, size, seed, index)
                    items.append((f"perfbench{seed}:{gd.doc['name']}",
                                  gd.doc, gd.bindings))
    return items[:trim]


def _perfbench_docs(trim: int | None) -> list[tuple[str, Any, Any]]:
    from repro.io import graph_from_payload

    return [(label, graph_from_payload(doc), bindings)
            for label, doc, bindings in _perfbench_payloads(trim)]


def _capacities(doc: dict, q: dict) -> dict:
    """perfbench ``simulate``'s channel capacities: initial tokens plus
    one iteration's production on every channel between kernels."""
    rates = {(node["name"], port["name"]): int(port["rates"][0])
             for node in doc["nodes"] for port in node["ports"]}
    kernels = {node["name"] for node in doc["nodes"]
               if node["kind"] == "kernel"}
    return {c["name"]: c["initial_tokens"]
            + q[c["src"]] * rates[(c["src"], c["src_port"])]
            for c in doc["channels"]
            if c["src"] in kernels and c["dst"] in kernels}


def _sim_inputs(trim: int | None) -> list[tuple[str, str, Any, dict, Any]]:
    """perfbench ``simulate``'s inputs as ``(label, document text,
    bindings, simulate() options, steered demapper)``."""
    from repro.apps.ofdm import bindings_for, build_ofdm_tpdf
    from repro.io import graph_to_payload

    graphs = _perfbench_graphs()
    ofdm = json.dumps(graph_to_payload(build_ofdm_tpdf()))
    runs = [(f"ofdm_{steer}", ofdm, bindings_for(4, 64, 4, m),
             {"limits": {"SRC": 64}}, steer)
            for steer, m in SIM_OFDM]
    items: list[tuple[str, str, Any, dict, Any]] = []
    for seed in PERFBENCH_SEEDS:
        rng = random.Random(f"{seed}:simulate")
        for size in SIM_SIZES:
            for i, control in enumerate((True, False)):
                doc, q = graphs.tpdf_doc(
                    random.Random(f"{seed}:sim:{size}:{i}"), size,
                    f"sim{size}_{i}", control=control)
                options = {
                    "limits": {node: SIM_ITERATIONS * count
                               for node, count in q.items()},
                    "cores": rng.choice((2, 4)),
                    "capacities": _capacities(doc, q),
                }
                items.append((f"perfbench{seed}:{doc['name']}",
                              json.dumps(doc), None, options, None))
    return runs[:trim] + items[:trim]


def analyze_set(trim: int | None = None) -> Iterator[Item]:
    from repro.analysis import analyze

    for label, graph, bindings in _corpus(trim):
        for iterations in (3, 4):
            yield (label, iterations), _outcome(lambda: analyze(
                graph, bindings, iterations=iterations,
                with_throughput=True).fingerprint())
    for label, graph, bindings in _gallery(trim):
        yield label, _outcome(lambda: analyze(graph, bindings).fingerprint())
    for label, graph, bindings in _perfbench_docs(trim):
        yield label, _outcome(
            lambda: analyze(graph, bindings, iterations=4).fingerprint())


def mcr_set(trim: int | None = None) -> Iterator[Item]:
    from repro.csdf import max_cycle_ratio

    for label, graph, bindings in _corpus(trim):
        csdf = graph.as_csdf()
        yield label, _outcome(lambda: max_cycle_ratio(csdf, bindings))
        yield (label, None), _outcome(lambda: max_cycle_ratio(csdf))


def parametric_set(trim: int | None = None) -> Iterator[Item]:
    from repro import gallery
    from repro.csdf import max_cycle_ratio
    from repro.csdf.parametric import parametric_mcr
    from repro.tpdf import fig2_graph

    domains = [
        ("radio", gallery.parametric_radio_graph(), {"b": (1, 8), "c": (1, 8)}),
        ("fig2", fig2_graph().as_csdf(), {"p": (1, 30)}),
        ("fig4a", gallery.fig4_graph("a").as_csdf(), {"p": (1, 8)}),
    ]
    for label, graph, domain in domains[:trim]:
        piecewise = _outcome(lambda: parametric_mcr(graph, domain))
        if isinstance(piecewise, tuple):
            yield label, piecewise
            continue
        yield label, piecewise.fingerprint()
        for point in piecewise.domain.grid():
            yield (label, tuple(sorted(point.items()))), (
                _outcome(lambda: piecewise.evaluate_float(point)),
                _outcome(lambda: max_cycle_ratio(graph, point)),
            )


def warm_set(trim: int | None = None) -> Iterator[Item]:
    from repro.analysis import EditSession
    from repro.io import graph_from_payload, graph_to_payload

    graphs = _perfbench_graphs()
    models = [graphs.csdf_model(random.Random(f"1:edit:{s}"), WARM_ACTORS,
                                f"edit{s}")
              for s in range(WARM_SESSIONS)]
    sessions = [EditSession(graph_from_payload(graph_to_payload(graphs.build_csdf(m))))
                for m in models]
    rng = random.Random("parity:warm")
    scripts = [graphs.EditScript(copy.deepcopy(m), rng) for m in models]
    block: list[str] = []
    for index in range(WARM_EDITS if trim is None else trim):
        if not block:
            block = rng.sample(WARM_BLOCK, len(WARM_BLOCK))
        cls = block.pop()
        s = rng.randrange(WARM_SESSIONS)
        edits, _expected_q = scripts[s].next(cls)
        for edit in edits:
            sessions[s].apply(edit)
        yield (index, cls, s), _outcome(lambda: sessions[s].analyze().fingerprint())


def decode_set(trim: int | None = None) -> Iterator[Item]:
    from repro.io import graph_from_payload, graph_to_payload, payload_fingerprint
    from repro.tpdf import TPDFGraph

    docs = [(label, graph_to_payload(graph))
            for label, graph, _ in _corpus(trim) + _gallery(trim)]
    docs += [(label, doc) for label, doc, _ in _perfbench_payloads(trim)]
    for label, doc in docs:
        def decoded() -> tuple:
            graph = graph_from_payload(doc)
            view = (graph.as_csdf().describe()
                    if isinstance(graph, TPDFGraph) else None)
            return (payload_fingerprint(doc), graph.describe(),
                    payload_fingerprint(graph_to_payload(graph)), view)
        yield label, _outcome(decoded)


def simulate_set(trim: int | None = None) -> Iterator[Item]:
    from repro.analysis import simulate
    from repro.io import tpdf_from_json
    from repro.tpdf.modes import ControlToken, Mode

    for label, text, bindings, options, steer in _sim_inputs(trim):
        def run() -> str:
            graph = tpdf_from_json(text)
            if steer is not None:
                token = ControlToken(Mode.SELECT_ONE, (steer,))
                graph.node("CON").decision = lambda _n, _inputs: token
            return simulate(graph, bindings, **options).fingerprint()
        yield label, _outcome(run)


#: ``analyze()`` switches the ``summary`` set flips one at a time from
#: their defaults: the MCR and buffer stages off, the timed run on
#: (liveness stays on: see the set's description).
SUMMARY_SWITCHES = (("with_mcr", False), ("with_buffers", False),
                    ("with_throughput", True))
#: Corpus seeds per shape the ``service`` set sends.
SERVICE_SEEDS = 3
#: Parameter boxes of the ``service`` set's parametric requests: every
#: parametric corpus graph's, and two gallery graphs'.
CORPUS_DOMAIN = {"p": (1, 4)}
GALLERY_DOMAINS = {"fig2_p2": {"p": (1, 8)},
                   "radio_b2c3": {"b": (1, 4), "c": (1, 4)}}


def summary_set(trim: int | None = None) -> Iterator[Item]:
    from repro.analysis import analyze
    from repro.tpdf import TPDFGraph

    def shown(graph, bindings, **options) -> tuple:
        report = analyze(graph, bindings, **options)
        return report.summary(), tuple(report.skipped), tuple(report.errors)

    for label, graph, bindings in _corpus(trim):
        yield label, _outcome(lambda: shown(graph, bindings))
        for switch, value in SUMMARY_SWITCHES:
            yield (label, switch), _outcome(
                lambda: shown(graph, bindings, **{switch: value}))
    for label, graph, _bindings in _gallery(trim):
        if isinstance(graph, TPDFGraph):
            yield label, _outcome(lambda: shown(graph, None))


def service_set(trim: int | None = None) -> Iterator[Item]:
    from repro.analysis import analyze, analyze_parametric, simulate
    from repro.csdf.analysis import concrete_repetition_vector
    from repro.diagnostics import run_diagnostics
    from repro.service import ServiceClient, serve_in_thread
    from repro.tpdf import TPDFGraph

    inputs = [(label, graph, bindings, CORPUS_DOMAIN if bindings else None)
              for index, (label, graph, bindings) in enumerate(_corpus(None))
              if index % CORPUS_SEEDS < SERVICE_SEEDS][:trim]
    inputs += [(label, graph, bindings, GALLERY_DOMAINS.get(label))
               for label, graph, bindings in _gallery(trim)]

    def both(served: Callable[[], Any], direct: Callable[[], Any]) -> tuple:
        return _outcome(served), _outcome(direct)

    with serve_in_thread(workers=2) as handle:
        client = ServiceClient(handle.url)
        for label, graph, bindings, domain in inputs:
            yield (label, "analyze"), both(
                lambda: client.analyze(graph, bindings).fingerprint(),
                lambda: analyze(graph, bindings).fingerprint())
            yield (label, "lint"), both(
                lambda: [d.to_dict() for d in client.lint(graph, bindings)],
                lambda: [d.to_dict()
                         for d in run_diagnostics(graph, bindings=bindings)])
            if isinstance(graph, TPDFGraph):
                q = concrete_repetition_vector(graph.as_csdf(), bindings)
                limits = {name: 2 * count for name, count in q.items()}
                yield (label, "simulate"), both(
                    lambda: client.simulate(graph, bindings,
                                            limits=limits).fingerprint(),
                    lambda: simulate(graph, bindings,
                                     limits=limits).fingerprint())
            if domain is not None:
                yield (label, "parametric"), both(
                    lambda: client.analyze_parametric(graph, domain).fingerprint(),
                    lambda: analyze_parametric(graph, domain).fingerprint())


#: The EXT7 family of the ``liveness`` set: sizes and seeds.
EXT7_SIZES = (20, 40, 80)
EXT7_SEEDS = range(1, 13)


def _ext7(trim: int | None) -> list[tuple[str, Any, Any]]:
    from repro.tpdf import random_consistent_graph

    sizes_seeds = [(n, seed) for n in EXT7_SIZES for seed in EXT7_SEEDS]
    return [(f"ext7:{n}:{seed}", random_consistent_graph(n, n // 2, 2, seed), None)
            for n, seed in sizes_seeds[:trim]]


def _token_mutations(graph) -> Iterator[tuple[str, Any]]:
    """``(label, copy)`` per token mutation of ``graph``: every channel
    holding tokens set to none, half and one less."""
    from repro.io import graph_from_payload, graph_to_payload

    doc = graph_to_payload(graph)
    for channel in graph.channels.values():
        tokens = channel.initial_tokens
        for value in sorted({0, tokens // 2, tokens - 1}) if tokens else ():
            copy = graph_from_payload(doc)
            copy.channel(channel.name).initial_tokens = value
            yield f"{channel.name}={value}", copy


def liveness_set(trim: int | None = None) -> Iterator[Item]:
    from repro.csdf import is_live
    from repro.tpdf import TPDFGraph, check_liveness

    def report(graph) -> tuple:
        result = check_liveness(graph)
        return result.live, result.reason, tuple(
            (cycle.actors,
             tuple((name, str(count)) for name, count in cycle.local.counts.items()),
             cycle.schedule.firings if cycle.schedule is not None else None,
             tuple(tuple(sorted(w.items())) for w in cycle.witnesses),
             cycle.reason)
            for cycle in result.cycles)

    for label, graph, bindings in _corpus(trim) + _gallery(trim) + _ext7(trim):
        for mutation, case in [("", graph), *_token_mutations(graph)]:
            if isinstance(case, TPDFGraph):
                yield (label, mutation, "tpdf"), _outcome(lambda: report(case))
                case = case.as_csdf()
            yield (label, mutation), _outcome(lambda: is_live(case, bindings))


def _ext3(trim: int | None) -> list[tuple[str, Any, Any]]:
    """The EXT3 bench's graphs: Fig. 2 at p = 4, the OFDM demodulator
    at N = 16 and 32, and the imbalanced three-actor pipeline."""
    from repro.apps.ofdm import bindings_for, build_ofdm_tpdf
    from repro.csdf import CSDFGraph
    from repro.tpdf import fig2_graph

    imbalanced = CSDFGraph("imbalanced")
    imbalanced.add_actor("src", exec_time=1)
    imbalanced.add_actor("mid", exec_time=2)
    imbalanced.add_actor("snk", exec_time=16)
    imbalanced.add_channel("a", "src", "mid", production=8, consumption=8)
    imbalanced.add_channel("b", "mid", "snk", production=8, consumption=8)
    ofdm = build_ofdm_tpdf()
    items = [
        ("ext3:fig2_p4", fig2_graph(), {"p": 4}),
        ("ext3:ofdm_n16", ofdm, bindings_for(2, 16, 4, 4)),
        ("ext3:ofdm_n32", ofdm, bindings_for(2, 32, 4, 4)),
        ("ext3:imbalanced", imbalanced, None),
    ]
    return items[:trim]


def buffers_set(trim: int | None = None) -> Iterator[Item]:
    from repro.csdf import min_buffers_for_full_throughput
    from repro.tpdf import TPDFGraph

    for label, graph, bindings in _corpus(trim) + _ext7(trim) + _ext3(trim):
        csdf = graph.as_csdf() if isinstance(graph, TPDFGraph) else graph
        yield label, _outcome(
            lambda: min_buffers_for_full_throughput(csdf, bindings))


#: The ``executor`` set's iterations per run and core budgets.
EXECUTOR_ITERATIONS = 4
EXECUTOR_CORES = (None, 1, 2)


def executor_set(trim: int | None = None) -> Iterator[Item]:
    from repro.csdf import capacity_floors, self_timed_execution
    from repro.errors import DeadlockError

    def run(csdf, bindings, cores, capacities) -> tuple:
        try:
            result = self_timed_execution(csdf, bindings, iterations=EXECUTOR_ITERATIONS,
                                          cores=cores, capacities=capacities)
        except DeadlockError as exc:
            return "DeadlockError", str(exc), tuple(exc.blocked)
        return (result.makespan, result.iterations, result.firings,
                tuple(result.iteration_ends), tuple(sorted(result.peaks.items())))

    for label, graph, bindings in _corpus(trim):
        csdf = graph.as_csdf()
        floors = capacity_floors(csdf, bindings)
        vectors = {"none": None, "floors": floors,
                   "floors+1": {name: value + 1 for name, value in floors.items()}}
        for cores in EXECUTOR_CORES:
            for name, capacities in vectors.items():
                yield (label, cores, name), _outcome(
                    lambda: run(csdf, bindings, cores, capacities))


def _rate_mutations(graph) -> Iterator[tuple[str, Any]]:
    """``(label, graph)`` per rate mutation of ``graph``, made in place
    and undone when the next one is asked for: every data channel that
    is no self-loop with its production doubled (a TPDF channel through
    its source port)."""
    from repro.tpdf import TPDFGraph

    tpdf = isinstance(graph, TPDFGraph)
    for channel in list(graph.channels.values()):
        if channel.src == channel.dst or getattr(channel, "is_control", False):
            continue
        owner = (graph.node(channel.src).port(channel.src_port) if tpdf
                 else graph.channel(channel.name))
        attribute = "rates" if tpdf else "production"
        original = getattr(owner, attribute)
        setattr(owner, attribute, [2 * phase for phase in original])
        try:
            yield f"{channel.name}*2", graph
        finally:
            setattr(owner, attribute, original)


def balance_set(trim: int | None = None) -> Iterator[Item]:
    from repro.csdf import cyclic_components
    from repro.csdf.analysis import concrete_repetition_vector, repetition_vector
    from repro.tpdf import TPDFGraph, area_local_solution, local_solution

    def local(solve: Callable[[], Any]) -> Any:
        return _outcome(lambda: (lambda found: (str(found), repr(found)))(solve()))

    def products(graph, bindings) -> tuple:
        csdf = graph.as_csdf() if isinstance(graph, TPDFGraph) else graph
        q = _outcome(lambda: tuple((name, str(count))
                                   for name, count in repetition_vector(csdf).items()))
        concrete = _outcome(lambda: tuple(
            concrete_repetition_vector(csdf, bindings).items()))
        if not isinstance(graph, TPDFGraph):
            return q, concrete
        cycles = tuple((subset, local(lambda: local_solution(graph, subset)))
                       for subset in cyclic_components(csdf))
        areas = tuple((control, local(lambda: area_local_solution(graph, control)))
                      for control in graph.controls)
        return q, concrete, cycles, areas

    for label, graph, bindings in (_corpus(trim) + _gallery(trim)
                                   + _perfbench_docs(trim)):
        yield label, _outcome(lambda: products(graph, bindings))
        for mutation, mutant in _rate_mutations(graph):
            yield (label, mutation), _outcome(lambda: products(mutant, bindings))


SETS: dict[str, Callable[[int | None], Iterator[Item]]] = {
    "analyze": analyze_set,
    "mcr": mcr_set,
    "parametric": parametric_set,
    "warm": warm_set,
    "decode": decode_set,
    "simulate": simulate_set,
    "summary": summary_set,
    "service": service_set,
    "liveness": liveness_set,
    "buffers": buffers_set,
    "executor": executor_set,
    "balance": balance_set,
}


def digest(items: Iterator[Item]) -> tuple[str, int]:
    """sha256 over the items' ``repr`` lines, and the item count."""
    sha = hashlib.sha256()
    count = 0
    for item in items:
        sha.update(repr(item).encode())
        sha.update(b"\n")
        count += 1
    return sha.hexdigest(), count


def digests(names: list[str] | None = None,
            trim: int | None = None) -> dict[str, tuple[str, int]]:
    """``{set: (sha256, items)}`` for the named sets (default: all);
    ``trim`` keeps the first ``trim`` inputs of every source."""
    _import_repro()
    return {name: digest(SETS[name](trim)) for name in names or SETS}


def _item_lines(names: list[str], trim: int | None) -> None:
    """Print, per named set, one JSON line: the set, its digest and,
    per item, the ``repr`` of its label and the sha256 of its line."""
    _import_repro()
    for name in names:
        items = list(SETS[name](trim))
        lines = [(repr(item[0]), hashlib.sha256(repr(item).encode()).hexdigest())
                 for item in items]
        print(json.dumps([name, digest(iter(items))[0], lines]), flush=True)


def _hash_tree(src: Path, names: list[str], trim: int | None) -> dict:
    """``{set: (digest, [(label, item sha), ...])}`` with ``repro``
    imported from ``src``, in a process of its own."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
            f"import parity; parity._item_lines({names!r}, {trim!r})")
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True)
    if run.returncode:
        raise RuntimeError(f"hashing {src} failed:\n{run.stderr}")
    return {name: (sha, items) for name, sha, items
            in map(json.loads, run.stdout.splitlines())}


def _archive_src(rev: str, repo: Path, into: Path) -> Path:
    """``rev``'s ``src`` directory, extracted under ``into``."""
    tar = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar",
                          rev, "src"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def against(rev: str, names: list[str] | None = None, trim: int | None = None,
            repo: Path = ROOT) -> dict[str, tuple]:
    """Hash the named sets (default: all) on ``rev``'s ``src`` and on
    this checkout's: ``{set: (digest at rev, digest here, items,
    differing items, label of the first differing item or None)}``."""
    names = list(names or SETS)
    with tempfile.TemporaryDirectory(prefix="parity-") as scratch:
        theirs = _hash_tree(_archive_src(rev, repo, Path(scratch)), names, trim)
    ours = _hash_tree(ROOT / "src", names, trim)
    result = {}
    for name in names:
        (old, old_items), (new, new_items) = theirs[name], ours[name]
        pairs = list(zip(old_items, new_items))
        differing = [new_label for (_, a), (new_label, b) in pairs if a != b]
        longer = old_items if len(old_items) > len(new_items) else new_items
        differing += [label for label, _ in longer[len(pairs):]]
        result[name] = (old, new, len(new_items), len(differing),
                        differing[0] if differing else None)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="*", help=f"any of {', '.join(SETS)} "
                        "(default: all)")
    parser.add_argument("--against", metavar="REV",
                        help="compare with REV's src (a git revision of "
                             "this repository) instead of printing digests")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.sets) - set(SETS))
    if unknown:
        parser.error(f"unknown set(s): {', '.join(unknown)}")
    if args.against:
        compared = against(args.against, args.sets)
        print(f"repro: {ROOT / 'src'} against {args.against}")
        for name, (old, new, count, differ, first) in compared.items():
            if not differ:
                print(f"{name:<11} equal      {new[:12]}  ({count} items)")
            else:
                print(f"{name:<11} different  {old[:12]} -> {new[:12]}  "
                      f"({differ} of {count} items; first: {first})")
        return 1 if any(entry[3] for entry in compared.values()) else 0
    repro = _import_repro()
    print(f"repro: {Path(repro.__file__).parent}")
    for name, (sha, count) in digests(args.sets).items():
        print(f"{name:<11} {sha}  ({count} items)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
