#!/usr/bin/env python
"""Parity digests: one sha256 per named set of analysis results.

A refactor that promises bit-identical results is checked by hashing
what the analyses return on fixed inputs, once per tree, and comparing
the digests::

    PYTHONPATH=src python tools/parity.py
    PYTHONPATH=/path/to/other/checkout/src python tools/parity.py

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
    ``analyze()`` fingerprints: the 200-graph corpus at 3 and 4
    iterations, eight gallery graphs, and perfbench's ``cold_analyze``
    inputs of seeds 1-3.
``mcr``
    ``max_cycle_ratio`` over the corpus, with its bindings and without.
``parametric``
    ``parametric_mcr`` fingerprints on three gallery domains, with the
    piecewise and the concrete value at every grid point.
``warm``
    600 perfbench-style ``EditSession`` edits (70% execution-time, 30%
    token, rate and topology edits) on three 80-actor graphs, one
    fingerprint after each.

Usage::

    python tools/parity.py [set ...]     # default: every set

Exit status 0; the digests are for comparing, not for judging.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib.util
import random
import sys
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


def _perfbench_docs(trim: int | None) -> list[tuple[str, Any, Any]]:
    from repro.io import graph_from_payload

    graphs = _perfbench_graphs()
    items = []
    for seed in PERFBENCH_SEEDS:
        for kind in PERFBENCH_KINDS:
            for size in PERFBENCH_SIZES:
                for index in range(PERFBENCH_POOL):
                    gd = graphs.make_doc(kind, size, seed, index)
                    items.append((f"perfbench{seed}:{gd.doc['name']}",
                                  graph_from_payload(gd.doc), gd.bindings))
    return items[:trim]


def analyze_set(trim: int | None = None) -> Iterator[Item]:
    from repro.analysis import analyze

    for label, graph, bindings in _corpus(trim):
        for iterations in (3, 4):
            yield (label, iterations), _outcome(
                lambda: analyze(graph, bindings, iterations=iterations).fingerprint())
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


SETS: dict[str, Callable[[int | None], Iterator[Item]]] = {
    "analyze": analyze_set,
    "mcr": mcr_set,
    "parametric": parametric_set,
    "warm": warm_set,
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="*", help=f"any of {', '.join(SETS)} "
                        "(default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.sets) - set(SETS))
    if unknown:
        parser.error(f"unknown set(s): {', '.join(unknown)}")
    repro = _import_repro()
    print(f"repro: {Path(repro.__file__).parent}")
    for name, (sha, count) in digests(args.sets).items():
        print(f"{name:<11} {sha}  ({count} items)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
