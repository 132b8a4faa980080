"""EXT5 — parametric (symbolic) MCR vs. per-binding Howard sweeps.

One piecewise-symbolic build gives the MCR over a whole parameter box
as one exact function: symbolic candidates and a partition of the box
into regions, each with one dominant candidate.  This bench checks it
on the graphs where the piecewise structure is real:

* the two-parameter radio front-end (full 8x8 grid, 8 regions);
* the paper's Fig. 2 graph as CSDF over p = 1..100.

Each comparison asserts bit-for-bit equality between the piecewise
evaluation and the concrete Howard result at every grid point, then
records both wall-clock times.  They are close: the concrete solver
takes the rings outside the cyclic cores in closed form too, so no
binding re-expands anything.  The piecewise objects themselves are
persisted as JSON artefacts (``repro.io.piecewise_to_dict``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.csdf import max_cycle_ratio, parametric_mcr
from repro.gallery import parametric_radio_graph
from repro.io import piecewise_to_dict
from repro.tpdf import fig2_graph
from repro.util import ascii_table, write_csv

RESULTS = Path(__file__).parent / "results"


def _sweep_vs_parametric(graph, domain, grid):
    """Time the concrete per-binding sweep and the single parametric
    build + grid evaluation; assert equality point by point."""
    start = time.perf_counter()
    concrete = [max_cycle_ratio(graph, bindings) for bindings in grid]
    sweep_s = time.perf_counter() - start

    start = time.perf_counter()
    piecewise = parametric_mcr(graph, domain)
    symbolic = [piecewise.evaluate_float(bindings) for bindings in grid]
    parametric_s = time.perf_counter() - start

    assert symbolic == concrete, "piecewise MCR diverged from Howard"
    return piecewise, sweep_s, parametric_s


def test_ext5_parametric_vs_concrete(benchmark, report):
    radio = parametric_radio_graph()
    radio_domain = {"b": (1, 8), "c": (1, 8)}
    fig2 = fig2_graph().as_csdf()
    fig2_domain = {"p": (1, 100)}

    radio_grid = [{"b": b, "c": c}
                  for b in range(1, 9) for c in range(1, 9)]
    fig2_grid = [{"p": p} for p in range(1, 101)]

    radio_pw, radio_sweep, radio_parametric = _sweep_vs_parametric(
        radio, radio_domain, radio_grid)

    # Benchmark the bigger comparison (fresh graph per round so the
    # per-binding caches never leak between timing runs).
    def fig2_comparison():
        graph = fig2_graph().as_csdf()
        return _sweep_vs_parametric(graph, fig2_domain, fig2_grid)

    fig2_pw, fig2_sweep, fig2_parametric = benchmark.pedantic(
        fig2_comparison, rounds=1, iterations=1)

    rows = [
        ["radio2p (b,c = 1..8)", len(radio_grid), len(radio_pw.regions),
         f"{radio_sweep * 1000:.1f}", f"{radio_parametric * 1000:.1f}"],
        ["fig2 (p = 1..100)", len(fig2_grid), len(fig2_pw.regions),
         f"{fig2_sweep * 1000:.1f}", f"{fig2_parametric * 1000:.1f}"],
    ]
    table = ascii_table(
        ["graph", "bindings", "regions", "concrete sweep (ms)",
         "parametric (ms)"],
        rows,
        title="EXT5 — one piecewise-symbolic MCR vs. per-binding Howard "
              "(equal bit-for-bit at every grid point)",
    )
    write_csv(
        "benchmarks/results/ext5_parametric_mcr.csv",
        ["graph", "bindings", "regions", "sweep_s", "parametric_s"],
        [
            ["radio2p", len(radio_grid), len(radio_pw.regions),
             radio_sweep, radio_parametric],
            ["fig2", len(fig2_grid), len(fig2_pw.regions),
             fig2_sweep, fig2_parametric],
        ],
    )
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "ext5_piecewise_radio.json").write_text(
        json.dumps(piecewise_to_dict(radio_pw), indent=2) + "\n")
    (RESULTS / "ext5_piecewise_fig2.json").write_text(
        json.dumps(piecewise_to_dict(fig2_pw), indent=2) + "\n")
    report("ext5_parametric_mcr", table + "\n\n" + radio_pw.describe())


def test_ext5_piecewise_build_cost(benchmark):
    """Timing reference: one cold piecewise build on the radio graph."""

    def build():
        graph = parametric_radio_graph()  # fresh: cold caches
        return parametric_mcr(graph, {"b": (1, 8), "c": (1, 8)})

    piecewise = benchmark(build)
    assert len(piecewise.regions) >= 2
