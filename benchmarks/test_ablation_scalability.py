"""ABL3 — scalability of the static analyses.

The paper argues TPDF keeps CSDF-style compile-time analyzability; this
bench measures how the full analysis chain (consistency + rate safety +
liveness) scales with graph size on generated consistent graphs
(concrete and parametric), giving the reproduction a cost profile the
paper does not report but a downstream adopter will ask for.
"""

import time

import pytest

from repro.analysis import analyze, analyze_batch
from repro.tpdf import check_boundedness, random_consistent_graph
from repro.util import ascii_table

SIZES = (10, 20, 40, 80)


@pytest.mark.parametrize("n_actors", SIZES)
def test_analysis_scaling_concrete(benchmark, n_actors):
    graph = random_consistent_graph(
        n_actors, extra_edges=n_actors // 2, n_cycles=2, seed=7,
    )
    result = benchmark(check_boundedness, graph)
    assert result.bounded


@pytest.mark.parametrize("n_actors", SIZES)
def test_analysis_scaling_parametric(benchmark, n_actors):
    graph = random_consistent_graph(
        n_actors, extra_edges=n_actors // 2, seed=11, parametric=True,
    )
    result = benchmark(check_boundedness, graph)
    assert result.bounded


def test_batch_analysis_scaling(benchmark):
    """The unified batch front door (static stages) across one size
    sweep: exercises the shared per-graph caches end to end."""
    graphs = [
        random_consistent_graph(n, extra_edges=n // 2, n_cycles=2, seed=7)
        for n in SIZES
    ]
    options = dict(with_mcr=False, with_buffers=False, with_throughput=False)
    reports = benchmark(analyze_batch, graphs, **options)
    assert all(r.bounded for r in reports)


def test_scalability_summary(benchmark, report):
    """Summary table of the full chain across sizes (single shot each;
    the benchmark fixture times one representative mid-size run so the
    test participates in --benchmark-only sessions).

    Each row is a *cold* :func:`repro.analysis.analyze` call on a
    freshly generated graph — the honest per-graph cost, no warm-cache
    flattery.  A second column reports the warm re-analysis cost (all
    intermediates cached on the graph).
    """
    benchmark.pedantic(
        check_boundedness,
        args=(random_consistent_graph(20, extra_edges=10, seed=7),),
        rounds=1, iterations=1,
    )
    options = dict(with_mcr=False, with_buffers=False, with_throughput=False)
    rows = []
    for n_actors in SIZES:
        for parametric in (False, True):
            graph = random_consistent_graph(
                n_actors, extra_edges=n_actors // 2,
                n_cycles=0 if parametric else 2,
                seed=7 if not parametric else 11,
                parametric=parametric,
            )
            verdict = analyze(graph, **options)
            assert verdict.bounded
            start = time.perf_counter()
            analyze(graph, **options)
            warm = (time.perf_counter() - start) * 1000
            rows.append([
                n_actors,
                "parametric" if parametric else "concrete",
                len(graph.channels),
                f"{verdict.elapsed * 1000:.1f}",
                f"{warm:.1f}",
            ])
    table = ascii_table(
        ["actors", "rates", "channels", "cold analysis (ms)", "warm (ms)"],
        rows,
        title="ABL3 — static analysis chain runtime vs graph size",
    )
    report("ablation_scalability", table)
