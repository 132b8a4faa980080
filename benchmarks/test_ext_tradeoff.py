"""EXT3 — buffer-size / throughput trade-off under blocking writes.

Fig. 8 reports *minimum* buffers for one iteration; a deployment also
needs to know what those minimal buffers cost in throughput when
iterations pipeline.  This bench scales the minimal capacities of the
Fig. 2 graph and the OFDM demodulator and measures the steady-state
iteration period with back-pressure: tighter buffers serialize the
pipeline, larger budgets saturate at the bottleneck actor.
"""

from pathlib import Path

from repro.apps.ofdm import bindings_for, build_ofdm_tpdf
from repro.csdf import (
    buffer_throughput_tradeoff,
    min_buffers_for_full_throughput,
    self_timed_execution,
)
from repro.tpdf import fig2_graph
from repro.util import ascii_table, write_csv

SCALES = (1.0, 1.5, 2.0, 4.0)
RESULTS_DIR = Path(__file__).parent / "results"


def sweep():
    fig2 = fig2_graph().as_csdf()
    ofdm = build_ofdm_tpdf().as_csdf()
    return (
        buffer_throughput_tradeoff(fig2, {"p": 4}, scales=SCALES, iterations=4),
        buffer_throughput_tradeoff(
            ofdm, bindings_for(2, 32, 4, 4), scales=SCALES, iterations=4
        ),
    )


def test_ext3_buffer_throughput_tradeoff(benchmark, report):
    fig2_points, ofdm_points = benchmark(sweep)
    rows = []
    for name, points in (("Fig. 2 (p=4)", fig2_points),
                         ("OFDM (beta=2, N=32)", ofdm_points)):
        periods = [result.iteration_period for _, result in points]
        assert all(a >= b - 1e-9 for a, b in zip(periods, periods[1:]))
        for scale, (budget, result) in zip(SCALES, points):
            rows.append([
                name, f"{scale:.1f}x", budget,
                f"{result.iteration_period:.2f}",
                f"{result.makespan:.2f}",
            ])
    table = ascii_table(
        ["graph", "capacity scale", "total buffer", "steady period",
         "makespan (4 iters)"],
        rows,
        title="EXT3 — buffer budget vs steady-state throughput "
              "(blocking writes; 1.0x = minimal single-proc buffers)",
    )
    report("ext3_tradeoff", table)


def test_ext3_min_buffers_for_full_throughput(benchmark, report):
    """DSE point: the smallest capacities that still sustain the
    unconstrained steady-state period."""
    graph = fig2_graph().as_csdf()
    bindings = {"p": 4}

    caps = benchmark.pedantic(
        min_buffers_for_full_throughput, args=(graph, bindings),
        kwargs={"iterations": 5}, rounds=1, iterations=1,
    )
    unconstrained = self_timed_execution(graph, bindings, iterations=5)
    constrained = self_timed_execution(
        graph, bindings, iterations=5, capacities=caps
    )
    assert abs(constrained.iteration_period
               - unconstrained.iteration_period) < 1e-6

    rows = [
        [name, unconstrained.peaks[name], caps[name]]
        for name in sorted(caps)
    ]
    rows.append(["TOTAL", sum(unconstrained.peaks.values()), sum(caps.values())])
    table = ascii_table(
        ["channel", "unconstrained peak", "min capacity @ full throughput"],
        rows,
        title=f"EXT3b — Fig. 2 (p=4) buffer DSE; steady period "
              f"{unconstrained.iteration_period:.2f} preserved",
    )
    report("ext3_min_buffers", table)


def test_ext3_warm_started_buffer_search(benchmark, report):
    """EXT3c — the symbolic-bound warm start of the per-channel binary
    search: identical capacities, fewer probe executions where the
    bound undercuts the unconstrained peak (imbalanced pipelines whose
    fast producers run iterations ahead).

    The table also records *failing* warm probes: on the OFDM graphs
    the one-iteration symbolic bound undercuts the pipelining slack
    some channels need, so the probe at the bound fails — since the
    warm-start narrowing fix, each failure raises the search floor to
    ``bound + 1`` (monotone capacity/period curve) instead of being
    discarded, and the saved binary-search steps show up in the
    ``probes saved`` column."""
    from repro.csdf import CSDFGraph

    imbalanced = CSDFGraph("imbalanced")
    imbalanced.add_actor("src", exec_time=1)
    imbalanced.add_actor("mid", exec_time=2)
    imbalanced.add_actor("snk", exec_time=16)
    imbalanced.add_channel("a", "src", "mid", production=8, consumption=8)
    imbalanced.add_channel("b", "mid", "snk", production=8, consumption=8)

    cases = [
        ("Fig. 2 (p=4)", fig2_graph().as_csdf(), {"p": 4}, 5),
        ("OFDM (beta=2, N=16)", build_ofdm_tpdf().as_csdf(),
         bindings_for(2, 16, 4, 4), 5),
        ("OFDM (beta=2, N=32)", build_ofdm_tpdf().as_csdf(),
         bindings_for(2, 32, 4, 4), 5),
        ("imbalanced pipeline", imbalanced, None, 8),
    ]

    def sweep_all():
        rows = []
        for name, graph, bindings, iterations in cases:
            warm_stats, cold_stats = {}, {}
            warm = min_buffers_for_full_throughput(
                graph, bindings, iterations=iterations, stats=warm_stats)
            cold = min_buffers_for_full_throughput(
                graph, bindings, iterations=iterations, warm_start=False,
                stats=cold_stats)
            assert warm == cold, f"{name}: warm-started search diverged"
            rows.append((name, sum(warm.values()),
                         warm_stats["probes"], cold_stats["probes"],
                         warm_stats["warm_failed"],
                         warm_stats["probes_saved"]))
        # The failed-probe narrowing must be exercised by the corpus
        # (the OFDM rows) and must never make the warm search probe
        # more than the cold one.
        assert any(failed > 0 for *_, failed, _saved in rows)
        assert all(wp <= cp for _, _, wp, cp, _, _ in rows)
        return rows

    rows = benchmark.pedantic(sweep_all, rounds=1, iterations=1)
    table = ascii_table(
        ["graph", "min total buffer", "warm probes", "cold probes",
         "failed warm probes (floor-narrowed)", "est. steps narrowed"],
        [list(row) for row in rows],
        title="EXT3c — symbolic-bound warm start of the buffer search "
              "(capacities identical to the cold search; measured "
              "saving = cold - warm probes)",
    )
    write_csv(
        RESULTS_DIR / "ext3_warm_buffers.csv",
        ["graph", "min_total_buffer", "warm_probes", "cold_probes",
         "warm_failed", "est_steps_narrowed"],
        rows,
    )
    report("ext3_warm_buffers", table)
