"""EXT3 — buffer-size / throughput trade-off under blocking writes.

Fig. 8 reports *minimum* buffers for one iteration; a deployment also
needs to know what those minimal buffers cost in throughput when
iterations pipeline.  This bench scales the minimal capacities of the
Fig. 2 graph and the OFDM demodulator and reports the exact
steady-state iteration period with back-pressure, the MCR of the event
graph bounded by the capacities (no executor runs): tighter buffers
serialize the pipeline, larger budgets saturate at the bottleneck
actor.  It also
records the smallest capacities that keep the unconstrained MCR
(``min_buffers_for_full_throughput``) and checks each against a long
executor run.
"""

import time
from pathlib import Path

from repro.apps.ofdm import bindings_for, build_ofdm_tpdf
from repro.csdf import (
    buffer_throughput_tradeoff,
    max_cycle_ratio,
    min_buffers_for_full_throughput,
    self_timed_execution,
)
from repro.tpdf import fig2_graph
from repro.util import ascii_table, write_csv

SCALES = (1.0, 1.5, 2.0, 4.0)
SEARCH_ROUNDS = 3
RESULTS_DIR = Path(__file__).parent / "results"


def sweep():
    fig2 = fig2_graph().as_csdf()
    ofdm = build_ofdm_tpdf().as_csdf()
    return (
        buffer_throughput_tradeoff(fig2, {"p": 4}, scales=SCALES),
        buffer_throughput_tradeoff(ofdm, bindings_for(2, 32, 4, 4), scales=SCALES),
    )


def test_ext3_buffer_throughput_tradeoff(benchmark, report):
    fig2_points, ofdm_points = benchmark(sweep)
    assert [period for _, period in fig2_points] == [8.0] * len(SCALES)
    assert [period for _, period in ofdm_points] == [2.5, 2.5, 1.25, 1.0]
    rows = [
        [name, f"{scale:.1f}x", budget, f"{period:.2f}"]
        for name, points in (("Fig. 2 (p=4)", fig2_points),
                             ("OFDM (beta=2, N=32)", ofdm_points))
        for scale, (budget, period) in zip(SCALES, points)
    ]
    table = ascii_table(
        ["graph", "capacity scale", "total buffer", "steady period"],
        rows,
        title="EXT3 — buffer budget vs steady-state throughput "
              "(blocking writes; 1.0x = minimal single-proc buffers; "
              "exact period of the capacity-bounded event graph)",
    )
    report("ext3_tradeoff", table)


#: The long run a search result is checked over: the mean period of
#: its last ``LONG_WINDOW`` iterations must be the unconstrained MCR.
LONG_ITERATIONS = 1024
LONG_WINDOW = 256


def _long_run_period(graph, bindings, capacities):
    ends = self_timed_execution(graph, bindings, iterations=LONG_ITERATIONS,
                                capacities=capacities).iteration_ends
    return (ends[-1] - ends[-1 - LONG_WINDOW]) / LONG_WINDOW


def test_ext3_min_buffers_for_full_throughput(benchmark, report):
    """DSE point: the smallest capacities that still sustain the
    unconstrained MCR, checked over a long run."""
    graph = fig2_graph().as_csdf()
    bindings = {"p": 4}

    caps = benchmark.pedantic(
        min_buffers_for_full_throughput, args=(graph, bindings),
        rounds=1, iterations=1,
    )
    mcr = max_cycle_ratio(graph, bindings)
    assert _long_run_period(graph, bindings, caps) == mcr
    unconstrained = self_timed_execution(graph, bindings, iterations=5)

    rows = [
        [name, unconstrained.peaks[name], caps[name]]
        for name in sorted(caps)
    ]
    rows.append(["TOTAL", sum(unconstrained.peaks.values()), sum(caps.values())])
    table = ascii_table(
        ["channel", "unconstrained peak (5 iterations)",
         "min capacity @ full throughput"],
        rows,
        title=f"EXT3b — Fig. 2 (p=4) buffer DSE; MCR {mcr:.2f} sustained "
              f"over the last {LONG_WINDOW} of {LONG_ITERATIONS} iterations",
    )
    report("ext3_min_buffers", table)


def test_ext3_buffer_search(benchmark, report):
    """EXT3c — the buffer search on the EXT3 graphs: the total of the
    returned capacities, the verdicts it decided and its time (best of
    ``SEARCH_ROUNDS`` on one graph object, so the repetition vector and
    the MCR come from the cache).  Every result sustains the MCR over
    a long run."""
    from repro.csdf import CSDFGraph

    imbalanced = CSDFGraph("imbalanced")
    imbalanced.add_actor("src", exec_time=1)
    imbalanced.add_actor("mid", exec_time=2)
    imbalanced.add_actor("snk", exec_time=16)
    imbalanced.add_channel("a", "src", "mid", production=8, consumption=8)
    imbalanced.add_channel("b", "mid", "snk", production=8, consumption=8)

    cases = [
        ("Fig. 2 (p=4)", fig2_graph().as_csdf(), {"p": 4}),
        ("OFDM (beta=2, N=16)", build_ofdm_tpdf().as_csdf(),
         bindings_for(2, 16, 4, 4)),
        ("OFDM (beta=2, N=32)", build_ofdm_tpdf().as_csdf(),
         bindings_for(2, 32, 4, 4)),
        ("imbalanced pipeline", imbalanced, None),
    ]

    def sweep_all():
        rows = []
        for name, graph, bindings in cases:
            best = float("inf")
            for _ in range(SEARCH_ROUNDS):
                stats = {}
                start = time.perf_counter()
                caps = min_buffers_for_full_throughput(graph, bindings,
                                                       stats=stats)
                best = min(best, time.perf_counter() - start)
            assert _long_run_period(graph, bindings, caps) == stats["target"], name
            rows.append((name, sum(caps.values()), stats["probes"],
                         f"{best * 1000.0:.2f}"))
        return rows

    rows = benchmark.pedantic(sweep_all, rounds=1, iterations=1)
    table = ascii_table(
        ["graph", "min total buffer", "verdicts", "ms"],
        [list(row) for row in rows],
        title="EXT3c — buffer search, one exact verdict per candidate "
              f"(each result sustains the MCR over the last {LONG_WINDOW} "
              f"of {LONG_ITERATIONS} iterations)",
    )
    write_csv(
        RESULTS_DIR / "ext3_buffer_search.csv",
        ["graph", "min_total_buffer", "verdicts", "ms"],
        rows,
    )
    report("ext3_buffer_search", table)
