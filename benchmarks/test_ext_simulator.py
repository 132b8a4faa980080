"""EXT10 — the simulator's schedule-plane / value-plane split.

PR 9 rebuilt the TPDF ``Simulator`` around two planes: a **schedule
plane** that runs all scheduling mechanics (mode-gated port sets,
priority choice, discard debts, clocks, core budgets, capacities) on
flat slot-indexed counters over the memoized struct-of-arrays template
of ``repro.csdf.statearrays``, and a lazy **value plane** that
materializes token payloads only on channels with a value-touching
endpoint.  A graph with no value consumer at all degenerates to the
counters-only fast path — the CSDF arrays kernel with TPDF bookkeeping
compiled away.

This bench measures both ready cores (``reference`` full-rescan
oracle, ``arrays`` plane split) on two workloads:

* the **OFDM demodulator** (the paper's Fig. 7 graph): a control
  actor steers mode-gated kernels, so the value plane engages on the
  control paths while the data channels stay counters-only;
* an **80-actor timing-only sweep** (no control, no functions): the
  whole-graph fast path (the reference loop trails by ~80x there;
  recorded, not asserted — a floor against the oracle would say
  nothing about the fast core).

Trace-fingerprint parity is asserted across both cores on every row;
rows are recorded to ``ext10_simulator.{txt,csv}`` and folded
into the machine-readable ``BENCH_eventloop.json``.
"""

import time
from pathlib import Path

from repro.apps.ofdm import bindings_for, build_ofdm_tpdf
from repro.sim import Simulator
from repro.tpdf import random_consistent_graph
from repro.tpdf.modes import ControlToken, Mode
from repro.util import ascii_table, write_csv

CORES = ("reference", "arrays")
SWEEP_ACTORS = 80
SWEEP_FIRINGS = 40
TIMING_ROUNDS = 5

RESULTS_DIR = Path(__file__).parent / "results"


def _time_core(make_sim, limits, rounds=TIMING_ROUNDS):
    """Best-of-N wall clock of one full simulation; returns
    (wall_ms, fingerprint, stats) of the last run."""
    best = float("inf")
    for _ in range(rounds):
        sim = make_sim()
        start = time.perf_counter()
        trace = sim.run(limits=limits)
        best = min(best, time.perf_counter() - start)
    return best * 1000.0, trace.fingerprint(), sim.stats()


def _ofdm_rows(record_bench):
    graph = build_ofdm_tpdf()
    # Steer the bracketed control region like the real receiver does:
    # m = 4 is the 16-QAM operating point, so the transaction selects
    # the "qam" input and the qpsk path's tokens are consumed-and-
    # discarded every firing (the discard machinery is on the hot
    # path, not idle).
    graph.node("CON").decision = lambda n, inputs: ControlToken(
        Mode.SELECT_ONE, ("qam",)
    )
    bindings = bindings_for(4, 64, 4, 4)
    limits = {"SRC": 8}
    cells = {}
    for core in CORES:
        cells[core] = _time_core(
            lambda core=core: Simulator(graph, bindings=bindings,
                                        ready_core=core),
            limits,
        )
        record_bench(
            f"ext10_ofdm_{core}",
            actors=len(graph.kernels) + len(graph.controls),
            backend=core, wall_ms=cells[core][0],
            ready_visits=cells[core][2]["visits"],
        )
    prints = {core: cells[core][1] for core in CORES}
    assert prints["arrays"] == prints["reference"], (
        "OFDM trace divergence across ready cores"
    )
    # The control channels carry real ControlTokens, the data channels
    # stay counters-only.
    stats = cells["arrays"][2]
    assert stats["plane"] == "arrays"
    assert stats["fast_path"] is False
    assert stats["value_channels"] > 0
    assert stats["schedule_only_channels"] > 0
    return {core: cells[core][0] for core in CORES}, stats


def _sweep_rows(record_bench):
    graph = random_consistent_graph(
        SWEEP_ACTORS, extra_edges=SWEEP_ACTORS // 2, n_cycles=2, seed=7,
        with_control=False,
    )
    limits = {name: SWEEP_FIRINGS for name in graph.kernels}
    cells = {}
    for core in CORES:
        rounds = 2 if core == "reference" else TIMING_ROUNDS
        cells[core] = _time_core(
            lambda core=core: Simulator(graph, ready_core=core),
            limits, rounds=rounds,
        )
        record_bench(
            f"ext10_sweep_n{SWEEP_ACTORS}_{core}",
            actors=SWEEP_ACTORS, backend=core, wall_ms=cells[core][0],
            ready_visits=cells[core][2]["visits"],
        )
    prints = {core: cells[core][1] for core in CORES}
    assert prints["arrays"] == prints["reference"], (
        f"{SWEEP_ACTORS}-actor sweep trace divergence across ready cores"
    )
    stats = cells["arrays"][2]
    assert stats["fast_path"] is True  # no value consumer anywhere
    assert stats["value_channels"] == 0
    return {core: cells[core][0] for core in CORES}, stats


def test_ext10_simulator_planes(report, record_bench):
    ofdm, ofdm_stats = _ofdm_rows(record_bench)
    sweep, sweep_stats = _sweep_rows(record_bench)

    table_rows = []
    csv_rows = []
    for label, walls, stats in (
        ("OFDM fig7 (control + modes)", ofdm, ofdm_stats),
        (f"{SWEEP_ACTORS}-actor timing-only", sweep, sweep_stats),
    ):
        split = (f"{stats['value_channels']}v/"
                 f"{stats['schedule_only_channels']}s")
        table_rows.append([
            label,
            "yes" if stats["fast_path"] else "no",
            split,
            f"{walls['reference']:.2f}",
            f"{walls['arrays']:.2f}",
            f"{walls['reference'] / walls['arrays']:.2f}x",
        ])
        csv_rows.append([
            label, int(stats["fast_path"]),
            stats["value_channels"], stats["schedule_only_channels"],
            f"{walls['reference']:.3f}", f"{walls['arrays']:.3f}",
            f"{walls['reference'] / walls['arrays']:.3f}",
        ])

    table = ascii_table(
        ["workload", "fast path", "channels (value/schedule-only)",
         "reference ms", "arrays ms", "vs reference"],
        table_rows,
        title="EXT10 — simulator schedule/value planes "
              "(trace fingerprints asserted identical on every row)",
    )
    report("ext10_simulator", table)
    write_csv(
        RESULTS_DIR / "ext10_simulator.csv",
        ["workload", "fast_path", "value_channels",
         "schedule_only_channels", "wall_ms_reference", "wall_ms_arrays",
         "speedup_vs_reference"],
        csv_rows,
    )
