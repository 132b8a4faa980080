"""EXT10 — the simulator's schedule-plane / value-plane split.

The TPDF ``Simulator``'s arrays core runs on two planes: a **schedule
plane** that runs all scheduling mechanics (mode-gated port sets,
priority choice, discard debts, clocks, core budgets, capacities) on
flat slot-indexed counters over the memoized struct-of-arrays template
of ``repro.csdf.statearrays``, and a lazy **value plane** that
materializes token payloads only on channels with a value-touching
endpoint.  One drain loop picks the path per node: *counter kernels*
(no control port, function, time function or mode-rate table) start
and complete inline on the counters, and only the other nodes go
through the TPDF firing-rule methods.

This bench measures both ready cores (``reference`` full-rescan
oracle, ``arrays`` plane split) on three workloads:

* the **OFDM demodulator** (the paper's Fig. 7 graph): a control
  actor steers the select-duplicate and the transaction, so the value
  plane carries the data channels around them (9 of 11 channels) and
  the counter kernels drain and fill those payloads in slices;
* an **80-actor random graph with one control actor** steering one
  sink: every other kernel is a counter kernel;
* an **80-actor timing-only sweep** (no control, no functions): every
  node is a counter kernel (the reference loop trails by about two
  orders of magnitude there; recorded, not asserted — a floor against
  the oracle would say nothing about the fast core).

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
    # The channels around the select-duplicate and the transaction carry
    # payloads; the source and cyclic-prefix channels stay counters-only.
    stats = cells["arrays"][2]
    assert stats["plane"] == "arrays"
    assert stats["fast_path"] is False
    assert stats["value_channels"] == 9
    assert stats["schedule_only_channels"] == 2
    assert stats["counter_nodes"] == 6  # SRC RCP FFT QPSK QAM SNK
    return {core: cells[core][0] for core in CORES}, stats


def _sweep_rows(record_bench, with_control):
    graph = random_consistent_graph(
        SWEEP_ACTORS, extra_edges=SWEEP_ACTORS // 2, n_cycles=2, seed=7,
        with_control=with_control,
    )
    limits = {name: SWEEP_FIRINGS for name in graph.kernels}
    tag = "control" if with_control else "sweep"
    cells = {}
    for core in CORES:
        rounds = 2 if core == "reference" else TIMING_ROUNDS
        cells[core] = _time_core(
            lambda core=core: Simulator(graph, ready_core=core),
            limits, rounds=rounds,
        )
        record_bench(
            f"ext10_{tag}_n{SWEEP_ACTORS}_{core}",
            actors=SWEEP_ACTORS, backend=core, wall_ms=cells[core][0],
            ready_visits=cells[core][2]["visits"],
        )
    prints = {core: cells[core][1] for core in CORES}
    assert prints["arrays"] == prints["reference"], (
        f"{SWEEP_ACTORS}-actor {tag} trace divergence across ready cores"
    )
    stats = cells["arrays"][2]
    # every random kernel is a counter kernel; the control actor and
    # the sink it steers are not
    assert stats["counter_nodes"] == SWEEP_ACTORS
    assert stats["fast_path"] is not with_control
    assert stats["value_channels"] == (1 if with_control else 0)
    return {core: cells[core][0] for core in CORES}, stats


def test_ext10_simulator_planes(report, record_bench):
    ofdm, ofdm_stats = _ofdm_rows(record_bench)
    control, control_stats = _sweep_rows(record_bench, with_control=True)
    sweep, sweep_stats = _sweep_rows(record_bench, with_control=False)

    table_rows = []
    csv_rows = []
    for label, walls, stats, nodes in (
        ("OFDM fig7 (control + modes)", ofdm, ofdm_stats, 9),
        (f"{SWEEP_ACTORS}-actor + 1 control actor", control, control_stats,
         SWEEP_ACTORS + 2),
        (f"{SWEEP_ACTORS}-actor timing-only", sweep, sweep_stats,
         SWEEP_ACTORS),
    ):
        split = (f"{stats['value_channels']}v/"
                 f"{stats['schedule_only_channels']}s")
        table_rows.append([
            label,
            f"{stats['counter_nodes']}/{nodes}",
            split,
            f"{walls['reference']:.2f}",
            f"{walls['arrays']:.2f}",
            f"{walls['reference'] / walls['arrays']:.2f}x",
        ])
        csv_rows.append([
            label, stats["counter_nodes"], nodes,
            stats["value_channels"], stats["schedule_only_channels"],
            f"{walls['reference']:.3f}", f"{walls['arrays']:.3f}",
            f"{walls['reference'] / walls['arrays']:.3f}",
        ])

    table = ascii_table(
        ["workload", "counter nodes", "channels (value/schedule-only)",
         "reference ms", "arrays ms", "vs reference"],
        table_rows,
        title="EXT10 — simulator schedule/value planes "
              "(trace fingerprints asserted identical on every row)",
    )
    report("ext10_simulator", table)
    write_csv(
        RESULTS_DIR / "ext10_simulator.csv",
        ["workload", "counter_nodes", "nodes", "value_channels",
         "schedule_only_channels", "wall_ms_reference", "wall_ms_arrays",
         "speedup_vs_reference"],
        csv_rows,
    )
