"""EXT6 — cost of the discrete-event ready check, fast core vs rescan.

PR 1 flattened the firing tables; the remaining per-event cost was the
O(actors) ready rescan after every completion.  This bench measures
what the dependency-driven ready check of the ``arrays`` cores buys on
the scalability sweep's generated graphs: ready-check actor visits,
wall-clock, and per-event cost for the timed CSDF executor
(``self_timed_execution`` vs the retained ``*_reference`` oracle) and
the TPDF simulator (``ready_core="arrays"`` vs ``"reference"``).

Results parity is asserted on every row (the differential contract),
and the arrays core must visit at least 2x fewer actors than the
rescan on every size — the committed
``benchmarks/results/ext6_eventloop.{txt,csv}`` record the measured
ratios.  Wall-clock itself is recorded, not asserted (shared CI
runners make small-ratio timing assertions flaky).
"""

import time
from pathlib import Path

from repro.csdf import self_timed_execution, self_timed_execution_reference
from repro.sim import Simulator
from repro.tpdf import random_consistent_graph
from repro.util import ascii_table, write_csv

SIZES = (10, 20, 40, 80)
ITERATIONS = 6
SOURCE_FIRINGS = 6

RESULTS_DIR = Path(__file__).parent / "results"


def _timed_rows():
    rows = []
    for n_actors in SIZES:
        graph = random_consistent_graph(
            n_actors, extra_edges=n_actors // 2, n_cycles=2, seed=7,
            with_control=False,
        ).as_csdf()
        self_timed_execution(graph, iterations=1)  # warm analysis caches
        cells = {}
        for label, executor in (("arrays", self_timed_execution),
                                ("rescan", self_timed_execution_reference)):
            stats = {}
            start = time.perf_counter()
            result = executor(graph, iterations=ITERATIONS, stats=stats)
            elapsed = time.perf_counter() - start
            cells[label] = (result, stats, elapsed)
        new, ref = cells["arrays"], cells["rescan"]
        assert new[0] == ref[0], f"executor divergence at {n_actors} actors"
        assert new[1]["events"] == ref[1]["events"]
        assert new[1]["ready_visits"] * 2 <= ref[1]["ready_visits"], (
            f"{n_actors} actors: arrays visits {new[1]['ready_visits']} "
            f"not 2x below rescan {ref[1]['ready_visits']}"
        )
        rows.append({
            "loop": "self_timed_execution",
            "actors": n_actors,
            "events": new[1]["events"],
            "visits_new": new[1]["ready_visits"],
            "visits_ref": ref[1]["ready_visits"],
            "wall_new_ms": new[2] * 1000,
            "wall_ref_ms": ref[2] * 1000,
        })
    return rows


def _simulator_rows():
    rows = []
    # One untimed run first: the arrays core imports its schedule plane
    # lazily, which would otherwise land in the first timed row.
    warm = random_consistent_graph(SIZES[0], seed=7, with_control=False)
    Simulator(warm).run(limits={next(iter(warm.kernels)): 1})
    for n_actors in SIZES:
        cells = {}
        for core in Simulator.READY_CORES:
            graph = random_consistent_graph(
                n_actors, extra_edges=n_actors // 2, n_cycles=2, seed=7,
                with_control=False,
            )
            source = next(iter(graph.kernels))
            sim = Simulator(graph, ready_core=core)
            start = time.perf_counter()
            trace = sim.run(limits={source: SOURCE_FIRINGS},
                            max_firings=1_000_000)
            elapsed = time.perf_counter() - start
            cells[core] = (trace.fingerprint(), sim.ready_stats, elapsed)
        new, ref = cells["arrays"], cells["reference"]
        assert new[0] == ref[0], f"simulator divergence at {n_actors} actors"
        assert new[1]["visits"] * 2 <= ref[1]["visits"]
        rows.append({
            "loop": "Simulator.run",
            "actors": n_actors,
            "events": new[1]["events"],
            "visits_new": new[1]["visits"],
            "visits_ref": ref[1]["visits"],
            "wall_new_ms": new[2] * 1000,
            "wall_ref_ms": ref[2] * 1000,
        })
    return rows


def test_ext6_eventloop_cost(benchmark, report, record_bench):
    benchmark.pedantic(
        self_timed_execution,
        args=(random_consistent_graph(
            40, extra_edges=20, n_cycles=2, seed=7, with_control=False,
        ).as_csdf(),),
        kwargs=dict(iterations=ITERATIONS),
        rounds=1, iterations=1,
    )
    rows = _timed_rows() + _simulator_rows()
    for row in rows:
        loop = ("executor" if row["loop"] == "self_timed_execution"
                else "simulator")
        record_bench(
            f"ext6_{loop}_n{row['actors']}_arrays",
            actors=row["actors"], backend="arrays",
            wall_ms=row["wall_new_ms"], ready_visits=row["visits_new"],
        )
        record_bench(
            f"ext6_{loop}_n{row['actors']}_rescan",
            actors=row["actors"], backend="reference",
            wall_ms=row["wall_ref_ms"], ready_visits=row["visits_ref"],
        )

    table_rows = []
    csv_rows = []
    for row in rows:
        visit_ratio = row["visits_ref"] / row["visits_new"]
        speedup = row["wall_ref_ms"] / row["wall_new_ms"]
        per_event_new = row["wall_new_ms"] * 1000 / row["events"]
        per_event_ref = row["wall_ref_ms"] * 1000 / row["events"]
        table_rows.append([
            row["loop"], row["actors"], row["events"],
            f"{row['visits_new']} / {row['visits_ref']}",
            f"{visit_ratio:.1f}x",
            f"{per_event_new:.1f} / {per_event_ref:.1f}",
            f"{row['wall_new_ms']:.2f} / {row['wall_ref_ms']:.2f}",
            f"{speedup:.2f}x",
        ])
        csv_rows.append([
            row["loop"], row["actors"], row["events"],
            row["visits_new"], row["visits_ref"], f"{visit_ratio:.2f}",
            f"{per_event_new:.3f}", f"{per_event_ref:.3f}",
            f"{row['wall_new_ms']:.3f}", f"{row['wall_ref_ms']:.3f}",
            f"{speedup:.3f}",
        ])

    table = ascii_table(
        ["loop", "actors", "events", "ready visits (arrays/rescan)",
         "visit ratio", "per-event us (arrays/rescan)",
         "wall ms (arrays/rescan)", "speedup"],
        table_rows,
        title="EXT6 — arrays ready check vs full rescan "
              "(identical results asserted on every row)",
    )
    report("ext6_eventloop", table)
    write_csv(
        RESULTS_DIR / "ext6_eventloop.csv",
        ["loop", "actors", "events", "visits_arrays", "visits_rescan",
         "visit_ratio", "per_event_us_arrays", "per_event_us_rescan",
         "wall_ms_arrays", "wall_ms_rescan", "speedup"],
        csv_rows,
    )
