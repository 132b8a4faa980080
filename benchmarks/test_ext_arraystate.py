"""EXT7 — the array-state executor on the probe-heavy workloads.

``self_timed_execution``, an event loop over the array-state template
of ``repro.csdf.statearrays``, removes three costs of the legacy
full-rescan loop ``self_timed_execution_reference``: the per-run state
rebuild (a memoized struct-of-arrays template is cloned per run
instead), the per-event O(actors) ready rescan (incremental constraint
counters make the per-candidate ready check one integer compare, so
ready visits drop to roughly the firing count), and the method calls
of an event-queue wrapper (completion events go straight onto a C
``heapq``).

This bench measures the end-to-end cost of the EXT2-shaped
**throughput sweep** (one execution per core budget {1, 2, 4, 8, 16,
unlimited}) on the scalability generator's graphs at 20/40/80/160
actors.  Every sweep row is asserted bit-identical to the reference
loop at every core budget.

One row times the ``min_buffers_for_full_throughput`` search on the
40-actor graph.  The search runs no executor: each candidate vector
gets one exact verdict on the capacity-bounded event graph.  Its
oracle is the reference loop: the returned capacities must sustain
the unconstrained MCR over the last 256 of 1,024 iterations.  The
search must come in at least 3x faster than the frozen row of record
of the sequential-probe search, whose every probe was an executor run.

Two wide fan-out rows (one source feeding 500 or 2,000 two-actor
chains: 1,001 and 4,001 actors, most of them in flight at once) time
the event heap at the sizes where it holds the most completions.  The
1,001-actor run is asserted equal to the reference loop; their times
are recorded, not gated.  Rows are recorded to
``ext7_arraystate.{txt,csv}`` and (through the conftest) the
machine-readable ``BENCH_eventloop.json``.
"""

import json
import time
from pathlib import Path

from repro.csdf import (
    CSDFGraph,
    min_buffers_for_full_throughput,
    self_timed_execution,
    self_timed_execution_reference,
)
from repro.tpdf import random_consistent_graph
from repro.util import ascii_table, write_csv

SIZES = (20, 40, 80, 160)
CORE_BUDGETS = (1, 2, 4, 8, 16, None)
ITERATIONS = 4
TIMING_ROUNDS = 7
#: The buffer search must beat the frozen sequential-probe search row
#: of record by this factor.  Asserted, not merely recorded: best-of-N
#: timing of a tens-of-ms region damps runner noise.
SEARCH_SPEEDUP = 3.0
SEARCH_ACTORS = 40
#: The search result's oracle run: iterations, and the trailing window
#: whose mean period must be the unconstrained MCR.
ORACLE_ITERATIONS = 1024
ORACLE_WINDOW = 256
#: Wide fan-out rows: two-actor chains per row, and the one row whose
#: result is checked against the reference loop (~3 s there).
FANOUT_CHAINS = (500, 2000)
FANOUT_CHECKED_CHAINS = 500
FANOUT_ITERATIONS = 8

RESULTS_DIR = Path(__file__).parent / "results"


def _pr5_search_baseline(n_actors):
    """Wall-clock of PR 5's sequential-probe buffer search, read from
    the committed ``BENCH_eventloop.json``.

    The live ``..._arrays`` row is refreshed every run and now
    benefits from floor-kill/memoization, so the first run after the
    batched kernel landed copies the old value under a dedicated
    ``..._pr5_sequential`` key that later refreshes never touch.
    Returns ``None`` (assert skipped) when no committed row exists.
    """
    try:
        rows = json.loads((RESULTS_DIR / "BENCH_eventloop.json").read_text())
    except (OSError, ValueError):
        return None
    row = rows.get(f"ext7_buffer_search_n{n_actors}_pr5_sequential") \
        or rows.get(f"ext7_buffer_search_n{n_actors}_arrays")
    if not row or "wall_ms" not in row:
        return None
    return float(row["wall_ms"]), int(row.get("ready_visits", 0))


def _sweep_graph(n_actors):
    return random_consistent_graph(
        n_actors, extra_edges=n_actors // 2, n_cycles=2, seed=7,
        with_control=False,
    ).as_csdf()


def _run_sweep(graph, execute):
    """One throughput sweep; returns (results per budget, visit total)."""
    results = {}
    visits = 0
    for cores in CORE_BUDGETS:
        stats = {}
        results[cores] = execute(
            graph, iterations=ITERATIONS, cores=cores, stats=stats,
        )
        visits += stats["ready_visits"]
    return results, visits


def _sweep_rows(record_bench):
    rows = []
    for n_actors in SIZES:
        graph = _sweep_graph(n_actors)
        # Warm the shared analysis caches (repetition vector etc.) with
        # an untimed oracle run; the arrays template is part of what
        # the executor is *for*, so its first build is inside the
        # measured region.
        reference, _ = _run_sweep(graph, self_timed_execution_reference)
        best = float("inf")
        for _ in range(TIMING_ROUNDS):
            start = time.perf_counter()
            results, visits = _run_sweep(graph, self_timed_execution)
            best = min(best, time.perf_counter() - start)
        for cores in CORE_BUDGETS:
            assert results[cores] == reference[cores], (
                f"core divergence at {n_actors} actors, cores={cores}"
            )
        record_bench(
            f"ext7_sweep_n{n_actors}_arrays",
            actors=n_actors, backend="arrays", wall_ms=best * 1000.0,
            ready_visits=visits,
        )
        rows.append({"actors": n_actors, "visits": visits,
                     "wall_ms": best * 1000.0})
    return rows


def _fanout_graph(chains):
    """One source feeding ``chains`` two-actor chains, exec times 1-9."""
    g = CSDFGraph(f"fanout{chains}")
    g.add_actor("src", exec_time=1)
    for i in range(chains):
        g.add_actor(f"h{i}", exec_time=1 + i % 9)
        g.add_actor(f"t{i}", exec_time=1 + (4 * i + 3) % 9)
        g.add_channel(f"s{i}", "src", f"h{i}")
        g.add_channel(f"c{i}", f"h{i}", f"t{i}")
    return g


def _fanout_rows(record_bench):
    rows = []
    for chains in FANOUT_CHAINS:
        graph = _fanout_graph(chains)
        n_actors = len(graph.actors)
        best = float("inf")
        for _ in range(TIMING_ROUNDS):
            stats = {}
            start = time.perf_counter()
            result = self_timed_execution(
                graph, iterations=FANOUT_ITERATIONS, stats=stats)
            best = min(best, time.perf_counter() - start)
        if chains == FANOUT_CHECKED_CHAINS:
            assert result == self_timed_execution_reference(
                graph, iterations=FANOUT_ITERATIONS
            ), f"core divergence on the {n_actors}-actor fan-out"
        record_bench(
            f"ext7_fanout_n{n_actors}_arrays",
            actors=n_actors, backend="arrays", wall_ms=best * 1000.0,
            ready_visits=stats["ready_visits"],
        )
        rows.append({"actors": n_actors, "visits": stats["ready_visits"],
                     "wall_ms": best * 1000.0})
    return rows


def _buffer_search_row(record_bench, n_actors=SEARCH_ACTORS):
    """The buffer search, timed best of ``TIMING_ROUNDS``; its result
    must sustain the MCR over a long run of the reference loop."""
    graph = _sweep_graph(n_actors)
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        stats = {}
        start = time.perf_counter()
        caps = min_buffers_for_full_throughput(graph, stats=stats)
        best = min(best, time.perf_counter() - start)
    ends = self_timed_execution_reference(
        graph, iterations=ORACLE_ITERATIONS, capacities=caps).iteration_ends
    period = (ends[-1] - ends[-1 - ORACLE_WINDOW]) / ORACLE_WINDOW
    assert period == stats["target"], (
        f"buffer search result runs at period {period}, "
        f"not the MCR {stats['target']}"
    )
    wall_ms = best * 1000.0
    record_bench(
        f"ext7_buffer_search_n{n_actors}_arrays",
        actors=n_actors, backend="arrays", wall_ms=wall_ms,
        ready_visits=stats["probes"],
    )
    row = {"actors": n_actors, "wall_ms": wall_ms, "probes": stats["probes"],
           "frozen_ms": None}
    baseline = _pr5_search_baseline(n_actors)
    if baseline is not None:
        frozen_ms, frozen_probes = baseline
        # Re-record the frozen row so the refreshed arrays row (the
        # current search) never becomes the bar.
        record_bench(
            f"ext7_buffer_search_n{n_actors}_pr5_sequential",
            actors=n_actors, backend="arrays", wall_ms=frozen_ms,
            ready_visits=frozen_probes,
        )
        row["frozen_ms"] = frozen_ms
        row["frozen_probes"] = frozen_probes
    return row


def test_ext7_arraystate_cost(benchmark, report, record_bench):
    benchmark.pedantic(
        self_timed_execution,
        args=(_sweep_graph(40),),
        kwargs=dict(iterations=ITERATIONS),
        rounds=1, iterations=1,
    )
    sweep = _sweep_rows(record_bench)
    fanout = _fanout_rows(record_bench)
    search = _buffer_search_row(record_bench)

    table_rows = []
    csv_rows = []
    for workload, rows in (("throughput sweep", sweep),
                           ("wide fan-out", fanout)):
        for row in rows:
            table_rows.append([
                workload, row["actors"], f"{row['visits']} visits",
                f"{row['wall_ms']:.2f}", "-", "-",
            ])
            csv_rows.append([
                workload, row["actors"], row["visits"],
                f"{row['wall_ms']:.3f}", "", "",
            ])
    frozen_ms = search["frozen_ms"]
    ratio = frozen_ms / search["wall_ms"] if frozen_ms is not None else None
    table_rows.append([
        "buffer search", search["actors"], f"{search['probes']} verdicts",
        f"{search['wall_ms']:.2f}",
        "-" if frozen_ms is None else
        f"{frozen_ms:.2f} ({search['frozen_probes']} probes)",
        "-" if ratio is None else f"{ratio:.2f}x",
    ])
    csv_rows.append([
        "buffer search", search["actors"], search["probes"],
        f"{search['wall_ms']:.3f}",
        "" if frozen_ms is None else f"{frozen_ms:.3f}",
        "" if ratio is None else f"{ratio:.3f}",
    ])

    table = ascii_table(
        ["workload", "actors", "ready visits / verdicts", "wall ms (arrays)",
         "frozen search ms", "vs frozen"],
        table_rows,
        title="EXT7 — array-state executor (results asserted identical to "
              "the reference loop on every row; the buffer search result "
              f"sustains the MCR over {ORACLE_ITERATIONS} reference-loop "
              f"iterations, >= {SEARCH_SPEEDUP}x the frozen search row "
              "asserted)",
    )
    report("ext7_arraystate", table)
    write_csv(
        RESULTS_DIR / "ext7_arraystate.csv",
        ["workload", "actors", "visits_or_probes", "wall_ms_arrays",
         "wall_ms_frozen", "speedup_vs_frozen"],
        csv_rows,
    )
    if ratio is not None:
        assert ratio >= SEARCH_SPEEDUP, (
            f"buffer search {search['wall_ms']:.2f}ms vs the frozen "
            f"sequential search {frozen_ms:.2f}ms = {ratio:.2f}x, below "
            f"the {SEARCH_SPEEDUP}x bar"
        )
