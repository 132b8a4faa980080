"""Buffer sizing for CSDF graphs.

Computes per-channel buffer capacities, the quantity compared in Fig. 8
of the paper (minimum buffer size of the OFDM demodulator under TPDF
vs. CSDF).  Exact minimal buffer sizing is NP-hard, so like the
reference tools we report the peak fill levels of concrete executions:

* :func:`schedule_buffer_sizes` — peaks of a given schedule;
* :func:`minimal_buffer_schedule` — a greedy demand-driven heuristic
  that picks, among fireable actors, the firing that minimizes the
  resulting total fill (deterministic tie-breaking), which in practice
  finds the single-processor minimum for stream pipelines;
* :func:`bounded_feasible` — exact validity check of a candidate
  capacity vector under blocking writes: no deadlock in the event
  graph bounded by the capacities (used by tests to confirm reported
  sizes are actually sufficient, and that one token less deadlocks
  when the heuristic is tight).

The greedy schedule runs on a wake-up heap, over the flat token-loop
tables of :mod:`repro.csdf.schedule` (integer lists of fill levels,
peaks and phase counters, stepped through each actor's ``(slot,
phases)`` pairs).  The fill after firing ``a`` is the current total
plus ``a``'s net token change, which depends only on ``a``'s phase, so
the heap keyed ``(net change, sink distance, rank)`` — ``rank`` the
actor's position among the names sorted — picks the same firing as
comparing every candidate's resulting total.  Under the CSDF firing
rule only an actor's own firing can disable it, so after ``b`` fires
only ``b`` and the consumers of its output channels need re-checking;
each actor waits in the heap at most once, under a key that cannot
change while it waits.  A step costs O(degree + log n) instead of a
token-state copy per fireable actor.  The sink distances come from
the actor graph's component labels, computed once per structure
version (:func:`~repro.csdf.schedule.actor_graph`).

Examples
--------
Fig. 1's buffer-minimizing iteration interleaves the actors and needs
six tokens of memory, against eight for the grouped PASS:

>>> from repro.gallery import fig1_graph
>>> from repro.csdf.schedule import find_sequential_schedule
>>> fig1 = fig1_graph()
>>> schedule, peaks = minimal_buffer_schedule(fig1)
>>> str(schedule), peaks
('a3 (a1)^2 a2 a3 a1 a2', {'e1': 1, 'e2': 3, 'e3': 2})
>>> total_buffer_size(peaks)
6
>>> total_buffer_size(schedule_buffer_sizes(fig1, find_sequential_schedule(fig1)))
8
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Mapping

from ..cache import bindings_key, cached, register_binding_insensitive
from ..errors import DeadlockError
from .analysis import concrete_repetition_vector
from .graph import CSDFGraph
from .mcr import _CapacityEventGraph
from .schedule import SequentialSchedule, _loop_tables, actor_graph, channel_rows
from .simulation import TokenState
from .throughput import _check_capacity_contract

# The greedy buffer heuristic only counts tokens — execution times
# never enter it — so its result survives binding-only version bumps.
register_binding_insensitive("min_buffer_schedule")


def schedule_buffer_sizes(
    graph: CSDFGraph,
    schedule: Iterable[str],
    bindings: Mapping | None = None,
) -> dict[str, int]:
    """Peak fill level per channel while replaying ``schedule``."""
    state = TokenState(graph, bindings)
    state.run(list(schedule))
    return dict(state.peak)


def minimal_buffer_schedule(
    graph: CSDFGraph,
    bindings: Mapping | None = None,
) -> tuple[SequentialSchedule, dict[str, int]]:
    """Greedy single-processor schedule minimizing buffer peaks.

    At each step, among actors with remaining firings whose firing rule
    holds, fire the one whose firing yields the smallest total fill
    level.  The full key is ``(net token change, sink distance,
    name)``: ties on the fill go to the actor with the smallest
    :func:`_sink_distance` (closest to a sink, draining tokens towards
    consumers), then to the smallest name.  Returns the schedule and
    its per-channel peaks.

    The result is memoized per graph version and, being untimed,
    carried across binding-only bumps; the peaks dict is copied per
    call so callers may mutate it freely.
    """
    schedule, peaks = cached(
        graph, ("min_buffer_schedule", bindings_key(bindings)),
        lambda: _minimal_buffer_schedule(graph, bindings),
    )
    return schedule, dict(peaks)


def _minimal_buffer_schedule(
    graph: CSDFGraph,
    bindings: Mapping | None,
) -> tuple[SequentialSchedule, dict[str, int]]:
    targets = concrete_repetition_vector(graph, bindings)
    actors, position, tokens0, ins, outs, consumers = _loop_tables(
        graph.actor_names(), channel_rows(graph, bindings))
    n = len(actors)
    tokens = list(tokens0)
    peaks = list(tokens0)
    fired = [0] * n
    remaining = [targets[actor] for actor in actors]
    outstanding = sum(left for left in targets.values() if left > 0)
    firings: list[str] = []
    depth = _sink_distance(graph)
    by_rank = sorted(range(n), key=actors.__getitem__)
    # Every actor's constant key tail: its sink distance and its rank,
    # which orders as its name does.
    tail = [(0, 0)] * n
    for rank, pos in enumerate(by_rank):
        tail[pos] = (depth[actors[pos]], rank)
    heap: list[tuple[int, int, int]] = []
    waiting = bytearray(n)
    # Offer every actor first, then after each firing the fired actor
    # and its consumers: each enters the heap when it has firings left
    # and its firing rule holds.
    offers: Iterable[int] = range(n)
    while True:
        for pos in offers:
            if waiting[pos] or remaining[pos] <= 0:
                continue
            k = fired[pos]
            change = 0
            for slot, phases in ins[pos]:
                need = phases[k % len(phases)]
                if tokens[slot] < need:
                    break
                change -= need
            else:
                for slot, phases in outs[pos]:
                    change += phases[k % len(phases)]
                waiting[pos] = 1
                heappush(heap, (change, *tail[pos]))
        if not outstanding:
            break
        if not heap:
            blocked = [actor for actor in targets if remaining[position[actor]] > 0]
            raise DeadlockError(
                f"buffer-minimizing schedule stalled; blocked actors: {blocked}",
                blocked=blocked,
                partial_schedule=firings,
            )
        best = by_rank[heappop(heap)[2]]
        waiting[best] = 0
        k = fired[best]
        for slot, phases in ins[best]:
            tokens[slot] -= phases[k % len(phases)]
        for slot, phases in outs[best]:
            level = tokens[slot] + phases[k % len(phases)]
            tokens[slot] = level
            if level > peaks[slot]:
                peaks[slot] = level
        fired[best] = k + 1
        remaining[best] -= 1
        outstanding -= 1
        firings.append(actors[best])
        offers = (best, *consumers[best])
    return SequentialSchedule(firings), dict(zip(graph.channels, peaks))


def _sink_distance(graph: CSDFGraph) -> dict[str, int]:
    """Longest forward distance to a sink, ignoring cycles.

    Sinks (and strongly connected components without successors) get
    0, their producers 1, and so on.  The greedy scheduler sorts this
    ascending after the fill, so on a tie it fires the actor closest to
    a sink and drains tokens towards consumers instead of piling them
    up at producers.  Read off the memoized
    :func:`~repro.csdf.schedule.actor_graph`: no second Tarjan pass.
    """
    actors, adj, comp = actor_graph(graph)
    # Component ids count up in reverse topological order, so visiting
    # actors by id settles every successor component first.
    scc_depth = [0] * len(actors)
    for u in sorted(range(len(actors)), key=comp.__getitem__):
        for v in adj[u]:
            if comp[v] != comp[u]:
                scc_depth[comp[u]] = max(scc_depth[comp[u]],
                                         scc_depth[comp[v]] + 1)
    return {actor: scc_depth[comp[u]] for u, actor in enumerate(actors)}


def total_buffer_size(peaks: Mapping[str, int]) -> int:
    """Total memory: sum of per-channel capacities (the y-axis of Fig. 8)."""
    return sum(peaks.values())


def bounded_feasible(
    graph: CSDFGraph,
    capacities: Mapping[str, int],
    bindings: Mapping | None = None,
) -> bool:
    """Can iterations complete forever with blocking writes under
    ``capacities``?  (One completed iteration restores the initial
    marking, so this is whether one can.)

    False exactly when the event graph bounded by the capacities
    deadlocks (:meth:`~repro.csdf.mcr._CapacityEventGraph.period`
    raises :class:`~repro.errors.DeadlockError`): a graph that
    deadlocks without capacities, and a capacity below a channel's
    initial tokens, which the executors refuse up front, included.
    Capacity names must name channels of the graph and values must be
    integers (``ValueError`` otherwise, as at every capacity-accepting
    entry point); a channel without an entry is unbounded.
    """
    try:
        _check_capacity_contract(graph, capacities, list(graph.actors))
        _CapacityEventGraph(graph, bindings).period(capacities)
    except DeadlockError:
        return False
    return True
