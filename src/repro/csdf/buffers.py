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

The greedy schedule runs on a wake-up heap.  The fill after firing
``a`` is the current total plus ``a``'s net token change, which
depends only on ``a``'s phase, so the heap keyed ``(net change, sink
distance, name)`` picks the same firing as comparing every candidate's
resulting total.  Under the CSDF firing rule only an actor's own firing
can disable it, so after ``b`` fires only ``b`` and the consumers of
its output channels need re-checking; each actor waits in the heap at
most once, under a key that cannot change while it waits.  A step
costs O(degree + log n) instead of a token-state copy per fireable
actor.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Mapping

from ..cache import bindings_key, cached, register_binding_insensitive
from ..errors import DeadlockError
from .analysis import concrete_repetition_vector
from .digraph import adjacency, tarjan_components
from .graph import CSDFGraph
from .mcr import _CapacityEventGraph
from .schedule import SequentialSchedule
from .simulation import TokenState, rate_table
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
    state = TokenState(graph, bindings)
    consumers = rate_table(graph, bindings).consumers
    remaining = dict(targets)
    outstanding = sum(left for left in remaining.values() if left > 0)
    firings: list[str] = []
    depth = _sink_distance(graph)
    heap: list[tuple[int, int, str]] = []
    waiting: set[str] = set()

    def offer(actor: str) -> None:
        if actor not in waiting and remaining.get(actor, 0) > 0 and state.can_fire(actor):
            waiting.add(actor)
            heappush(heap, (state.net_change(actor), depth.get(actor, 0), actor))

    for actor in remaining:
        offer(actor)
    while outstanding:
        if not heap:
            blocked = [a for a, left in remaining.items() if left > 0]
            raise DeadlockError(
                f"buffer-minimizing schedule stalled; blocked actors: {blocked}",
                blocked=blocked,
                partial_schedule=firings,
            )
        best = heappop(heap)[2]
        waiting.discard(best)
        state.fire(best)
        remaining[best] -= 1
        outstanding -= 1
        firings.append(best)
        offer(best)
        for consumer in consumers[best]:
            offer(consumer)
    return SequentialSchedule(firings), dict(state.peak)


def _sink_distance(graph: CSDFGraph) -> dict[str, int]:
    """Longest forward distance to a sink, ignoring cycles.

    Sinks (and strongly connected components without successors) get
    0, their producers 1, and so on.  The greedy scheduler sorts this
    ascending after the fill, so on a tie it fires the actor closest to
    a sink and drains tokens towards consumers instead of piling them
    up at producers.
    """
    actors = list(graph.actors)
    adj = adjacency(actors, ((c.src, c.dst) for c in graph.channels.values()))
    comp = tarjan_components(len(actors), adj)
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
