"""SDF helpers and the exact CSDF -> HSDF expansion.

Synchronous Dataflow (Lee & Messerschmitt 1987) is the single-phase
special case of CSDF; the paper builds on CSDF precisely because it
generalizes SDF while staying decidable.  This module provides:

* :func:`is_sdf` — does a graph use only single-phase rates?
* :func:`expand_to_hsdf` — the classic exact transformation of a
  (concrete) CSDF graph into *homogeneous* SDF: one actor per firing
  of the repetition vector, token flows routed by interval overlap in
  the steady-state FIFO stream, iteration-crossing flows encoded as
  initial tokens.  Every counting/ordering analysis (consistency,
  liveness, self-timed schedules) is preserved, which makes the
  expansion a powerful independent oracle for the rest of the library.
* :func:`channel_firing_flows` — the flows between individual firings
  of one channel, straight from the repetition counts and the rate
  tables.  The expansion routes its channels by them, and so does the
  event-graph builder of :mod:`repro.csdf.mcr`, which the MCR, the
  parametric engine and the capacity questions share on integer node
  indices instead of building the HSDF graph; :func:`expand_to_hsdf`
  stays the public expansion and that builder's oracle.

Construction (Sriram & Bhattacharyya's standard formulation): for a
channel ``a -> b`` with cumulative production ``X``, cumulative
consumption ``Y``, ``d`` initial tokens and per-iteration total ``T``:
producer firing ``k`` (1-based, iteration 0) emits token indices
``[X(k-1), X(k))``; consumer firing ``m`` of iteration ``delta``
absorbs indices ``[delta*T + Y(m-1) - d, delta*T + Y(m) - d)``.  Each
non-empty intersection of size ``c`` becomes an HSDF edge
``a_k -> b_m`` with rate ``c``/``c`` and ``delta*c`` initial tokens.
"""

from __future__ import annotations

from itertools import accumulate, cycle, islice
from typing import Mapping

from ..cache import bindings_key, cached
from ..errors import GraphConstructionError
from .analysis import concrete_repetition_vector
from .graph import CSDFGraph


def is_sdf(graph: CSDFGraph) -> bool:
    """True when every rate sequence has a single phase."""
    return all(
        len(channel.production) == 1 and len(channel.consumption) == 1
        for channel in graph.channels.values()
    ) and all(graph.tau(name) == 1 for name in graph.actors)


def firing_name(actor: str, firing: int) -> str:
    """Name of the HSDF actor for the k-th firing (1-based)."""
    return f"{actor}#{firing}"


def check_firing_names(graph: CSDFGraph) -> None:
    """Reject actor names containing ``#``, the separator of
    :func:`firing_name`."""
    for name in graph.actors:
        if "#" in name:
            raise GraphConstructionError(
                f"actor {name!r} contains the reserved separator '#'"
            )


def channel_firing_flows(channel, q_src: int, q_dst: int,
                         bindings: Mapping | None = None):
    """Exact token flows of one channel between individual firings.

    Yields ``(k, m, delta, count)``: producer firing ``k`` (1-based)
    hands ``count`` tokens to consumer firing ``m`` of ``delta``
    iterations later — the interval-overlap construction documented in
    the module header, parameterized by the repetition counts so both
    the full HSDF expansion and the event-graph builder of
    :mod:`repro.csdf.mcr` (which passes the *global* counts, for a core
    or the whole graph) share one implementation.  The
    cumulative counts are prefix sums of the channel's integer phases
    under ``bindings``.  Both sides' token intervals advance in yield
    order, so one forward walk finds every overlap, in time linear in
    ``q_src``, ``q_dst`` and the number of flows.
    """
    d = channel.initial_tokens
    produced_cum = _prefix_sums(channel.production.as_ints(bindings), q_src)
    consumed_cum = _prefix_sums(channel.consumption.as_ints(bindings), q_dst)
    total = produced_cum[-1]
    if total != consumed_cum[-1]:
        raise GraphConstructionError(
            f"channel {channel.name!r} moves {produced_cum[-1]} vs "
            f"{consumed_cum[-1]} tokens per iteration: not consistent"
        )
    if total == 0:
        return
    # Consumer firing ``m`` of iteration ``delta`` absorbs tokens
    # ``[base + Y(m-1), base + Y(m))``, ``base = delta * total - d``,
    # from ``delta = d // total`` on; ``lo`` is firing ``k``'s next token.
    delta, m = d // total, 1
    base = delta * total - d
    for k in range(1, q_src + 1):
        lo, p_hi = produced_cum[k - 1], produced_cum[k]
        while lo < p_hi:
            c_hi = base + consumed_cum[m]
            if c_hi > lo:
                count = min(p_hi, c_hi) - lo
                yield k, m, delta, count
                lo += count
            if c_hi <= p_hi:
                if m < q_dst:
                    m += 1
                else:
                    delta, m, base = delta + 1, 1, base + total


def _prefix_sums(phases: tuple[int, ...], firings: int) -> list[int]:
    """``[X(0), X(1), ..., X(firings)]`` of a cyclic integer phase
    sequence."""
    return list(accumulate(islice(cycle(phases), firings), initial=0))


def expand_to_hsdf(graph: CSDFGraph, bindings: Mapping | None = None) -> CSDFGraph:
    """Expand a concrete CSDF graph into homogeneous SDF.

    Every actor ``a`` becomes ``q_a`` single-firing actors chained by a
    serialization ring (one initial token entering ``a#1``), so each
    HSDF actor fires exactly once per graph iteration; channels are
    split per (producer firing, consumer firing, iteration distance)
    with exact token counts.

    The expansion is memoized per graph version and shared between the
    MCR and scheduling analyses — the returned graph is *frozen*:
    ``add_actor``/``add_channel`` on it raise.
    """
    return cached(
        graph, ("hsdf", bindings_key(bindings)),
        lambda: _expand_to_hsdf(graph, bindings),
    )


def _expand_to_hsdf(graph: CSDFGraph, bindings: Mapping | None) -> CSDFGraph:
    check_firing_names(graph)
    q = concrete_repetition_vector(graph, bindings)
    expanded = CSDFGraph(f"{graph.name}/hsdf")

    for name, count in q.items():
        actor = graph.actor(name)
        for k in range(1, count + 1):
            expanded.add_actor(firing_name(name, k), exec_time=actor.exec_time(k - 1))
        if count > 1:
            # Serialize the firings of one actor (no auto-concurrency):
            # a ring a#1 -> a#2 -> ... -> a#q -> a#1 with the token
            # initially ready for a#1.
            for k in range(1, count + 1):
                nxt = k % count + 1
                expanded.add_channel(
                    f"ring_{name}_{k}",
                    firing_name(name, k),
                    firing_name(name, nxt),
                    production=1,
                    consumption=1,
                    initial_tokens=1 if nxt == 1 else 0,
                )

    for channel in graph.channels.values():
        flows = channel_firing_flows(
            channel, q[channel.src], q[channel.dst], bindings
        )
        for k, m, delta, count in flows:
            expanded.add_channel(
                f"{channel.name}_{k}_{m}_d{delta}",
                firing_name(channel.src, k),
                firing_name(channel.dst, m),
                production=count,
                consumption=count,
                initial_tokens=delta * count,
            )
    return expanded.freeze()


def hsdf_is_faithful(graph: CSDFGraph, bindings: Mapping | None = None) -> bool:
    """Oracle check used by tests: the expansion is homogeneous (all
    repetition counts 1), and it is live exactly when the original is.
    """
    from ..errors import DeadlockError
    from .schedule import find_sequential_schedule

    expanded = expand_to_hsdf(graph, bindings)
    q = concrete_repetition_vector(expanded)
    if set(q.values()) != {1}:
        return False

    def lives(g: CSDFGraph, b) -> bool:
        try:
            find_sequential_schedule(g, b, policy="round_robin")
        except DeadlockError:
            return False
        return True

    return lives(graph, bindings) == lives(expanded, None)
