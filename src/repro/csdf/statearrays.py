"""Array-state (struct-of-arrays) template of the timed CSDF executor.

The legacy full-scan loop walks each actor's firing tables in Python
and rebuilds those tables from the graph on every execution — which a
core-budget sweep or a ``probe_capacities`` call pays once per run.
:class:`ArrayState` removes the rebuild: channel tokens, endpoints and
first-firing rates, per-actor edge mirrors with their rate phases, and
execution times, flattened into position-indexed tuples, built **once
per (graph version, bindings)** and memoized through
:mod:`repro.cache` (:func:`array_state`), so repeated runs on one
graph version share one template.  A run of
:func:`repro.csdf.throughput.self_timed_execution` copies a few flat
lists from it instead of re-deriving rates.  The integer phases
themselves come from :func:`repro.csdf.simulation.rate_table`, the
memoized table the untimed token loops read too.  Every field is a
tuple, so a shared template cannot be written into.
"""

from __future__ import annotations

from typing import Mapping

from ..cache import bindings_key, cached
from .analysis import concrete_repetition_vector
from .graph import CSDFGraph
from .simulation import rate_table

__all__ = ["ArrayState", "array_state"]


class ArrayState:
    """Struct-of-arrays template for one (graph, bindings) pair.

    Every field is a tuple and shared across runs (the template is
    memoized per graph version); per-run state is copied from the flat
    tuples by :func:`repro.csdf.throughput.self_timed_execution`.

    Channel-indexed (one slot per channel, graph order):

    ``channel_names``             channel names
    ``tokens0``                   initial token counts
    ``chan_src`` / ``chan_dst``   producer / consumer scan positions
    ``self_loop``                 producer is the consumer
    ``cons0`` / ``prod0``         rate of the slot's first firing

    Actor-indexed (repetition-vector scan order):

    ``order``        actor names
    ``qv``           repetition counts
    ``in_edges`` / ``out_edges``
                     per-actor ``(slot, phases|None, const_rate)``
                     triples, ``phases`` the rate table's tuple
                     (``None`` for single-phase rates, skipping the
                     modulo)
    ``exec_const`` / ``exec_phases``
                     execution times (constant fast path)
    """

    __slots__ = ("order", "qv", "channel_names", "tokens0", "chan_src",
                 "chan_dst", "self_loop", "cons0", "prod0",
                 "in_edges", "out_edges", "exec_const", "exec_phases")

    def __init__(self, graph: CSDFGraph, bindings: Mapping | None):
        q = concrete_repetition_vector(graph, bindings)
        self.order = order = tuple(q)
        self.qv = tuple(q.values())
        apos = {name: i for i, name in enumerate(order)}

        channels = list(graph.channels.values())
        self.channel_names = tuple(c.name for c in channels)
        self.tokens0 = tuple(c.initial_tokens for c in channels)
        self.chan_src = chan_src = tuple(apos[c.src] for c in channels)
        self.chan_dst = chan_dst = tuple(apos[c.dst] for c in channels)
        self.self_loop = tuple(c.src == c.dst for c in channels)

        table = rate_table(graph, bindings)
        cons = [table.consumption[c.name] for c in channels]
        prod = [table.production[c.name] for c in channels]
        self.cons0 = tuple(p[0] for p in cons)
        self.prod0 = tuple(p[0] for p in prod)

        in_edges: list[list] = [[] for _ in order]
        out_edges: list[list] = [[] for _ in order]
        for slot in range(len(channels)):
            in_edges[chan_dst[slot]].append(_edge(slot, cons[slot]))
            out_edges[chan_src[slot]].append(_edge(slot, prod[slot]))
        self.in_edges = tuple(map(tuple, in_edges))
        self.out_edges = tuple(map(tuple, out_edges))
        actors = graph.actors
        self.exec_phases = tuple([actors[name].exec_times for name in order])
        self.exec_const = tuple([t[0] if len(t) == 1 else None
                                 for t in self.exec_phases])


def _edge(slot, phases):
    """Scalar edge mirror: constant rates drop the phase tuple."""
    if len(phases) == 1:
        return (slot, None, phases[0])
    return (slot, phases, phases[0])


def array_state(graph: CSDFGraph, bindings: Mapping | None) -> ArrayState:
    """The memoized :class:`ArrayState` template of ``graph`` at
    ``bindings`` (cached per graph version, like every other analysis
    product)."""
    return cached(graph, ("statearrays", bindings_key(bindings)),
                  lambda: ArrayState(graph, bindings))
