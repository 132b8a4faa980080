"""Array-state (struct-of-arrays) template of the timed CSDF executor.

The legacy full-scan loop walks each actor's firing tables in Python
and rebuilds those tables from the graph on every execution — which a
``min_buffers_for_full_throughput`` search pays dozens of times over
(one ``period_with`` probe per binary-search step).
:class:`ArrayState` removes the rebuild: channel tokens, endpoints and
first-firing rates, per-actor edge mirrors with their rate phases, and
execution times, flattened into position-indexed tuples, built **once
per (graph version, bindings)** and memoized through
:mod:`repro.cache` (:func:`array_state`).  A run of
:func:`repro.csdf.throughput.self_timed_execution` copies a few flat
lists from it instead of re-deriving rates.  The integer phases
themselves come from :func:`repro.csdf.simulation.rate_table`, the
memoized table the untimed token loops read too.  Every field is a
tuple, so a shared template cannot be written into.
"""

from __future__ import annotations

from typing import Mapping

from ..cache import bindings_key, cached, content_store, delta_since, version_of
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

    __slots__ = ("order", "channel_names", "qv",
                 "tokens0", "chan_src", "chan_dst", "self_loop",
                 "cons0", "prod0", "in_edges", "out_edges",
                 "exec_const", "exec_phases")

    def __init__(self, graph: CSDFGraph, bindings: Mapping | None):
        q = concrete_repetition_vector(graph, bindings)
        self.order = tuple(q)
        self.qv = tuple(q.values())
        apos = {name: i for i, name in enumerate(self.order)}

        channels = list(graph.channels.values())
        self.channel_names = tuple(c.name for c in channels)
        self.tokens0 = tuple(c.initial_tokens for c in channels)
        self.chan_src = tuple(apos[c.src] for c in channels)
        self.chan_dst = tuple(apos[c.dst] for c in channels)
        self.self_loop = tuple(c.src == c.dst for c in channels)

        table = rate_table(graph, bindings)
        cons = [table.consumption[name] for name in self.channel_names]
        prod = [table.production[name] for name in self.channel_names]
        self.cons0 = tuple(p[0] for p in cons)
        self.prod0 = tuple(p[0] for p in prod)

        in_edges: list[list] = [[] for _ in self.order]
        out_edges: list[list] = [[] for _ in self.order]
        for slot in range(len(channels)):
            in_edges[self.chan_dst[slot]].append(_edge(slot, cons[slot]))
            out_edges[self.chan_src[slot]].append(_edge(slot, prod[slot]))
        self.in_edges = tuple(tuple(e) for e in in_edges)
        self.out_edges = tuple(tuple(e) for e in out_edges)

        self.exec_phases = tuple(tuple(graph.actor(name).exec_times)
                                 for name in self.order)
        self.exec_const = tuple(t[0] if len(t) == 1 else None
                                for t in self.exec_phases)

    # -- delta patching ---------------------------------------------------
    def apply_binding_delta(self, graph: CSDFGraph, actors=None) -> "ArrayState":
        """A template for the graph's *current* execution times, built
        by patching this one in place of a full rebuild.

        Only valid across binding-only deltas (execution-time edits
        that keep each actor's phase count — the contract enforced by
        ``Actor.set_exec_time``): rates, tokens, topology and hence the
        repetition vector are unchanged, so every field of this
        template is still exact and is *shared* with the clone; only
        the per-actor execution tables of the ``actors`` in the delta
        scope (``None`` = all) are re-read from the graph.  The result
        is indistinguishable from a cold ``ArrayState(graph, bindings)``
        build.
        """
        clone = object.__new__(ArrayState)
        for name in ArrayState.__slots__:
            setattr(clone, name, getattr(self, name))
        exec_phases = list(self.exec_phases)
        exec_const = list(self.exec_const)
        if actors is None:
            positions = range(len(self.order))
        else:
            apos = {name: i for i, name in enumerate(self.order)}
            positions = [apos[name] for name in actors if name in apos]
        for pos in positions:
            times = tuple(graph.actor(self.order[pos]).exec_times)
            exec_phases[pos] = times
            exec_const[pos] = times[0] if len(times) == 1 else None
        clone.exec_phases = tuple(exec_phases)
        clone.exec_const = tuple(exec_const)
        return clone


def _edge(slot, phases):
    """Scalar edge mirror: constant rates drop the phase tuple."""
    if len(phases) == 1:
        return (slot, None, phases[0])
    return (slot, phases, phases[0])


def array_state(graph: CSDFGraph, bindings: Mapping | None) -> ArrayState:
    """The memoized :class:`ArrayState` template of ``graph`` at
    ``bindings`` (cached per graph version, like every other analysis
    product).

    Rebuilds are delta-aware: the previous version's template is kept
    in a cross-version slot, and when every bump since it was built was
    binding-only (execution-time edits), the new template is produced
    by :meth:`ArrayState.apply_binding_delta` — field sharing plus a
    per-touched-actor patch instead of a full re-derivation.
    """
    key = ("statearrays", bindings_key(bindings))
    return cached(graph, key, lambda: _build_template(graph, bindings, key[1]))


def _build_template(graph: CSDFGraph, bindings: Mapping | None, bk) -> ArrayState:
    store = content_store(graph, "statearrays_slot", limit=64)
    slot = store.get(bk)
    state = None
    if slot is not None:
        prev_version, prev_state = slot
        delta = delta_since(graph, prev_version)
        if not delta.conservative:
            touched = None if delta.touched is None else tuple(delta.touched)
            state = prev_state.apply_binding_delta(graph, touched)
    if state is None:
        state = ArrayState(graph, bindings)
    store.put(bk, (version_of(graph), state))
    return state
