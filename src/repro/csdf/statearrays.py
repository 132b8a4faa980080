"""Array-state (struct-of-arrays) backend for the timed CSDF executor.

The legacy full-scan loop rescans every actor after every completion
event, walks each actor's firing tables in Python, and rebuilds those
tables from the graph on every execution — which a
``min_buffers_for_full_throughput`` search pays dozens of times over
(one ``period_with`` probe per binary-search step).  This module
removes all three costs:

:class:`ArrayState`
    A struct-of-arrays **template**: channel tokens, endpoints and
    first-firing rates, per-actor edge mirrors with their rate phases,
    and execution times, flattened into position-indexed tuples, built
    **once per (graph version, bindings)** and memoized through
    :mod:`repro.cache`.  A probe run copies a few flat lists instead
    of re-deriving rates.  The integer phases themselves come from
    :func:`repro.csdf.simulation.rate_table`, the memoized table the
    untimed token loops read too.  Every field is a tuple, so a shared
    template cannot be written into.

:func:`self_timed_execution_arrays`
    The event loop itself.  Between events readiness is maintained
    *incrementally*: every channel keeps the satisfaction bit of its
    two firing-rule constraints (tokens ≥ next consumption;
    occupancy + next production ≤ capacity), and each actor counts its
    unsatisfied constraints.  A token mutation updates exactly the
    bits of the touched channel, and an actor enters the worklist
    precisely when its count hits zero — the per-candidate ready check
    collapses to one integer comparison.  The first pass is seeded
    with every actor whose count starts at zero.  Completion events are
    scheduled on a bare ``heapq`` of ``(time, seq, pos)`` tuples — the
    same ``(time, seq)`` FIFO contract as ``EventQueue``.

Bit-for-bit contract
--------------------
The backend reproduces the reference loop exactly — identical
``TimedResult`` (every float), identical deadlock blocked sets —
because it starts the same firings in the same order: a candidate is
queued at the very moment the full rescan would find it ready, with
the same scan-order pass discipline (ahead-of-cursor seeds join the
current pass, behind-cursor seeds the next one, core-budget exhaustion
suspends the drain with all unexamined candidates kept).  Candidates
the rescan would examine and *skip* (unready, busy, or done) are
simply never queued, which is why the recorded ``ready_visits`` drop
to roughly the number of firings.
``tests/sim/test_eventloop_differential.py`` pins both cores against
each other on the 200-graph corpus × core budgets × capacity
constraints.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Mapping

from ..cache import bindings_key, cached, content_store, delta_since, version_of
from ..errors import DeadlockError
from .analysis import concrete_repetition_vector
from .graph import CSDFGraph
from .simulation import rate_table

__all__ = ["ArrayState", "array_state", "self_timed_execution_arrays"]


class ArrayState:
    """Struct-of-arrays template for one (graph, bindings) pair.

    Every field is a tuple and shared across runs (the template is
    memoized per graph version); per-run state is copied from the flat
    tuples by :func:`self_timed_execution_arrays`.

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


def self_timed_execution_arrays(
    graph: CSDFGraph,
    bindings: Mapping | None = None,
    iterations: int = 1,
    cores: int | None = None,
    capacities: Mapping[str, int] | None = None,
    stats: dict | None = None,
):
    """Array-state self-timed execution (see the module docstring).

    Drop-in for :func:`repro.csdf.throughput.self_timed_execution`
    with identical results; normally reached through its
    ``backend="arrays"`` selector.
    """
    from .throughput import TimedResult, _check_capacity_contract

    if iterations < 1:
        raise ValueError("need at least one iteration")
    state = array_state(graph, bindings)
    _check_capacity_contract(graph, capacities, state.order)
    order = state.order
    n = len(order)
    nchan = len(state.channel_names)
    qv = state.qv
    in_edges = state.in_edges
    out_edges = state.out_edges
    exec_const = state.exec_const
    exec_phases = state.exec_phases
    chan_src = state.chan_src
    chan_dst = state.chan_dst
    self_loop = state.self_loop
    targets = [count * iterations for count in qv]

    # -- per-run state copied from the template --------------------------
    tokens = list(state.tokens0)
    peaks = list(state.tokens0)
    need_in = list(state.cons0)          # consumption of dst's next firing
    started = [0] * n
    completed = [0] * n
    busy = bytearray(n)
    reserved = [0] * nchan
    cap_need = [0] * nchan               # production of src's next firing
    caps = [None] * nchan
    capped_out: list[tuple] = [()] * n
    if capacities:
        caps = [capacities.get(name) for name in state.channel_names]
    has_caps = any(cap is not None for cap in caps)
    if has_caps:
        cap_need = list(state.prod0)
        capped_out = [
            tuple(e for e in out_edges[pos] if caps[e[0]] is not None)
            for pos in range(n)
        ]

    # Channel constraint bits and per-actor unsatisfied counts.
    in_sat = bytearray(nchan)
    cap_sat = bytearray(b"\x01" * nchan)
    missing = [0] * n
    for s in range(nchan):
        level = tokens[s]
        if level >= need_in[s]:
            in_sat[s] = 1
        else:
            missing[chan_dst[s]] += 1
        cap = caps[s]
        if cap is not None:
            if self_loop[s]:
                level -= need_in[s]
            if level + cap_need[s] > cap:
                cap_sat[s] = 0
                missing[chan_src[s]] += 1

    # Completion events on the C heap; seq breaks time ties in push order.
    heap: list[tuple[float, int, int]] = []
    seq = 0
    now = 0.0
    running = 0
    visits = 0
    firings = 0
    iteration_ends: list[float] = []
    iteration_target = 1
    short_of_target = sum(1 for i in range(n) if completed[i] < qv[i])

    # Worklist: `queue` holds the candidates of the next pass, `pending`
    # marks queued positions (either list).  The first pass holds every
    # actor with no unsatisfied constraint and a firing to do.
    pending = bytearray(n)
    queue = [pos for pos in range(n) if not missing[pos] and targets[pos] > 0]
    for pos in queue:
        pending[pos] = 1

    while True:
        # ---- drain: start every ready candidate, in scan order ----
        while queue:
            if len(queue) > 1:
                queue.sort()
            cur = queue
            queue = []
            progress = False
            suspended = False
            i = 0
            ncur = len(cur)
            while i < ncur:
                pos = cur[i]
                i += 1
                visits += 1
                if started[pos] >= targets[pos] or busy[pos]:
                    pending[pos] = 0
                    continue
                if cores is not None and running >= cores:
                    # Core budget exhausted: suspend the drain, keeping
                    # this candidate and every unexamined one queued.
                    queue = cur[i - 1:] + queue
                    suspended = True
                    break
                pending[pos] = 0
                if missing[pos]:
                    continue  # went stale since it was seeded
                # ---- start firing `nfir` of `pos` ----
                nfir = started[pos]
                started[pos] = nfir + 1
                busy[pos] = 1
                running += 1
                left = 0
                for s, phases, cval in in_edges[pos]:
                    if phases is None:
                        take = cval
                        need = cval
                    else:
                        ln = len(phases)
                        take = phases[nfir % ln]
                        need = phases[(nfir + 1) % ln]
                        need_in[s] = need
                    level = tokens[s] - take
                    tokens[s] = level
                    # Each input slot is touched exactly once here, so
                    # this actor's next-firing satisfaction bit can be
                    # settled in the same pass over its inputs.
                    sat = level >= need
                    in_sat[s] = sat
                    if not sat:
                        left += 1
                    if has_caps and caps[s] is not None and not cap_sat[s]:
                        # Headroom freed on a capped input: its producer
                        # may have become startable (mid-pass wake).
                        producer = chan_src[s]
                        if producer != pos and (
                            level + reserved[s] + cap_need[s] <= caps[s]
                        ):
                            cap_sat[s] = 1
                            remaining = missing[producer] - 1
                            missing[producer] = remaining
                            if (remaining == 0 and not busy[producer]
                                    and started[producer] < targets[producer]
                                    and not pending[producer]):
                                pending[producer] = 1
                                if producer > pos:
                                    insort(cur, producer, i)
                                    ncur += 1
                                else:
                                    queue.append(producer)
                if capped_out[pos]:
                    # Reserve this firing's production, then re-judge
                    # the capacity bits against the *next* firing
                    # (phases advanced, tokens/reserved moved).
                    for s, phases, pval in capped_out[pos]:
                        if phases is None:
                            give = pval
                        else:
                            ln = len(phases)
                            give = phases[nfir % ln]
                            cap_need[s] = phases[(nfir + 1) % ln]
                        reserved[s] += give
                    for s, _phases, _pval in capped_out[pos]:
                        occ = tokens[s] + reserved[s] + cap_need[s]
                        if self_loop[s]:
                            occ -= need_in[s]
                        sat = occ <= caps[s]
                        cap_sat[s] = sat
                        if not sat:
                            left += 1
                missing[pos] = left
                duration = exec_const[pos]
                if duration is None:
                    phases = exec_phases[pos]
                    duration = phases[nfir % len(phases)]
                heappush(heap, (now + duration, seq, pos))
                seq += 1
                progress = True
            if suspended or not progress:
                break

        # ---- next completion event ----
        try:
            now, _, pos = heappop(heap)
        except IndexError:
            break  # quiescent: no live events left
        nfir = completed[pos]
        for s, phases, pval in out_edges[pos]:
            give = pval if phases is None else phases[nfir % len(phases)]
            level = tokens[s] + give
            tokens[s] = level
            if has_caps and caps[s] is not None:
                reserved[s] -= give  # occupancy unchanged: cap bit holds
            if level > peaks[s]:
                peaks[s] = level
            if not in_sat[s] and level >= need_in[s]:
                in_sat[s] = 1
                consumer = chan_dst[s]
                left = missing[consumer] - 1
                missing[consumer] = left
                if (left == 0 and not busy[consumer]
                        and started[consumer] < targets[consumer]
                        and not pending[consumer]):
                    pending[consumer] = 1
                    queue.append(consumer)
        done = nfir + 1
        completed[pos] = done
        busy[pos] = 0
        running -= 1
        firings += 1
        if (missing[pos] == 0 and started[pos] < targets[pos]
                and not pending[pos]):
            pending[pos] = 1
            queue.append(pos)
        if done == qv[pos] * iteration_target:
            short_of_target -= 1
            while short_of_target == 0:
                iteration_ends.append(now)
                iteration_target += 1
                short_of_target = sum(
                    1 for i in range(n)
                    if completed[i] < qv[i] * iteration_target
                )
                if iteration_target > iterations:
                    break

    if stats is not None:
        stats["ready_visits"] = visits
        stats["events"] = firings
    if any(completed[i] < targets[i] for i in range(n)):
        blocked = [order[i] for i in range(n) if completed[i] < targets[i]]
        raise DeadlockError(
            f"self-timed execution stalled after {firings} firings",
            blocked=blocked,
        )
    return TimedResult(
        makespan=now,
        iterations=iterations,
        firings=firings,
        iteration_ends=iteration_ends,
        peaks=dict(zip(state.channel_names, peaks)),
    )
