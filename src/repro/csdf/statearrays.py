"""Array-state (struct-of-arrays) backend for the timed CSDF executor.

The legacy full-scan loop rescans every actor after every completion
event, walks each actor's firing tables in Python, and rebuilds those
tables from the graph on every execution — which a
``min_buffers_for_full_throughput`` search pays dozens of times over
(one ``period_with`` probe per binary-search step).  This module
removes all three costs:

:class:`ArrayState`
    A struct-of-arrays **template**: channel tokens / capacities /
    rate phases and actor adjacency flattened into numpy arrays (one
    slot per channel, CSR-style per-actor edge tables), built **once
    per (graph version, bindings)** and memoized through
    :mod:`repro.cache`.  A probe run clones a few flat arrays instead
    of re-deriving rates — the setup cost that used to be ~20% of a
    run drops to array copies.  The integer phases themselves come
    from :func:`repro.csdf.simulation.rate_table`, the memoized table
    the untimed token loops read too.

:func:`ArrayState.ready_mask`
    The vectorized ready check: the firing rule for **all** actors is
    evaluated in one numpy gather/compare over the channel arrays
    (tokens vs. the consumption phase of each consumer's next firing,
    occupancy vs. capacity for the producers) instead of per-actor
    Python loops.  The executor uses it to seed the initial worklist
    in one shot; the differential tests use it to cross-check the
    incremental readiness counters below after arbitrary prefixes.

:func:`self_timed_execution_arrays`
    The event loop itself.  Between events readiness is maintained
    *incrementally*: every channel keeps the satisfaction bit of its
    two firing-rule constraints (tokens ≥ next consumption;
    occupancy + next production ≤ capacity), and each actor counts its
    unsatisfied constraints.  A token mutation updates exactly the
    bits of the touched channel, and an actor enters the worklist
    precisely when its count hits zero — the per-candidate ready check
    collapses to one integer comparison.  Completion events are
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

import numpy as np

from ..cache import bindings_key, cached, content_store, delta_since, version_of
from ..errors import DeadlockError
from .analysis import concrete_repetition_vector
from .graph import CSDFGraph
from .simulation import rate_table

__all__ = ["ArrayState", "array_state", "sim_array_state",
           "self_timed_execution_arrays"]

#: Capacity sentinel in the caps array: "unbounded".
_UNCAPPED = -1


class ArrayState:
    """Struct-of-arrays template for one (graph, bindings) pair.

    Everything here is immutable and shared across runs (the template
    is memoized per graph version); per-run state is cloned from the
    flat arrays by :func:`self_timed_execution_arrays`.

    Channel-indexed arrays (one slot per channel, graph order):

    ``tokens0``      initial token counts
    ``chan_src`` / ``chan_dst``   producer / consumer scan positions
    ``cons0`` / ``prod0``         rate of the slot's first firing
    ``cons_base/len`` + ``cons_flat`` (and the ``prod`` twins)
                     CSR phase tables: the rate of firing ``k`` on
                     slot ``s`` is ``flat[base[s] + k % len[s]]``

    Actor-indexed structures (repetition-vector scan order):

    ``qv``           repetition counts
    ``in_edges`` / ``out_edges``
                     per-actor ``(slot, phases|None, const_rate)``
                     triples — the scalar mirrors of the CSR tables
                     the hot loop walks (``phases`` is ``None`` for
                     single-phase rates, skipping the modulo)
    ``exec_const`` / ``exec_phases``
                     execution times (constant fast path)
    """

    __slots__ = ("order", "n", "nchan", "channel_names", "qv", "qv_np",
                 "tokens0", "chan_src", "chan_dst", "cons0", "prod0",
                 "cons_base", "cons_len", "cons_flat",
                 "prod_base", "prod_len", "prod_flat",
                 "in_edges", "out_edges", "exec_const", "exec_phases",
                 "self_loop")

    def __init__(self, graph: CSDFGraph, bindings: Mapping | None,
                 order: list[str] | None = None):
        if order is None:
            q = concrete_repetition_vector(graph, bindings)
            self.order = list(q)
            self.qv = [q[name] for name in self.order]
            self.qv_np = np.asarray(self.qv, dtype=np.int64)
        else:
            # Explicit scan order (the TPDF simulator's control-first
            # order): no repetition-vector iteration targets — the
            # simulator bounds runs with limits/horizons, and the graph
            # need not even be consistent.  Only the channel tables and
            # exec tables below are meaningful for such templates.
            self.order = list(order)
            self.qv = None
            self.qv_np = None
        apos = {name: i for i, name in enumerate(self.order)}
        self.n = len(self.order)

        channels = list(graph.channels.values())
        self.nchan = len(channels)
        self.channel_names = [c.name for c in channels]
        self.tokens0 = np.asarray([c.initial_tokens for c in channels],
                                  dtype=np.int64)
        self.chan_src = np.asarray([apos[c.src] for c in channels],
                                   dtype=np.int64)
        self.chan_dst = np.asarray([apos[c.dst] for c in channels],
                                   dtype=np.int64)
        self.self_loop = self.chan_src == self.chan_dst

        table = rate_table(graph, bindings)
        cons = [table.consumption[c.name] for c in channels]
        prod = [table.production[c.name] for c in channels]
        self.cons_base, self.cons_len, self.cons_flat = _csr_phases(cons)
        self.prod_base, self.prod_len, self.prod_flat = _csr_phases(prod)
        self.cons0 = np.asarray([p[0] for p in cons] or [], dtype=np.int64)
        self.prod0 = np.asarray([p[0] for p in prod] or [], dtype=np.int64)

        in_edges: list[list] = [[] for _ in range(self.n)]
        out_edges: list[list] = [[] for _ in range(self.n)]
        for slot, channel in enumerate(channels):
            in_edges[apos[channel.dst]].append(_edge(slot, cons[slot]))
            out_edges[apos[channel.src]].append(_edge(slot, prod[slot]))
        self.in_edges = [tuple(e) for e in in_edges]
        self.out_edges = [tuple(e) for e in out_edges]

        times = [graph.actor(name).exec_times for name in self.order]
        self.exec_phases = [tuple(t) for t in times]
        self.exec_const = [t[0] if len(t) == 1 else None
                           for t in self.exec_phases]

    # -- delta patching ---------------------------------------------------
    def apply_binding_delta(self, graph: CSDFGraph, actors=None) -> "ArrayState":
        """A template for the graph's *current* execution times, built
        by patching this one in place of a full rebuild.

        Only valid across binding-only deltas (execution-time edits
        that keep each actor's phase count — the contract enforced by
        ``Actor.set_exec_time``): rates, tokens, topology and hence the
        repetition vector are unchanged, so every array of this
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
            positions = range(self.n)
        else:
            apos = {name: i for i, name in enumerate(self.order)}
            positions = [apos[name] for name in actors if name in apos]
        for pos in positions:
            times = tuple(graph.actor(self.order[pos]).exec_times)
            exec_phases[pos] = times
            exec_const[pos] = times[0] if len(times) == 1 else None
        clone.exec_phases = exec_phases
        clone.exec_const = exec_const
        return clone

    # -- vectorized firing rule -----------------------------------------
    def _phase_gather(self, base, length, flat, firing_of_slot):
        if not len(base):
            return np.zeros(0, dtype=np.int64)
        return flat[base + firing_of_slot % length]

    def ready_mask(
        self,
        tokens: np.ndarray,
        started: np.ndarray,
        reserved: np.ndarray | None = None,
        caps: np.ndarray | None = None,
    ) -> np.ndarray:
        """Data-readiness of **every** actor in one gather/compare.

        ``tokens``/``reserved`` are channel-indexed, ``started`` is
        actor-indexed (the firing each actor would start next).  The
        result is exactly ``can_start`` of the scalar loops evaluated
        for all positions at once: tokens cover each input slot's next
        consumption, and — with ``caps`` (``-1`` = unbounded) —
        occupancy plus the next production fits every capped output
        slot, self-loop consumption credited first.
        """
        ready = np.ones(self.n, dtype=bool)
        if not self.nchan:
            return ready
        need = self._phase_gather(self.cons_base, self.cons_len,
                                  self.cons_flat, started[self.chan_dst])
        ready[self.chan_dst[tokens < need]] = False
        if caps is not None:
            capped = caps != _UNCAPPED
            if capped.any():
                produce = self._phase_gather(
                    self.prod_base, self.prod_len, self.prod_flat,
                    started[self.chan_src])
                occupancy = tokens.astype(np.int64, copy=True)
                if reserved is not None:
                    occupancy += reserved
                occupancy[self.self_loop] -= need[self.self_loop]
                blocked = capped & (occupancy + produce > caps)
                ready[self.chan_src[blocked]] = False
        return ready


def _csr_phases(phase_lists):
    """Flatten per-channel phase tuples into (base, len, flat) arrays."""
    base, length, flat = [], [], []
    for phases in phase_lists:
        base.append(len(flat))
        length.append(len(phases))
        flat.extend(phases)
    return (np.asarray(base, dtype=np.int64),
            np.asarray(length, dtype=np.int64),
            np.asarray(flat, dtype=np.int64))


def _edge(slot, phases):
    """Scalar edge mirror: constant rates drop the phase tuple."""
    if len(phases) == 1:
        return (slot, None, phases[0])
    return (slot, tuple(phases), phases[0])


def _freeze_template(state: ArrayState) -> ArrayState:
    """Make the template's numpy arrays read-only.

    The template is shared by every run at the current graph version
    (runs clone from it), so an accidental in-place write — e.g.
    ``state.tokens0[0] = 5`` from exploratory code — would silently
    corrupt all subsequent runs.  numpy raises ``ValueError`` on writes
    to non-writeable arrays, extending the :func:`repro.cache.freeze`
    discipline to the memoized SoA product.
    """
    for name in ArrayState.__slots__:
        value = getattr(state, name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return state


def array_state(graph: CSDFGraph, bindings: Mapping | None) -> ArrayState:
    """The memoized :class:`ArrayState` template of ``graph`` at
    ``bindings`` (cached per graph version, like every other analysis
    product).

    Rebuilds are delta-aware: the previous version's template is kept
    in a cross-version slot, and when every bump since it was built was
    binding-only (execution-time edits), the new template is produced
    by :meth:`ArrayState.apply_binding_delta` — array sharing plus a
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
        state = _freeze_template(ArrayState(graph, bindings))
    store.put(bk, (version_of(graph), state))
    return state


def sim_array_state(graph: CSDFGraph, bindings: Mapping | None,
                    order: list[str]) -> ArrayState:
    """The memoized :class:`ArrayState` template for the TPDF
    simulator's schedule plane.

    Same SoA product as :func:`array_state` but built over the
    simulator's own scan order (control actors first by default) and
    without repetition-vector targets — the simulator runs to
    limits/horizons, not iteration counts, and accepts graphs the
    balance equations reject.  Cached per (graph version, bindings,
    order) so repeated ``Simulator`` constructions over the same graph
    reuse the flattened rate/exec tables.
    """
    key = ("statearrays_sim", bindings_key(bindings), tuple(order))
    return cached(
        graph, key,
        lambda: _freeze_template(ArrayState(graph, bindings, order=list(order))),
    )


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
    n = state.n
    nchan = state.nchan
    order = state.order
    qv = state.qv
    in_edges = state.in_edges
    out_edges = state.out_edges
    exec_const = state.exec_const
    exec_phases = state.exec_phases
    chan_src = state.chan_src.tolist()
    chan_dst = state.chan_dst.tolist()
    self_loop = state.self_loop.tolist()
    targets = [count * iterations for count in qv]

    # -- per-run state cloned from the template arrays -------------------
    tokens = state.tokens0.tolist()
    peaks = state.tokens0.tolist()
    need_in = state.cons0.tolist()       # consumption of dst's next firing
    started = [0] * n
    completed = [0] * n
    busy = bytearray(n)

    # Channel constraint bits, initialized by one vectorized compare.
    in_sat_np = state.tokens0 >= state.cons0
    in_sat = bytearray(in_sat_np.tobytes())
    missing_np = np.zeros(n, dtype=np.int64)
    if nchan:
        np.add.at(missing_np, state.chan_dst[~in_sat_np], 1)

    has_caps = False
    caps = [None] * nchan
    reserved = [0] * nchan
    cap_need = [0] * nchan               # production of src's next firing
    cap_sat = bytearray(b"\x01" * nchan)
    capped_out: list[tuple] = [()] * n
    if capacities:
        # Admitted above: every bound is >= its channel's initial
        # tokens >= 0, so none can read as the _UNCAPPED sentinel.
        caps_np = np.full(nchan, _UNCAPPED, dtype=np.int64)
        caps_map = dict(capacities)
        for slot, name in enumerate(state.channel_names):
            value = caps_map.get(name)
            if value is not None:
                caps_np[slot] = value
        capped_mask = caps_np != _UNCAPPED
        has_caps = bool(capped_mask.any())
        if has_caps:
            caps = [None if c == _UNCAPPED else c for c in caps_np.tolist()]
            cap_need = state.prod0.tolist()
            occupancy = state.tokens0.astype(np.int64, copy=True)
            occupancy[state.self_loop] -= state.cons0[state.self_loop]
            cap_sat_np = ~capped_mask | (occupancy + state.prod0 <= caps_np)
            cap_sat = bytearray(cap_sat_np.tobytes())
            np.add.at(missing_np, state.chan_src[~cap_sat_np], 1)
            capped_out = [
                tuple(e for e in out_edges[pos] if caps[e[0]] is not None)
                for pos in range(n)
            ]
    missing = missing_np.tolist()

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
    # marks queued positions (either list).  Initial seeding is the one
    # place a whole pass is evaluated at once — the vectorized mask.
    pending = bytearray(n)
    ready0 = state.ready_mask(
        state.tokens0, np.zeros(n, dtype=np.int64),
        caps=None if not has_caps else caps_np)
    queue = [int(pos) for pos in np.flatnonzero(
        ready0 & (np.asarray(targets, dtype=np.int64) > 0))]
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
