"""Self-timed execution: latency and throughput of (C)SDF graphs.

The paper evaluates buffers; a downstream adopter also needs the two
classic performance views the MPPA-256 motivation implies:

* **iteration latency** — makespan of one iteration from a cold start;
* **self-timed throughput** — sustained iterations/time when actors
  fire as soon as their tokens (and a free core) allow, with iterations
  overlapping (software pipelining across iteration boundaries).

Both are computed by a timed variant of the token simulation: an event
queue of firing completions over the bound graph, with an optional core
budget.  Firings are split-phase (consume at start, produce at
completion) and auto-concurrency is disabled — one in-flight firing per
actor, the standard self-timed semantics.  No data values are moved, so
this scales to large repetition vectors.

One core implements it, :func:`self_timed_execution`, an event loop
over the struct-of-arrays template of :mod:`repro.csdf.statearrays`.
The legacy full-scan loop :func:`self_timed_execution_reference` is its
differential oracle (mirroring ``mcr_reference``), called by name:
``tests/sim/test_eventloop_differential.py`` pins the two against each
other bit for bit, and CLI ``throughput --reference-loop`` runs the
same cross-check on one graph.

Incremental readiness
---------------------
Between events :func:`self_timed_execution` keeps readiness
*incrementally*: every channel keeps the satisfaction bit of its two
firing-rule constraints (tokens ≥ next consumption; occupancy + next
production ≤ capacity), and each actor counts its unsatisfied
constraints.  A token mutation updates exactly the bits of the touched
channel, and an actor enters the worklist precisely when its count
hits zero — the per-candidate ready check collapses to one integer
comparison.  The first pass is seeded with every actor whose count
starts at zero.  Completion events are scheduled on a bare ``heapq`` of
``(time, seq, pos)`` tuples, ``seq`` breaking time ties in push order.

Bit-for-bit contract
--------------------
The core reproduces the reference loop exactly — identical
``TimedResult`` (every float), identical deadlock blocked sets —
because it starts the same firings in the same order: a candidate is
queued at the very moment the full rescan would find it ready, with
the same scan-order pass discipline (ahead-of-cursor seeds join the
current pass, behind-cursor seeds the next one, core-budget exhaustion
suspends the drain with all unexamined candidates kept).  Candidates
the rescan would examine and *skip* (unready, busy, or done) are
simply never queued, which is why the recorded ``ready_visits`` drop
to roughly the number of firings.  The differential suite runs both
loops on the 200-graph corpus × core budgets × capacity constraints.
"""

from __future__ import annotations

import operator
from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Mapping

from ..errors import DeadlockError, as_count
from .analysis import concrete_repetition_vector
from .graph import CSDFGraph
from .mcr import _CapacityEventGraph
from .simulation import rate_table
from .statearrays import array_state


@dataclass
class TimedResult:
    """Outcome of a timed self-timed execution."""

    makespan: float
    iterations: int
    firings: int
    #: completion time of the k-th iteration (1-based), k = 1..iterations
    iteration_ends: list[float]
    #: peak fill level per channel during the run
    peaks: dict[str, int]

    @property
    def iteration_period(self) -> float:
        """Steady-state period estimated from the last two iterations
        (equals the makespan for a single iteration).  It misreads a
        steady state that repeats over several iterations, whatever the
        horizon: one whose iterations alternate 3 and 2 time units reads
        2 or 3, not 2.5.  The exact period under capacities is
        :meth:`repro.csdf.mcr._CapacityEventGraph.period`, and without
        cores or capacities it is the MCR (``GraphReport.period``);
        core-budget runs have no exact period to read instead."""
        if len(self.iteration_ends) >= 2:
            return self.iteration_ends[-1] - self.iteration_ends[-2]
        return self.iteration_ends[-1] if self.iteration_ends else 0.0


class _TimedState:
    """Token counts + precomputed per-actor firing tables.

    Channels are flattened to integer slots and every actor carries
    read-only tuples of ``(slot, phases)`` pairs for its inputs and
    outputs — the hot loop does list indexing and one modulo per
    attached channel instead of rebuilding name-keyed dict lookups on
    every event.

    With ``capacities``, writes block: an actor may only start when
    every output channel has room for this firing's production
    (space is reserved at start, so concurrent firings cannot
    over-commit a buffer).
    """

    __slots__ = ("channel_names", "tokens", "reserved", "caps",
                 "inputs", "outputs", "capped_out", "_peaks")

    def __init__(self, graph: CSDFGraph, bindings: Mapping | None,
                 capacities: Mapping[str, int] | None = None):
        channels = list(graph.channels.values())
        self.channel_names = [c.name for c in channels]
        slot = {name: i for i, name in enumerate(self.channel_names)}
        self.tokens = [c.initial_tokens for c in channels]
        self.reserved = [0] * len(channels)
        caps_map = dict(capacities) if capacities else {}
        self.caps = [caps_map.get(name) for name in self.channel_names]

        ins: dict[str, list] = {name: [] for name in graph.actors}
        outs: dict[str, list] = {name: [] for name in graph.actors}
        for channel in channels:
            ins[channel.dst].append(
                (slot[channel.name], channel.consumption.as_ints(bindings))
            )
            outs[channel.src].append(
                (slot[channel.name], channel.production.as_ints(bindings))
            )
        #: per-actor firing tables: name -> tuple of (slot, phases)
        self.inputs = {name: tuple(pairs) for name, pairs in ins.items()}
        self.outputs = {name: tuple(pairs) for name, pairs in outs.items()}
        #: capacity-checked outputs as (slot, prod_phases, cons_phases),
        #: cons_phases non-None for self-loops (their own consumption
        #: frees space before the firing produces).
        self.capped_out = {}
        for name in graph.actors:
            in_slots = dict(ins[name])
            self.capped_out[name] = tuple(
                (s, phases, in_slots.get(s))
                for s, phases in outs[name]
                if self.caps[s] is not None
            )
        self._peaks = list(self.tokens)

    def can_start(self, actor: str, firing: int) -> bool:
        tokens = self.tokens
        for s, phases in self.inputs[actor]:
            if tokens[s] < phases[firing % len(phases)]:
                return False
        for s, phases, cons_phases in self.capped_out[actor]:
            produced = phases[firing % len(phases)]
            occupancy = tokens[s] + self.reserved[s]
            if cons_phases is not None:
                occupancy -= cons_phases[firing % len(cons_phases)]
            if occupancy + produced > self.caps[s]:
                return False
        return True

    def consume(self, actor: str, firing: int) -> None:
        tokens = self.tokens
        for s, phases in self.inputs[actor]:
            tokens[s] -= phases[firing % len(phases)]
        for s, phases, _ in self.capped_out[actor]:
            self.reserved[s] += phases[firing % len(phases)]

    def produce(self, actor: str, firing: int) -> None:
        tokens = self.tokens
        peaks = self._peaks
        for s, phases in self.outputs[actor]:
            produced = phases[firing % len(phases)]
            level = tokens[s] + produced
            tokens[s] = level
            if self.caps[s] is not None:
                self.reserved[s] -= produced
            if level > peaks[s]:
                peaks[s] = level

    @property
    def peaks(self) -> dict[str, int]:
        """Peak fill level per channel (name-keyed view)."""
        return dict(zip(self.channel_names, self._peaks))


def validate_capacities(
    graph: CSDFGraph, capacities: Mapping[str, int] | None
) -> None:
    """Reject capacity vectors naming channels the graph doesn't have,
    or holding a value that is neither an integer nor ``None``
    (unbounded).

    Every capacity-accepting entry point calls this (both executor
    cores, the simulator, the buffer search, the CLI): a typo'd
    channel name used to be silently dropped by the slot-mapping
    loops — the execution then ran *unconstrained* on the channel the
    caller thought was bounded.  Values are counts
    (:func:`~repro.errors.as_count`; 2.5 used to run as capacity 2).
    """
    if not capacities:
        return
    unknown = sorted(set(capacities) - set(graph.channels))
    if unknown:
        known = ", ".join(sorted(graph.channels)) or "(none)"
        raise ValueError(
            "unknown channel name(s) in capacities: "
            f"{', '.join(unknown)}; graph channels are: {known}"
        )
    for name, value in capacities.items():
        if value is not None:
            as_count(f"capacity of channel {name!r}", value, minimum=None)


def _initial_fit_error(channels, actors) -> DeadlockError:
    """The up-front deadlock every core raises for a capacity below a
    channel's initial tokens.

    The initial marking does not fit the buffer, so the run could never
    have been admitted; executing anyway used to *silently succeed*
    whenever the consumer drained the over-full channel — an
    over-capacity run that reported peaks above the declared bound.
    The error is deterministic (sorted channel list, scan-order blocked
    set) so every core agrees bit for bit.
    """
    names = ", ".join(sorted(channels))
    return DeadlockError(
        f"channel capacity below initial tokens: {names}",
        blocked=list(actors),
    )


def _check_capacity_contract(graph, capacities, order) -> None:
    """The capacity admission check of every capacity-accepting entry
    point (both executor cores, the simulator, the buffer-search pins):
    what :func:`validate_capacities` rejects raises ``ValueError``
    (unknown channel names, values that are not integers), and a
    capacity below a channel's initial tokens raises the up-front
    :class:`~repro.errors.DeadlockError` with ``order`` as the blocked
    set.  It runs on the caller's name-keyed mapping, before any slot
    mapping — so no capacity value can collide with a slot array's
    "unbounded" sentinel."""
    if not capacities:
        return
    validate_capacities(graph, capacities)
    too_small = [
        name for name, channel in graph.channels.items()
        if capacities.get(name) is not None
        and capacities[name] < channel.initial_tokens
    ]
    if too_small:
        raise _initial_fit_error(too_small, list(order))


def capacity_floors(
    graph: CSDFGraph, bindings: Mapping | None = None
) -> dict[str, int]:
    """The per-channel *capacity floor*: the smallest capacity not
    provably infeasible, ``max(initial tokens, max consumption phase,
    max production phase)``.

    Any capacity below it deadlocks (or is rejected up front): the
    initial marking must fit the buffer, the consumer's largest
    consumption phase must fit below it (tokens never exceed the
    capacity, so a larger consumption can never be covered), and the
    producer's largest production phase must fit into an empty buffer
    (a full repetition cycle visits every phase).  The buffer search
    starts each channel's search at its floor, and refuses pins below
    it.
    """
    table = rate_table(graph, bindings)
    return {
        name: max(channel.initial_tokens, max(table.consumption[name]),
                  max(table.production[name]))
        for name, channel in graph.channels.items()
    }


def self_timed_execution(
    graph: CSDFGraph,
    bindings: Mapping | None = None,
    iterations: int = 1,
    cores: int | None = None,
    capacities: Mapping[str, int] | None = None,
    stats: dict | None = None,
) -> TimedResult:
    """Fire actors as soon as tokens and cores allow, for ``iterations``
    full iterations of the repetition vector.

    ``capacities`` bounds channel buffers with blocking writes: tighter
    buffers serialize producers and consumers, stretching the
    steady-state period (this run is the oracle of the exact period
    :func:`buffer_throughput_tradeoff` reports).

    Per-run state is copied from the memoized
    :func:`~repro.csdf.statearrays.array_state` template, readiness is
    kept incrementally and completion events ride a bare ``heapq``
    (see the module docstring).  Every float of the result, every
    deadlock blocked set and every scheduling decision under a core
    budget equal those of :func:`self_timed_execution_reference`.

    ``stats``, when given a dict, receives ``ready_visits`` (actors
    examined by the ready check) and ``events`` counters.

    Raises :class:`~repro.errors.DeadlockError` if the execution stalls
    before completing (e.g. a tokenless cycle or undersized buffers).
    """
    iterations = as_count("iterations", iterations, minimum=1)
    cores = None if cores is None else as_count("cores", cores, minimum=1)
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
        # Plain ints (numpy integers pass the contract): the
        # satisfaction bits below live in bytearrays.
        caps = [capacities.get(name) for name in state.channel_names]
        caps = [None if cap is None else operator.index(cap) for cap in caps]
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


def self_timed_execution_reference(
    graph: CSDFGraph,
    bindings: Mapping | None = None,
    iterations: int = 1,
    cores: int | None = None,
    capacities: Mapping[str, int] | None = None,
    stats: dict | None = None,
) -> TimedResult:
    """Legacy full-scan self-timed executor, kept as the differential
    oracle for :func:`self_timed_execution` (the ``mcr_reference``
    pattern): after every completion event it rescans every actor still
    short of its firing target.  Semantics — including the scan-order
    tie-break that decides core-budget scheduling — are the contract
    :func:`self_timed_execution` must reproduce bit for bit.  Called by
    name only: the differential suites and CLI
    ``throughput --reference-loop``.
    """
    iterations = as_count("iterations", iterations, minimum=1)
    cores = None if cores is None else as_count("cores", cores, minimum=1)
    q = concrete_repetition_vector(graph, bindings)
    _check_capacity_contract(graph, capacities, list(q))
    targets = {name: count * iterations for name, count in q.items()}
    state = _TimedState(graph, bindings, capacities)
    exec_times = {name: graph.actor(name).exec_times for name in targets}
    started = {name: 0 for name in targets}
    completed = {name: 0 for name in targets}
    busy: set[str] = set()
    #: scan list for the ready check; actors leave once fully started
    #: (same relative order as the repetition vector, so scheduling
    #: decisions under a core budget are unchanged).
    startable = list(targets)

    heap: list[tuple[float, int, str, int]] = []
    seq = 0
    now = 0.0
    running = 0
    visits = 0
    iteration_ends: list[float] = []
    firings = 0
    iteration_target = 1
    short_of_target = sum(1 for a in q if completed[a] < q[a])

    def try_start() -> None:
        nonlocal seq, running, visits
        progress = True
        while progress:
            progress = False
            pos = 0
            while pos < len(startable):
                visits += 1
                name = startable[pos]
                n = started[name]
                if n >= targets[name]:
                    startable.pop(pos)
                    continue
                if name in busy:
                    pos += 1
                    continue
                if cores is not None and running >= cores:
                    return
                if not state.can_start(name, n):
                    pos += 1
                    continue
                state.consume(name, n)
                times = exec_times[name]
                duration = times[n % len(times)]
                heappush(heap, (now + duration, seq, name, n))
                seq += 1
                started[name] = n + 1
                busy.add(name)
                running += 1
                progress = True
                pos += 1

    try_start()
    while heap:
        now, _, name, n = heappop(heap)
        state.produce(name, n)
        done = completed[name] + 1
        completed[name] = done
        busy.discard(name)
        running -= 1
        firings += 1
        if done == q[name] * iteration_target:
            short_of_target -= 1
            while short_of_target == 0:
                iteration_ends.append(now)
                iteration_target += 1
                short_of_target = sum(
                    1 for a in q if completed[a] < q[a] * iteration_target
                )
                if iteration_target > iterations:
                    break
        try_start()

    if stats is not None:
        stats["ready_visits"] = visits
        stats["events"] = firings
    if any(completed[name] < targets[name] for name in targets):
        blocked = [name for name in targets if completed[name] < targets[name]]
        raise DeadlockError(
            f"self-timed execution stalled after {firings} firings",
            blocked=blocked,
        )
    return TimedResult(
        makespan=now,
        iterations=iterations,
        firings=firings,
        iteration_ends=iteration_ends,
        peaks=dict(state.peaks),
    )


def iteration_latency(
    graph: CSDFGraph,
    bindings: Mapping | None = None,
    cores: int | None = None,
) -> float:
    """Cold-start makespan of a single iteration."""
    return self_timed_execution(graph, bindings, iterations=1, cores=cores).makespan


def throughput_vs_cores(
    graph: CSDFGraph,
    bindings: Mapping | None = None,
    core_budgets: tuple[int, ...] = (1, 2, 4, 8, 16),
    iterations: int = 4,
) -> dict[int, TimedResult]:
    """Self-timed throughput across core budgets (EXT2 bench input)."""
    return {
        cores: self_timed_execution(graph, bindings, iterations=iterations, cores=cores)
        for cores in core_budgets
    }


def min_buffers_for_full_throughput(
    graph: CSDFGraph,
    bindings: Mapping | None = None,
    stats: dict | None = None,
    capacities: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Smallest per-channel capacities preserving unconstrained
    throughput (a classic buffer-sizing DSE point).

    Every candidate vector is judged exactly, without executing it:
    :class:`~repro.csdf.mcr._CapacityEventGraph` asks whether the event
    graph bounded by the capacities keeps the unconstrained MCR (each
    capacity acting as a reverse channel of ``capacity - initial
    tokens`` tokens) and has no token-free cycle.  The target is the
    exact MCR, so the result is a pure function of the graph and its
    bindings.

    Channels are sized one at a time, in sorted name order: the
    channels already sized keep their values, the rest stay unbounded.
    Each search probes the channel's :func:`capacity_floors` value
    first, then doubles, then bisects.  A timed event graph never slows
    down when given more tokens, so the verdict is monotone in each
    capacity and no vector is probed twice.  Every returned capacity is
    1-minimal: one less loses throughput or deadlocks.  Greedy
    per-channel sizing is not globally optimal (the joint problem is
    NP-hard) but matches the standard practice of the paper's tool
    ecosystem.  The mapping keeps the graph's channel order.

    ``capacities``, when given, **pins** those channels: the pinned
    values are kept verbatim (validated against the graph's channel
    names — unknown names and non-integers raise ``ValueError``; a pin
    below a channel's initial tokens raises the same up-front
    :class:`~repro.errors.DeadlockError` as the executors; a ``None``
    pin keeps the channel unbounded) and only the remaining channels
    are minimized subject to the pins.  Pins below
    :func:`capacity_floors`, or pins that lose throughput with every
    free channel unbounded, raise ``ValueError`` naming them.  A graph
    that deadlocks without capacities raises ``DeadlockError``.

    ``stats``, when given a dict, receives ``probes`` (verdicts
    decided) and ``target`` (the unconstrained MCR).
    """
    pins = dict(capacities) if capacities else {}
    _check_capacity_contract(graph, pins, list(graph.actors))
    floors = capacity_floors(graph, bindings)
    below = sorted(
        name for name, value in pins.items()
        if value is not None and value < floors[name]
    )
    if below:
        # Provably infeasible (the floor argument of ``capacity_floors``).
        raise ValueError(
            "pinned capacity below the analytic floor: "
            + ", ".join(f"{name}={pins[name]} (floor {floors[name]})"
                        for name in below)
        )
    verdict = _CapacityEventGraph(graph, bindings)
    sized = {name: pins.get(name) for name in graph.channels}
    if any(value is not None for value in pins.values()) and not verdict.sustains(sized):
        raise ValueError(
            "pinned capacities lose throughput: "
            + ", ".join(f"{name}={value}" for name, value in sorted(pins.items())
                        if value is not None)
        )

    def sustains(name: str, value: int) -> bool:
        sized[name] = value
        return verdict.sustains(sized)

    for name in sorted(set(graph.channels) - set(pins)):
        low = floors[name]
        if sustains(name, low):
            continue
        # ``low`` fails: double until a capacity sustains, then bisect
        # between the last failing and the first sustaining one.
        high = max(1, 2 * low)
        while not sustains(name, high):
            low, high = high, 2 * high
        while high - low > 1:
            mid = (low + high) // 2
            if sustains(name, mid):
                high = mid
            else:
                low = mid
        sized[name] = high
    if stats is not None:
        stats.update(probes=verdict.probes, target=float(verdict.target))
    return sized


def buffer_throughput_tradeoff(
    graph: CSDFGraph,
    bindings: Mapping | None = None,
    scales: tuple[float, ...] = (1.0, 1.5, 2.0, 4.0),
) -> list[tuple[int, float]]:
    """The classic buffer-size / throughput trade-off (EXT3).

    Starting from the minimal single-processor capacities (buffer peaks
    of the buffer-minimizing schedule), scale every channel's capacity
    by each factor and take the exact steady-state period under
    blocking writes, the MCR of the event graph bounded by the
    capacities (:meth:`~repro.csdf.mcr._CapacityEventGraph.period`; no
    executor runs).  Returns ``(total_buffer, period)`` pairs sorted by
    buffer budget: larger budgets never slow the pipeline down, and
    throughput saturates once the bottleneck actor dominates.  A scale
    whose capacities deadlock raises :class:`~repro.errors.DeadlockError`
    (below a channel's initial tokens, the executors' up-front one).
    """
    from .buffers import minimal_buffer_schedule

    _, minimal = minimal_buffer_schedule(graph, bindings)
    event_graph = _CapacityEventGraph(graph, bindings)
    out: list[tuple[int, float]] = []
    for scale in scales:
        capacities = {
            name: max(1, int(peak * scale)) for name, peak in minimal.items()
        }
        _check_capacity_contract(graph, capacities, list(graph.actors))
        out.append((sum(capacities.values()), float(event_graph.period(capacities))))
    return out
