"""Sequential schedules and the liveness check of CSDF graphs.

Builds Periodic Admissible Sequential Schedules (PASS): firing
sequences realizing one graph iteration (each actor fires exactly its
repetition count and every channel returns to its initial fill level —
Definition 1 of the paper).  Construction is by symbolic execution of
the firing rules.

Two selection policies are provided:

``"grouped"``
    keep firing the same actor while possible — produces the compact
    single-appearance schedules the paper quotes, e.g.
    ``(a3)^2 (a1)^3 (a2)^2`` for Fig. 1;
``"round_robin"``
    cycle through actors firing at most once each pass — produces
    interleaved schedules such as ``(B C C B)`` needed for tightly
    cyclic graphs (Fig. 4(b)), and usually lower buffer peaks.

Both policies scan the actors in passes, and the construction visits
only the ones a pass would fire.  Under the CSDF firing rule only an
actor's own firing can disable it, so after a firing at scan position
``i`` only the fired actor and the consumers of its output channels can
have changed: a consumer that has become fireable at a position after
``i`` joins the current pass, and one at or before ``i`` — or the fired
actor itself, if it can fire again — joins the next pass.  The current
pass is a heap of positions, so the firings, and a deadlock's blocked
actors and partial schedule, are those of the full scan, at a cost of
O(degree + log n) per firing instead of a scan of every actor per pass.

Liveness is decided cycle by cycle (Sec. III-C): :func:`is_live` runs
every cyclic component (:func:`cyclic_components`) alone
(:func:`cycle_subgraph`), round robin, for one local iteration (Def. 4);
acyclic parts are live by construction.  TPDF's check
(:mod:`repro.tpdf.liveness`) runs the same three on its CSDF view.  The
whole-graph round robin over one global iteration — a consistent graph
is live iff it completes — is the differential oracle
(``tests/csdf/test_liveness_differential.py``).
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, Mapping, Sequence

from ..cache import bindings_key, cached, register_binding_insensitive
from ..errors import DeadlockError, SimulationError
from .analysis import concrete_repetition_vector
from .digraph import adjacency, nontrivial_components
from .graph import CSDFGraph
from .simulation import TokenState, rate_table

POLICIES = ("grouped", "round_robin")

# Liveness is a token-counting property: execution times never enter
# the local iterations, so the verdict survives binding-only bumps.
register_binding_insensitive("is_live")
# The cyclic components follow from the topology alone.
register_binding_insensitive("cyclic_components")


class SequentialSchedule:
    """An ordered firing sequence for one iteration of a graph."""

    __slots__ = ("firings",)

    def __init__(self, firings: Sequence[str]):
        self.firings = tuple(firings)

    def __len__(self) -> int:
        return len(self.firings)

    def __iter__(self):
        return iter(self.firings)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SequentialSchedule):
            return self.firings == other.firings
        if isinstance(other, (list, tuple)):
            return self.firings == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.firings)

    def counts(self) -> Counter:
        """Firings per actor."""
        return Counter(self.firings)

    def runs(self) -> list[tuple[str, int]]:
        """Maximal runs of consecutive identical firings."""
        runs: list[tuple[str, int]] = []
        for actor in self.firings:
            if runs and runs[-1][0] == actor:
                runs[-1] = (actor, runs[-1][1] + 1)
            else:
                runs.append((actor, 1))
        return runs

    def __str__(self) -> str:
        parts = []
        for actor, count in self.runs():
            parts.append(actor if count == 1 else f"({actor})^{count}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SequentialSchedule({self})"


def find_sequential_schedule(
    graph: CSDFGraph,
    bindings: Mapping | None = None,
    policy: str = "grouped",
    repetitions: Mapping[str, int] | None = None,
) -> SequentialSchedule:
    """Construct a PASS by symbolic execution, scanning the actors in
    insertion order.

    Parameters
    ----------
    graph, bindings:
        The graph and parameter values (parametric graphs must be bound).
    policy:
        ``"grouped"`` or ``"round_robin"`` (see module docstring).
    repetitions:
        Target firing counts; defaults to the repetition vector.  The
        TPDF liveness analysis passes *local solutions* here to schedule
        a clustered subgraph.

    Raises
    ------
    DeadlockError
        When execution stalls before reaching the target counts.  The
        exception carries the blocked actors and the partial schedule.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; pick one of {POLICIES}")
    targets = dict(repetitions) if repetitions is not None else concrete_repetition_vector(graph, bindings)
    order = [name for name in graph.actor_names() if name in targets]
    state = TokenState(graph, bindings)
    consumers = rate_table(graph, bindings).consumers
    remaining = dict(targets)
    outstanding = sum(count for count in remaining.values() if count > 0)
    firings: list[str] = []
    positions = {actor: pos for pos, actor in enumerate(order)}
    # `current` is the heap of scan positions the pass still has to
    # visit, `upcoming` the positions of the next pass; the flags keep
    # each position in each at most once.  A queued actor stays ready
    # until it fires: only its own firing can disable it.
    in_current = bytearray(len(order))
    in_upcoming = bytearray(len(order))
    upcoming: list[int] = []

    def ready(actor: str) -> bool:
        return remaining[actor] > 0 and state.can_fire(actor)

    def fire(actor: str) -> None:
        nonlocal outstanding
        state.fire(actor)
        remaining[actor] -= 1
        outstanding -= 1
        firings.append(actor)

    def wake(actor: str, cursor: int) -> None:
        pos = positions.get(actor)
        if pos is None or not ready(actor):
            return
        if pos > cursor:
            if not in_current[pos]:
                in_current[pos] = 1
                heappush(current, pos)
        elif not in_upcoming[pos]:
            in_upcoming[pos] = 1
            upcoming.append(pos)

    current = [pos for pos, actor in enumerate(order) if ready(actor)] if outstanding else []
    for pos in current:
        in_current[pos] = 1
    while outstanding:
        progressed = False
        while current:
            pos = heappop(current)
            in_current[pos] = 0
            actor = order[pos]
            fire(actor)
            progressed = True
            if policy == "grouped":
                while remaining[actor] > 0 and state.can_fire(actor):
                    fire(actor)
            wake(actor, pos)
            for consumer in consumers[actor]:
                wake(consumer, pos)
        if not progressed:
            blocked = [actor for actor, count in remaining.items() if count > 0]
            raise DeadlockError(
                f"graph {graph.name!r} deadlocks under policy {policy!r}: "
                f"actors {blocked} cannot complete the iteration",
                blocked=blocked,
                partial_schedule=firings,
            )
        current, upcoming = upcoming, []
        heapify(current)
        for pos in current:
            in_upcoming[pos] = 0
            in_current[pos] = 1
    return SequentialSchedule(firings)


def validate_schedule(
    graph: CSDFGraph,
    schedule: Iterable[str],
    bindings: Mapping | None = None,
    require_iteration: bool = True,
) -> TokenState:
    """Replay a schedule, checking admissibility.

    Verifies no channel ever underflows; when ``require_iteration`` is
    set, additionally checks the firing counts equal the repetition
    vector and every channel returns to its initial fill level
    (Definition 1: the schedule can repeat forever in bounded memory).
    Returns the final :class:`TokenState` (whose ``peak`` field gives
    the buffer sizes this schedule needs).
    """
    state = TokenState(graph, bindings)
    sequence = list(schedule)
    try:
        state.run(sequence)
    except SimulationError as exc:
        raise DeadlockError(f"schedule is not admissible: {exc}") from exc
    if require_iteration:
        q = concrete_repetition_vector(graph, bindings)
        counts = Counter(sequence)
        if dict(counts) != q:
            raise DeadlockError(
                f"schedule firing counts {dict(counts)} differ from the "
                f"repetition vector {q}"
            )
        if not state.matches_initial_state():
            raise DeadlockError(
                f"schedule does not return the graph to its initial state: "
                f"{state.tokens}"
            )
    return state


def cyclic_components(graph: CSDFGraph) -> tuple[tuple[str, ...], ...]:
    """The non-trivial strongly connected components — more than one
    actor, or one actor with a self-loop channel — in Tarjan emission
    order (:func:`~repro.csdf.digraph.nontrivial_components`), members
    sorted by name.  Computed once per structure version and shared by
    liveness and the MCR; the tuples keep callers off the memo."""
    return cached(graph, ("cyclic_components",),
                  lambda: _cyclic_components(graph))


def _cyclic_components(graph: CSDFGraph) -> tuple[tuple[str, ...], ...]:
    actors = list(graph.actors)
    adj = adjacency(actors, ((c.src, c.dst) for c in graph.channels.values()))
    return tuple(tuple(sorted(actors[u] for u in group))
                 for group in nontrivial_components(adj))


def cycle_subgraph(graph: CSDFGraph, subset: Iterable[str],
                   owner: str | None = None) -> CSDFGraph:
    """The cycle ``subset`` in isolation: its actors and the channels
    between them, named ``<owner>/cycle(a,b)`` (``owner`` defaults to
    the graph's name).  External channels are removed: external inputs
    are assumed always available during the local iteration — they
    cannot cause the *cycle* to deadlock."""
    members = set(subset)
    name = graph.name if owner is None else owner
    sub = CSDFGraph(f"{name}/cycle({','.join(sorted(members))})")
    for actor in sorted(members):
        sub.add_actor(actor, exec_time=graph.actor(actor).exec_times)
    for channel in graph.channels.values():
        if channel.src in members and channel.dst in members:
            sub.add_channel(channel.name, channel.src, channel.dst,
                            production=channel.production,
                            consumption=channel.consumption,
                            initial_tokens=channel.initial_tokens)
    return sub


def is_live(graph: CSDFGraph, bindings: Mapping | None = None) -> bool:
    """Liveness via local iterations: every cyclic component completes
    one iteration of its local solution alone, round robin (complete:
    if any schedule exists, interleaved execution finds one).

    Every channel's rates are read first: a parameter missing from
    ``bindings`` raises ``KeyError`` even where no cycle reads it.
    Memoized per graph version; the local iterations only count tokens,
    so the verdict is carried across execution-time edits."""
    return cached(graph, ("is_live", bindings_key(bindings)),
                  lambda: _is_live(graph, bindings))


def _is_live(graph: CSDFGraph, bindings: Mapping | None) -> bool:
    q = concrete_repetition_vector(graph, bindings)
    rate_table(graph, bindings)  # an unbound parameter raises here
    taus = graph.taus()
    for subset in cyclic_components(graph):
        # Def. 4 at the valuation: q = P.r (Theorem 1) makes every
        # q_a / tau_a the integer r_a, and q^L_a = q_a / gcd(r).
        factor = gcd(*(q[name] // taus[name] for name in subset))
        try:
            find_sequential_schedule(
                cycle_subgraph(graph, subset), bindings, policy="round_robin",
                repetitions={name: q[name] // factor for name in subset},
            )
        except DeadlockError:
            return False
    return True
