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

Both policies run on one token loop, :func:`_run_passes`, over flat
integer lists: a fill level per channel slot, a phase counter per
actor, and per actor the ``(slot, phases)`` pairs of its input and
output channels (:func:`_loop_tables`).  The whole graph is the case
where every actor and channel takes part; its tables are memoized per
graph version and valuation (:func:`_token_tables`), and only the
token loops read them.  The loop scans the actors in passes, and visits
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
every cyclic component (:func:`cyclic_components`) for one local
iteration (Def. 4), round robin, in place: the same loop steps the
component's actors over the channels between them, external inputs
ignored, and no subgraph is built.  Acyclic parts are live by
construction.  Each component's verdict is stored across graph
versions under its content (:func:`core_keys`), so after an edit only
a component whose content changed runs again, and an edit outside
every cycle runs none.  TPDF's check (:mod:`repro.tpdf.liveness`) runs
the same loop on its CSDF view (:func:`local_iteration`).
:func:`cycle_subgraph` builds a component as a graph of its own: the
oracle's path.  The whole-graph round robin over one global iteration
— a consistent graph is live iff it completes — is the differential
oracle (``tests/csdf/test_liveness_differential.py``).

Examples
--------
Fig. 1 is one cycle, live; grouped, its iteration reads as the paper
prints it:

>>> from repro.gallery import fig1_graph
>>> fig1 = fig1_graph()
>>> cyclic_components(fig1), is_live(fig1)
((('a1', 'a2', 'a3'),), True)
>>> str(find_sequential_schedule(fig1))
'(a3)^2 (a1)^3 (a2)^2'
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, Mapping, Sequence

from ..cache import bindings_key, cached, content_store, register_binding_insensitive
from ..errors import DeadlockError, SimulationError
from .analysis import concrete_repetition_vector
from .digraph import adjacency, nontrivial_components, tarjan_components
from .graph import CSDFGraph
from .simulation import TokenState, rate_table

POLICIES = ("grouped", "round_robin")

# Liveness is a token-counting property: execution times never enter
# the local iterations, so the verdict survives binding-only bumps.
register_binding_insensitive("is_live")
# The actor graph and its cyclic components follow from the topology
# alone; the core keys and the loop tables from rates and tokens.
register_binding_insensitive("actor_graph")
register_binding_insensitive("cyclic_components")
register_binding_insensitive("core_keys")
register_binding_insensitive("token_tables")

#: Cross-version content store (see :func:`repro.cache.content_store`):
#: core key -> local-iteration verdict.
_LIVE_STORE = "live_core"


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


def _loop_tables(actors: Sequence[str], channels) -> tuple:
    """The flat token-loop tables of ``actors`` over ``channels``, given
    as ``(src, dst, production, consumption, initial tokens)`` with
    integer phase tuples, every endpoint one of ``actors``; channel
    ``slot`` is the channel's position among them.  A tuple
    ``(actors, position, tokens, ins, outs, consumers)``:

    * ``actors``, the names in scan order, and ``position``, name ->
      its position;
    * ``tokens``, the initial fill level per slot;
    * per actor, ``ins`` and ``outs``, the ``(slot, phases)`` of its
      input channels (consumption phases) and of its output channels
      (production phases), and ``consumers``, the positions of the
      other actors its outputs feed."""
    position = {name: pos for pos, name in enumerate(actors)}
    tokens = []
    ins: list[list] = [[] for _ in actors]
    outs: list[list] = [[] for _ in actors]
    consumers: list[list[int]] = [[] for _ in actors]
    for slot, (src, dst, production, consumption, initial) in enumerate(channels):
        s, d = position[src], position[dst]
        tokens.append(initial)
        outs[s].append((slot, production))
        ins[d].append((slot, consumption))
        if s != d and d not in consumers[s]:
            consumers[s].append(d)
    return (tuple(actors), position, tuple(tokens), tuple(map(tuple, ins)),
            tuple(map(tuple, outs)), tuple(map(tuple, consumers)))


def _token_tables(graph: CSDFGraph, bindings: Mapping | None) -> tuple:
    """The whole graph's :func:`_loop_tables` under ``bindings``, actors
    and channels in graph order, memoized per graph version (carried
    across execution-time edits).  Read by the token loops only; the
    rates come from :func:`~repro.csdf.simulation.rate_table`, so an
    unbound parameter raises its ``KeyError`` here."""
    return cached(graph, ("token_tables", bindings_key(bindings)),
                  lambda: _build_token_tables(graph, bindings))


def _build_token_tables(graph: CSDFGraph, bindings: Mapping | None) -> tuple:
    table = rate_table(graph, bindings)
    return _loop_tables(graph.actor_names(), [
        (channel.src, channel.dst, table.production[name],
         table.consumption[name], channel.initial_tokens)
        for name, channel in graph.channels.items()])


def _run_passes(name: str, tables: tuple, targets: Mapping[str, int],
                policy: str) -> list[str]:
    """The token loop of both policies: fire ``targets`` (actor ->
    firings) over ``tables`` in scan-order passes and return the
    firings.  Actors without a target never fire; a target naming no
    actor of the tables can never complete.  Raises
    :class:`~repro.errors.DeadlockError` naming graph ``name`` when a
    pass fires nothing, with the blocked actors in ``targets`` order
    and the partial schedule."""
    actors, position, tokens0, ins, outs, consumers = tables
    tokens = list(tokens0)
    n = len(actors)
    remaining = [0] * n
    for actor, count in targets.items():
        pos = position.get(actor)
        if pos is not None:
            remaining[pos] = count
    outstanding = sum(count for count in targets.values() if count > 0)
    fired = [0] * n
    firings: list[str] = []
    grouped = policy == "grouped"

    def ready(pos: int) -> bool:
        if remaining[pos] <= 0:
            return False
        k = fired[pos]
        for slot, phases in ins[pos]:
            if tokens[slot] < phases[k % len(phases)]:
                return False
        return True

    def fire(pos: int) -> None:
        nonlocal outstanding
        k = fired[pos]
        for slot, phases in ins[pos]:
            tokens[slot] -= phases[k % len(phases)]
        for slot, phases in outs[pos]:
            tokens[slot] += phases[k % len(phases)]
        fired[pos] = k + 1
        remaining[pos] -= 1
        outstanding -= 1
        firings.append(actors[pos])

    # `current` is the heap of scan positions the pass still has to
    # visit, `upcoming` the positions of the next pass; the flags keep
    # each position in each at most once.  A queued actor stays ready
    # until it fires: only its own firing can disable it.
    in_current = bytearray(n)
    in_upcoming = bytearray(n)
    upcoming: list[int] = []

    def wake(pos: int, cursor: int) -> None:
        if not ready(pos):
            return
        if pos > cursor:
            if not in_current[pos]:
                in_current[pos] = 1
                heappush(current, pos)
        elif not in_upcoming[pos]:
            in_upcoming[pos] = 1
            upcoming.append(pos)

    current = [pos for pos in range(n) if ready(pos)] if outstanding else []
    for pos in current:
        in_current[pos] = 1
    while outstanding:
        progressed = False
        while current:
            pos = heappop(current)
            in_current[pos] = 0
            fire(pos)
            progressed = True
            if grouped:
                while ready(pos):
                    fire(pos)
            wake(pos, pos)
            for consumer in consumers[pos]:
                wake(consumer, pos)
        if not progressed:
            blocked = [actor for actor, count in targets.items()
                       if (remaining[position[actor]] if actor in position
                           else count) > 0]
            raise DeadlockError(
                f"graph {name!r} deadlocks under policy {policy!r}: "
                f"actors {blocked} cannot complete the iteration",
                blocked=blocked,
                partial_schedule=firings,
            )
        current, upcoming = upcoming, []
        heapify(current)
        for pos in current:
            in_upcoming[pos] = 0
            in_current[pos] = 1
    return firings


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
        Target firing counts; defaults to the repetition vector.  Only
        the named actors fire, every channel of the graph constrains
        them.

    Raises
    ------
    DeadlockError
        When execution stalls before reaching the target counts.  The
        exception carries the blocked actors and the partial schedule.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; pick one of {POLICIES}")
    targets = dict(repetitions) if repetitions is not None else concrete_repetition_vector(graph, bindings)
    return SequentialSchedule(_run_passes(
        graph.name, _token_tables(graph, bindings), targets, policy))


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


def actor_graph(graph: CSDFGraph) -> tuple[tuple[str, ...], list[list[int]], list[int]]:
    """The actor-level digraph, ``(actors, adj, comp)``: the actor
    names in graph order, their successor lists (one entry per channel,
    :func:`~repro.csdf.digraph.adjacency`) and every actor's Tarjan
    component label (:func:`~repro.csdf.digraph.tarjan_components`).
    One pass per structure version, from which the cyclic components
    and the buffer scheduler's sink distances are derived; shared, so
    callers must not mutate it."""
    return cached(graph, ("actor_graph",), lambda: _actor_graph(graph))


def _actor_graph(graph: CSDFGraph) -> tuple[tuple[str, ...], list[list[int]], list[int]]:
    actors = graph.actor_names()
    adj = adjacency(actors, ((c.src, c.dst) for c in graph.channels.values()))
    return tuple(actors), adj, tarjan_components(len(actors), adj)


def cyclic_components(graph: CSDFGraph) -> tuple[tuple[str, ...], ...]:
    """The non-trivial strongly connected components — more than one
    actor, or one actor with a self-loop channel — in Tarjan emission
    order (:func:`~repro.csdf.digraph.nontrivial_components`), members
    sorted by name.  Read off :func:`actor_graph` once per structure
    version and shared by liveness and the MCR; the tuples keep callers
    off the memo."""
    return cached(graph, ("cyclic_components",),
                  lambda: _cyclic_components(graph))


def _cyclic_components(graph: CSDFGraph) -> tuple[tuple[str, ...], ...]:
    actors, adj, comp = actor_graph(graph)
    return tuple(tuple(sorted(actors[u] for u in group))
                 for group in nontrivial_components(adj, comp))


def core_keys(graph: CSDFGraph, bindings: Mapping | None = None) -> tuple:
    """One content key per cyclic component, in
    :func:`cyclic_components` order: ``(actors, channels)``, ``actors``
    the component's ``(name, tau, q)`` triples (phase count and
    *global* repetition count, members sorted) and ``channels`` the
    ``(src, dst, production, consumption, initial tokens)`` of the
    channels inside it, in channel order, with integer phases
    (:func:`~repro.csdf.simulation.rate_table`).

    A key holds everything a component's local iteration and its event
    graph depend on, so cross-version stores keyed by it never go
    stale.  Memoized per graph version and valuation and carried
    across execution-time edits.  The repetition vector and every
    channel's rates are read first: an inconsistent graph or a
    parameter missing from ``bindings`` raises even without a cycle."""
    return cached(graph, ("core_keys", bindings_key(bindings)),
                  lambda: _core_keys(graph, bindings))


def _core_keys(graph: CSDFGraph, bindings: Mapping | None) -> tuple:
    q = concrete_repetition_vector(graph, bindings)
    table = rate_table(graph, bindings)
    cores = cyclic_components(graph)
    if not cores:
        return ()
    taus = graph.taus()
    owner = {name: index for index, core in enumerate(cores) for name in core}
    inner: list[list[tuple]] = [[] for _ in cores]
    for name, channel in graph.channels.items():
        index = owner.get(channel.src)
        if index is not None and owner.get(channel.dst) == index:
            inner[index].append((channel.src, channel.dst, table.production[name],
                                 table.consumption[name], channel.initial_tokens))
    return tuple((tuple((name, taus[name], q[name]) for name in core), tuple(channels))
                 for core, channels in zip(cores, inner))


def _cycle_name(owner: str, members: Iterable[str]) -> str:
    return f"{owner}/cycle({','.join(members)})"


def cycle_subgraph(graph: CSDFGraph, subset: Iterable[str],
                   owner: str | None = None) -> CSDFGraph:
    """The cycle ``subset`` in isolation: its actors and the channels
    between them, named ``<owner>/cycle(a,b)`` (``owner`` defaults to
    the graph's name).  External channels are removed: external inputs
    are assumed always available during the local iteration — they
    cannot cause the *cycle* to deadlock."""
    members = set(subset)
    name = graph.name if owner is None else owner
    sub = CSDFGraph(_cycle_name(name, sorted(members)))
    for actor in sorted(members):
        sub.add_actor(actor, exec_time=graph.actor(actor).exec_times)
    for channel in graph.channels.values():
        if channel.src in members and channel.dst in members:
            sub.add_channel(channel.name, channel.src, channel.dst,
                            production=channel.production,
                            consumption=channel.consumption,
                            initial_tokens=channel.initial_tokens)
    return sub


def local_iteration(graph: CSDFGraph, subset: Iterable[str],
                    repetitions: Mapping[str, int], bindings: Mapping | None = None,
                    owner: str | None = None) -> SequentialSchedule:
    """Fire the cycle ``subset`` for ``repetitions`` in place, round
    robin: its actors (sorted) over the channels between them, external
    inputs ignored.  The result, deadlock message, blocked actors and
    partial schedule included, is that of
    ``find_sequential_schedule(cycle_subgraph(graph, subset, owner),
    bindings, policy="round_robin", repetitions=repetitions)``, and no
    subgraph is built."""
    members = sorted(set(subset))
    inside = set(members)
    channels = [(c.src, c.dst, c.production.as_ints(bindings),
                 c.consumption.as_ints(bindings), c.initial_tokens)
                for c in graph.channels.values()
                if c.src in inside and c.dst in inside]
    name = _cycle_name(graph.name if owner is None else owner, members)
    return SequentialSchedule(_run_passes(
        name, _loop_tables(members, channels), repetitions, "round_robin"))


def is_live(graph: CSDFGraph, bindings: Mapping | None = None) -> bool:
    """Liveness via local iterations: every cyclic component completes
    one iteration of its local solution alone, round robin (complete:
    if any schedule exists, interleaved execution finds one).

    Every channel's rates are read first: a parameter missing from
    ``bindings`` raises ``KeyError`` even where no cycle reads it.
    Memoized per graph version; the local iterations only count tokens,
    so the verdict is carried across execution-time edits.  Each
    component's verdict is kept across versions under its
    :func:`core_keys` key: after an edit, only the components whose key
    changed run."""
    return cached(graph, ("is_live", bindings_key(bindings)),
                  lambda: _is_live(graph, bindings))


def _is_live(graph: CSDFGraph, bindings: Mapping | None) -> bool:
    store = content_store(graph, _LIVE_STORE)
    for key in core_keys(graph, bindings):
        live = store.get(key)
        if live is None:
            live = _core_is_live(graph.name, key)
            store.put(key, live)
        if not live:
            return False
    return True


def _core_is_live(owner: str, key: tuple) -> bool:
    """Run one local iteration of the component of ``key``."""
    actors, channels = key
    # Def. 4 at the valuation: q = P.r (Theorem 1) makes every
    # q_a / tau_a the integer r_a, and q^L_a = q_a / gcd(r).
    factor = gcd(*(count // tau for _name, tau, count in actors))
    members = [name for name, _tau, _count in actors]
    try:
        _run_passes(_cycle_name(owner, members), _loop_tables(members, channels),
                    {name: count // factor for name, _tau, count in actors},
                    "round_robin")
    except DeadlockError:
        return False
    return True
