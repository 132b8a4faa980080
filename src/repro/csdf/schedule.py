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
output channels (:func:`_loop_tables`), built from the channels'
integer rows (:func:`channel_rows`).  The loop scans the actors in
passes, and visits only the ones a pass would fire.  Under the CSDF
firing rule only an actor's own firing can disable it, so after a
firing at scan position ``i`` only the fired actor and the consumers of
its output channels can have changed: a consumer that has become
fireable at a position after ``i`` joins the current pass, and one at
or before ``i`` — or the fired actor itself, if it can fire again —
joins the next pass.  The current pass is a heap of positions, so the
firings, and a deadlock's blocked actors and partial schedule, are
those of the full scan, at a cost of O(degree + log n) per firing
instead of a scan of every actor per pass.

Liveness is decided cycle by cycle (Sec. III-C): :func:`is_live` runs
every cyclic component (:func:`cyclic_components`) for one local
iteration (Def. 4), round robin, in place: the same loop steps the
component's actors over the channels between them, external inputs
ignored, and no subgraph is built.  Acyclic parts are live by
construction.  Each component's verdict lives in its one
:class:`CoreRecord`, which the MCR (:mod:`repro.csdf.mcr`) shares, kept
across graph versions under the component's content
(:func:`core_layer`): after an edit only a component whose content
changed runs again, and an edit outside every cycle runs none.  TPDF's check
(:mod:`repro.tpdf.liveness`) runs the same loop on its CSDF view
(:func:`local_iteration`).  :func:`cycle_subgraph` builds a component
as a graph of its own: the oracle's path.  The whole-graph round robin
over one global iteration — a consistent graph is live iff it
completes — is the differential oracle
(``tests/csdf/test_liveness_differential.py``).

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

# The actor graph and its cyclic components follow from the topology
# alone, the core layer from rates and tokens too: execution times
# never enter them.
register_binding_insensitive("actor_graph")
register_binding_insensitive("cyclic_components")
register_binding_insensitive("cores")

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


def channel_rows(graph: CSDFGraph, bindings: Mapping | None) -> list[tuple]:
    """Every channel as ``(src, dst, production, consumption, initial
    tokens)``, in channel order, the phases the integer tuples of
    :func:`~repro.csdf.simulation.rate_table` (so a parameter missing
    from ``bindings`` raises its ``KeyError`` here): the form the token
    loops (:func:`_loop_tables`) and the capacity event graph of
    :mod:`repro.csdf.mcr` read."""
    table = rate_table(graph, bindings)
    return [(channel.src, channel.dst, table.production[name],
             table.consumption[name], channel.initial_tokens)
            for name, channel in graph.channels.items()]


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
    tables = _loop_tables(graph.actor_names(), channel_rows(graph, bindings))
    return SequentialSchedule(_run_passes(graph.name, tables, targets, policy))


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


class CoreRecord:
    """Everything kept of one cyclic component across graph versions,
    each field ``None`` until first needed: ``live``, its
    local-iteration verdict (:func:`is_live`); ``firings`` and
    ``edges``, its ``(actor, q_a)`` pairs and weight-free event graph,
    built with an empty ``ratios`` (:func:`repro.csdf.mcr._core_graph`);
    ``policy``, the policy Howard's iteration last converged to on
    ``edges``; and ``ratios``, an LRU of its exact cycle ratio for the
    tuples of its actors' phase times read last
    (:func:`repro.csdf.mcr._component_mcr`).

    ``key`` is ``(actors, channels)``: ``actors`` the component's
    ``(name, tau, q)`` triples (phase count and *global* repetition
    count, members sorted) and ``channels`` the :func:`channel_rows` of
    the channels inside it, in channel order, each row's phases and
    tokens divided by their gcd.  It holds everything the local
    iteration and the event graph depend on, so a record never goes
    stale, and scaling a channel's phases and tokens alike keeps it."""

    __slots__ = ("key", "live", "firings", "edges", "policy", "ratios")

    def __init__(self, key: tuple):
        self.key = key
        self.live = self.firings = self.edges = self.policy = self.ratios = None


def core_layer(graph: CSDFGraph, bindings: Mapping | None = None) -> tuple:
    """``(rings, records)``: the ``(actor, q_a)`` pairs of the actors
    outside every cyclic component, in repetition-vector order, and the
    graph's stored :class:`CoreRecord` of each component, in
    :func:`cyclic_components` order.  Memoized per graph version and
    valuation and carried across execution-time edits.  The repetition
    vector and every channel's rates are read first: an inconsistent
    graph or a parameter missing from ``bindings`` raises even without
    a cycle."""
    return cached(graph, ("cores", bindings_key(bindings)),
                  lambda: _core_layer(graph, bindings))


def _core_layer(graph: CSDFGraph, bindings: Mapping | None) -> tuple:
    q = concrete_repetition_vector(graph, bindings)
    table = rate_table(graph, bindings)
    cores = cyclic_components(graph)
    owner = {name: index for index, core in enumerate(cores) for name in core}
    inner: list[list[tuple]] = [[] for _ in cores]
    for name, channel in graph.channels.items():
        index = owner.get(channel.src)
        if index is not None and owner.get(channel.dst) == index:
            production, consumption = table.production[name], table.consumption[name]
            tokens = channel.initial_tokens
            # A factor common to a channel's phases and tokens changes
            # neither the firings nor the flows between them.
            common = gcd(*production, *consumption, tokens)
            if common > 1:
                production = tuple(rate // common for rate in production)
                consumption = tuple(rate // common for rate in consumption)
                tokens //= common
            inner[index].append((channel.src, channel.dst, production, consumption, tokens))
    taus = graph.taus()
    store = content_store(graph)
    records = []
    for core, channels in zip(cores, inner):
        key = (tuple((name, taus[name], q[name]) for name in core), tuple(channels))
        record = store.get(key)
        if record is None:
            record = CoreRecord(key)
            store.put(key, record)
        records.append(record)
    rings = tuple((name, count) for name, count in q.items() if name not in owner)
    return rings, tuple(records)


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
    Each component's verdict is kept in its :class:`CoreRecord`
    (:func:`core_layer`), so a component runs once per content: after
    an edit, only the components whose content changed run."""
    for record in core_layer(graph, bindings)[1]:
        if record.live is None:
            record.live = _core_is_live(graph.name, record.key)
        if not record.live:
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
