"""Maximum cycle ratio: the throughput bound of self-timed execution.

Classic result (Reiter 1968; Sriram & Bhattacharyya): the steady-state
iteration period of a self-timed HSDF execution with unlimited
processors equals the *maximum cycle ratio*

    MCR = max over cycles C of ( sum of execution times on C )
                               / ( sum of initial tokens on C )

CSDF graphs are analyzed on the event graph of their exact HSDF
expansion (:mod:`repro.csdf.sdf`): one node per firing, whose
serialization rings contribute the per-actor "one firing at a time"
cycles.  One builder, :func:`_event_graph`, emits it for any set of
actors and channels on integer node indices, straight from the
repetition vector and the rate tables.  The throughput bound never
builds it whole (see "Rings and cores" below);
:func:`~repro.csdf.sdf.expand_to_hsdf` stays the public expansion, the
one the oracle reads and the builder is tested against
(``tests/csdf/test_event_graph_oracle.py``).

Two solvers are provided:

* :func:`max_cycle_ratio` — **Howard's policy iteration** (the
  max-plus spectral method of Cochet-Terrasson et al., surveyed by
  Dasdan as the fastest MCR algorithm in practice) on every cyclic
  core, in exact integer arithmetic.  Each iteration evaluates one
  successor policy in O(V + E) and improves it greedily; convergence
  typically takes a handful of iterations instead of the ~50 full
  relaxation sweeps of the parametric search.
* :func:`mcr_reference` — the legacy parametric binary search with
  Bellman-Ford feasibility checks on the whole expansion, kept as the
  independent oracle for the differential test suite
  (``tests/csdf/test_mcr_differential.py``).

Tests cross-validate both against each other and against the converged
``self_timed_execution`` period.  For the throughput bound over a whole
*parameter domain* (instead of one binding at a time) see
:mod:`repro.csdf.parametric`, which shares this module's builder and
certifies each core with one :func:`howard` run.  Both find the cores
with the liveness check's finder,
:func:`~repro.csdf.schedule.cyclic_components`, sorted.

Rings and cores
---------------
Contract every actor's firings to one node and each event-graph cycle
projects to a closed walk of the CSDF graph, whose edges all lie inside
one strongly connected component (the per-cycle view of the paper's
Sec. III-C).  So every cycle is one of two kinds:

* the serialization ring of an actor outside the **cyclic cores** (the
  actor-level SCCs that lie on a cycle): its ``q_a`` firings in a ring
  carrying one token.  Its ratio is closed-form — whole phase cycles
  times the sum of the phase times, plus the leftover prefix — summed
  exactly in integers over the phases' common denominator
  (:func:`_ring_sum`), and needs no expansion;
* a cycle inside one core's sub-expansion: the core's firings with
  their rings and the flows of the channels inside the core, built
  from the *global* repetition counts and solved by one Howard run.

The weight-free part — the ``(actor, q_a)`` pairs outside the cores and
each core's record — is one cache entry shared with the liveness check
(:func:`~repro.csdf.schedule.core_layer`), carried across
execution-time edits (see :mod:`repro.cache`); execution times are read
per query and attached as integer work over their common denominator.
Each core's :class:`~repro.csdf.schedule.CoreRecord` is kept across
versions under the core's content key and filled on first need: its
event graph, built from the key alone (:func:`_core_graph`), the
policy Howard's iteration last converged to on it, and its exact ratio
per tuple of its actors' phase times.  Rings are summed anew on every
query, which costs less than a memo lookup would.  So a token, rate or
topology edit builds the event graph of the one core it touches, or of
none, and an execution-time edit re-solves only the cores whose phase
times changed: an edit outside every core re-solves nothing.
Re-solved cores warm-start Howard's iteration from the record's policy
(:func:`howard` ``initial_policy=``), falling back to the cold initial
policy whenever the remembered policy is not feasible edge-for-edge.

Howard's iteration compares exact ratios: a policy cycle's ratio is
its integer work and token sums reduced by their gcd, and two ratios
compare by cross-multiplication.  So every core's ratio is the exact
maximum, an exact :class:`fractions.Fraction`, and a pure function of
the core's edges and times, warm start or cold.  Ring and core ratios
meet as integer ``(num, den)`` pairs, compared by cross-multiplication
(:func:`_largest`), and :func:`max_cycle_ratio` rounds the largest to
a float once, by Python's correctly rounded integer division.

Every solver shares one deadlock rule: a token-free cycle deadlocks
whatever it weighs (execution times of 0 included), and raises
:class:`~repro.errors.DeadlockError`.

Capacities
----------
Every capacity question, and every core Howard's iteration gives up
on, goes through one exact cycle-ratio loop, :func:`_exact_mcr`.
:class:`_CapacityEventGraph` builds the whole graph's event graph once
and answers the buffer search's verdicts and the exact self-timed
period under a capacity vector.

Examples
--------
>>> from repro.csdf import CSDFGraph
>>> from repro.csdf.mcr import max_cycle_ratio, throughput_bound
>>> g = CSDFGraph("loop")
>>> _ = g.add_actor("a", exec_time=2)
>>> _ = g.add_actor("b", exec_time=1)
>>> _ = g.add_channel("ab", "a", "b")
>>> _ = g.add_channel("ba", "b", "a", initial_tokens=2)
>>> max_cycle_ratio(g)  # cycle (2+1)/2 vs. the serialization rings 2, 1
2.0
>>> throughput_bound(g)
0.5
"""

from __future__ import annotations

from fractions import Fraction
from itertools import cycle, islice
from math import gcd, lcm
from typing import Mapping

# ``cached`` has no caller here: perfbench's wrapper test reads it as
# ``repro.csdf.mcr.cached``.
from ..cache import ContentStore, cached  # noqa: F401
from ..errors import DeadlockError
from .analysis import concrete_repetition_vector
from .digraph import tarjan_components
from .graph import CSDFGraph
from .schedule import channel_rows, core_layer
from .sdf import check_firing_names, expand_to_hsdf, firing_flows, firing_name

#: The one deadlock message of every solver.
_TOKEN_FREE_CYCLE = "cycle with zero tokens: the graph deadlocks, MCR undefined"

#: Width of :func:`mcr_reference`'s final search interval.
_REFERENCE_TOLERANCE = 1e-6

#: Exact ratios a core's record keeps, one per tuple of its actors'
#: phase times, least recently read evicted first: on perfbench's
#: ``edit_loop`` nearly every hit is on the tuple read last, and none
#: reached past the sixth.
_CORE_RATIOS = 8


def _event_graph(q: Mapping[str, int], actors, channels):
    """The weight-free event graph of ``actors`` and ``channels``,
    ``(offset, edges)``, on integer node indices.

    ``channels`` holds ``(src, dst, production, consumption, initial
    tokens)`` rows with integer phase tuples
    (:func:`~repro.csdf.schedule.channel_rows`).  Firing ``k`` (1-based)
    of actor ``a`` is node ``offset[a] + k - 1``, the actors numbered
    in ``actors`` order.  ``edges`` holds ``(src, dst, distance)``
    triples: each actor's serialization ring in ``actors`` order —
    ``k -> k+1`` at distance 0 and the last firing back to the first at
    distance 1, a self-loop for a single firing — then each channel's
    flows (:func:`~repro.csdf.sdf.firing_flows`) in ``channels`` order.
    A flow's distance is its iteration offset, the expansion channel's
    initial tokens over its rate: the raw token count under-constrains
    channels of rate above 1 and yields an MCR below the true
    self-timed period.  ``q`` holds the **global** repetition counts: a
    core is analyzed in the whole graph's iteration, so its ratio
    composes with the rings outside it.
    """
    offset: dict[str, int] = {}
    edges: list[tuple[int, int, int]] = []
    n = 0
    for name in actors:
        count = q[name]
        offset[name] = n
        edges.extend((n + k, n + k + 1, 0) for k in range(count - 1))
        edges.append((n + count - 1, n, 1))
        n += count
    for src, dst, production, consumption, tokens in channels:
        u, v = offset[src] - 1, offset[dst] - 1
        edges.extend(
            (u + k, v + m, delta) for k, m, delta, _count in firing_flows(
                production, consumption, tokens, q[src], q[dst]))
    return offset, tuple(edges)


def _firing_times(graph: CSDFGraph, firings) -> tuple[float, ...]:
    """The execution time of every firing of the ``(actor, count)``
    pairs, in node order (each actor's phases, cyclically)."""
    return tuple(
        time for name, count in firings
        for time in islice(cycle(graph.actor(name).exec_times), count)
    )


def _integer_times(times) -> tuple[int, list[int]]:
    """``(scale, work)``: the float ``times`` as integers ``work`` over
    their common denominator ``scale``, exactly (execution times are
    floats, and :meth:`float.as_integer_ratio` is exact)."""
    exact = [time.as_integer_ratio() for time in times]
    scale = lcm(*(den for _num, den in exact))
    return scale, [num * (scale // den) for num, den in exact]


def _with_work(edges, times):
    """``(scale, out)``: ``out[u]`` the ``(v, work, distance)`` edges
    out of node ``u``, each doing its source firing's time as integer
    ``work``, the ``times`` over their common denominator ``scale``
    (:func:`_integer_times`)."""
    scale, work = _integer_times(times)
    out: list[list[tuple[int, int, int]]] = [[] for _ in work]
    for u, v, distance in edges:
        out[u].append((v, work[u], distance))
    return scale, out


def _decomposition(graph: CSDFGraph, bindings: Mapping | None):
    """The weight-free split of the event graph, ``(rings, cores)``:
    ``rings`` the ``(actor, q_a)`` pairs of the actors outside every
    cyclic core (:func:`~repro.csdf.schedule.core_layer`), ``cores``
    each core's ``(firings, edges)`` (:func:`_core_graph`), sorted."""
    check_firing_names(graph)
    rings, records = core_layer(graph, bindings)
    # Cores are disjoint, so their first actors tell them apart.
    return rings, tuple(sorted(map(_core_graph, records)))


def _core_graph(record) -> tuple:
    """``(firings, edges)`` of a core's record, built from its key
    alone on first need (:func:`_event_graph` over its actors and
    inner channels)."""
    if record.edges is None:
        actors, channels = record.key
        q = {name: count for name, _tau, count in actors}
        _offset, record.edges = _event_graph(q, q, channels)
        record.firings = tuple(q.items())
        record.ratios = ContentStore(_CORE_RATIOS)
    return record.firings, record.edges


def _check_deadlock_free(zero_adj: list[list[int]]) -> None:
    """Refuse a graph with a token-free cycle: its firings wait on each
    other within one iteration, so the graph deadlocks whatever the
    cycle weighs (execution times of 0 included) and the MCR is
    undefined.  ``zero_adj[u]`` lists the heads of the distance-0 edges
    out of node ``u``; a cycle of them is one strongly connected
    component of that subgraph holding an edge, found by the shared
    :func:`~repro.csdf.digraph.tarjan_components`.
    """
    comp = tarjan_components(len(zero_adj), zero_adj)
    if any(comp[u] == comp[v] for u, succs in enumerate(zero_adj) for v in succs):
        raise DeadlockError(_TOKEN_FREE_CYCLE)


def howard(edges, initial_policy: Mapping | None = None):
    """Howard's policy iteration in integers: ``(mcr, policy)``.

    ``edges[u]`` holds the ``(v, work, distance)`` edges out of node
    ``u``, all integers (:func:`_with_work`).  ``mcr`` is the exact
    maximum cycle ratio, work per token, as a
    :class:`~fractions.Fraction` (0 for an acyclic graph).  ``policy``
    maps every node on or leading to a cycle to its converged
    ``(successor, distance)``: feed it back as ``initial_policy`` to
    warm-start a later solve of the same edges under other work (an
    execution-time edit).  An ``initial_policy`` missing an edge of
    some node is ignored entirely in favor of the cold start, every
    node's heaviest edge.  When the iteration does not settle within
    ``max(64, 4n)`` sweeps (Howard can need Omega(n^2) iterations,
    Hansen & Zwick, ISAAC 2010), :func:`_exact_mcr` finishes from ratio
    0 on the same edges and the policy is empty.  A token-free cycle
    raises :class:`~repro.errors.DeadlockError`.
    """
    solved = _howard_solve(edges, initial_policy)
    if solved is None:
        return _exact_mcr(edges, (), Fraction(0))[0], {}
    return solved


def _howard_solve(edges, initial_policy: Mapping | None):
    """:func:`howard`'s iteration: ``(mcr, policy)``, or ``None`` when
    the sweep budget runs out.  A token-free cycle raises first.

    A policy takes one edge out of every node on or leading to a cycle.
    Evaluating it, each policy cycle's ratio is its ``(work, tokens)``
    sums reduced by their gcd, ``(num, den)``, and each node's value,
    its policy path's work minus ``num / den`` times its tokens into the
    cycle, is kept scaled by ``den``.  Ratios compare by
    cross-multiplication; equal ratios reduce to the same pair, so
    values compared at one ratio share a scale.  Improving it, every
    node moves to a successor of strictly higher ratio or, at an equal
    ratio, strictly higher value.
    """
    _check_deadlock_free([[v for v, _work, distance in succ if not distance]
                          for succ in edges])
    n = len(edges)
    # Trim nodes with no outgoing edges (they are on no cycle); repeat
    # until every remaining node keeps at least one successor.
    alive = [bool(succ) for succ in edges]
    changed = True
    while changed:
        changed = False
        for u in range(n):
            if alive[u] and not any(alive[v] for v, _w, _t in edges[u]):
                alive[u] = False
                changed = True
    live_nodes = [u for u in range(n) if alive[u]]
    if not live_nodes:
        return Fraction(0), {}
    succs = [[edge for edge in edges[u] if alive[edge[0]]] if alive[u] else []
             for u in range(n)]

    policy: list[tuple[int, int, int] | None] = [None] * n
    if initial_policy is not None:
        # Warm start from a previous converged policy (same edges): a
        # remembered (successor, distance) missing at any node abandons
        # the whole seed.
        for u in live_nodes:
            want = initial_policy.get(u)
            policy[u] = next((e for e in succs[u] if (e[0], e[2]) == want), None)
    if initial_policy is None or any(policy[u] is None for u in live_nodes):
        # Initial policy: the heaviest edge out of every live node.
        for u in live_nodes:
            policy[u] = max(succs[u], key=lambda e: e[1])

    num = [0] * n
    den = [1] * n
    value = [0] * n
    for _ in range(max(64, 4 * n)):
        # -- policy evaluation: every node follows its policy edge into
        # exactly one cycle; compute cycle ratios and scaled values.
        ratios = []
        visited = [0] * n  # 0 = new, 1 = on this walk, 2 = done
        order_stamp = [0] * n
        for start in live_nodes:
            if visited[start]:
                continue
            # Walk until a node seen in this walk or a finished node.
            path = []
            u = start
            while not visited[u]:
                visited[u] = 1
                order_stamp[u] = len(path)
                path.append(u)
                u = policy[u][0]
            tree = path
            if visited[u] == 1:
                # Found a new cycle: path[order_stamp[u]:] is the cycle.
                cycle_nodes = path[order_stamp[u]:]
                work = sum(policy[x][1] for x in cycle_nodes)
                tokens = sum(policy[x][2] for x in cycle_nodes)
                common = gcd(work, tokens)
                p, r = work // common, tokens // common
                ratios.append((p, r))
                # Values around the cycle: fix the entry node at 0 and
                # walk backwards.
                num[u], den[u], value[u] = p, r, 0
                for x in reversed(cycle_nodes[1:]):
                    succ, w, t = policy[x]
                    num[x], den[x] = p, r
                    value[x] = r * w - p * t + value[succ]
                tree = path[:order_stamp[u]]
            # The walk's part before the cycle, or into an evaluated region.
            for x in reversed(tree):
                succ, w, t = policy[x]
                p, r = num[succ], den[succ]
                num[x], den[x] = p, r
                value[x] = r * w - p * t + value[succ]
            for x in path:
                visited[x] = 2

        # -- policy improvement: prefer successors with a higher cycle
        # ratio; among equals, a strictly better value.
        improved = False
        for u in live_nodes:
            best = policy[u]
            v = best[0]
            best_p, best_r = num[v], den[v]
            best_value = best_r * best[1] - best_p * best[2] + value[v]
            for edge in succs[u]:
                v, w, t = edge
                p, r = num[v], den[v]
                if p * best_r > best_p * r:
                    best, best_p, best_r = edge, p, r
                    best_value = r * w - p * t + value[v]
                    improved = True
                elif p == best_p and r == best_r:
                    candidate = r * w - p * t + value[v]
                    if candidate > best_value:
                        best, best_value = edge, candidate
                        improved = True
            policy[u] = best
        if not improved:
            mcr = max(Fraction(p, r) for p, r in ratios)
            return mcr, {u: (policy[u][0], policy[u][2]) for u in live_nodes}
    return None  # no convergence: howard() finishes with the exact loop


def mcr_reference(graph: CSDFGraph, bindings: Mapping | None = None) -> float:
    """Legacy MCR solver: parametric binary search on the period
    candidate ``lambda``, feasible iff the edge weights
    ``exec(src) - lambda * tokens(e)`` admit no positive cycle (checked
    with Bellman-Ford longest-path relaxation).

    Kept as the independent oracle the differential test harness
    cross-validates Howard's iteration against, on an event graph of
    its own: read back from the public
    :func:`~repro.csdf.sdf.expand_to_hsdf`, one edge per expansion
    channel with distance initial tokens / rate, plus the one-token
    self-loop of every actor firing once per iteration (told from the
    repetition vector, not from channel names).  The result is within
    ``1e-6`` of the true MCR.
    """
    hsdf = expand_to_hsdf(graph, bindings)
    q = concrete_repetition_vector(graph, bindings)
    weights = {name: actor.exec_time() for name, actor in hsdf.actors.items()}
    edges = [
        (c.src, c.dst, weights[c.src], c.initial_tokens / c.consumption.as_ints(None)[0])
        for c in hsdf.channels.values()
    ]
    for name, count in q.items():
        if count == 1:
            node = firing_name(name, 1)
            edges.append((node, node, weights[node], 1.0))
    if not edges:
        return 0.0
    nodes = list(weights)
    index = {node: i for i, node in enumerate(nodes)}
    zero_adj: list[list[int]] = [[] for _ in nodes]
    for src, dst, _w, t in edges:
        if not t:
            zero_adj[index[src]].append(index[dst])
    _check_deadlock_free(zero_adj)
    lo = 0.0
    hi = sum(weights.values()) + 1.0
    while hi - lo > _REFERENCE_TOLERANCE:
        mid = (lo + hi) / 2.0
        if _has_positive_cycle(nodes, edges, mid):
            lo = mid
        else:
            hi = mid
    return hi


def _has_positive_cycle(nodes, edges, lam: float) -> bool:
    """Positive-weight cycle detection for weights exec(src) - lam*tokens.

    Bellman-Ford longest-path relaxation: a further relaxation after
    |V| - 1 rounds means a positive cycle exists.
    """
    dist = {node: 0.0 for node in nodes}
    for _ in range(len(nodes) - 1):
        changed = False
        for src, dst, weight, tokens in edges:
            w = weight - lam * tokens
            if dist[src] + w > dist[dst] + 1e-12:
                dist[dst] = dist[src] + w
                changed = True
        if not changed:
            return False
    for src, dst, weight, tokens in edges:
        w = weight - lam * tokens
        if dist[src] + w > dist[dst] + 1e-12:
            return True
    return False


def max_cycle_ratio(graph: CSDFGraph, bindings: Mapping | None = None) -> float:
    """The MCR of the graph's HSDF expansion (0.0 for a graph without
    actors; every actor's serialization ring is a cycle, so the result
    is the bottleneck-actor bound or worse).

    The rings of the actors outside the cyclic cores are closed-form,
    summed in integers on every call; each core is solved exactly with
    Howard's policy iteration in integers, its ratio kept in the core's
    record (:class:`~repro.csdf.schedule.CoreRecord`) per tuple of its
    actors' phase times, so re-analysis after an edit re-solves only
    the cores the edit touched.  The largest ratio is rounded to a
    float once, by Python's correctly rounded integer division.
    """
    num, den = _largest(_cycle_ratios(graph, bindings))
    return num / den


def _cycle_ratios(graph: CSDFGraph, bindings: Mapping | None):
    """Every ring's and core's exact ratio as an integer ``(num, den)``
    pair: each ring's sum (:func:`_ring_sum`), then each core's ratio
    (:func:`_component_mcr`)."""
    check_firing_names(graph)
    rings, records = core_layer(graph, bindings)
    for name, count in rings:
        yield _ring_sum(graph.actor(name).exec_times, count)
    for record in records:
        ratio = _component_mcr(graph, record)
        yield ratio.numerator, ratio.denominator


def _largest(ratios) -> tuple[int, int]:
    """The largest of the ``(num, den)`` ratios (all at least 0), by
    cross-multiplication; ``(0, 1)`` when there is none."""
    best_num, best_den = 0, 1
    for num, den in ratios:
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


def _ring_sum(times: tuple[float, ...], count: int) -> tuple[int, int]:
    """The exact ratio ``(num, den)``, in integers, of a ring of ``count``
    firings cycling through the phase ``times`` and carrying one token:
    whole phase cycles times the phases' sum plus the leftover prefix,
    over the phases' common denominator (:func:`_integer_times`)."""
    if len(times) == 1:
        num, den = times[0].as_integer_ratio()
        return num * count, den
    den, work = _integer_times(times)
    whole, left = divmod(count, len(times))
    return whole * sum(work) + sum(work[:left]), den


def _component_mcr(graph: CSDFGraph, record) -> Fraction:
    """One core's exact cycle ratio (:func:`_solve_core`), kept in its
    record per tuple of its actors' phase times: the record's key fixes
    each actor's firing count, so they fix the firing times, which are
    built only for a solve.  Deadlocked cores are never stored: the
    raise propagates.  The solve warm-starts from the policy last
    converged on the record's edges.
    """
    firings, edges = _core_graph(record)
    phases = tuple(graph.actor(name).exec_times for name, _count in firings)
    hit = record.ratios.get(phases)
    if hit is not None:
        return hit
    ratio, record.policy = _solve_core(edges, _firing_times(graph, firings),
                                       record.policy)
    record.ratios.put(phases, ratio)
    return ratio


def _solve_core(edges, times, initial_policy: Mapping | None = None):
    """``(ratio, policy)`` of one :func:`howard` run on a core's
    ``edges`` under its firing ``times``: the exact cycle ratio in
    time units, and the converged policy."""
    scale, out = _with_work(edges, times)
    ratio, policy = howard(out, initial_policy)
    return ratio / scale, policy


def throughput_bound(graph: CSDFGraph, bindings: Mapping | None = None) -> float:
    """Iterations per unit time in steady state (1 / MCR)."""
    period = max_cycle_ratio(graph, bindings)
    return float("inf") if period <= 0 else 1.0 / period


class _CapacityEventGraph:
    """The whole graph's event graph, with the capacity questions asked
    of it: the exact self-timed period under a capacity vector
    (:meth:`period`), and whether a vector keeps the unconstrained MCR
    (:meth:`sustains`, the buffer search's verdict).

    Under a capacity ``c`` the executor reserves a firing's production
    when the producer *starts* and frees a consumption when the
    consumer starts, so the free space of a channel acts as a reverse
    channel holding ``c - initial tokens`` tokens, produced by the
    consumer's phases and consumed by the producer's.  Both ends happen
    at firing starts, so its event-graph edges weigh 0, and the
    self-timed period under the capacities is the MCR of the augmented
    event graph (Reiter; Stuijk, Geilen & Basten, DAC 2006, size
    bounded buffers the same way).  The one exception is a self-loop:
    a firing frees its own consumption before it reserves its
    production (``_TimedState.can_start`` in
    :mod:`repro.csdf.throughput`), so the distance-0 edge from a firing
    to itself is dropped.

    The event graph is built once by :func:`_event_graph`, over every
    actor in repetition-vector order and every channel, each edge doing
    its source firing's execution time as integer work
    (:func:`_with_work`).  The exact MCR, ``target``, is the largest
    ring and core ratio (:func:`_cycle_ratios`, :func:`_largest`), as a
    :class:`~fractions.Fraction`; :func:`_exact_mcr` at that ratio
    settles the potentials the verdicts start from.
    Capacities never lower the period, so :meth:`period` starts the
    same loop at ``target``.

    A verdict adds the reverse edges of its capped channels, memoized
    per ``(channel, capacity)``, and relaxes their packed weights at
    the target (:func:`_weigher`) from the tails of the edges its start
    potentials violate, which are those of the last vector that
    sustained (at first, the unconstrained graph's): they satisfy every
    base edge, and the edges of the channels already sized, which recur
    in every later verdict of the search.  ``probes`` counts the
    verdicts decided.
    """

    def __init__(self, graph: CSDFGraph, bindings: Mapping | None):
        start = Fraction(*_largest(_cycle_ratios(graph, bindings)))
        self.probes = 0
        q = concrete_repetition_vector(graph, bindings)
        self._channels = dict(zip(graph.channels, channel_rows(graph, bindings)))
        self._q = q
        self._offset, edges = _event_graph(q, q, self._channels.values())
        self._scale, self._edges = _with_work(edges, _firing_times(graph, q.items()))
        ratio, self._adj, self._potentials = _exact_mcr(
            self._edges, (), start * self._scale)
        self.target = ratio / self._scale
        self._weight = _weigher(ratio, len(self._edges))
        self._reverse: dict[tuple[str, int], list[tuple[int, int, int, int]]] = {}

    def _reverse_edges(self, name: str, capacity: int) -> list[tuple[int, int, int, int]]:
        """``(src, dst, distance, weight)`` of the reverse channel of
        ``name`` at ``capacity``, ``weight`` packed at the target:
        consumer firing ``m`` frees the space producer firing ``k``
        reserves ``delta`` iterations later."""
        key = (name, capacity)
        edges = self._reverse.get(key)
        if edges is None:
            producer, consumer, production, consumption, tokens = self._channels[name]
            src = self._offset[consumer] - 1
            dst = self._offset[producer] - 1
            edges = [
                (src + m, dst + k, delta, self._weight(0, delta))
                for m, k, delta, _count in firing_flows(
                    consumption, production, capacity - tokens,
                    self._q[consumer], self._q[producer])
                if delta or src + m != dst + k
            ]
            self._reverse[key] = edges
        return edges

    def period(self, capacities: Mapping[str, int | None]) -> Fraction:
        """The exact self-timed period under ``capacities`` (``None``:
        unbounded), each at least its channel's initial tokens (the
        executors refuse less up front);
        :class:`~repro.errors.DeadlockError` when they deadlock."""
        extra = [(u, v, 0, distance)
                 for name, capacity in capacities.items() if capacity is not None
                 for u, v, distance, _weight in self._reverse_edges(name, capacity)]
        return _exact_mcr(self._edges, extra, self.target * self._scale)[0] / self._scale

    def sustains(self, capacities: Mapping[str, int | None]) -> bool:
        """True when the channels capped in ``capacities`` (``None``:
        unbounded) keep the target period without deadlock."""
        self.probes += 1
        potentials = self._potentials
        adj = list(self._adj)
        seeds = []
        for name, capacity in capacities.items():
            if capacity is None:
                continue
            for u, v, _distance, w in self._reverse_edges(name, capacity):
                adj[u] = [*adj[u], (v, w)]
                if potentials[u] + w > potentials[v]:
                    seeds.append(u)
        if not seeds:
            return True
        settled, _cycle = _longest_paths(adj, list(potentials), seeds)
        if settled is None:
            return False
        self._potentials = settled
        return True


def _weigher(ratio: Fraction, n: int):
    """The packed integer weight of an edge at ``ratio`` (work per
    token) in a graph of ``n`` nodes: ``(den * work - num * distance,
    1 if distance == 0 else -n)``, lexicographically.  A simple cycle's
    second component lies within ``[-n*n, n]`` and is positive exactly
    when it carries no token, so a cycle weighs more than 0 when its
    ratio exceeds ``ratio`` or it carries no token, and none weighs 0."""
    big, num, den = n * n + 1, ratio.numerator, ratio.denominator

    def weight(work: int, distance: int) -> int:
        return big * (den * work - num * distance) + (1 if distance == 0 else -n)
    return weight


def _exact_mcr(edges, extra, ratio: Fraction):
    """The exact maximum cycle ratio of an event graph on integer node
    indices, raised from ``ratio``, which is at most the answer.

    ``edges[u]`` holds the ``(v, work, distance)`` edges out of node
    ``u`` and ``extra`` more as ``(u, v, work, distance)``, all
    integers.  While the longest-path potentials under the packed
    weights of :func:`_weigher` at the ratio find a positive cycle
    (:func:`_longest_paths`), the ratio rises to that cycle's exact
    ratio, each hop taking its heaviest edge at the current ratio (a
    flow and a reverse edge can join the same two firings); a cycle
    without a token raises :class:`~repro.errors.DeadlockError`.  Each
    raise is strict over finitely many simple cycles, so the loop ends
    at the exact MCR.  Returns ``(ratio, adj, potentials)``: the
    ``(v, weight)`` successors at that ratio and the settled
    potentials.
    """
    out = [list(succ) for succ in edges]
    for u, v, work, distance in extra:
        out[u].append((v, work, distance))
    n = len(out)
    while True:
        weight = _weigher(ratio, n)
        adj = [[(v, weight(work, distance)) for v, work, distance in succ]
               for succ in out]
        potentials, found = _longest_paths(adj, [0] * n, range(n))
        if potentials is not None:
            return ratio, adj, potentials
        hops = [max(((work, distance) for head, work, distance in out[u] if head == v),
                    key=lambda hop: weight(*hop))
                for u, v in found]
        tokens = sum(distance for _work, distance in hops)
        if not tokens:
            raise DeadlockError(_TOKEN_FREE_CYCLE)
        ratio = Fraction(sum(work for work, _distance in hops), tokens)


def _longest_paths(adj, potentials: list[int], seeds):
    """Longest-path relaxation over ``adj`` (``adj[u]`` the ``(v,
    weight)`` successors of ``u``) from ``seeds``, in Goldberg and
    Radzik's passes: each walks depth first from the nodes with an
    improving edge (one that raises its head) along it and then the
    admissible edges (raising or keeping their head), and relaxes the
    nodes reached in topological order, so a chain of raises costs one
    pass.  No cycle weighs 0 (the weights' tie-break), so a cycle of
    admissible edges is positive, as is one the parent pointers close;
    potentials that rise without bound make the latter appear.

    Returns ``(potentials, None)``, the settled potentials raised in
    place, or ``(None, cycle)`` with ``cycle`` the ``(u, v)`` edges of
    a positive cycle."""
    n = len(adj)
    parent = [-1] * n
    labeled = seeds
    while labeled:
        state = bytearray(n)  # 0 unseen, 1 on the walk's path, 2 done
        order = []
        for root in labeled:
            if state[root]:
                continue
            base = potentials[root]
            improving = [(v, w) for v, w in adj[root] if base + w > potentials[v]]
            if not improving:
                continue
            state[root] = 1
            path = [root]
            successors = [iter(improving)]
            while successors:
                u = path[-1]
                base = potentials[u]
                for v, w in successors[-1]:
                    if base + w >= potentials[v]:
                        if not state[v]:
                            state[v] = 1
                            path.append(v)
                            successors.append(iter(adj[v]))
                            break
                        if state[v] == 1:
                            cycle = path[path.index(v):] + [v]
                            return None, list(zip(cycle, cycle[1:]))
                else:
                    state[u] = 2
                    order.append(u)
                    path.pop()
                    successors.pop()
        labeled = []
        for u in reversed(order):
            base = potentials[u]
            for v, w in adj[u]:
                value = base + w
                if value > potentials[v]:
                    potentials[v] = value
                    parent[v] = u
                    labeled.append(v)
        if labeled:
            cycle = _parent_cycle(parent)
            if cycle is not None:
                return None, cycle
    return potentials, None


def _parent_cycle(parent: list[int]) -> list[tuple[int, int]] | None:
    """The ``(parent[v], v)`` edges of a cycle the parent pointers
    (``-1``: none) close, or ``None``.  After strict relaxations such a
    cycle has positive weight."""
    mark = [0] * len(parent)
    for start in range(len(parent)):
        u = start
        while u >= 0 and not mark[u]:
            mark[u] = start + 1
            u = parent[u]
        if u >= 0 and mark[u] == start + 1:
            cycle = [(parent[u], u)]
            while cycle[-1][0] != u:
                v = cycle[-1][0]
                cycle.append((parent[v], v))
            return cycle
    return None
