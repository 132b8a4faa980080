"""Maximum cycle ratio: the throughput bound of self-timed execution.

Classic result (Reiter 1968; Sriram & Bhattacharyya): the steady-state
iteration period of a self-timed HSDF execution with unlimited
processors equals the *maximum cycle ratio*

    MCR = max over cycles C of ( sum of execution times on C )
                               / ( sum of initial tokens on C )

CSDF graphs are analyzed on the event graph of their exact HSDF
expansion (:mod:`repro.csdf.sdf`): one node per firing, whose
serialization rings contribute the per-actor "one firing at a time"
cycles.  The event graph is never built whole (see "Rings and cores"
below); :func:`~repro.csdf.sdf.expand_to_hsdf` stays the public
expansion, the one the oracle reads and the core builder is tested
against (``tests/csdf/test_event_graph_oracle.py``).

Two solvers are provided:

* :func:`max_cycle_ratio` — **Howard's policy iteration** (the
  max-plus spectral method of Cochet-Terrasson et al., surveyed by
  Dasdan as the fastest MCR algorithm in practice) on every cyclic
  core.  Each iteration evaluates one successor policy in O(V + E) and
  improves it greedily; convergence typically takes a handful of
  iterations instead of the ~50 full relaxation sweeps of the
  parametric search.
* :func:`mcr_reference` — the legacy parametric binary search with
  Bellman-Ford feasibility checks on the whole expansion, kept as the
  independent oracle for the differential test suite
  (``tests/csdf/test_mcr_differential.py``).

Tests cross-validate both against each other and against the converged
``self_timed_execution`` period.  For the throughput bound over a whole
*parameter domain* (instead of one binding at a time) see
:mod:`repro.csdf.parametric`, which shares this module's core builder
(:func:`_core_edges`) and certifies each core with one :func:`howard`
run.  Both find the cores with the liveness check's finder,
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
  times the sum of the phase times, plus the leftover prefix, summed
  exactly (:class:`fractions.Fraction`) — and needs no expansion;
* a cycle inside one core's sub-expansion: the core's firings with
  their rings and the flows of the channels inside the core, built
  from the *global* repetition counts and solved by one Howard run.

The weight-free part — the ``(actor, q_a)`` pairs outside the cores and
each core's nodes and edges — is one cache entry, carried across
execution-time edits (see :mod:`repro.cache`); execution times are
read per query.  Each core's ratio is keyed in a cross-version content
store by its fingerprint (nodes, edges, weights), so re-analysis after
an edit re-solves only the cores whose fingerprint changed — an edit
outside every core re-solves nothing, its ring being closed-form.
Re-solved cores warm-start Howard's iteration from the previous
converged policy for the same core shape (:func:`howard`
``initial_policy=``), falling back to the cold initial policy whenever
the remembered policy is not feasible edge-for-edge.

A core's ratio is extracted from the critical cycle by *exact*
rational summation (:class:`fractions.Fraction` over the cycle's float
weights and distances), so it does not depend on the order of the
cycle's edges, nor on which of several exactly equal cycles policy
iteration converged to.  It is not always a pure function of the core
fingerprint: Howard's improvement step treats ratios within ``_EPS``
as equal, so on a near-tie it can settle on a cycle whose exact ratio
is just below the critical one, and a warm start can settle on a
different cycle than a cold one — warm and cold re-analysis then
differ in the last bits.  :func:`max_cycle_ratio` rounds the largest
ratio to a float; :class:`_CapacityEventGraph` raises its own target
past such a tie.

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
from math import lcm
from typing import Mapping

from ..cache import bindings_key, cached, content_store, register_binding_insensitive
from ..errors import DeadlockError
from .analysis import concrete_repetition_vector
from .channel import Channel
from .digraph import tarjan_components
from .graph import CSDFGraph
from .schedule import cyclic_components
from .sdf import (
    channel_firing_flows, check_firing_names, expand_to_hsdf, firing_name, flow_edges,
    serialization_ring,
)
from .simulation import rate_table

#: Strict-improvement threshold of the policy iteration; values closer
#: than this are considered equal, which keeps ties from cycling.
_EPS = 1e-10

#: The one deadlock message of every solver.
_TOKEN_FREE_CYCLE = "cycle with zero tokens: the graph deadlocks, MCR undefined"

#: Cross-version content stores (see :func:`repro.cache.content_store`).
_SCC_STORE = "mcr_scc"          # core fingerprint -> exact ratio
_POLICY_STORE = "mcr_scc_policy"  # core shape -> converged policy


def _core_edges(actors: tuple[str, ...], channels, q: Mapping[str, int],
                bindings: Mapping | None = None):
    """The weight-free event graph of one cyclic core, ``(nodes,
    edges)`` with ``edges`` as ``(src, dst, distance)``.

    It is the expansion (:func:`~repro.csdf.sdf.expand_to_hsdf` plus
    the MCR's distance encoding) restricted to the core's ``actors``
    and ``channels``, with the **global** repetition counts ``q``: the
    core is analyzed in the whole graph's iteration, so its ratio
    composes with the rings outside it.  Each actor's firings and ring
    (a self-loop for a single firing) come in ``actors`` order, then
    the channel flows.  A flow's distance is its iteration offset, the
    expansion channel's initial tokens over its rate: the raw token
    count under-constrains channels of rate above 1 and yields an MCR
    below the true self-timed period.  Every edge weighs its source
    firing's execution time (:func:`_firing_times`, :func:`_weighted`).
    """
    nodes = tuple(
        firing_name(name, k) for name in actors for k in range(1, q[name] + 1)
    )
    edges = [edge for name in actors for edge in serialization_ring(name, q[name])]
    for channel in channels:
        edges.extend(flow_edges(channel, q[channel.src], q[channel.dst], bindings))
    return nodes, tuple(edges)


def _firing_times(graph: CSDFGraph, firings) -> tuple[float, ...]:
    """The execution time of every firing of the ``(actor, count)``
    pairs, in node order (each actor's phases, cyclically)."""
    return tuple(
        time for name, count in firings
        for time in islice(cycle(graph.actor(name).exec_times), count)
    )


def _weighted(nodes, edges, times):
    """``(src, dst, weight, distance)`` edges: each edge weighs its
    source firing's execution time."""
    weight = dict(zip(nodes, times))
    return [(src, dst, weight[src], t) for src, dst, t in edges]


def _decomposition(graph: CSDFGraph, bindings: Mapping | None):
    """The weight-free split of the event graph, ``(rings, cores)``.

    ``rings`` holds the ``(actor, q_a)`` pairs of the actors outside
    every cyclic core, ``cores`` one ``(firings, nodes, edges)`` per
    core (:func:`_core_edges`), ``firings`` its ``(actor, q_a)`` pairs
    in node order.  Execution times are absent, so the entry survives
    execution-time edits: it is registered binding-insensitive with
    :mod:`repro.cache`.
    """
    return cached(
        graph, ("mcr_cores", bindings_key(bindings)),
        lambda: _decompose(graph, bindings),
    )


def _decompose(graph: CSDFGraph, bindings: Mapping | None):
    check_firing_names(graph)
    q = concrete_repetition_vector(graph, bindings)
    # Every channel's rates, in channel order: a parameter missing from
    # ``bindings`` raises its KeyError even when no core reads it.
    rate_table(graph, bindings)
    cores = sorted(cyclic_components(graph))
    in_cores = set().union(*cores)
    rings = tuple((name, count) for name, count in q.items() if name not in in_cores)
    built = []
    for core in cores:
        members = set(core)
        channels = [c for c in graph.channels.values()
                    if c.src in members and c.dst in members]
        nodes, edges = _core_edges(core, channels, q, bindings)
        built.append((tuple((name, q[name]) for name in core), nodes, edges))
    return rings, tuple(built)


register_binding_insensitive("mcr_cores")


def _check_deadlock_free(nodes, edges) -> None:
    """Refuse a graph with a token-free cycle: its firings wait on each
    other within one iteration, so the graph deadlocks whatever the
    cycle weighs (execution times of 0 included) and the MCR is
    undefined.  ``edges`` are ``(src, dst, weight, distance)``; a cycle
    of distance-0 edges is one strongly connected component of that
    subgraph holding an edge, found by the shared
    :func:`~repro.csdf.digraph.tarjan_components`.
    """
    idx = {node: i for i, node in enumerate(nodes)}
    zero_adj: list[list[int]] = [[] for _ in nodes]
    for src, dst, _w, t in edges:
        if t == 0:
            zero_adj[idx[src]].append(idx[dst])
    comp = tarjan_components(len(nodes), zero_adj)
    if any(comp[u] == comp[v] for u, succs in enumerate(zero_adj) for v in succs):
        raise DeadlockError(_TOKEN_FREE_CYCLE)


def _exact_cycle_ratio(cycle_edges) -> Fraction:
    """The cycle's ratio by exact rational summation of its float
    weights and distances — independent of edge order and of which
    equally-critical cycle policy iteration happened to converge to.
    Every cycle carries a token: :func:`_check_deadlock_free` refused
    the token-free ones."""
    weight = sum(Fraction(w) for _, _, w, _ in cycle_edges)
    tokens = sum(Fraction(t) for _, _, _, t in cycle_edges)
    return weight / tokens


def howard(nodes: list[str], edges, initial_policy: Mapping | None = None):
    """Howard's iteration: MCR, critical cycle, and converged policy.

    Returns ``(mcr, cycle_edges, policy)``: ``mcr`` an exact
    :class:`~fractions.Fraction`, ``cycle_edges`` the list of
    ``(src, dst, weight, distance)`` edges of one cycle attaining the
    MCR (empty for an acyclic graph), and ``policy`` a mapping
    ``node -> (successor, distance)`` describing the converged policy —
    feed it back as ``initial_policy`` to warm-start a later solve of a
    graph with the same shape (same nodes, edges and distances, e.g.
    after an execution-time edit).  An infeasible ``initial_policy``
    (any node whose remembered edge no longer exists) is ignored
    entirely in favor of the cold start.  The MCR is the critical
    cycle's exact rational sum; ratios within ``_EPS`` rank as equal,
    so on a near-tie the iteration can settle just below the critical
    cycle, and warm and cold starts on different cycles.  When it does
    not settle within ``max(64, 4n)`` sweeps, :func:`_exact_mcr`
    finishes from ratio 0, returning the last cycle it rose to (none
    when the MCR is 0) and an empty policy.  A token-free cycle raises
    :class:`~repro.errors.DeadlockError`.
    """
    solved = _howard_solve(nodes, edges, initial_policy=initial_policy)
    if solved is None:
        return _finish_with_loop(nodes, edges)
    ratio, value, policy, live_nodes, idx = solved
    del value
    if not live_nodes:
        return Fraction(0), [], {}
    best = max(live_nodes, key=lambda u: ratio[u])
    # Walk the (converged) policy from the argmax node: the walk enters
    # a policy cycle whose ratio is exactly ratio[best] — the MCR.
    seen: dict[int, int] = {}
    path: list[int] = []
    u = best
    while u not in seen:
        seen[u] = len(path)
        path.append(u)
        u = policy[u][0]
    cycle = path[seen[u]:]
    names = {i: name for name, i in idx.items()}
    cycle_edges = []
    for x in cycle:
        succ, w, t = policy[x]
        cycle_edges.append((names[x], names[succ], w, t))
    policy_out = {
        names[u]: (names[policy[u][0]], policy[u][2]) for u in live_nodes
    }
    return _exact_cycle_ratio(cycle_edges), cycle_edges, policy_out


def _finish_with_loop(nodes: list[str], edges):
    """:func:`howard`'s result where its iteration did not settle:
    :func:`_exact_mcr` from ratio 0 on the exact weights and distances,
    scaled to integers."""
    index = {name: i for i, name in enumerate(nodes)}
    exact = [(Fraction(w), Fraction(t)) for _src, _dst, w, t in edges]
    work_scale = lcm(*(w.denominator for w, _t in exact))
    token_scale = lcm(*(t.denominator for _w, t in exact))
    out: list[list[tuple[int, int, int]]] = [[] for _ in nodes]
    named = {}
    for (src, dst, w, t), (exact_w, exact_t) in zip(edges, exact):
        edge = (index[dst], int(exact_w * work_scale), int(exact_t * token_scale))
        out[index[src]].append(edge)
        named[(index[src], *edge)] = (src, dst, w, t)
    ratio, _adj, _potentials, cycle = _exact_mcr(out, (), Fraction(0))
    return ratio * token_scale / work_scale, [named[edge] for edge in cycle or ()], {}


def _howard_solve(nodes: list[str], edges, initial_policy: Mapping | None = None):
    """The shared Howard iteration.

    Returns ``(ratio, value, policy, live_nodes, idx)`` after
    convergence (``live_nodes`` empty for acyclic graphs) or ``None``
    when the iteration hit its sweep budget without stabilizing
    (:func:`howard` then finishes with :func:`_exact_mcr`).
    ``initial_policy`` optionally seeds the iteration (all-or-nothing:
    every live node must map to an existing edge, else the default
    heaviest-edge start is used for all of them).
    """
    n = len(nodes)
    idx = {name: i for i, name in enumerate(nodes)}
    out_edges: list[list[tuple[int, float, float]]] = [[] for _ in range(n)]
    for src, dst, w, t in edges:
        out_edges[idx[src]].append((idx[dst], w, t))

    _check_deadlock_free(nodes, edges)

    # Trim nodes with no outgoing edges (they are on no cycle); repeat
    # until every remaining node keeps at least one successor.
    alive = [bool(out_edges[u]) for u in range(n)]
    changed = True
    while changed:
        changed = False
        for u in range(n):
            if not alive[u]:
                continue
            if not any(alive[v] for v, _, _ in out_edges[u]):
                alive[u] = False
                changed = True
    live_nodes = [u for u in range(n) if alive[u]]
    if not live_nodes:
        return [0.0] * n, [0.0] * n, [None] * n, [], idx
    succs: list[list[tuple[int, float, float]]] = [
        [(v, w, t) for v, w, t in out_edges[u] if alive[v]] if alive[u] else []
        for u in range(n)
    ]

    policy: list[tuple[int, float, float] | None] = [None] * n
    seeded = initial_policy is not None
    if seeded:
        # Warm start from a previous converged policy (same shape):
        # match each remembered (successor, distance) against the live
        # edges; any miss abandons the whole seed.
        for u in live_nodes:
            remembered = initial_policy.get(nodes[u])
            edge = None
            if remembered is not None:
                v_want = idx.get(remembered[0])
                if v_want is not None:
                    for candidate in succs[u]:
                        if candidate[0] == v_want and candidate[2] == remembered[1]:
                            edge = candidate
                            break
            if edge is None:
                seeded = False
                break
            policy[u] = edge
    if not seeded:
        # Initial policy: the heaviest edge out of every live node.
        for u in live_nodes:
            policy[u] = max(succs[u], key=lambda e: e[1])

    ratio = [0.0] * n
    value = [0.0] * n
    max_iters = max(64, 4 * n)
    for _ in range(max_iters):
        # -- policy evaluation: every node follows its policy edge into
        # exactly one cycle; compute cycle ratios and relative values.
        visited = [0] * n  # 0 = new, 1 = in progress (this pass), 2 = done
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
            if visited[u] == 1:
                # Found a new cycle: path[order_stamp[u]:] is the cycle.
                cycle = path[order_stamp[u]:]
                w_sum = sum(policy[x][1] for x in cycle)
                t_sum = sum(policy[x][2] for x in cycle)
                lam = w_sum / t_sum
                # Values around the cycle: fix the entry node at 0 and
                # walk backwards (value[x] = w - lam*t + value[succ]).
                ratio[u] = lam
                value[u] = 0.0
                for x in reversed(cycle[1:]):
                    succ, w, t = policy[x]
                    ratio[x] = lam
                    value[x] = w - lam * t + value[succ]
                for x in cycle:
                    visited[x] = 2
                # Tree part of the walk (path before the cycle).
                for x in reversed(path[: order_stamp[u]]):
                    succ, w, t = policy[x]
                    ratio[x] = ratio[succ]
                    value[x] = w - ratio[x] * t + value[succ]
                    visited[x] = 2
            else:
                # Ran into an already-evaluated region.
                for x in reversed(path):
                    succ, w, t = policy[x]
                    ratio[x] = ratio[succ]
                    value[x] = w - ratio[x] * t + value[succ]
                    visited[x] = 2

        # -- policy improvement: prefer successors with a higher cycle
        # ratio; among equals, a strictly better value.
        improved = False
        for u in live_nodes:
            best = policy[u]
            best_ratio = ratio[best[0]]
            best_value = best[1] - best_ratio * best[2] + value[best[0]]
            for edge in succs[u]:
                v, w, t = edge
                if ratio[v] > best_ratio + _EPS:
                    best, best_ratio = edge, ratio[v]
                    best_value = w - ratio[v] * t + value[v]
                    improved = True
                elif abs(ratio[v] - best_ratio) <= _EPS:
                    candidate = w - best_ratio * t + value[v]
                    if candidate > best_value + _EPS:
                        best, best_value = edge, candidate
                        improved = True
            policy[u] = best
        if not improved:
            return ratio, value, policy, live_nodes, idx
    return None  # no convergence: howard() finishes with the exact loop


def mcr_reference(
    graph: CSDFGraph,
    bindings: Mapping | None = None,
    tolerance: float = 1e-6,
) -> float:
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
    ``tolerance`` of the true MCR.
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
    _check_deadlock_free(nodes, edges)
    lo = 0.0
    hi = sum(weights.values()) + 1.0
    while hi - lo > tolerance:
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

    The rings of the actors outside the cyclic cores are closed-form;
    each core is solved with Howard's policy iteration (exact up to
    float rounding), its result memoized across graph versions by
    content fingerprint, so re-analysis after an edit re-solves only
    the cores the edit touched.  Results are memoized per graph
    version.
    """
    return cached(
        graph, ("mcr", bindings_key(bindings)),
        lambda: _max_cycle_ratio(graph, bindings),
    )


def _max_cycle_ratio(graph: CSDFGraph, bindings: Mapping | None) -> float:
    # Rounding is monotone and comparisons between Fraction and float
    # are exact, so this is the largest ratio's float.
    return float(max((ratio for _core, ratio in _cycle_ratios(graph, bindings)),
                     default=0))


def _cycle_ratios(graph: CSDFGraph, bindings: Mapping | None):
    """Every ring's and core's ratio, as ``(core, ratio)``: each ring's
    exact sum with ``core`` ``None``, then each core's ratio
    (:func:`_component_mcr`) with ``core`` its ``(actor, q_a)`` pairs."""
    rings, cores = _decomposition(graph, bindings)
    for name, count in rings:
        yield None, _ring_sum(graph.actor(name).exec_times, count)
    for firings, nodes, edges in cores:
        yield firings, _component_mcr(graph, firings, nodes, edges)


def _ring_sum(times: tuple[float, ...], count: int) -> Fraction:
    """The exact ratio of a ring of ``count`` firings cycling through
    the phase ``times`` and carrying one token: whole phase cycles
    times the phases' sum plus the leftover prefix — the value
    :func:`_exact_cycle_ratio` gives the ring's edges, whatever
    ``count`` is."""
    whole, left = divmod(count, len(times))
    return whole * sum(map(Fraction, times)) + sum(map(Fraction, times[:left]))


def _component_mcr(graph: CSDFGraph, firings, nodes, edges) -> Fraction:
    """One core's exact cycle ratio (:func:`howard`), memoized across
    versions by fingerprint.

    The fingerprint covers everything the ratio depends on — the core's
    nodes, its weight-free edges, and its firings' execution times — so
    a store hit is exact by construction; deadlocked cores are never
    stored (the raise propagates to the per-version cache, which
    memoizes exceptions itself).
    """
    store = content_store(graph, _SCC_STORE)
    times = _firing_times(graph, firings)
    key = (nodes, edges, times)
    hit = store.get(key)
    if hit is not None:
        return hit
    policies = content_store(graph, _POLICY_STORE)
    shape = (nodes, edges)
    ratio, _cycle, policy = howard(list(nodes), _weighted(nodes, edges, times),
                                   initial_policy=policies.get(shape))
    policies.put(shape, policy)
    store.put(key, ratio)
    return ratio


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

    The event graph is built once, on integer node indices: the rings
    of :func:`~repro.csdf.sdf.serialization_ring` and the flows of
    :func:`~repro.csdf.sdf.channel_firing_flows` of every channel, each
    edge doing its source firing's execution time as integer work (the
    times over their common denominator).  The exact MCR, ``target``,
    is :func:`_exact_mcr` started at the largest ring and core ratio
    (:func:`_cycle_ratios`), which Howard's float ranking may leave
    just below the critical cycle.  Capacities never lower the period,
    so :meth:`period` starts the same loop at ``target``.

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
        start = max((ratio for _core, ratio in _cycle_ratios(graph, bindings)),
                    default=Fraction(0))
        self.probes = 0
        q = concrete_repetition_vector(graph, bindings)
        self._channels = graph.channels
        self._bindings = bindings
        self._q = q
        self._offset: dict[str, int] = {}
        n = 0
        for name, count in q.items():
            self._offset[name] = n
            n += count
        times = [Fraction(t) for t in _firing_times(graph, q.items())]
        self._scale = lcm(*(t.denominator for t in times))
        work = [int(t * self._scale) for t in times]

        index = {firing_name(name, k): self._offset[name] + k - 1
                 for name, count in q.items() for k in range(1, count + 1)}
        edges: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for name, count in q.items():
            for src, dst, distance in serialization_ring(name, count):
                edges[index[src]].append((index[dst], work[index[src]], int(distance)))
        for channel in graph.channels.values():
            src, dst = self._offset[channel.src] - 1, self._offset[channel.dst] - 1
            for k, m, delta, _count in channel_firing_flows(
                    channel, q[channel.src], q[channel.dst], bindings):
                edges[src + k].append((dst + m, work[src + k], delta))
        self._edges = edges
        ratio, self._adj, self._potentials, _cycle = _exact_mcr(
            edges, (), start * self._scale)
        self.target = ratio / self._scale
        self._weight = _weigher(ratio, n)
        self._reverse: dict[tuple[str, int], list[tuple[int, int, int, int]]] = {}

    def _reverse_edges(self, name: str, capacity: int) -> list[tuple[int, int, int, int]]:
        """``(src, dst, distance, weight)`` of the reverse channel of
        ``name`` at ``capacity``, ``weight`` packed at the target:
        consumer firing ``m`` frees the space producer firing ``k``
        reserves ``delta`` iterations later."""
        key = (name, capacity)
        edges = self._reverse.get(key)
        if edges is None:
            channel = self._channels[name]
            space = Channel(name, channel.dst, channel.src,
                            production=channel.consumption,
                            consumption=channel.production,
                            initial_tokens=capacity - channel.initial_tokens)
            src = self._offset[channel.dst] - 1
            dst = self._offset[channel.src] - 1
            edges = [
                (src + m, dst + k, delta, self._weight(0, delta))
                for m, k, delta, _count in channel_firing_flows(
                    space, self._q[channel.dst], self._q[channel.src], self._bindings)
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
    at the exact MCR.  Returns ``(ratio, adj, potentials, cycle)``:
    the ``(v, weight)`` successors at that ratio, the settled
    potentials, and the ``(u, v, work, distance)`` edges of the last
    cycle the ratio rose to (``None`` when it never rose).
    """
    out = [list(succ) for succ in edges]
    for u, v, work, distance in extra:
        out[u].append((v, work, distance))
    n = len(out)
    cycle = None
    while True:
        weight = _weigher(ratio, n)
        adj = [[(v, weight(work, distance)) for v, work, distance in succ]
               for succ in out]
        potentials, found = _longest_paths(adj, [0] * n, range(n))
        if potentials is not None:
            return ratio, adj, potentials, cycle
        cycle = [max(((u, v, work, distance) for (head, work, distance) in out[u]
                      if head == v), key=lambda edge: weight(edge[2], edge[3]))
                 for u, v in found]
        tokens = sum(edge[3] for edge in cycle)
        if not tokens:
            raise DeadlockError(_TOKEN_FREE_CYCLE)
        ratio = Fraction(sum(edge[2] for edge in cycle), tokens)


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
