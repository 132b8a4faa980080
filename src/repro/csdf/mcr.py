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
:mod:`repro.csdf.parametric`, which shares this module's core finder
(:func:`_cyclic_cores`) and core builder (:func:`_core_edges`) and
certifies each core with one :func:`howard` run.

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
weights and distances), which makes the stored value a pure function of
the core fingerprint — warm and cold re-analysis are bit-for-bit
identical even when policy iteration converges to a different
equally-critical cycle.

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
from typing import Mapping

from ..cache import bindings_key, cached, content_store, register_binding_insensitive
from ..errors import AnalysisError
from .analysis import concrete_repetition_vector
from .digraph import adjacency, nontrivial_components, tarjan_components
from .graph import CSDFGraph
from .sdf import (
    check_firing_names, expand_to_hsdf, firing_name, flow_edges, serialization_ring,
)
from .simulation import rate_table

#: Strict-improvement threshold of the policy iteration; values closer
#: than this are considered equal, which keeps ties from cycling.
_EPS = 1e-10

#: Precision of the binary search standing in for Howard's iteration
#: on a core it did not converge on.
_FALLBACK_TOLERANCE = 1e-6

#: Cross-version content stores (see :func:`repro.cache.content_store`).
_SCC_STORE = "mcr_scc"          # core fingerprint -> exact ratio
_POLICY_STORE = "mcr_scc_policy"  # core shape -> converged policy


def _cyclic_cores(csdf: CSDFGraph) -> list[frozenset[str]]:
    """Nontrivial SCCs of the CSDF digraph: actor sets lying on directed
    cycles (including single actors with a self-loop channel)."""
    actors = list(csdf.actors)
    adj = adjacency(actors, ((c.src, c.dst) for c in csdf.channels.values()))
    cores = [frozenset(actors[u] for u in group)
             for group in nontrivial_components(adj)]
    return sorted(cores, key=lambda s: sorted(s))


def _core_edges(actors: list[str], channels, q: Mapping[str, int],
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
    cores = _cyclic_cores(graph)
    in_cores = set().union(*cores)
    rings = tuple((name, count) for name, count in q.items() if name not in in_cores)
    built = []
    for core in cores:
        actors = sorted(core)
        channels = [c for c in graph.channels.values() if c.src in core and c.dst in core]
        nodes, edges = _core_edges(actors, channels, q, bindings)
        built.append((tuple((name, q[name]) for name in actors), nodes, edges))
    return rings, tuple(built)


register_binding_insensitive("mcr_cores")


def _check_deadlock_free(n_nodes: int, out_edges) -> None:
    """Reject graphs with a token-free cycle of positive execution time.

    All edge weights are non-negative, so a strongly connected
    component of the zero-token subgraph containing an edge of positive
    weight necessarily contains a positive-weight token-free cycle —
    the graph deadlocks and the MCR is undefined.  Runs the shared
    :func:`~repro.csdf.digraph.tarjan_components` on the token-free
    edges only.
    """
    zero_adj: list[list[int]] = [[] for _ in range(n_nodes)]
    zero_weight: dict[tuple[int, int], float] = {}
    for u in range(n_nodes):
        for v, w, t in out_edges[u]:
            if t == 0.0:
                zero_adj[u].append(v)
                key = (u, v)
                zero_weight[key] = max(zero_weight.get(key, 0.0), w)
    comp = tarjan_components(n_nodes, zero_adj)
    for (u, v), w in zero_weight.items():
        if comp[u] == comp[v] and w > _EPS:
            raise AnalysisError(
                "cycle with zero tokens and positive execution time: the "
                "graph deadlocks, MCR undefined"
            )


def _exact_cycle_ratio(cycle_edges) -> float:
    """The cycle's ratio by exact rational summation of its float
    weights and distances — independent of edge order and of which
    equally-critical cycle policy iteration happened to converge to."""
    if not cycle_edges:
        return 0.0
    weight = sum(Fraction(w) for _, _, w, _ in cycle_edges)
    tokens = sum(Fraction(t) for _, _, _, t in cycle_edges)
    if tokens <= 0:
        return 0.0  # zero-weight token-free cycle (deadlock already excluded)
    return float(weight / tokens)


def howard(nodes: list[str], edges, initial_policy: Mapping | None = None):
    """Howard's iteration: MCR, critical cycle, and converged policy.

    Returns ``(mcr, cycle_edges, policy)``: ``cycle_edges`` the list of
    ``(src, dst, weight, distance)`` edges of one cycle attaining the
    MCR (empty for an acyclic graph), and ``policy`` a mapping
    ``node -> (successor, distance)`` describing the converged policy —
    feed it back as ``initial_policy`` to warm-start a later solve of a
    graph with the same shape (same nodes, edges and distances, e.g.
    after an execution-time edit).  An infeasible ``initial_policy``
    (any node whose remembered edge no longer exists) is ignored
    entirely in favor of the cold start.  Returns ``None`` when the
    iteration did not converge (caller falls back to the binary
    search).  The MCR is extracted from the critical cycle by exact
    rational summation, so it is identical however the solve was
    seeded.
    """
    solved = _howard_solve(nodes, edges, initial_policy=initial_policy)
    if solved is None:
        return None
    ratio, value, policy, live_nodes, idx = solved
    del value
    if not live_nodes:
        return 0.0, [], {}
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


def _howard_solve(nodes: list[str], edges, initial_policy: Mapping | None = None):
    """The shared Howard iteration.

    Returns ``(ratio, value, policy, live_nodes, idx)`` after
    convergence (``live_nodes`` empty for acyclic graphs) or ``None``
    when the iteration hit its sweep budget without stabilizing.
    ``initial_policy`` optionally seeds the iteration (all-or-nothing:
    every live node must map to an existing edge, else the default
    heaviest-edge start is used for all of them).
    """
    n = len(nodes)
    idx = {name: i for i, name in enumerate(nodes)}
    out_edges: list[list[tuple[int, float, float]]] = [[] for _ in range(n)]
    for src, dst, w, t in edges:
        out_edges[idx[src]].append((idx[dst], w, t))

    _check_deadlock_free(n, out_edges)

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
                if t_sum <= 0.0:
                    if w_sum > _EPS:
                        raise AnalysisError(
                            "cycle with zero tokens and positive execution "
                            "time: the graph deadlocks, MCR undefined"
                        )
                    lam = 0.0
                else:
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
    return None  # signal non-convergence; caller falls back


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
    lo = 0.0
    hi = sum(weights.values()) + 1.0
    if _has_positive_cycle(nodes, edges, hi):
        raise AnalysisError(
            "cycle with zero tokens and positive execution time: the "
            "graph deadlocks, MCR undefined"
        )
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
    rings, cores = _decomposition(graph, bindings)
    best = 0.0
    for name, count in rings:
        ratio = _ring_ratio(graph.actor(name).exec_times, count)
        if ratio > best:
            best = ratio
    for firings, nodes, edges in cores:
        ratio = _component_mcr(graph, firings, nodes, edges)
        if ratio > best:
            best = ratio
    return best


def _ring_ratio(times: tuple[float, ...], count: int) -> float:
    """The ratio of a ring of ``count`` firings cycling through the
    phase ``times`` and carrying one token: whole phase cycles times
    the phases' sum plus the leftover prefix, in exact arithmetic — the
    value :func:`_exact_cycle_ratio` gives the ring's edges, whatever
    ``count`` is."""
    whole, left = divmod(count, len(times))
    return float(whole * sum(map(Fraction, times)) + sum(map(Fraction, times[:left])))


def _component_mcr(graph: CSDFGraph, firings, nodes, edges) -> float:
    """One core's cycle ratio, memoized across versions by fingerprint.

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
    weighted = _weighted(nodes, edges, times)
    policies = content_store(graph, _POLICY_STORE)
    shape = (nodes, edges)
    solved = howard(list(nodes), weighted, initial_policy=policies.get(shape))
    if solved is None:
        ratio = _component_reference(nodes, weighted, times)
    else:
        ratio, _cycle, policy = solved
        policies.put(shape, policy)
    store.put(key, ratio)
    return ratio


def _component_reference(nodes, edges, times) -> float:
    """Binary-search fallback for a non-convergent core (same search as
    :func:`mcr_reference`, restricted to the core)."""
    lo = 0.0
    hi = sum(times) + 1.0
    if _has_positive_cycle(nodes, edges, hi):
        raise AnalysisError(
            "cycle with zero tokens and positive execution time: the "
            "graph deadlocks, MCR undefined"
        )
    while hi - lo > _FALLBACK_TOLERANCE:
        mid = (lo + hi) / 2.0
        if _has_positive_cycle(nodes, edges, mid):
            lo = mid
        else:
            hi = mid
    return hi


def throughput_bound(graph: CSDFGraph, bindings: Mapping | None = None) -> float:
    """Iterations per unit time in steady state (1 / MCR)."""
    period = max_cycle_ratio(graph, bindings)
    return float("inf") if period <= 0 else 1.0 / period
