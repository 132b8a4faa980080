"""Maximum cycle ratio: the throughput bound of self-timed execution.

Classic result (Reiter 1968; Sriram & Bhattacharyya): the steady-state
iteration period of a self-timed HSDF execution with unlimited
processors equals the *maximum cycle ratio*

    MCR = max over cycles C of ( sum of execution times on C )
                               / ( sum of initial tokens on C )

CSDF graphs are analyzed on the event graph of their exact HSDF
expansion (:mod:`repro.csdf.sdf`), whose serialization rings
contribute the per-actor "one firing at a time" cycles.  The event
graph is emitted straight from the repetition vector and the rate
tables (:func:`~repro.csdf.sdf.serialization_ring`,
:func:`~repro.csdf.sdf.flow_edges`) — no HSDF ``CSDFGraph`` is built;
:func:`~repro.csdf.sdf.expand_to_hsdf` stays the public expansion and
the oracle the direct build is tested against
(``tests/csdf/test_event_graph_oracle.py``).

Two solvers are provided:

* :func:`max_cycle_ratio` — **Howard's policy iteration** (the
  max-plus spectral method of Cochet-Terrasson et al., surveyed by
  Dasdan as the fastest MCR algorithm in practice).  Each iteration
  evaluates one successor policy in O(V + E) and improves it greedily;
  convergence typically takes a handful of iterations instead of the
  ~50 full relaxation sweeps of the parametric search.
* :func:`mcr_reference` — the legacy parametric binary search with
  Bellman-Ford feasibility checks, kept as the independent oracle for
  the differential test suite (``tests/csdf/test_mcr_differential.py``).

Tests cross-validate both against each other and against the converged
``self_timed_execution`` period.  For the throughput bound over a whole
*parameter domain* (instead of one binding at a time) see
:mod:`repro.csdf.parametric`, which reuses this module's Howard core
via :func:`howard_critical_cycle` to certify its cyclic-core
candidates.

SCC granularity and warm starts
-------------------------------
Every cycle lies inside one strongly connected component of the event
graph, so ``MCR = max over SCCs of the per-SCC MCR``.
:func:`max_cycle_ratio` exploits this for edit traffic: the weight-free
*structure* of the expansion is memoized separately from the per-node
execution times (and carried across binding-only version bumps, see
:mod:`repro.cache`), the structure is partitioned into SCCs (by the
Tarjan routine of :mod:`repro.csdf.digraph`, which every analysis
shares), and each component's ratio is keyed in a cross-version
content store by its fingerprint (nodes, edges, weights).
Re-analysis after an edit recomputes only the components whose
fingerprint changed — an edit outside the cyclic core re-solves a
serialization ring, not the core.
Re-solved components warm-start Howard's iteration from the previous
converged policy for the same component shape
(:func:`howard` ``initial_policy=``), falling back to the cold initial
policy whenever the remembered policy is not feasible edge-for-edge.

Per-component ratios are extracted from the critical cycle by *exact*
rational summation (:class:`fractions.Fraction` over the cycle's float
weights and distances), which makes the stored value a pure function of
the component fingerprint — warm and cold re-analysis are bit-for-bit
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
from typing import Mapping

from ..cache import bindings_key, cached, content_store, register_binding_insensitive
from ..errors import AnalysisError
from .analysis import concrete_repetition_vector
from .digraph import nontrivial_components, tarjan_components
from .graph import CSDFGraph
from .sdf import check_firing_names, firing_name, flow_edges, serialization_ring

#: Strict-improvement threshold of the policy iteration; values closer
#: than this are considered equal, which keeps ties from cycling.
_EPS = 1e-10

#: Cross-version content stores (see :func:`repro.cache.content_store`).
_SCC_STORE = "mcr_scc"          # component fingerprint -> exact ratio
_POLICY_STORE = "mcr_scc_policy"  # component shape -> converged policy


def _hsdf_structure(graph: CSDFGraph, bindings: Mapping | None):
    """The weight-free shape of the event graph the MCR is computed on.

    Returns ``(nodes, struct_edges)`` with ``struct_edges`` as
    ``(src, dst, t)`` tuples: ``t`` the *dependency distance* in
    iterations.  An expansion channel moving ``c`` tokens per firing
    with ``delta * c`` initial tokens means the consumer's firing of
    iteration ``i`` waits for the producer's firing of iteration
    ``i - delta`` — the distance is ``initial_tokens / c``, not the raw
    token count (using the raw count under-constrains rate->1 channels
    and yields an MCR below the true self-timed period).  Actors
    without a serialization ring get the standard one-iteration
    self-loop encoding "next iteration's firing waits for this one".

    Execution times are deliberately absent: every edge's weight is the
    producing firing's execution time, resolved per query by
    :func:`_node_weights`.  That split lets the memoized structure
    survive binding-only version bumps (execution-time edits) — it is
    registered binding-insensitive with :mod:`repro.cache`.
    """
    return cached(
        graph, ("hsdf_structure", bindings_key(bindings)),
        lambda: _build_structure(graph, bindings),
    )


def _build_structure(graph: CSDFGraph, bindings: Mapping | None):
    """The event graph of :func:`~repro.csdf.sdf.expand_to_hsdf`,
    emitted straight from the repetition vector and the rate tables:
    the nodes in ``q`` order, then the serialization rings of the
    actors firing more than once (in ``q`` order), the channel flows
    (in channel order), and the one-token self-loops of the actors
    firing once — the nodes and edges the expansion's actors and
    channels read back to, in the same order."""
    check_firing_names(graph)
    q = concrete_repetition_vector(graph, bindings)
    nodes = tuple(
        firing_name(name, k) for name, count in q.items() for k in range(1, count + 1)
    )
    edges = [
        edge for name, count in q.items() if count > 1
        for edge in serialization_ring(name, count)
    ]
    for channel in graph.channels.values():
        edges.extend(flow_edges(channel, q[channel.src], q[channel.dst], bindings))
    edges.extend(
        edge for name, count in q.items() if count == 1
        for edge in serialization_ring(name, 1)
    )
    return nodes, tuple(edges)


register_binding_insensitive("hsdf_structure")


def _node_weights(graph: CSDFGraph, nodes) -> dict[str, float]:
    """Execution time of every expansion firing, read live from the
    source graph (node ``a#k`` is the k-th firing of actor ``a``, so
    its weight is phase ``k - 1`` of the actor's execution sequence).
    """
    weights = {}
    for name in nodes:
        base, _, firing = name.rpartition("#")
        weights[name] = graph.actor(base).exec_time(int(firing) - 1)
    return weights


def _hsdf_edges(graph: CSDFGraph, bindings: Mapping | None):
    """The weighted event graph: ``(nodes, edges)`` with ``edges`` as
    ``(src, dst, w, t)`` — structure from :func:`_hsdf_structure`,
    weights resolved against the graph's current execution times."""
    nodes, struct = _hsdf_structure(graph, bindings)
    weights = _node_weights(graph, nodes)
    return list(nodes), [(src, dst, weights[src], t) for src, dst, t in struct]


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


def _scc_components(nodes, struct_edges):
    """Cycle-capable SCCs of the weight-free structure.

    Returns ``[(comp_nodes, comp_edges), ...]`` with ``comp_nodes`` in
    global node order and ``comp_edges`` the intra-component subset of
    ``struct_edges`` in global edge order — a pure, deterministic
    function of the inputs, so identical structures always yield
    identical component fingerprints.  Singleton components without a
    self-edge lie on no cycle and are dropped (they contribute ratio 0).
    Components are ordered by their member names.
    """
    n = len(nodes)
    idx = {name: i for i, name in enumerate(nodes)}
    adj: list[list[int]] = [[] for _ in range(n)]
    for src, dst, _t in struct_edges:
        adj[idx[src]].append(idx[dst])
    comp = tarjan_components(n, adj)
    # One pass buckets the intra-component edges, in global edge order.
    inner: dict[int, list] = {}
    for e in struct_edges:
        c = comp[idx[e[0]]]
        if c == comp[idx[e[1]]]:
            inner.setdefault(c, []).append(e)
    cyclic = [
        (tuple(nodes[u] for u in group), tuple(inner.get(comp[group[0]], ())))
        for group in nontrivial_components(adj, comp)
    ]
    cyclic.sort(key=lambda item: item[0])
    return cyclic


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


def howard_critical_cycle(nodes: list[str], edges):
    """Howard's iteration plus the critical cycle that attains the MCR.

    Returns ``(mcr, cycle_edges)`` (see :func:`howard`), or ``None``
    when the iteration did not converge.  Used by
    :mod:`repro.csdf.parametric` to turn the float verdict into an
    exact rational certificate (the cycle's weights and distances are
    re-summed exactly).
    """
    solved = howard(nodes, edges)
    if solved is None:
        return None
    mcr, cycle_edges, _policy = solved
    return mcr, cycle_edges


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

    Kept verbatim as the independent oracle the differential test
    harness cross-validates Howard's iteration against.  The result is
    within ``tolerance`` of the true MCR.
    """
    nodes, edges = _hsdf_edges(graph, bindings)
    if not edges:
        return 0.0
    lo = 0.0
    hi = sum(_node_weights(graph, nodes).values()) + 1.0
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


def max_cycle_ratio(
    graph: CSDFGraph,
    bindings: Mapping | None = None,
    tolerance: float = 1e-6,
) -> float:
    """The MCR of the graph's HSDF expansion (0.0 for acyclic graphs
    whose expansion has no token-bearing cycle, i.e. unbounded
    single-iteration throughput; with serialization rings there is
    always at least the per-actor cycle, so the result is the
    bottleneck-actor bound or worse).

    Computed per strongly connected component with Howard's policy
    iteration (exact up to float rounding); component results are
    memoized across graph versions by content fingerprint, so
    re-analysis after an edit re-solves only the components the edit
    touched.  ``tolerance`` is kept for API compatibility and only
    governs the binary-search fallback on the rare non-convergent
    component.  Results are memoized per graph version.
    """
    return cached(
        graph, ("mcr", bindings_key(bindings)),
        lambda: _max_cycle_ratio(graph, bindings, tolerance),
    )


def _max_cycle_ratio(graph: CSDFGraph, bindings: Mapping | None, tolerance: float) -> float:
    nodes, struct = _hsdf_structure(graph, bindings)
    if not struct:
        return 0.0
    weights = _node_weights(graph, nodes)
    best = 0.0
    for comp_nodes, comp_edges in _scc_components(nodes, struct):
        ratio = _component_mcr(graph, comp_nodes, comp_edges, weights, tolerance)
        if ratio > best:
            best = ratio
    return best


def _component_mcr(graph, comp_nodes, comp_edges, weights, tolerance) -> float:
    """One SCC's cycle ratio, memoized across versions by fingerprint.

    The fingerprint covers everything the ratio depends on — the
    component's nodes, its weight-free edges, and its node weights — so
    a store hit is exact by construction; deadlocked components are
    never stored (the raise propagates to the per-version cache, which
    memoizes exceptions itself).
    """
    store = content_store(graph, _SCC_STORE)
    comp_weights = tuple(weights[name] for name in comp_nodes)
    key = (comp_nodes, comp_edges, comp_weights)
    hit = store.get(key)
    if hit is not None:
        return hit
    edges = [(src, dst, weights[src], t) for src, dst, t in comp_edges]
    policies = content_store(graph, _POLICY_STORE)
    shape = (comp_nodes, comp_edges)
    solved = howard(list(comp_nodes), edges, initial_policy=policies.get(shape))
    if solved is None:
        ratio = _component_reference(comp_nodes, edges, comp_weights, tolerance)
    else:
        ratio, _cycle, policy = solved
        policies.put(shape, policy)
    store.put(key, ratio)
    return ratio


def _component_reference(comp_nodes, edges, comp_weights, tolerance) -> float:
    """Binary-search fallback for a non-convergent component (same
    search as :func:`mcr_reference`, restricted to the component)."""
    lo = 0.0
    hi = sum(comp_weights) + 1.0
    if _has_positive_cycle(comp_nodes, edges, hi):
        raise AnalysisError(
            "cycle with zero tokens and positive execution time: the "
            "graph deadlocks, MCR undefined"
        )
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if _has_positive_cycle(comp_nodes, edges, mid):
            lo = mid
        else:
            hi = mid
    return hi


def throughput_bound(graph: CSDFGraph, bindings: Mapping | None = None) -> float:
    """Iterations per unit time in steady state (1 / MCR)."""
    period = max_cycle_ratio(graph, bindings)
    return float("inf") if period <= 0 else 1.0 / period
