"""The one strongly-connected-component routine of the analyses.

Every SCC or reachability question the analyses ask — the paper's
per-cycle liveness (Sec. III-C), the MCR's per-component split and
deadlock check, the parametric cyclic cores, the buffer scheduler's
sink distances, the schedule string and the diagnostics passes — runs
on plain successor lists over node positions:

* :func:`adjacency` turns ``(src, dst)`` name pairs into such lists,
  in edge order, parallel edges and self-loops kept;
* :func:`tarjan_components` labels every node with its component;
* :func:`nontrivial_components` keeps the components that lie on a
  cycle (more than one node, or a self-loop);
* :func:`reachable` walks forward from a set of sources (walk the
  reversed lists for ancestors);
* :func:`condensation_order` lists the components sources first.

Wherever an order shows in an output (liveness reasons, ``Omega``
names, the schedule string) it is the one networkx gives for the same
graph: Tarjan emits components in ``nx.strongly_connected_components``
order when nodes and successors come in graph and channel order, and
:func:`condensation_order` reproduces
``nx.topological_sort(nx.condensation(g))``.  networkx stays the
oracle of ``tests/csdf/test_digraph.py``, not a dependency.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["adjacency", "tarjan_components", "nontrivial_components",
           "reachable", "condensation_order"]

#: Successor lists over node positions.
Adjacency = Sequence[Sequence[int]]


def adjacency(nodes: Sequence[str], edges: Iterable[tuple[str, str]]
              ) -> list[list[int]]:
    """Successor lists over the positions of ``nodes``, one entry per
    ``(src, dst)`` edge in edge order."""
    index = {name: i for i, name in enumerate(nodes)}
    adj: list[list[int]] = [[] for _ in nodes]
    for src, dst in edges:
        adj[index[src]].append(index[dst])
    return adj


def tarjan_components(n_nodes: int, adj: Adjacency) -> list[int]:
    """Iterative Tarjan: the component id of every node.

    Ids count up in emission order, which is a reverse topological
    order of the condensation: an edge between two components always
    points to the smaller id.
    """
    index = [0] * n_nodes
    low = [0] * n_nodes
    on_stack = [False] * n_nodes
    comp = [-1] * n_nodes
    counter = 1
    stack: list[int] = []
    comp_count = 0
    for root in range(n_nodes):
        if index[root]:
            continue
        work = [(root, 0)]
        while work:
            node, edge_pos = work[-1]
            if edge_pos == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for pos in range(edge_pos, len(adj[node])):
                succ = adj[node][pos]
                if not index[succ]:
                    work[-1] = (node, pos + 1)
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack[succ] and low[node] > index[succ]:
                    low[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[parent] > low[node]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp[member] = comp_count
                    if member == node:
                        break
                comp_count += 1
    return comp


def _members(comp: list[int]) -> list[list[int]]:
    """Node positions grouped by component id, ascending within each."""
    groups: list[list[int]] = [[] for _ in range(max(comp, default=-1) + 1)]
    for node, c in enumerate(comp):
        groups[c].append(node)
    return groups


def nontrivial_components(adj: Adjacency, comp: list[int] | None = None
                          ) -> list[list[int]]:
    """The components that lie on a cycle — more than one node, or one
    node with a self-loop — in emission order."""
    if comp is None:
        comp = tarjan_components(len(adj), adj)
    return [group for group in _members(comp)
            if len(group) > 1 or group[0] in adj[group[0]]]


def reachable(adj: Adjacency, sources: Iterable[int]) -> set[int]:
    """Every node a path from ``sources`` reaches, the sources included."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for succ in adj[stack.pop()]:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def condensation_order(adj: Adjacency, comp: list[int] | None = None
                       ) -> list[list[int]]:
    """The components, sources first: Kahn generations over the
    condensation, each component's successors collected node by node
    in graph order (the order ``nx.topological_sort`` walks
    ``nx.condensation``)."""
    if comp is None:
        comp = tarjan_components(len(adj), adj)
    groups = _members(comp)
    succ: list[list[int]] = [[] for _ in groups]
    indegree = [0] * len(groups)
    linked: set[tuple[int, int]] = set()
    for node, targets in enumerate(adj):
        c = comp[node]
        for target in targets:
            d = comp[target]
            if c != d and (c, d) not in linked:
                linked.add((c, d))
                succ[c].append(d)
                indegree[d] += 1
    generation = [c for c in range(len(groups)) if not indegree[c]]
    order: list[list[int]] = []
    while generation:
        following: list[int] = []
        for c in generation:
            order.append(groups[c])
            for d in succ[c]:
                indegree[d] -= 1
                if not indegree[d]:
                    following.append(d)
        generation = following
    return order
