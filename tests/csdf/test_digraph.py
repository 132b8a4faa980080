"""The one SCC routine (`repro.csdf.digraph`) against networkx.

networkx is the oracle, not a dependency of the analyses:

* a hypothesis property over random multigraphs (self-loops, parallel
  edges, isolated nodes, node order unrelated to name order) checks
  the components in ``nx.strongly_connected_components`` order, the
  non-trivial filter, the condensation order of
  ``nx.topological_sort(nx.condensation(g))`` and the reachability
  walk against ``nx.descendants``/``nx.ancestors``;
* the networkx renderings the analyses used before they moved onto
  the routine are kept below as oracles, and compared over the
  200-graph corpus and the gallery: ``cyclic_components``,
  ``symbolic_schedule_string``, ``influenced``, ``_sink_distance``,
  ``_cyclic_cores`` and ``bound_is_tight_for_single_appearance``.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import gallery
from repro.csdf.buffers import _sink_distance
from repro.csdf.digraph import (adjacency, condensation_order,
                                nontrivial_components, reachable,
                                tarjan_components)
from repro.csdf.mcr import _cyclic_cores
from repro.csdf.symbuf import bound_is_tight_for_single_appearance
from repro.tpdf import random_consistent_graph
from repro.tpdf.areas import influenced, predecessors, successors
from repro.tpdf.consistency import symbolic_schedule_string
from repro.tpdf.liveness import cyclic_components

SHAPES = (
    (3, 1, 0, False, False),
    (4, 2, 1, False, False),
    (5, 2, 0, False, True),
    (5, 3, 2, False, False),
    (6, 3, 1, False, True),
    (6, 2, 0, True, False),
    (7, 3, 0, True, True),
    (8, 4, 2, False, False),
)
SEEDS_PER_SHAPE = 25


@st.composite
def multigraphs(draw):
    """(node names in graph order, (src, dst) edges in channel order)."""
    n = draw(st.integers(0, 12))
    names = draw(st.permutations([f"n{i:02d}" for i in range(n)]))
    if not n:
        return names, []
    node = st.sampled_from(names)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return names, edges


def _nx_graph(names, edges) -> nx.MultiDiGraph:
    g = nx.MultiDiGraph()
    g.add_nodes_from(names)
    g.add_edges_from(edges)
    return g


def _named(names, groups):
    return [{names[u] for u in group} for group in groups]


class TestAgainstNetworkx:
    @given(multigraphs())
    @settings(max_examples=300, deadline=None)
    def test_components_condensation_and_reachability(self, graph):
        names, edges = graph
        g = _nx_graph(names, edges)
        adj = adjacency(names, edges)
        comp = tarjan_components(len(names), adj)

        expected = list(nx.strongly_connected_components(g))
        emitted: list[set] = []
        for u in sorted(range(len(names)), key=comp.__getitem__):
            if comp[u] == len(emitted):
                emitted.append(set())
            emitted[comp[u]].add(names[u])
        assert emitted == expected

        assert _named(names, nontrivial_components(adj, comp)) == [
            c for c in expected
            if len(c) > 1 or g.has_edge(next(iter(c)), next(iter(c)))
        ]

        condensed = nx.condensation(g)
        assert _named(names, condensation_order(adj, comp)) == [
            condensed.nodes[c]["members"]
            for c in nx.topological_sort(condensed)
        ]

        backward = adjacency(names, [(dst, src) for src, dst in edges])
        for u, name in enumerate(names):
            assert {names[v] for v in reachable(adj, [u])} - {name} == (
                nx.descendants(g, name))
            assert {names[v] for v in reachable(backward, [u])} - {name} == (
                nx.ancestors(g, name))


# -- the networkx renderings the analyses used before, kept as oracles ----

def _nx_cyclic_components(graph):
    nxg = graph.to_networkx()
    out = []
    for component in nx.strongly_connected_components(nxg):
        members = tuple(sorted(component))
        if len(members) > 1 or nxg.has_edge(members[0], members[0]):
            out.append(members)
    return out


def _nx_schedule_order(graph):
    condensed = nx.condensation(graph.to_networkx())
    order = []
    for scc in nx.topological_sort(condensed):
        order.extend(sorted(condensed.nodes[scc]["members"]))
    return order


def _nx_influenced(graph, control):
    nxg = graph.to_networkx()
    prec = predecessors(graph, control)
    succ = successors(graph, control)
    forward: set[str] = set()
    for src in prec:
        forward |= nx.descendants(nxg, src) | {src}
    backward: set[str] = set()
    for dst in succ:
        backward |= nx.ancestors(nxg, dst) | {dst}
    return (forward & backward) - {control} - prec - succ


def _nx_sink_distance(graph):
    condensed = nx.condensation(graph.to_networkx())
    depth: dict[int, int] = {}
    for scc in reversed(list(nx.topological_sort(condensed))):
        succ = list(condensed.successors(scc))
        depth[scc] = 0 if not succ else 1 + max(depth[s] for s in succ)
    return {actor: depth[scc] for scc in condensed.nodes
            for actor in condensed.nodes[scc]["members"]}


def _nx_cyclic_cores(csdf):
    digraph = nx.DiGraph()
    digraph.add_nodes_from(csdf.actors)
    selfloop = set()
    for channel in csdf.channels.values():
        if channel.src == channel.dst:
            selfloop.add(channel.src)
        else:
            digraph.add_edge(channel.src, channel.dst)
    cores = [frozenset(scc) for scc in nx.strongly_connected_components(digraph)
             if len(scc) > 1 or next(iter(scc)) in selfloop]
    return sorted(cores, key=lambda s: sorted(s))


def _nx_bound_is_tight(csdf):
    return nx.is_directed_acyclic_graph(
        nx.DiGraph([(c.src, c.dst) for c in csdf.channels.values()
                    if not c.is_selfloop()]))


def _corpus():
    for n, extra, cycles, parametric, control in SHAPES:
        for seed in range(SEEDS_PER_SHAPE):
            yield f"n{n}e{extra}c{cycles}s{seed}", random_consistent_graph(
                n, extra_edges=extra, n_cycles=cycles, seed=seed,
                parametric=parametric, with_control=control)


def _gallery():
    return [("fig2", gallery.fig2_graph()), ("fig3", gallery.fig3_graph()),
            ("fig4a", gallery.fig4_graph("a")),
            ("fig4b", gallery.fig4_graph("b")),
            ("fig6", gallery.fig6_graph(16)[0]), ("fig7", gallery.fig7_graph())]


def _assert_csdf_sites_agree(label, csdf):
    assert _sink_distance(csdf) == _nx_sink_distance(csdf), label
    assert _cyclic_cores(csdf) == _nx_cyclic_cores(csdf), label
    assert (bound_is_tight_for_single_appearance(csdf)
            == _nx_bound_is_tight(csdf)), label


class TestCallSitesAgainstNetworkx:
    @pytest.mark.parametrize("source", ("corpus", "gallery"))
    def test_tpdf_sites(self, source):
        graphs = list(_corpus()) if source == "corpus" else _gallery()
        for label, graph in graphs:
            assert cyclic_components(graph) == _nx_cyclic_components(graph), label
            assert symbolic_schedule_string(graph) == symbolic_schedule_string(
                graph, order=_nx_schedule_order(graph)), label
            for control in graph.controls:
                assert influenced(graph, control) == _nx_influenced(
                    graph, control), label
            _assert_csdf_sites_agree(label, graph.as_csdf())

    def test_csdf_gallery_sites(self):
        for label, graph in (("fig1", gallery.fig1_graph()),
                             ("radio", gallery.parametric_radio_graph())):
            _assert_csdf_sites_agree(label, graph)
