"""Symbolic per-iteration buffer bounds.

Fig. 8's closed forms (``Buff_TPDF = 3 + beta(12N + L)``,
``Buff_CSDF = beta(17N + L)``) are *measured* by the sweep in
:mod:`repro.apps.ofdm.buffers`; this module derives them **symbolically**:
for each channel, the tokens present never exceed

    phi*(e)  +  X_src(q_src)        (initial tokens + one iteration's traffic)

and for single-appearance schedules (each actor's firings contiguous —
the shape the paper's applications use, where the repetition vector is
all-ones) the bound is *tight*: the producer completes all its firings
before the consumer starts, so the peak equals initial-plus-traffic
exactly.

The result is a polynomial in the graph parameters, directly comparable
to the paper's formulas (the EXT4 bench asserts polynomial equality).

Beyond reporting, the bounds feed the ``buffers`` CLI subcommand
(symbolic mode).  They are peak bounds of one schedule, not the
capacities that keep full throughput: those come from the exact
search of
:func:`repro.csdf.throughput.min_buffers_for_full_throughput`.

Examples
--------
>>> from repro.csdf import CSDFGraph
>>> from repro.csdf.symbuf import symbolic_channel_bounds, symbolic_total_bound
>>> from repro.symbolic import Param
>>> p = Param("p")
>>> g = CSDFGraph("pair")
>>> _ = g.add_actor("a")
>>> _ = g.add_actor("b")
>>> _ = g.add_channel("ab", "a", "b", production=p, consumption=1,
...                   initial_tokens=2)
>>> str(symbolic_channel_bounds(g)["ab"])
'p + 2'
>>> str(symbolic_total_bound(g))
'p + 2'
"""

from __future__ import annotations

from ..symbolic import Poly
from .analysis import base_solution
from .digraph import adjacency, nontrivial_components
from .graph import CSDFGraph


def symbolic_channel_bounds(graph: CSDFGraph) -> dict[str, Poly]:
    """Per-channel symbolic peak bound: ``phi*(e) + X_src(tau) * r_src``."""
    r = base_solution(graph)
    bounds: dict[str, Poly] = {}
    for channel in graph.channels.values():
        tau = graph.tau(channel.src)
        traffic = channel.production.cumulative(tau) * r[channel.src]
        bounds[channel.name] = Poly.const(channel.initial_tokens) + traffic
    return bounds


def symbolic_total_bound(graph: CSDFGraph) -> Poly:
    """Total symbolic buffer bound (the Fig. 8 y-axis, symbolically)."""
    total = Poly()
    for bound in symbolic_channel_bounds(graph).values():
        total = total + bound
    return total


def bound_is_tight_for_single_appearance(graph: CSDFGraph) -> bool:
    """The bound is attained by any single-appearance schedule in which
    every producer completes before its consumer starts — always true
    for acyclic graphs (topological-order grouped schedules exist).
    Cyclic graphs may not admit such schedules, so the bound, while
    still sound, can be conservative there."""
    actors = list(graph.actors)
    adj = adjacency(actors, ((c.src, c.dst) for c in graph.channels.values()
                             if not c.is_selfloop()))
    return not nontrivial_components(adj)
