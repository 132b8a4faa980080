"""Rate consistency of TPDF graphs (Sec. III-A).

The balance system is generated from the *fully connected* graph —
parametric rates kept symbolic, every mode's edges considered present.
The paper argues this over-approximation is safe: removing edges (a
mode rejecting inputs) only removes equations, so a solution of the
full system solves every reduced system.

On success the analysis yields the symbolic base solution ``r`` and
repetition vector ``q = P . r`` (Example 2: ``r = [2, 2p, p, p, 2p, p]``
and ``q = [2, 2p, p, p, 2p, 2p]`` for Fig. 2), plus a *symbolic
schedule string* such as ``A^2 B^2p C^p D^p E^2p F^2p`` used by the
benches to print the paper's schedules verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..cache import cached
from ..csdf import analysis as csdf_analysis
from ..csdf.digraph import adjacency, condensation_order
from ..errors import AnalysisError
from ..symbolic import InconsistentRatesError, Poly
from .graph import TPDFGraph


@dataclass
class ConsistencyReport:
    """Outcome of the rate-consistency analysis."""

    consistent: bool
    base: dict[str, Poly] = field(default_factory=dict)
    repetition: dict[str, Poly] = field(default_factory=dict)
    reason: str = ""

    def __str__(self) -> str:
        if not self.consistent:
            return f"inconsistent: {self.reason}"
        body = ", ".join(f"{name}: {poly}" for name, poly in self.repetition.items())
        return f"consistent; q = [{body}]"


def check_consistency(graph: TPDFGraph) -> ConsistencyReport:
    """Solve the symbolic balance equations of the full graph.

    Memoized per graph version: rate safety, liveness and the local
    solutions all re-enter through here, so one boundedness run asks
    for the same report four times.
    """
    return cached(graph, ("check_consistency",), lambda: _check_consistency(graph))


def _check_consistency(graph: TPDFGraph) -> ConsistencyReport:
    undeclared = graph.undeclared_parameters()
    if undeclared:
        raise AnalysisError(
            f"graph {graph.name!r} uses undeclared parameters: {sorted(undeclared)} "
            f"(declare them so their domains are known)"
        )
    csdf = graph.as_csdf()
    try:
        base = csdf_analysis.base_solution(csdf)
    except InconsistentRatesError as exc:
        return ConsistencyReport(consistent=False, reason=str(exc))
    repetition = dict(csdf_analysis.repetition_vector(csdf))
    return ConsistencyReport(consistent=True, base=base, repetition=repetition)


def consistency_conditions(graph: TPDFGraph) -> list[Poly]:
    """Parameter constraints under which an inconsistent parametric
    graph *would* become consistent.

    Empty for always-consistent graphs.  Each returned polynomial must
    vanish: ``[p - 3]`` reads "consistent iff p = 3".  Useful as a
    design diagnostic when the balance equations only close for
    specific parameter relations.
    """
    from ..symbolic import consistency_conditions as solve_conditions

    csdf = graph.as_csdf()
    edges = [
        (channel.src, channel.dst, produced, consumed)
        for channel, produced, consumed in csdf_analysis.cycle_totals(csdf)
        if not channel.is_selfloop()
    ]
    return solve_conditions(csdf.actor_names(), edges)


def repetition_vector(graph: TPDFGraph) -> dict[str, Poly]:
    """Symbolic repetition vector; raises when inconsistent."""
    report = check_consistency(graph)
    if not report.consistent:
        raise InconsistentRatesError(report.reason)
    return report.repetition


def concrete_repetition_vector(graph: TPDFGraph, bindings: Mapping) -> dict[str, int]:
    """Repetition vector evaluated at a parameter valuation."""
    return csdf_analysis.concrete_repetition_vector(graph.as_csdf(), bindings)


def symbolic_schedule_string(graph: TPDFGraph, order: list[str] | None = None) -> str:
    """Render ``q`` as a single-appearance schedule string.

    Actors are listed in topological order of the graph's condensation
    (sources first), matching the paper's presentation
    ``A^2 B^2p C^p D^p E^2p F^2p`` for Fig. 2.  This is a *notation* for
    the repetition counts; admissibility is established by the liveness
    analysis, not by this function.
    """
    q = repetition_vector(graph)
    if order is None:
        nodes = graph.node_names()
        adj = adjacency(nodes, ((c.src, c.dst) for c in graph.channels.values()))
        order = [name for group in condensation_order(adj)
                 for name in sorted(nodes[u] for u in group)]
    parts = []
    for name in order:
        count = q[name]
        if count == Poly.const(1):
            parts.append(name)
        else:
            text = str(count)
            if " " in text:
                text = f"({text})"
            parts.append(f"{name}^{text}")
    return " ".join(parts)
