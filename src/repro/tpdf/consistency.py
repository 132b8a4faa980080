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

from typing import Mapping

from ..cache import cached
from ..csdf import analysis as csdf_analysis
from ..csdf.digraph import adjacency, condensation_order
from ..csdf.graph import CSDFGraph
from ..errors import AnalysisError
from ..symbolic import InconsistentRatesError, Poly
from .graph import TPDFGraph


class ConsistencyReport:
    """Outcome of the rate-consistency analysis.

    ``base`` and ``repetition`` hold the symbolic ``r`` and ``q``.  A
    report of :func:`check_consistency` reads them on first access
    from the memoized solve of the graph's frozen CSDF ``view``, so a
    constant-rate graph, whose solve holds Python ints, builds its
    :class:`Poly` values only when a caller asks for them.
    """

    __slots__ = ("consistent", "reason", "_view", "_base", "_repetition")

    def __init__(self, consistent: bool, base: dict[str, Poly] | None = None,
                 repetition: dict[str, Poly] | None = None, reason: str = "",
                 view: CSDFGraph | None = None):
        self.consistent = consistent
        self.reason = reason
        self._view = view
        self._base = base
        self._repetition = repetition

    @property
    def base(self) -> dict[str, Poly]:
        if self._base is None:
            self._base = ({} if self._view is None
                          else csdf_analysis.base_solution(self._view))
        return self._base

    @property
    def repetition(self) -> dict[str, Poly]:
        if self._repetition is None:
            self._repetition = ({} if self._view is None
                                else dict(csdf_analysis.repetition_vector(self._view)))
        return self._repetition

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConsistencyReport):
            return NotImplemented
        return ((self.consistent, self.base, self.repetition, self.reason)
                == (other.consistent, other.base, other.repetition, other.reason))

    def __repr__(self) -> str:
        return (f"ConsistencyReport(consistent={self.consistent!r}, "
                f"base={self.base!r}, repetition={self.repetition!r}, "
                f"reason={self.reason!r})")

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
        csdf_analysis.constant_repetition_vector(csdf)  # the memoized solve
    except InconsistentRatesError as exc:
        return ConsistencyReport(consistent=False, reason=str(exc))
    return ConsistencyReport(consistent=True, view=csdf)


def require_consistent(graph: TPDFGraph) -> ConsistencyReport:
    """The graph's consistency report; raises
    :class:`~repro.symbolic.InconsistentRatesError` with its reason
    when the graph is inconsistent (and :class:`AnalysisError` for
    undeclared parameters, as :func:`check_consistency` does)."""
    report = check_consistency(graph)
    if not report.consistent:
        raise InconsistentRatesError(report.reason)
    return report


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
    return require_consistent(graph).repetition


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
