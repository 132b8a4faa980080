"""CSDF consistency analysis (Theorem 1 of the paper).

Computes the topology matrix ``Gamma``, the base solution ``r`` of
``Gamma . r = 0`` and the repetition vector ``q = P . r`` where ``P``
is the diagonal matrix of cycle lengths ``tau_j``.  All quantities are
symbolic (:class:`~repro.symbolic.poly.Poly`), so the same code handles
plain CSDF (Fig. 1: ``q = [3, 2, 2]``) and parameterized graphs
(Fig. 2: ``q = [2, 2p, p, p, 2p, 2p]``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ..cache import bindings_key, cached, register_binding_insensitive
from ..errors import AnalysisError
from ..symbolic import InconsistentRatesError, Poly, solve_balance
from .channel import Channel
from .graph import CSDFGraph

# The rate algebra ignores execution times entirely, so its memoized
# products survive binding-only version bumps (see repro.cache).
register_binding_insensitive("base_solution")
register_binding_insensitive("repetition_vector")
register_binding_insensitive("concrete_q")


def topology_matrix(graph: CSDFGraph) -> tuple[list[str], list[str], list[list[Poly]]]:
    """The topology matrix ``Gamma`` (Equation 3).

    Returns ``(channel_names, actor_names, rows)`` where
    ``rows[u][j]`` is ``X_j(tau_j)`` if actor ``j`` produces on channel
    ``u``, ``-Y_j(tau_j)`` if it consumes from it, and 0 otherwise.
    Self-loop channels contribute the net total production minus
    consumption.
    """
    actor_names = graph.actor_names()
    index = {name: j for j, name in enumerate(actor_names)}
    channel_names: list[str] = []
    rows: list[list[Poly]] = []
    for channel, produced, consumed in cycle_totals(graph):
        row = [Poly() for _ in actor_names]
        row[index[channel.src]] = row[index[channel.src]] + produced
        row[index[channel.dst]] = row[index[channel.dst]] - consumed
        channel_names.append(channel.name)
        rows.append(row)
    return channel_names, actor_names, rows


def cycle_totals(graph: CSDFGraph) -> list[tuple[Channel, Poly, Poly]]:
    """``(channel, X(tau_src), Y(tau_dst))`` per channel, in channel
    order: the tokens a channel moves over one cycle of its producer
    and over one cycle of its consumer — its entries of ``Gamma``.

    Every actor's ``tau`` comes from one pass over the channels
    (:meth:`CSDFGraph.taus`), so the whole table costs O(channels).
    """
    taus = graph.taus()
    return [
        (
            channel,
            channel.production.cumulative(taus[channel.src]),
            channel.consumption.cumulative(taus[channel.dst]),
        )
        for channel in graph.channels.values()
    ]


def base_solution(graph: CSDFGraph) -> dict[str, Poly]:
    """Minimal positive integer solution ``r`` of the balance equations.

    Raises :class:`~repro.symbolic.InconsistentRatesError` when only the
    trivial solution exists (graph not consistent).  Memoized per graph
    version (the solve dominates the whole analysis chain's cost).
    """
    return cached(graph, ("base_solution",), lambda: _base_solution(graph))


def _base_solution(graph: CSDFGraph) -> dict[str, Poly]:
    if not graph.actors:
        return {}
    edges = []
    for channel, produced, consumed in cycle_totals(graph):
        if channel.is_selfloop():
            # A self-loop constrains nothing across actors but must be
            # internally balanced over one cycle, otherwise tokens
            # accumulate or drain without bound.
            if produced != consumed:
                raise InconsistentRatesError(
                    f"self-loop {channel.name!r} on {channel.src!r} is "
                    f"unbalanced: produces {produced}, consumes {consumed} per cycle"
                )
            continue
        edges.append((channel.src, channel.dst, produced, consumed))
    return solve_balance(graph.actor_names(), edges)


def repetition_vector(graph: CSDFGraph) -> dict[str, Poly]:
    """The repetition vector ``q = P . r`` (Theorem 1).

    ``q_j = tau_j * r_j`` counts actor firings per graph iteration.
    """
    return cached(graph, ("repetition_vector",), lambda: _repetition_vector(graph))


def _repetition_vector(graph: CSDFGraph) -> dict[str, Poly]:
    base = base_solution(graph)
    taus = graph.taus()
    return {name: Poly.const(taus[name]) * poly for name, poly in base.items()}


def is_consistent(graph: CSDFGraph) -> bool:
    """True when a non-trivial repetition vector exists."""
    try:
        base_solution(graph)
    except InconsistentRatesError:
        return False
    return True


def concrete_repetition_vector(graph: CSDFGraph, bindings: Mapping | None = None) -> dict[str, int]:
    """Repetition vector evaluated to integers under ``bindings``.

    Verifies the result is strictly positive and integral — a
    repetition count like ``p/2`` means the parameter valuation is
    incompatible with one atomic graph iteration.
    """
    return cached(
        graph, ("concrete_q", bindings_key(bindings)),
        lambda: _concrete_repetition_vector(graph, bindings),
    )


def _concrete_repetition_vector(graph: CSDFGraph, bindings: Mapping | None) -> dict[str, int]:
    q = repetition_vector(graph)
    out: dict[str, int] = {}
    for name, poly in q.items():
        value = poly.evaluate(bindings or {})
        if value.denominator != 1:
            raise AnalysisError(
                f"repetition count of {name!r} is {value} under {bindings}: "
                f"not an integer (choose parameter values divisible by the "
                f"normalization factor)"
            )
        if value <= 0:
            raise AnalysisError(f"repetition count of {name!r} is non-positive: {value}")
        out[name] = int(value)
    return out


def iteration_token_totals(graph: CSDFGraph, bindings: Mapping | None = None) -> dict[str, Fraction]:
    """Tokens crossing each channel during one full iteration.

    Sanity view used by tests: for a consistent graph, production and
    consumption totals match on every channel.
    """
    q = concrete_repetition_vector(graph, bindings)
    totals: dict[str, Fraction] = {}
    for channel in graph.channels.values():
        produced = channel.production.bind(bindings or {}).cumulative(q[channel.src])
        totals[channel.name] = produced.evaluate({})
    return totals
