"""CSDF consistency analysis (Theorem 1 of the paper).

Computes the topology matrix ``Gamma``, the base solution ``r`` of
``Gamma . r = 0`` and the repetition vector ``q = P . r`` where ``P``
is the diagonal matrix of cycle lengths ``tau_j``.  The same code
handles plain CSDF (Fig. 1: ``q = [3, 2, 2]``) and parameterized graphs
(Fig. 2: ``q = [2, 2p, p, p, 2p, 2p]``).

When every rate of a graph is an integer constant the per-cycle
totals, ``r``, ``tau`` and ``q`` are Python ints from the solve on, and
the one memoized product is that int ``q``
(:func:`constant_repetition_vector`).  :func:`base_solution` and
:func:`repetition_vector` return symbolic
(:class:`~repro.symbolic.poly.Poly`) values for every graph; for a
constant-rate graph they are built from the ints on first request:

>>> from repro.gallery import fig1_graph
>>> fig1 = fig1_graph()
>>> constant_repetition_vector(fig1)
{'a1': 3, 'a2': 2, 'a3': 2}
>>> repetition_vector(fig1)["a1"]
Poly(3)

A parametric graph has no int vector; its ``q`` is symbolic:

>>> from repro.tpdf import fig2_graph
>>> fig2 = fig2_graph().as_csdf()
>>> constant_repetition_vector(fig2) is None, str(repetition_vector(fig2)["B"])
(True, '2*p')
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
register_binding_insensitive("balance")
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


def cycle_totals(graph: CSDFGraph) -> list[tuple[Channel, int | Poly, int | Poly]]:
    """``(channel, X(tau_src), Y(tau_dst))`` per channel, in channel
    order: the tokens a channel moves over one cycle of its producer
    and over one cycle of its consumer — its entries of ``Gamma``.

    A total is an ``int`` when its rate sequence holds integer
    constants (read straight off the sequence's ints), a :class:`Poly`
    otherwise.  Every actor's ``tau`` comes from the graph's memoized
    :meth:`CSDFGraph.taus`, so the whole table costs O(channels).
    """
    taus = graph.taus()
    totals = []
    for channel in graph.channels.values():
        production, consumption = channel.production, channel.consumption
        tau_src, tau_dst = taus[channel.src], taus[channel.dst]
        ints = production._ints
        produced = (sum(ints) * (tau_src // len(ints)) if ints is not None
                    else production.cumulative(tau_src))
        ints = consumption._ints
        consumed = (sum(ints) * (tau_dst // len(ints)) if ints is not None
                    else consumption.cumulative(tau_dst))
        totals.append((channel, produced, consumed))
    return totals


def _balance(graph: CSDFGraph) -> tuple[dict[str, int] | None, dict[str, Poly] | None]:
    """``(q, r)``, the one memoized solve of the balance equations:
    ``q`` as ints (``r`` None) when every per-cycle total is an int,
    else ``r`` as Polys (``q`` None).  A failed solve memoizes its
    :class:`~repro.symbolic.InconsistentRatesError`."""
    return cached(graph, ("balance",), lambda: _solve(graph))


def _solve(graph: CSDFGraph) -> tuple[dict[str, int] | None, dict[str, Poly] | None]:
    if not graph.actors:
        return {}, None
    edges = []
    integral = True
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
        integral = integral and type(produced) is int and type(consumed) is int
        edges.append((channel.src, channel.dst, produced, consumed))
    # solve_balance answers int totals with int components
    r = solve_balance(graph.actor_names(), edges)
    if integral:
        taus = graph.taus()
        return {name: taus[name] * count for name, count in r.items()}, None
    return None, r


def constant_repetition_vector(graph: CSDFGraph) -> dict[str, int] | None:
    """The repetition vector ``q`` as ints when every rate of the graph
    is an integer constant, ``None`` when some rate is symbolic.

    The returned mapping is the memo itself, shared by every caller for
    the graph's structure version: read it, never mutate it.  Raises
    :class:`~repro.symbolic.InconsistentRatesError` like
    :func:`base_solution`.
    """
    return _balance(graph)[0]


def base_solution(graph: CSDFGraph) -> dict[str, Poly]:
    """Minimal positive integer solution ``r`` of the balance equations.

    Raises :class:`~repro.symbolic.InconsistentRatesError` when only the
    trivial solution exists (graph not consistent).  Memoized per graph
    structure version, like the solve behind it.
    """
    return cached(graph, ("base_solution",), lambda: _base_solution(graph))


def _base_solution(graph: CSDFGraph) -> dict[str, Poly]:
    q, r = _balance(graph)
    if q is None:
        return r
    taus = graph.taus()
    return {name: Poly.const(count // taus[name]) for name, count in q.items()}


def repetition_vector(graph: CSDFGraph) -> dict[str, Poly]:
    """The repetition vector ``q = P . r`` (Theorem 1).

    ``q_j = tau_j * r_j`` counts actor firings per graph iteration.
    """
    return cached(graph, ("repetition_vector",), lambda: _repetition_vector(graph))


def _repetition_vector(graph: CSDFGraph) -> dict[str, Poly]:
    q, r = _balance(graph)
    if q is not None:
        return {name: Poly.const(count) for name, count in q.items()}
    taus = graph.taus()
    return {name: Poly.const(taus[name]) * poly for name, poly in r.items()}


def is_consistent(graph: CSDFGraph) -> bool:
    """True when a non-trivial repetition vector exists."""
    try:
        _balance(graph)
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
    counts = constant_repetition_vector(graph)
    if counts is not None:
        return dict(counts)
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
