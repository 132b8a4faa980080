"""Control areas and local solutions (Definitions 3 and 4).

The *control area* of a control actor ``g`` is the region of the graph
it reconfigures::

    Area(g) = prec(g) u succ(g) u infl(g)

``prec``/``succ`` are the immediate producers/consumers of ``g`` and
``infl(g)`` the actors lying between them.  The paper states
``infl(g) = (succ(prec(g)) ∩ prec(succ(g))) \\ {g}``; we implement the
transitive reading — nodes reachable from ``prec(g)`` that also reach
``succ(g)`` — which coincides with the one-step formula on the paper's
examples (Example 3: ``Area(C) = {B, D, E, F}`` in Fig. 2) and captures
"all other influenced actors between these actors" for deeper pipelines
(e.g. the bracketed region of the OFDM case study).

The *local solution* of an actor inside a subset ``Z`` is its
repetition count per **local** iteration::

    q^L_ai = q_ai / qG(Z),   qG(Z) = gcd over Z of (q_ai / tau_i)

Local solutions are the bridge between parametric global behaviour and
concrete local behaviour: for Fig. 2, ``q = [2, 2p, p, p, 2p, 2p]``
globally, but within ``Area(C)`` the local solution ``B^2 C D E^2 F^2``
is parameter-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..csdf.digraph import adjacency, reachable
from ..errors import AnalysisError
from ..symbolic import Poly, monomial_gcd, poly_gcd_many
from .consistency import repetition_vector
from .graph import TPDFGraph


def predecessors(graph: TPDFGraph, node: str) -> set[str]:
    """``prec(g)``: nodes with a channel into ``g``."""
    return {channel.src for channel in graph.in_channels(node)}


def successors(graph: TPDFGraph, node: str) -> set[str]:
    """``succ(g)``: nodes fed by a channel from ``g``."""
    return {channel.dst for channel in graph.out_channels(node)}


def influenced(graph: TPDFGraph, control: str) -> set[str]:
    """``infl(g)``: actors strictly between ``prec(g)`` and ``succ(g)``.

    Computed as the nodes reachable from ``prec(g)`` that also reach
    ``succ(g)``, minus ``g`` itself and the prec/succ endpoints (which
    Definition 3 already includes in the area separately).
    """
    prec = predecessors(graph, control)
    succ = successors(graph, control)
    nodes = graph.node_names()
    pos = {name: i for i, name in enumerate(nodes)}
    edges = [(c.src, c.dst) for c in graph.channels.values()]
    forward = reachable(adjacency(nodes, edges), [pos[n] for n in prec])
    backward = reachable(adjacency(nodes, [(d, s) for s, d in edges]),
                         [pos[n] for n in succ])
    return {nodes[u] for u in forward & backward} - {control} - prec - succ


def control_area(graph: TPDFGraph, control: str) -> set[str]:
    """``Area(g)`` (Definition 3)."""
    if not graph.is_control_actor(control):
        raise AnalysisError(f"{control!r} is not a control actor")
    return predecessors(graph, control) | successors(graph, control) | influenced(graph, control)


@dataclass
class LocalSolution:
    """Local repetition counts of a subset ``Z`` (Definition 4)."""

    subset: tuple[str, ...]
    #: ``qG(Z)``: the global-per-local iteration ratio.
    factor: Poly
    #: ``q^L_ai`` per actor; parameter-free whenever the factor absorbs
    #: the parametric part of the global solution.
    counts: dict[str, Poly]

    def is_concrete(self) -> bool:
        return all(count.is_integer_const() for count in self.counts.values())

    def as_ints(self) -> dict[str, int]:
        if not self.is_concrete():
            raise AnalysisError(
                f"local solution of {self.subset} is parametric: {self}"
            )
        return {name: int(count.const_value()) for name, count in self.counts.items()}

    def __str__(self) -> str:
        body = " ".join(
            name if count == Poly.const(1) else f"{name}^{count}"
            for name, count in self.counts.items()
        )
        return f"[{body}] x {self.factor}"


def local_solution(graph: TPDFGraph, subset: Iterable[str]) -> LocalSolution:
    """Compute ``q^L`` for a subset of actors (Definition 4).

    Uses ``q_ai / tau_i = r_ai``, so ``qG(Z) = gcd(r_ai)`` and
    ``q^L_ai = tau_i * r_ai / qG(Z)``.  When every ``r_ai`` is a
    monomial — every parameter-free graph, and Fig. 2 — the gcd is read
    off the coefficients and the exponents (:func:`monomial_gcd`, the
    normalization of the monomial balance solve); other systems take
    :func:`poly_gcd_many`.
    """
    subset = tuple(subset)
    if not subset:
        raise AnalysisError("local solution of an empty subset")
    q = repetition_vector(graph)
    missing = [name for name in subset if name not in q]
    if missing:
        raise AnalysisError(f"unknown actors in subset: {missing}")
    taus = graph.as_csdf().taus()
    r = [q[name].try_div(Poly.const(taus[name])) for name in subset]
    factor = _monomial_gcd(r)
    if factor is None:
        factor = poly_gcd_many(r)
    if factor.is_zero():
        raise AnalysisError(f"degenerate local solution for {subset}")
    counts: dict[str, Poly] = {}
    for name in subset:
        quotient = q[name].try_div(factor)
        if quotient is None:
            raise AnalysisError(
                f"qG(Z) = {factor} does not divide q_{name} = {q[name]}"
            )
        counts[name] = quotient
    return LocalSolution(subset=subset, factor=factor, counts=counts)


def _monomial_gcd(values: list[Poly]) -> Poly | None:
    """:func:`poly_gcd_many` of monomials — the coefficient gcd times
    each parameter's minimum power — or ``None`` when some value has
    more than one term."""
    monomials = [value.monomial() for value in values]
    if None in monomials:
        return None
    params = sorted({name for _, key in monomials for name, _ in key})
    vectors = []
    for coeff, key in monomials:
        powers = dict(key)
        vectors.append((coeff, tuple(powers.get(name, 0) for name in params)))
    coeff, low = monomial_gcd(vectors)
    if not coeff:
        return Poly()
    return Poly.term(coeff, tuple((name, exp) for name, exp in zip(params, low) if exp))


def area_local_solution(graph: TPDFGraph, control: str) -> LocalSolution:
    """Local solution of ``Area(g)`` — what rate safety evaluates."""
    return local_solution(graph, sorted(control_area(graph, control)))
