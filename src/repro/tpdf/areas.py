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

import math
from fractions import Fraction
from typing import Iterable

from ..csdf.analysis import constant_repetition_vector
from ..csdf.digraph import adjacency, reachable
from ..errors import AnalysisError
from ..symbolic import Poly, monomial_gcd, poly_gcd_many
from .consistency import repetition_vector, require_consistent
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


class LocalSolution:
    """Local repetition counts of a subset ``Z`` (Definition 4).

    ``factor`` and ``counts`` are :class:`Poly` values.  The local
    solution of a constant-rate graph holds them as Python ints and
    builds the Polys on first request; :meth:`is_concrete` and
    :meth:`as_ints` read the ints directly.
    """

    __slots__ = ("subset", "_factor", "_counts", "_ints")

    def __init__(self, subset: tuple[str, ...], factor: Poly | int,
                 counts: dict[str, Poly] | dict[str, int]):
        self.subset = subset
        self._factor = factor
        #: the counts as ints (given with an int factor), else None
        self._ints = counts if type(factor) is int else None
        #: the counts as Polys, once built
        self._counts = None if self._ints is not None else counts

    @property
    def factor(self) -> Poly:
        """``qG(Z)``: the global-per-local iteration ratio."""
        if type(self._factor) is int:
            self._factor = Poly.const(self._factor)
        return self._factor

    @property
    def counts(self) -> dict[str, Poly]:
        """``q^L_ai`` per actor; parameter-free whenever the factor
        absorbs the parametric part of the global solution."""
        if self._counts is None:
            self._counts = {name: Poly.const(count) for name, count in self._ints.items()}
        return self._counts

    def is_concrete(self) -> bool:
        if self._ints is not None:
            return True
        return all(count.is_integer_const() for count in self.counts.values())

    def as_ints(self) -> dict[str, int]:
        if self._ints is not None:
            return dict(self._ints)
        if not self.is_concrete():
            raise AnalysisError(
                f"local solution of {self.subset} is parametric: {self}"
            )
        return {name: int(count.const_value()) for name, count in self.counts.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalSolution):
            return NotImplemented
        return ((self.subset, self.factor, self.counts)
                == (other.subset, other.factor, other.counts))

    def __repr__(self) -> str:
        return (f"LocalSolution(subset={self.subset!r}, factor={self.factor!r}, "
                f"counts={self.counts!r})")

    def __str__(self) -> str:
        # An int prints as its constant Poly does.
        body = " ".join(
            name if count == 1 else f"{name}^{count}"
            for name, count in (self.counts if self._ints is None else self._ints).items()
        )
        return f"[{body}] x {self._factor}"


def local_solution(graph: TPDFGraph, subset: Iterable[str]) -> LocalSolution:
    """Compute ``q^L`` for a subset of actors (Definition 4).

    Uses ``q_ai / tau_i = r_ai``, so ``qG(Z) = gcd(r_ai)`` and
    ``q^L_ai = tau_i * r_ai / qG(Z)``.  For a constant-rate graph ``q``
    is an int vector and so are the gcd and the counts.  When every
    ``r_ai`` is a monomial — Fig. 2, say — the gcd is read off the
    coefficients and the exponents (:func:`monomial_gcd`, the
    normalization of the monomial balance solve); other systems take
    :func:`poly_gcd_many`.
    """
    subset = tuple(subset)
    if not subset:
        raise AnalysisError("local solution of an empty subset")
    require_consistent(graph)
    csdf = graph.as_csdf()
    counts = constant_repetition_vector(csdf)
    if counts is not None:
        _check_members(subset, counts)
        taus = csdf.taus()
        factor = math.gcd(*(counts[name] // taus[name] for name in subset))
        return LocalSolution(subset, factor,
                             {name: counts[name] // factor for name in subset})
    q = repetition_vector(graph)
    _check_members(subset, q)
    taus = csdf.taus()
    r = [q[name].try_div(Poly.const(taus[name])) for name in subset]
    factor = _monomial_gcd(r)
    if factor is None:
        factor = poly_gcd_many(r)
    if factor.is_zero():
        raise AnalysisError(f"degenerate local solution for {subset}")
    local: dict[str, Poly] = {}
    for name in subset:
        quotient = q[name].try_div(factor)
        if quotient is None:
            raise AnalysisError(
                f"qG(Z) = {factor} does not divide q_{name} = {q[name]}"
            )
        local[name] = quotient
    return LocalSolution(subset, factor, local)


def _check_members(subset: tuple[str, ...], q: dict) -> None:
    missing = [name for name in subset if name not in q]
    if missing:
        raise AnalysisError(f"unknown actors in subset: {missing}")


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
        vectors.append((coeff.numerator, coeff.denominator,
                        tuple(powers.get(name, 0) for name in params)))
    numerator, denominator, low = monomial_gcd(vectors)
    if not numerator:
        return Poly()
    return Poly.term(Fraction(numerator, denominator),
                     tuple((name, exp) for name, exp in zip(params, low) if exp))


def area_local_solution(graph: TPDFGraph, control: str) -> LocalSolution:
    """Local solution of ``Area(g)`` — what rate safety evaluates."""
    return local_solution(graph, sorted(control_area(graph, control)))
