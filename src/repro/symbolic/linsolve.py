"""Symbolic balance-equation solver (Theorem 1 / Sec. III-A).

A consistent dataflow graph satisfies ``Gamma . r = 0`` where the
topology matrix ``Gamma`` holds, per channel, the tokens produced /
consumed during one *cycle* of the producer / consumer (``X_j(tau_j)``
and ``Y_j(tau_j)``).  For parameterized graphs these totals are
polynomials in the graph parameters and the solution vector ``r`` is a
vector of rational functions, normalized here to the minimal strictly
positive integer-polynomial solution (Example 2 of the paper:
``r = [2, 2p, p, p, 2p, p]`` for Fig. 2).

The solver works by spanning-tree propagation over each weakly
connected component, then verifies every non-tree edge —
exactly the procedure sketched in Sec. III-A ("arbitrarily set one of
the solutions to 1 and recursively find other solutions ... finally, we
normalize the solutions to integers").

Integer and symbolic paths
--------------------------
:func:`solve_balance` picks its arithmetic from the input.  When every
per-cycle rate is a constant — every parameter-free graph — the
propagation runs on :class:`fractions.Fraction` values and each
component is normalized with :func:`math.lcm` / :func:`math.gcd`: the
classic integer method of Lee & Messerschmitt (1987).  Otherwise it
runs on :class:`~repro.symbolic.rational.Rat` rational functions and
normalizes with the polynomial gcd/lcm.  Both paths visit components
and nodes in the same order, apply the same vacuous-edge rule and
raise the same errors, so the choice never shows in a result; the
symbolic path, which also accepts constant systems, is the oracle the
integer path is tested against.  A constant system has no parameters
whose valuations the rational-function machinery would need to cover,
so running it there only costs time.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from .poly import Poly, poly_gcd_many, poly_lcm_many
from .rational import Rat


class InconsistentRatesError(Exception):
    """The balance equations only admit the trivial (zero) solution."""


#: An edge contributes the constraint  produced * r[src] == consumed * r[dst].
BalanceEdge = tuple[Hashable, Hashable, Poly, Poly]


def solve_balance(
    nodes: Sequence[Hashable],
    edges: Iterable[BalanceEdge],
) -> dict[Hashable, Poly]:
    """Solve the balance equations and normalize to integer polynomials.

    Parameters
    ----------
    nodes:
        All graph nodes (actors).  Isolated nodes get solution 1.
    edges:
        Triples-of-four ``(src, dst, produced_per_cycle,
        consumed_per_cycle)``; rates are coerced to :class:`Poly`.

    Returns
    -------
    dict
        Node -> minimal positive integer-polynomial solution component,
        in component order (breadth-first within a component).  A
        system of constant rates is solved on integers (see the module
        docstring); its components are constant polynomials.

    Raises
    ------
    InconsistentRatesError
        When a cycle of constraints is contradictory (Sec. III-A:
        the system must have a non-null solution for all parameter
        values) or when a non-zero production feeds a zero consumption.
    """
    edge_list = list(edges)
    constant = _constant_edges(edge_list)
    if constant is not None:
        return _solve_integer(nodes, constant)
    return _solve_symbolic(nodes, edge_list)


def consistency_conditions(
    nodes: Sequence[Hashable],
    edges: Iterable[BalanceEdge],
) -> list[Poly]:
    """Residual constraints that must vanish for consistency.

    Runs the spanning-tree propagation and, instead of raising on a
    violated non-tree edge, collects the numerator of the residual
    ``produced * r_src - consumed * r_dst`` as a polynomial constraint.
    An empty list means the system is consistent for *all* parameter
    values; otherwise the graph is consistent exactly for the parameter
    valuations annihilating every returned polynomial (e.g. a returned
    ``p - 3`` means "consistent iff p = 3").

    Raises :class:`InconsistentRatesError` only for structural
    impossibilities (production into zero consumption), and
    :class:`KeyError` for an edge endpoint outside ``nodes`` (as
    :func:`solve_balance` does).
    """
    edge_list, _adjacency, solution = _symbolic_solution(nodes, edges)
    conditions: list[Poly] = []
    seen: set[Poly] = set()
    for src, dst, produced, consumed in edge_list:
        lhs = solution[src] * Rat(produced)
        rhs = solution[dst] * Rat(consumed)
        residual = (lhs - rhs).num
        if residual.is_zero():
            continue
        # Normalize the constraint: strip content and sign.
        content = residual.content()
        if content not in (0, 1):
            residual = residual.scale(1 / content)
        if residual.leading()[1] < 0:
            residual = -residual
        if residual not in seen:
            seen.add(residual)
            conditions.append(residual)
    return conditions


def _constant_edges(edge_list: list) -> list | None:
    """The edges with every rate as a :class:`Fraction`, or ``None``
    when some rate is not a constant (the symbolic path handles it,
    including the coercion errors of unsupported rate types)."""
    constant = []
    for src, dst, produced, consumed in edge_list:
        out_rate = _constant_rate(produced)
        in_rate = _constant_rate(consumed)
        if out_rate is None or in_rate is None:
            return None
        constant.append((src, dst, out_rate, in_rate))
    return constant


def _constant_rate(rate) -> Fraction | None:
    if isinstance(rate, Poly):
        return rate.const_value() if rate.is_const() else None
    if isinstance(rate, (int, Fraction)):
        return Fraction(rate)
    return None


def _balance_system(nodes: Sequence[Hashable], edge_list: list) -> dict:
    """Validate the rates and endpoints of a balance system and build
    its undirected adjacency ``node -> [(neighbour, out_rate,
    in_rate)]``.  Rates are all :class:`Poly` or all :class:`Fraction`
    (the integer path); the checks and their messages are the same."""
    for src, dst, produced, consumed in edge_list:
        for rate, role, node in ((produced, "production", src), (consumed, "consumption", dst)):
            nonnegative = (
                rate >= 0 if isinstance(rate, Fraction)
                else rate.has_nonnegative_coefficients()
            )
            if not nonnegative:
                raise InconsistentRatesError(
                    f"{role} rate {rate} of {node!r} may be negative for some "
                    f"parameter values"
                )
    adjacency: dict[Hashable, list] = {n: [] for n in nodes}
    for src, dst, produced, consumed in edge_list:
        if src not in adjacency or dst not in adjacency:
            missing = src if src not in adjacency else dst
            raise KeyError(f"edge endpoint {missing!r} is not in the node set")
        # Store both directions so the spanning tree can traverse freely:
        # crossing src->dst multiplies by produced/consumed, and the
        # reverse direction by the inverse ratio.
        adjacency[src].append((dst, produced, consumed))
        adjacency[dst].append((src, consumed, produced))
    return adjacency


def _solve_integer(nodes: Sequence[Hashable], edge_list: list) -> dict[Hashable, Poly]:
    """The integer path: propagation on Fractions, per-component
    normalization with ``math.lcm``/``math.gcd``."""
    adjacency = _balance_system(nodes, edge_list)
    components = _components(list(nodes), adjacency)
    solution: dict[Hashable, Fraction] = {}
    for component in components:
        _solve_component(component, adjacency, solution, Fraction(1), Fraction)
    for src, dst, produced, consumed in edge_list:
        if produced * solution[src] != consumed * solution[dst]:
            _raise_violated(src, dst, produced, consumed, solution)
    normalized: dict[Hashable, Poly] = {}
    for component in components:
        values = [solution[node] for node in component]
        scale = math.lcm(*(value.denominator for value in values))
        ints = [value.numerator * (scale // value.denominator) for value in values]
        common = math.gcd(*ints)
        for node, value in zip(component, ints):
            value //= common
            if value <= 0:
                raise InconsistentRatesError(
                    f"normalized solution for {node!r} is {value}, which is "
                    f"not strictly positive for all parameter values"
                )
            normalized[node] = Poly.const(value)
    return normalized


def _solve_symbolic(nodes: Sequence[Hashable], edges: list) -> dict[Hashable, Poly]:
    """The rational-function path (parametric systems, and the oracle)."""
    edge_list, adjacency, solution = _symbolic_solution(nodes, edges)
    _verify_all_edges(edge_list, solution)
    return _normalize_components(list(nodes), adjacency, solution)


def _symbolic_solution(nodes: Sequence[Hashable], edges: Iterable[BalanceEdge]):
    """``(edges, adjacency, solution)``: the edges with their rates
    coerced to :class:`Poly`, and the spanning-tree solution as
    :class:`Rat` values, before any non-tree edge is checked."""
    edge_list = [
        (src, dst, Poly.coerce(produced), Poly.coerce(consumed))
        for src, dst, produced, consumed in edges
    ]
    adjacency = _balance_system(nodes, edge_list)
    solution: dict[Hashable, Rat] = {}
    for component in _components(list(nodes), adjacency):
        _solve_component(component, adjacency, solution, Rat(1), Rat)
    return edge_list, adjacency, solution


def _components(
    nodes: list[Hashable],
    adjacency: dict[Hashable, list],
) -> list[list[Hashable]]:
    seen: set[Hashable] = set()
    components: list[list[Hashable]] = []
    for start in nodes:
        if start in seen:
            continue
        component: list[Hashable] = []
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            component.append(node)
            for neighbour, _, _ in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        components.append(component)
    return components


def _solve_component(
    component: list[Hashable],
    adjacency: dict[Hashable, list],
    solution: dict,
    one,
    ratio: Callable,
) -> None:
    """Spanning-tree propagation from the component's first node,
    with ``ratio(out_rate, in_rate)`` building the factor crossing one
    edge (``Rat`` on the symbolic path, ``Fraction`` on the integer
    one) and ``one`` the root's value."""
    root = component[0]
    solution[root] = one
    queue = deque([root])
    while queue:
        node = queue.popleft()
        r_node = solution[node]
        for neighbour, out_rate, in_rate in adjacency[node]:
            # Constraint across this edge: out_rate * r[node] == in_rate * r[neighbour]
            if neighbour in solution:
                continue
            if not in_rate:
                if not out_rate:
                    continue  # vacuous edge; neighbour reached some other way
                raise InconsistentRatesError(
                    f"channel {node!r} -> {neighbour!r} produces {out_rate} "
                    f"per cycle but consumes nothing: only the trivial "
                    f"solution exists"
                )
            solution[neighbour] = r_node * ratio(out_rate, in_rate)
            queue.append(neighbour)
    for node in component:
        if node not in solution:
            # Reachable only through vacuous (0,0) edges: unconstrained.
            solution[node] = one


def _verify_all_edges(edge_list: list[BalanceEdge], solution: dict[Hashable, Rat]) -> None:
    """Check every edge by polynomial cross-multiplication,
    ``produced * num_src * den_dst == consumed * num_dst * den_src`` —
    the test :meth:`Rat.__eq__` computes, without building and
    normalizing intermediate rational functions."""
    for src, dst, produced, consumed in edge_list:
        r_src, r_dst = solution[src], solution[dst]
        if produced * r_src.num * r_dst.den != consumed * r_dst.num * r_src.den:
            _raise_violated(src, dst, produced, consumed, solution)


def _raise_violated(src, dst, produced, consumed, solution) -> None:
    raise InconsistentRatesError(
        f"balance violated on channel {src!r} -> {dst!r}: "
        f"{produced} * {solution[src]} != {consumed} * {solution[dst]}"
    )


def _normalize_components(
    nodes: list[Hashable],
    adjacency: dict[Hashable, list],
    solution: dict[Hashable, Rat],
) -> dict[Hashable, Poly]:
    normalized: dict[Hashable, Poly] = {}
    for component in _components(nodes, adjacency):
        rats = [solution[node] for node in component]
        # Clear polynomial denominators.
        denominator_lcm = poly_lcm_many([r.den for r in rats])
        polys: list[Poly] = []
        for rat in rats:
            factor = denominator_lcm.try_div(rat.den)
            if factor is None:  # pragma: no cover - lcm is a common multiple
                raise ArithmeticError(f"lcm {denominator_lcm} not divisible by {rat.den}")
            polys.append(rat.num * factor)
        # Clear rational coefficients.
        coeff_lcm = math.lcm(*(poly.coefficient_lcm_denominator() for poly in polys))
        polys = [poly.scale(coeff_lcm) for poly in polys]
        # Divide by the common factor to get the minimal solution.
        common = poly_gcd_many(polys)
        if not common.is_zero():
            reduced = [poly.try_div(common) for poly in polys]
            if all(p is not None for p in reduced):
                polys = reduced  # type: ignore[assignment]
        for node, poly in zip(component, polys):
            if poly.is_zero() or not poly.has_nonnegative_coefficients():
                raise InconsistentRatesError(
                    f"normalized solution for {node!r} is {poly}, which is "
                    f"not strictly positive for all parameter values"
                )
            normalized[node] = poly
    return normalized
