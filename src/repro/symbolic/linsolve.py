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

Integer, monomial and symbolic paths
------------------------------------
:func:`solve_balance` picks its arithmetic from the input.  When every
per-cycle rate is a monomial ``c * prod(p_i ** e_i)`` — every
parameter-free graph, and parametric graphs whose rates are products
of parameters such as Fig. 2 — each solution component is one monomial
too.  The propagation then carries each coefficient as an integer
``(numerator, denominator)`` pair beside its exponent vector, checks
every edge by cross-multiplying the pairs, and normalizes each
component in two steps: subtract each parameter's minimum exponent,
then apply the integer lcm/gcd, the classic method of Lee &
Messerschmitt (1987).  A constant system is the zero-exponent case and
never touches an exponent.  When every rate is a Python ``int`` — the
per-cycle totals :func:`repro.csdf.analysis.cycle_totals` hands over
for a graph whose rates are all integer constants — the solution
components are ``int`` as well, and no ``Fraction``, ``Poly`` or
``Rat`` is built on the way.  Fig. 1's per-cycle totals, say, give the
base solution ``r = [1, 1, 1]`` (``q = P . r = [3, 2, 2]``):

>>> solve_balance(["a1", "a2", "a3"],
...               [("a1", "a2", 2, 2), ("a2", "a3", 2, 2), ("a3", "a1", 4, 4)])
{'a1': 1, 'a2': 1, 'a3': 1}

Any other system (a sum such as the OFDM source's ``L*beta + N*beta``)
runs on :class:`~repro.symbolic.rational.Rat` rational functions and
normalizes with the polynomial gcd/lcm.  All paths visit components
and nodes in the same order, apply the same vacuous-edge rule and
raise the same errors with the same messages — a monomial solution
prints the way its ``Rat`` prints — so the choice never shows in a
result; the symbolic path, which accepts every system, is the oracle
the monomial and integer paths are tested against.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from operator import add
from typing import Hashable, Iterable, Sequence

from .param import Param
from .poly import MonomialKey, Poly, monomial_gcd, poly_gcd_many, poly_lcm_many
from .rational import Rat


class InconsistentRatesError(Exception):
    """The balance equations only admit the trivial (zero) solution."""


#: An edge contributes the constraint  produced * r[src] == consumed * r[dst].
BalanceEdge = tuple[Hashable, Hashable, Poly, Poly]

#: A monomial ``c * prod(p_i ** e_i)`` of the monomial path: its
#: coefficient ``c`` as a reduced ``(numerator, denominator)`` integer
#: pair, denominator positive, and its exponent vector over the
#: system's sorted parameter names (``()`` for a system without
#: parameters).
Monomial = tuple[int, int, tuple[int, ...]]


def solve_balance(
    nodes: Sequence[Hashable],
    edges: Iterable[BalanceEdge],
) -> dict[Hashable, Poly] | dict[Hashable, int]:
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
        system of monomial rates is solved on monomials (see the module
        docstring); its components are monomials.  When every rate is
        a Python ``int`` the components are ``int`` too.

    Raises
    ------
    InconsistentRatesError
        When a cycle of constraints is contradictory (Sec. III-A:
        the system must have a non-null solution for all parameter
        values) or when a non-zero production feeds a zero consumption.
    """
    edge_list = list(edges)
    monomial = _monomial_edges(edge_list)
    if monomial is not None:
        return _solve_monomial(nodes, *monomial)
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


def _monomial_edges(edge_list: list) -> tuple[tuple[str, ...], list, bool] | None:
    """``(params, edges, integral)``: the sorted parameter names of the
    system, its edges with every rate as a :data:`Monomial` over them,
    and whether every rate was a Python ``int`` — or ``None`` when some
    rate is not a monomial (the symbolic path handles it, including
    the coercion errors of unsupported rate types)."""
    keyed = []
    names: set[str] = set()
    integral = True
    for src, dst, produced, consumed in edge_list:
        if type(produced) is int and type(consumed) is int:
            keyed.append((src, dst, (produced, 1, ()), (consumed, 1, ())))
            continue
        integral = False
        out_rate = _monomial_rate(produced)
        in_rate = _monomial_rate(consumed)
        if out_rate is None or in_rate is None:
            return None
        if out_rate[2] or in_rate[2]:
            names.update(name for *_, key in (out_rate, in_rate) for name, _ in key)
        keyed.append((src, dst, out_rate, in_rate))
    params = tuple(sorted(names))
    if not params:
        # Every key is the empty monomial, which is already the
        # zero-length exponent vector.
        return params, keyed, integral
    index = {name: i for i, name in enumerate(params)}

    def vector(rate: tuple[int, int, MonomialKey]) -> Monomial:
        exps = [0] * len(params)
        for name, exp in rate[2]:
            exps[index[name]] = exp
        return rate[0], rate[1], tuple(exps)

    return params, [
        (src, dst, vector(out_rate), vector(in_rate))
        for src, dst, out_rate, in_rate in keyed
    ], False


def _monomial_rate(rate) -> tuple[int, int, MonomialKey] | None:
    if isinstance(rate, Poly):
        monomial = rate.monomial()
        if monomial is None:
            return None
        coeff, key = monomial
        return coeff.numerator, coeff.denominator, key
    if isinstance(rate, (int, Fraction)):
        return rate.numerator, rate.denominator, ()
    if isinstance(rate, Param):
        return 1, 1, ((rate.name, 1),)
    return None


def _monomial_text(monomial: Monomial, params: Sequence[str]) -> str:
    """A monomial printed the way its :class:`Poly` (a rate) or its
    :class:`Rat` (a solution) prints: positive powers over negative
    ones, e.g. ``2*r**2/p``."""
    num, den, exps = monomial
    if not num:
        return "0"
    coeff = Fraction(num, den)
    top = Poly({tuple((n, e) for n, e in zip(params, exps) if e > 0): coeff})
    bottom = tuple((n, -e) for n, e in zip(params, exps) if e < 0)
    return f"{top}/{Poly({bottom: Fraction(1)})}" if bottom else str(top)


def _check_nonnegative(edge_list: list, nonnegative, text=str) -> None:
    """Reject a rate that may be negative, in edge order; ``text``
    prints a rate of the calling path."""
    for src, dst, produced, consumed in edge_list:
        for rate, role, node in ((produced, "production", src), (consumed, "consumption", dst)):
            if not nonnegative(rate):
                raise InconsistentRatesError(
                    f"{role} rate {text(rate)} of {node!r} may be negative for some "
                    f"parameter values"
                )


def _adjacency(nodes: Sequence[Hashable], edge_list: list) -> dict:
    """The undirected adjacency ``node -> [(neighbour, out_rate,
    in_rate)]`` of a balance system, rates as the calling path keeps
    them."""
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


def _solve_monomial(
    nodes: Sequence[Hashable], params: tuple[str, ...], edge_list: list,
    integral: bool,
) -> dict[Hashable, Poly] | dict[Hashable, int]:
    """The monomial path: propagation on :data:`Monomial` values, edge
    checks by cross-multiplication, per-component normalization by the
    minimum exponents and ``math.lcm``/``math.gcd``.  Without
    parameters every exponent vector is ``()`` and only the integer
    pairs move; with ``integral`` the components are returned as
    ``int``."""

    def text(monomial: Monomial) -> str:
        return _monomial_text(monomial, params)

    if any(out_rate[0] < 0 or in_rate[0] < 0 for _, _, out_rate, in_rate in edge_list):
        _check_nonnegative(edge_list, lambda rate: rate[0] >= 0, text)
    adjacency = _adjacency(nodes, edge_list)
    components = _components(list(nodes), adjacency)
    unit = (0,) * len(params)
    gcd = math.gcd
    # r[node] = nums[node] / dens[node] * p^exps[node], kept reduced
    nums: dict[Hashable, int] = {}
    dens: dict[Hashable, int] = {}
    exps: dict[Hashable, tuple[int, ...]] = {}
    for component in components:
        root = component[0]
        nums[root], dens[root], exps[root] = 1, 1, unit
        queue = deque([root])
        while queue:
            node = queue.popleft()
            n_node, d_node, e_node = nums[node], dens[node], exps[node]
            for neighbour, (out_n, out_d, out_e), (in_n, in_d, in_e) in adjacency[node]:
                # out * p^out_e * r[node] == in * p^in_e * r[neighbour]
                if neighbour in nums:
                    continue
                if not in_n:
                    if not out_n:
                        continue  # vacuous edge; neighbour reached some other way
                    _raise_unconsumed(node, neighbour, text((out_n, out_d, out_e)))
                num = n_node * out_n * in_d
                den = d_node * out_d * in_n
                common = gcd(num, den)
                nums[neighbour], dens[neighbour] = num // common, den // common
                exps[neighbour] = (
                    tuple(e + o - i for e, o, i in zip(e_node, out_e, in_e))
                    if params else unit
                )
                queue.append(neighbour)
        for node in component:
            if node not in nums:
                # Reachable only through vacuous (0,0) edges: unconstrained.
                nums[node], dens[node], exps[node] = 1, 1, unit
    for src, dst, produced, consumed in edge_list:
        lhs = produced[0] * nums[src] * consumed[1] * dens[dst]
        rhs = consumed[0] * nums[dst] * produced[1] * dens[src]
        if lhs != rhs or (params and lhs and (
            tuple(map(add, produced[2], exps[src]))
            != tuple(map(add, consumed[2], exps[dst]))
        )):
            _raise_violated(
                src, dst, text(produced), text((nums[src], dens[src], exps[src])),
                text(consumed), text((nums[dst], dens[dst], exps[dst])),
            )
    normalized: dict = {}
    for component in components:
        numerator, denominator, low = monomial_gcd(
            (nums[node], dens[node], exps[node]) for node in component)
        for node in component:
            value = nums[node] * (denominator // dens[node]) // numerator
            if value <= 0:
                raise InconsistentRatesError(
                    f"normalized solution for {node!r} is {value}, which is "
                    f"not strictly positive for all parameter values"
                )
            if params:
                key = tuple(
                    (name, exp - least)
                    for name, exp, least in zip(params, exps[node], low)
                    if exp != least
                )
                normalized[node] = Poly.term(Fraction(value), key)
            else:
                normalized[node] = value if integral else Poly.const(value)
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
    _check_nonnegative(edge_list, Poly.has_nonnegative_coefficients)
    adjacency = _adjacency(nodes, edge_list)
    solution: dict[Hashable, Rat] = {}
    for component in _components(list(nodes), adjacency):
        _solve_component(component, adjacency, solution)
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
    solution: dict[Hashable, Rat],
) -> None:
    """Spanning-tree propagation on :class:`Rat` values from the
    component's first node."""
    root = component[0]
    solution[root] = Rat(1)
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
                _raise_unconsumed(node, neighbour, out_rate)
            solution[neighbour] = r_node * Rat(out_rate, in_rate)
            queue.append(neighbour)
    for node in component:
        if node not in solution:
            # Reachable only through vacuous (0,0) edges: unconstrained.
            solution[node] = Rat(1)


def _verify_all_edges(edge_list: list[BalanceEdge], solution: dict[Hashable, Rat]) -> None:
    """Check every edge by polynomial cross-multiplication,
    ``produced * num_src * den_dst == consumed * num_dst * den_src`` —
    the test :meth:`Rat.__eq__` computes, without building and
    normalizing intermediate rational functions."""
    for src, dst, produced, consumed in edge_list:
        r_src, r_dst = solution[src], solution[dst]
        if produced * r_src.num * r_dst.den != consumed * r_dst.num * r_src.den:
            _raise_violated(src, dst, produced, r_src, consumed, r_dst)


def _raise_unconsumed(node, neighbour, out_rate) -> None:
    raise InconsistentRatesError(
        f"channel {node!r} -> {neighbour!r} produces {out_rate} "
        f"per cycle but consumes nothing: only the trivial "
        f"solution exists"
    )


def _raise_violated(src, dst, produced, r_src, consumed, r_dst) -> None:
    raise InconsistentRatesError(
        f"balance violated on channel {src!r} -> {dst!r}: "
        f"{produced} * {r_src} != {consumed} * {r_dst}"
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
