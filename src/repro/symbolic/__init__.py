"""Exact symbolic algebra over integer dataflow parameters.

The parametric analyses of TPDF (rate consistency, local solutions,
rate safety) manipulate rates that are polynomials in the integer
parameters of the graph.  This subpackage provides the minimal exact
computer algebra they need; it has no third-party dependencies.

Public API
----------
:class:`Param`, :func:`params`
    Named strictly-positive integer parameters.
:class:`Poly`
    Immutable multivariate polynomials with rational coefficients.
:class:`Rat`
    Reduced quotients of polynomials.
:func:`poly_gcd`, :func:`poly_lcm`, :func:`poly_gcd_many`, :func:`poly_lcm_many`
    (Limited, sound) gcd/lcm used to normalize repetition vectors.
:func:`monomial_gcd`
    The exact gcd of monomials given as integer coefficient pairs and
    exponent vectors.
:func:`solve_balance`
    Symbolic balance-equation solver (Theorem 1 of the paper).
"""

from .param import Param, normalize_bindings, params
from .poly import (
    ONE,
    ZERO,
    Poly,
    monomial_gcd,
    poly_gcd,
    poly_gcd_many,
    poly_lcm,
    poly_lcm_many,
)
from .rational import Rat
from .linsolve import (
    BalanceEdge,
    InconsistentRatesError,
    consistency_conditions,
    solve_balance,
)

__all__ = [
    "Param",
    "params",
    "normalize_bindings",
    "Poly",
    "Rat",
    "ZERO",
    "ONE",
    "poly_gcd",
    "poly_lcm",
    "poly_gcd_many",
    "poly_lcm_many",
    "monomial_gcd",
    "solve_balance",
    "consistency_conditions",
    "BalanceEdge",
    "InconsistentRatesError",
]
