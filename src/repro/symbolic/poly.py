"""Exact multivariate polynomials over integer parameters.

This is the algebraic core of the parametric analyses in the paper:
balance equations (Sec. III-A), local solutions (Def. 4) and rate-safety
checks (Def. 5) all manipulate rates that are polynomials in the integer
parameters ``P`` of a TPDF graph, e.g. ``beta*(N + L)`` for the OFDM
source actor.

Coefficients are :class:`fractions.Fraction` so every operation is
exact; monomials are products of parameter powers.  The class supports
the small amount of computer algebra the analyses need:

* ring arithmetic (``+``, ``-``, ``*``, integer ``**``),
* exact division (:meth:`try_div`) by multivariate long division,
* a *limited* but sound gcd (:func:`poly_gcd`): content gcd, common
  monomial factor, and mutual-divisibility detection — enough for
  dataflow rate vectors, which are (sums of) monomials in practice,
* evaluation and partial substitution under parameter bindings.

Polynomials are immutable and hashable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Mapping, Union

from .param import Param, normalize_bindings

#: A monomial key: sorted tuple of (parameter name, positive exponent).
MonomialKey = tuple[tuple[str, int], ...]

#: Anything coercible to a polynomial.
PolyLike = Union["Poly", Param, int, Fraction]

_EMPTY: MonomialKey = ()


def _mono_mul(a: MonomialKey, b: MonomialKey) -> MonomialKey:
    """Multiply two monomial keys."""
    if not a:
        return b
    if not b:
        return a
    powers: dict[str, int] = dict(a)
    for name, exp in b:
        powers[name] = powers.get(name, 0) + exp
    return tuple(sorted(powers.items()))


def _mono_try_div(a: MonomialKey, b: MonomialKey) -> MonomialKey | None:
    """Divide monomial ``a`` by ``b``; return None if not divisible."""
    powers: dict[str, int] = dict(a)
    for name, exp in b:
        have = powers.get(name, 0)
        if have < exp:
            return None
        if have == exp:
            del powers[name]
        else:
            powers[name] = have - exp
    return tuple(sorted(powers.items()))


def _mono_gcd(a: MonomialKey, b: MonomialKey) -> MonomialKey:
    """Greatest common monomial factor."""
    if not a or not b:
        return _EMPTY
    other = dict(b)
    common = []
    for name, exp in a:
        if name in other:
            common.append((name, min(exp, other[name])))
    return tuple(sorted(common))


def _mono_degree(a: MonomialKey) -> int:
    return sum(exp for _, exp in a)


def _mono_cmp(a: MonomialKey, b: MonomialKey) -> int:
    """Graded-lexicographic comparison (a proper monomial order).

    Total degree first; ties broken lexicographically with
    alphabetically-earlier variables more significant and higher
    exponents larger.  A consistent term order is what makes the
    multivariate long division in :meth:`Poly.try_div` terminate with a
    correct verdict.
    """
    da, db = _mono_degree(a), _mono_degree(b)
    if da != db:
        return 1 if da > db else -1
    ia, ib = 0, 0
    while ia < len(a) or ib < len(b):
        name_a = a[ia][0] if ia < len(a) else None
        name_b = b[ib][0] if ib < len(b) else None
        if name_a == name_b:
            exp_a, exp_b = a[ia][1], b[ib][1]
            if exp_a != exp_b:
                return 1 if exp_a > exp_b else -1
            ia += 1
            ib += 1
        elif name_b is None or (name_a is not None and name_a < name_b):
            # `a` has the more significant variable with positive power.
            return 1
        else:
            return -1
    return 0


_MONO_ORDER = cmp_to_key(_mono_cmp)


def _mono_order_key(a: MonomialKey):
    """Graded-lexicographic order key (usable with sorted/max)."""
    return _MONO_ORDER(a)


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd extended to rationals: gcd(p/q, r/s) = gcd(p,r)/lcm(q,s)."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    num = math.gcd(abs(a.numerator), abs(b.numerator))
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


class Poly:
    """An immutable multivariate polynomial with rational coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[MonomialKey, Fraction] | None = None):
        cleaned: dict[MonomialKey, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    cleaned[key] = cleaned.get(key, Fraction(0)) + coeff
            cleaned = {k: c for k, c in cleaned.items() if c != 0}
        self._terms = cleaned
        self._hash = hash(tuple(sorted(self._terms.items())))

    # -- constructors ---------------------------------------------------
    @staticmethod
    def const(value) -> "Poly":
        """Polynomial for a rational constant."""
        value = Fraction(value)
        if value == 0:
            return Poly()
        return Poly.term(value)

    @staticmethod
    def term(coeff: Fraction, key: MonomialKey = _EMPTY) -> "Poly":
        """The monomial ``coeff * key`` for a non-zero :class:`Fraction`
        coefficient, built without the normalizing pass of the general
        constructor (one term needs no merging)."""
        poly = object.__new__(Poly)
        poly._terms = {key: coeff}
        poly._hash = hash(((key, coeff),))
        return poly

    @staticmethod
    def var(name: str) -> "Poly":
        """Polynomial for a single parameter."""
        return Poly({((name, 1),): Fraction(1)})

    @staticmethod
    def coerce(value: PolyLike) -> "Poly":
        """Coerce ints, Fractions and Params into polynomials."""
        if isinstance(value, Poly):
            return value
        if isinstance(value, Param):
            return Poly.var(value.name)
        if isinstance(value, (int, Fraction)):
            return Poly.const(value)
        raise TypeError(f"cannot coerce {value!r} to Poly")

    # -- inspection -----------------------------------------------------
    @property
    def terms(self) -> dict[MonomialKey, Fraction]:
        """The term dictionary (monomial key -> coefficient), copied."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_const(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _EMPTY in self._terms)

    def is_monomial(self) -> bool:
        """True when the polynomial has at most one term."""
        return len(self._terms) <= 1

    def monomial(self) -> tuple[Fraction, MonomialKey] | None:
        """``(coefficient, monomial key)`` of a monomial — ``(0, ())``
        for the zero polynomial — or ``None`` when there is more than
        one term."""
        if not self._terms:
            return Fraction(0), _EMPTY
        if len(self._terms) > 1:
            return None
        ((key, coeff),) = self._terms.items()
        return coeff, key

    def is_integer_const(self) -> bool:
        return self.is_const() and self.const_value().denominator == 1

    def const_value(self) -> Fraction:
        """The constant value; raises if the polynomial is not constant."""
        if self.is_zero():
            return Fraction(0)
        if not self.is_const():
            raise ValueError(f"{self} is not a constant")
        return self._terms[_EMPTY]

    def degree(self) -> int:
        """Total degree (0 for constants, -1 for the zero polynomial)."""
        if self.is_zero():
            return -1
        return max(_mono_degree(k) for k in self._terms)

    def variables(self) -> set[str]:
        """The set of parameter names occurring in this polynomial."""
        names: set[str] = set()
        for key in self._terms:
            for name, _ in key:
                names.add(name)
        return names

    def leading(self) -> tuple[MonomialKey, Fraction]:
        """Leading (monomial, coefficient) under graded-lex order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        key = max(self._terms, key=_mono_order_key)
        return key, self._terms[key]

    def content(self) -> Fraction:
        """gcd of all coefficients (positive), 0 for the zero polynomial."""
        result = Fraction(0)
        for coeff in self._terms.values():
            result = _frac_gcd(result, coeff)
        return result

    def monomial_content(self) -> MonomialKey:
        """Largest monomial dividing every term."""
        keys = iter(self._terms)
        try:
            common = next(keys)
        except StopIteration:
            return _EMPTY
        for key in keys:
            common = _mono_gcd(common, key)
            if not common:
                break
        return common

    def coefficient_lcm_denominator(self) -> int:
        """lcm of all coefficient denominators (1 for integer polys)."""
        result = 1
        for coeff in self._terms.values():
            result = result * coeff.denominator // math.gcd(result, coeff.denominator)
        return result

    def has_nonnegative_coefficients(self) -> bool:
        """Sufficient condition for the polynomial to be >= 0 whenever
        all parameters are >= 0 (rates and repetition components must be
        non-negative for every parameter valuation)."""
        return all(coeff >= 0 for coeff in self._terms.values())

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other: PolyLike) -> "Poly":
        other = Poly.coerce(other)
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: PolyLike) -> "Poly":
        return self + (-Poly.coerce(other))

    def __rsub__(self, other: PolyLike) -> "Poly":
        return Poly.coerce(other) + (-self)

    def __mul__(self, other: PolyLike) -> "Poly":
        other = Poly.coerce(other)
        terms: dict[MonomialKey, Fraction] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                key = _mono_mul(ka, kb)
                terms[key] = terms.get(key, Fraction(0)) + ca * cb
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = Poly.const(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __truediv__(self, other: PolyLike):
        """Division producing a :class:`repro.symbolic.rational.Rat`."""
        from .rational import Rat

        return Rat(self, Poly.coerce(other))

    def scale(self, factor) -> "Poly":
        """Multiply every coefficient by a rational constant."""
        factor = Fraction(factor)
        return Poly({k: c * factor for k, c in self._terms.items()})

    # -- exact division --------------------------------------------------
    def try_div(self, divisor: PolyLike) -> "Poly | None":
        """Exact polynomial division; None when ``divisor`` does not
        divide ``self``.

        Uses multivariate long division under graded-lex order.  For an
        exact multiple the single-divisor algorithm always succeeds, so
        ``None`` genuinely means "not divisible".
        """
        divisor = Poly.coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly()
        if divisor.is_const():
            inv = 1 / divisor.const_value()
            return self.scale(inv)
        lead_key, lead_coeff = divisor.leading()
        quotient: dict[MonomialKey, Fraction] = {}
        remainder = self
        while not remainder.is_zero():
            rk, rc = remainder.leading()
            qk = _mono_try_div(rk, lead_key)
            if qk is None:
                return None
            qc = rc / lead_coeff
            quotient[qk] = quotient.get(qk, Fraction(0)) + qc
            remainder = remainder - Poly({qk: qc}) * divisor
        return Poly(quotient)

    def divides(self, other: PolyLike) -> bool:
        """True when ``self`` exactly divides ``other``."""
        return Poly.coerce(other).try_div(self) is not None

    # -- evaluation -------------------------------------------------------
    def evaluate(self, bindings: Mapping) -> Fraction:
        """Evaluate under complete bindings; raises KeyError when a
        parameter is unbound."""
        named = normalize_bindings(bindings)
        total = Fraction(0)
        for key, coeff in self._terms.items():
            value = coeff
            for name, exp in key:
                value *= named[name] ** exp
            total += value
        return total

    def evaluate_int(self, bindings: Mapping) -> int:
        """Evaluate and require an integer result."""
        value = self.evaluate(bindings)
        if value.denominator != 1:
            raise ValueError(f"{self} evaluates to non-integer {value} under {bindings}")
        return int(value)

    def subs(self, bindings: Mapping) -> "Poly":
        """Partial substitution: bind some parameters, keep the rest."""
        named = normalize_bindings(bindings)
        result = Poly()
        for key, coeff in self._terms.items():
            factor = Fraction(1)
            residual: list[tuple[str, int]] = []
            for name, exp in key:
                if name in named:
                    factor *= named[name] ** exp
                else:
                    residual.append((name, exp))
            result = result + Poly({tuple(sorted(residual)): coeff * factor})
        return result

    # -- identity ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Poly, Param, int, Fraction)):
            return (self - Poly.coerce(other)).is_zero()
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- rendering -----------------------------------------------------------
    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for key in sorted(self._terms, key=_mono_order_key, reverse=True):
            coeff = self._terms[key]
            body = "*".join(
                name if exp == 1 else f"{name}**{exp}" for name, exp in key
            )
            if not body:
                text = str(coeff)
            elif coeff == 1:
                text = body
            elif coeff == -1:
                text = f"-{body}"
            else:
                text = f"{coeff}*{body}"
            parts.append(text)
        rendered = parts[0]
        for part in parts[1:]:
            rendered += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return rendered


ZERO = Poly()
ONE = Poly.const(1)


def poly_gcd(a: PolyLike, b: PolyLike) -> Poly:
    """A limited-but-sound polynomial gcd.

    Computed as ``gcd(content(a), content(b)) * gcd(primitive(a),
    primitive(b))`` where the primitive-part gcd covers the fragment the
    analyses use: common monomial factor, and the full primitive part
    when one primitive part divides the other.  Over rational
    coefficients any constant "divides" any polynomial, so contents are
    handled separately — that is what makes the gcd suitable for
    normalizing repetition vectors to *integers* (``gcd(2, p) = 1``, not
    ``2``).  For dataflow rate vectors — monomials and small binomials —
    this is the true gcd; in pathological cases it may under-approximate
    (still sound: normalized repetition vectors stay valid, merely
    non-minimal).
    """
    a = Poly.coerce(a)
    b = Poly.coerce(b)
    if a.is_zero():
        return b if b.has_nonnegative_coefficients() else -b
    if b.is_zero():
        return a if a.has_nonnegative_coefficients() else -a
    content = _frac_gcd(a.content(), b.content())
    prim_a = a.scale(1 / a.content())
    prim_b = b.scale(1 / b.content())
    if prim_a.leading()[1] < 0:
        prim_a = -prim_a
    if prim_b.leading()[1] < 0:
        prim_b = -prim_b
    if prim_b.divides(prim_a):
        prim = prim_b
    elif prim_a.divides(prim_b):
        prim = prim_a
    else:
        prim = Poly({_mono_gcd(prim_a.monomial_content(), prim_b.monomial_content()): Fraction(1)})
    return prim.scale(content)


def poly_lcm(a: PolyLike, b: PolyLike) -> Poly:
    """lcm via ``a*b / gcd(a,b)`` (exact by construction of the gcd)."""
    a = Poly.coerce(a)
    b = Poly.coerce(b)
    if a.is_zero() or b.is_zero():
        return ZERO
    g = poly_gcd(a, b)
    quotient = a.try_div(g)
    if quotient is None:  # pragma: no cover - gcd always divides
        raise ArithmeticError(f"gcd {g} does not divide {a}")
    result = quotient * b
    if not result.has_nonnegative_coefficients() and (-result).has_nonnegative_coefficients():
        result = -result
    return result


def poly_gcd_many(values: Iterable[PolyLike]) -> Poly:
    """gcd of a collection (0 for an empty collection)."""
    result = ZERO
    for value in values:
        result = poly_gcd(result, value)
    return result


def poly_lcm_many(values: Iterable[PolyLike]) -> Poly:
    """lcm of a collection (1 for an empty collection)."""
    result = ONE
    for value in values:
        result = poly_lcm(result, value)
    return result


def monomial_gcd(
    monomials: Iterable[tuple[int, int, tuple[int, ...]]],
) -> tuple[int, int, tuple[int, ...]]:
    """gcd of monomials ``c * prod(p_i ** e_i)`` with non-negative
    coefficients, each given as ``(n, d, e)``: the coefficient
    ``c = n / d`` as a reduced integer pair (``d > 0``) and ``e`` an
    exponent vector over one fixed parameter order (exponents may be
    negative).

    Returns ``(n, d, low)``: ``n / d`` is the gcd of the coefficients —
    gcd of the numerators over lcm of the denominators, the rational
    gcd of :meth:`Poly.content`, already reduced — and ``low`` holds
    each parameter's minimum exponent.  Zero monomials are skipped, as
    :func:`poly_gcd_many` skips zero polynomials; ``(0, 1, ())`` when
    every monomial is zero.  Dividing each monomial by ``n / d`` and
    ``low`` leaves the primitive integer solution that
    :func:`poly_gcd_many` normalization reaches on monomials.

    >>> monomial_gcd([(6, 1, (1,)), (4, 3, (2,)), (0, 1, (0,))])
    (2, 3, (1,))
    """
    nonzero = [(num, den, exps) for num, den, exps in monomials if num]
    if not nonzero:
        return 0, 1, ()
    numerator = math.gcd(*(num for num, _, _ in nonzero))
    denominator = math.lcm(*(den for _, den, _ in nonzero))
    low = tuple(map(min, zip(*(exps for _, _, exps in nonzero))))
    return numerator, denominator, low
