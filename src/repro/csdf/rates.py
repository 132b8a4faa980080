"""Cyclic rate sequences (the ``[x_j(0), ..., x_j(tau_j - 1)]`` of CSDF).

A :class:`RateSequence` is the cyclo-static production/consumption
pattern attached to one end of a channel.  Entries are
:class:`~repro.symbolic.poly.Poly`, so the same class serves plain CSDF
(integer entries) and TPDF (parametric entries such as ``beta*(N+L)``).

The class knows how to compute the quantities the analyses need:

``rate(n)``
    tokens moved by the n-th firing (``x_j(n mod tau_j)``),
``cycle_total()``
    tokens moved over one full cycle (``X_j(tau_j)``),
``cumulative(n)``
    tokens moved by the first ``n`` firings (``X_j(n)``), for concrete
    or symbolic ``n`` (Def. 5 evaluates ``Y_i(q^L_i)`` where the local
    solution can be parametric).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence, Union

from ..errors import SymbolicRateError
from ..symbolic import Poly

RateLike = Union["RateSequence", Poly, int, Sequence]


class RateSequence:
    """An immutable cyclic sequence of non-negative symbolic rates."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable):
        coerced = tuple(Poly.coerce(entry) for entry in entries)
        if not coerced:
            raise ValueError("a rate sequence needs at least one phase")
        for entry in coerced:
            if not entry.has_nonnegative_coefficients():
                raise ValueError(
                    f"rate {entry} may become negative for some parameter values"
                )
        self._entries = coerced

    # -- constructors ---------------------------------------------------
    @staticmethod
    def of(value: RateLike) -> "RateSequence":
        """Coerce scalars, params, polys, and sequences into a RateSequence."""
        if isinstance(value, RateSequence):
            return value
        if isinstance(value, (list, tuple)):
            return RateSequence(value)
        return RateSequence([value])

    # -- basic views -----------------------------------------------------
    @property
    def entries(self) -> tuple[Poly, ...]:
        return self._entries

    def __len__(self) -> int:
        """The cycle length tau contributed by this sequence."""
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, index: int) -> Poly:
        return self._entries[index % len(self._entries)]

    def rate(self, n: int) -> Poly:
        """Tokens moved by the n-th firing (0-based)."""
        return self._entries[n % len(self._entries)]

    def is_uniform(self) -> bool:
        """True when every phase moves the same token count."""
        first = self._entries[0]
        return all(entry == first for entry in self._entries[1:])

    def is_constant(self) -> bool:
        """True when no phase depends on a parameter."""
        return all(entry.is_const() for entry in self._entries)

    def cycle_total(self) -> Poly:
        """``X(tau)``: tokens moved across one full cycle."""
        total = Poly()
        for entry in self._entries:
            total = total + entry
        return total

    # -- cumulative rates --------------------------------------------------
    def cumulative(self, n: int) -> Poly:
        """``X(n)`` for a concrete firing count ``n >= 0``."""
        if n < 0:
            raise ValueError(f"firing count must be non-negative, got {n}")
        tau = len(self._entries)
        full_cycles, remainder = divmod(n, tau)
        if self.is_constant():
            # Integer phases are summed as ints: Fraction arithmetic
            # would cost as much as building the resulting Poly.
            values = [entry.const_value() for entry in self._entries]
            if all(value.denominator == 1 for value in values):
                values = [value.numerator for value in values]
            return Poly.const(sum(values) * full_cycles + sum(values[:remainder]))
        total = self.cycle_total().scale(full_cycles) if full_cycles else Poly()
        for i in range(remainder):
            total = total + self._entries[i]
        return total

    def cumulative_symbolic(self, n: Poly) -> Poly:
        """``X(n)`` for a symbolic firing count.

        Decidable when (i) ``n`` is actually a constant, (ii) the
        sequence is uniform (``X(n) = n * x``), or (iii) ``n`` is an
        integer-polynomial multiple of the cycle length
        (``X(k*tau) = k * X(tau)``).  Anything else raises
        :class:`~repro.errors.SymbolicRateError` — the phase inside the
        cycle would depend on the parameter valuation.
        """
        n = Poly.coerce(n)
        if n.is_const():
            value = n.const_value()
            if value.denominator != 1 or value < 0:
                raise SymbolicRateError(f"invalid firing count {n}")
            return self.cumulative(int(value))
        if self.is_uniform():
            return n * self._entries[0]
        tau = len(self._entries)
        cycles = n.try_div(Poly.const(tau))
        if cycles is not None and cycles.coefficient_lcm_denominator() == 1:
            return cycles * self.cycle_total()
        raise SymbolicRateError(
            f"cannot evaluate cumulative rate of {self} at symbolic count {n}: "
            f"the phase within the length-{tau} cycle depends on the parameters"
        )

    def bind(self, bindings: Mapping) -> "RateSequence":
        """Substitute parameters, producing a (possibly still symbolic)
        sequence."""
        return RateSequence([entry.subs(bindings) for entry in self._entries])

    def as_ints(self, bindings: Mapping | None = None) -> tuple[int, ...]:
        """Concrete integer phases; ``bindings`` required when symbolic."""
        out = []
        for entry in self._entries:
            value = entry.evaluate(bindings or {})
            if value.denominator != 1 or value < 0:
                raise ValueError(f"rate {entry} is not a non-negative integer: {value}")
            out.append(int(value))
        return tuple(out)

    def variables(self) -> set[str]:
        names: set[str] = set()
        for entry in self._entries:
            names |= entry.variables()
        return names

    # -- identity -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, RateSequence):
            return self._entries == other._entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RateSequence", self._entries))

    def __repr__(self) -> str:
        return f"RateSequence({list(map(str, self._entries))})"

    def __str__(self) -> str:
        return "[" + ",".join(str(entry) for entry in self._entries) + "]"


def lcm_int(a: int, b: int) -> int:
    """Least common multiple of two positive integers."""
    return math.lcm(a, b)
