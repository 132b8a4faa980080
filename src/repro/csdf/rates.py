"""Cyclic rate sequences (the ``[x_j(0), ..., x_j(tau_j - 1)]`` of CSDF).

A :class:`RateSequence` is the cyclo-static production/consumption
pattern attached to one end of a channel.  Entries are
:class:`~repro.symbolic.poly.Poly`, so the same class serves plain CSDF
(integer entries) and TPDF (parametric entries such as ``beta*(N+L)``).

A sequence whose phases are all non-negative integer constants — every
sequence of a parameter-free graph, and most of a TPDF graph's — is
stored as a plain ``int`` tuple, whatever it was built from (``int``,
integral :class:`~fractions.Fraction` or constant ``Poly``), so equal
sequences compare and hash equal however they were built.  Its
``Poly`` entries are built only when :attr:`~RateSequence.entries`,
``rate()``, iteration or indexing asks for them; the quantities the
analyses read (``as_ints``, ``cumulative``, ``cycle_total``...) come
straight off the ints.

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


def _phase(entry) -> int | Poly:
    """One phase in canonical form: an ``int`` for an integer constant,
    its :class:`Poly` otherwise (``TypeError`` when it is neither).  A
    ``bool`` is no rate: ``ValueError``."""
    if type(entry) is int:
        return entry
    if isinstance(entry, bool):
        raise ValueError(f"rate phase {entry!r} is a bool, not an integer")
    poly = Poly.coerce(entry)
    if poly.is_const():
        value = poly.const_value()
        if value.denominator == 1:
            return value.numerator
    return poly


class RateSequence:
    """An immutable cyclic sequence of non-negative symbolic rates."""

    #: ``_ints`` holds the phases when all are integer constants (else
    #: None); ``_entries`` their Polys, built on first use in that form.
    __slots__ = ("_ints", "_entries")

    def __init__(self, entries: Iterable):
        phases = [_phase(entry) for entry in entries]
        if not phases:
            raise ValueError("a rate sequence needs at least one phase")
        ints = tuple(phase for phase in phases if isinstance(phase, int))
        self._ints: tuple[int, ...] | None = None
        self._entries: tuple[Poly, ...] | None = None
        if len(ints) == len(phases):
            for value in ints:
                if value < 0:
                    raise ValueError(
                        f"rate {value} may become negative for some parameter values"
                    )
            self._ints = ints
            return
        coerced = tuple(Poly.coerce(phase) for phase in phases)
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
        if self._entries is None:
            self._entries = tuple(Poly.const(value) for value in self._ints or ())
        return self._entries

    def _phases(self) -> tuple[int, ...] | tuple[Poly, ...]:
        """The phases as stored: ints when all are integer constants,
        Polys otherwise."""
        return self._ints if self._ints is not None else self.entries

    def __len__(self) -> int:
        """The cycle length tau contributed by this sequence."""
        return len(self._phases())

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> Poly:
        entries = self.entries
        return entries[index % len(entries)]

    def rate(self, n: int) -> Poly:
        """Tokens moved by the n-th firing (0-based)."""
        entries = self.entries
        return entries[n % len(entries)]

    def is_uniform(self) -> bool:
        """True when every phase moves the same token count."""
        phases = self._phases()
        first = phases[0]
        return all(phase == first for phase in phases[1:])

    def is_constant(self) -> bool:
        """True when no phase depends on a parameter."""
        if self._ints is not None:
            return True
        return all(entry.is_const() for entry in self.entries)

    def cycle_total(self) -> Poly:
        """``X(tau)``: tokens moved across one full cycle."""
        if self._ints is not None:
            return Poly.const(sum(self._ints))
        total = Poly()
        for entry in self.entries:
            total = total + entry
        return total

    # -- cumulative rates --------------------------------------------------
    def cumulative(self, n: int) -> Poly:
        """``X(n)`` for a concrete firing count ``n >= 0``."""
        if n < 0:
            raise ValueError(f"firing count must be non-negative, got {n}")
        full_cycles, remainder = divmod(n, len(self))
        ints = self._ints
        if ints is not None:
            return Poly.const(sum(ints) * full_cycles + sum(ints[:remainder]))
        total = self.cycle_total().scale(full_cycles) if full_cycles else Poly()
        for entry in self.entries[:remainder]:
            total = total + entry
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
            return n * self._phases()[0]
        tau = len(self)
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
        if self._ints is not None:
            return self
        return RateSequence([entry.subs(bindings) for entry in self.entries])

    def as_ints(self, bindings: Mapping | None = None) -> tuple[int, ...]:
        """Concrete integer phases; ``bindings`` required when symbolic."""
        if self._ints is not None:
            return self._ints
        out = []
        for entry in self.entries:
            value = entry.evaluate(bindings or {})
            if value.denominator != 1 or value < 0:
                raise ValueError(f"rate {entry} is not a non-negative integer: {value}")
            out.append(int(value))
        return tuple(out)

    def variables(self) -> set[str]:
        names: set[str] = set()
        if self._ints is None:
            for entry in self.entries:
                names |= entry.variables()
        return names

    # -- identity -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, RateSequence):
            # an int-form sequence never equals a Poly-form one: the
            # latter has a phase that is no integer constant
            return self._phases() == other._phases()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RateSequence", self._phases()))

    def __repr__(self) -> str:
        return f"RateSequence({list(map(str, self._phases()))})"

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self._phases())) + "]"


def lcm_int(a: int, b: int) -> int:
    """Least common multiple of two positive integers."""
    return math.lcm(a, b)
