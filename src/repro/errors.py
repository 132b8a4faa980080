"""Shared exception hierarchy for the repro library, and the one check
every count-valued input goes through (:func:`as_count`)."""

from __future__ import annotations

import operator
from typing import Any, Iterable


class ReproError(Exception):
    """Base class for all library-specific errors."""


class GraphConstructionError(ReproError):
    """The graph under construction violates a structural rule
    (duplicate names, dangling endpoints, control channel into a data
    port, ...)."""


class AnalysisError(ReproError):
    """A static analysis could not be completed."""


class SymbolicRateError(AnalysisError):
    """A cumulative rate could not be expressed symbolically.

    Raised e.g. when ``X(n)`` is requested for a symbolic ``n`` on a
    non-uniform cyclic sequence whose phase within the cycle cannot be
    determined for all parameter values."""


class DeadlockError(AnalysisError):
    """No valid schedule exists: some actors can never fire the number
    of times the repetition vector requires."""

    def __init__(self, message: str, blocked: list[str] | None = None,
                 partial_schedule: list[str] | None = None):
        super().__init__(message)
        #: Actors that still had firings left when progress stopped.
        self.blocked = blocked or []
        #: Firing sequence achieved before the deadlock.
        self.partial_schedule = partial_schedule or []


class DiagnosticsError(AnalysisError):
    """Static diagnostics found ERROR-severity defects and the caller
    asked for strict handling (``analyze(lint="error")``, edit-script
    pre-flight, service strict lint).

    Carries the full diagnostic list so front doors (CLI, service
    error envelope) can show *which* contracts the graph breaks
    instead of a single flattened message."""

    def __init__(self, message: str, diagnostics: Iterable = ()):
        super().__init__(message)
        #: The :class:`repro.diagnostics.Diagnostic` records (all
        #: severities, not only the fatal ones) backing this rejection.
        self.diagnostics = list(diagnostics)


class ParametricMCRError(AnalysisError):
    """The parametric MCR engine cannot cover the requested graph/domain.

    Raised when a graph falls outside the supported class (a directed
    cycle whose structure depends on the parameters), when the domain
    does not bind every graph parameter, or when a binding handed to a
    piecewise result lies outside the domain it was computed for."""


class RateSafetyError(AnalysisError):
    """A TPDF graph violates the rate-safety criterion (Def. 5)."""


class BoundednessError(AnalysisError):
    """A TPDF graph cannot be scheduled in bounded memory (Thm. 2)."""


class SchedulingError(ReproError):
    """The scheduler could not produce a valid mapping."""


class SimulationError(ReproError):
    """The discrete-event execution reached an invalid state."""


def as_count(name: str, value: Any, minimum: int | None = 0,
             error: type[Exception] = ValueError) -> int:
    """``value`` as a whole count named ``name`` (iterations, cores,
    firings, boxes, tokens, a capacity): it must pass ``operator.index``
    (numpy integers do), not be a ``bool`` and, unless ``minimum`` is
    None, not be below it.  Floats are refused, not truncated.  Raises
    ``error`` naming the count and the value."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and count < minimum:
        raise error(f"{name} must be >= {minimum}, got {count}")
    return count
