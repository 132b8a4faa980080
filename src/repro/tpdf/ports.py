"""Ports of TPDF kernels and control actors.

Definition 2 distinguishes data input ports ``I``, data output ports
``O`` and control ports ``C``; every port carries a priority ``alpha``
(used by ``HIGHEST_PRIORITY`` modes) and a rate sequence.  Control
ports are restricted to rates in ``{0, 1}`` — a kernel reads at most
one control token per firing.
"""

from __future__ import annotations

from enum import Enum

from ..csdf.rates import RateLike, RateSequence


class PortKind(Enum):
    DATA_IN = "data_in"
    DATA_OUT = "data_out"
    CONTROL_IN = "control_in"
    CONTROL_OUT = "control_out"

    def is_input(self) -> bool:
        return self in (PortKind.DATA_IN, PortKind.CONTROL_IN)

    def is_control(self) -> bool:
        return self in (PortKind.CONTROL_IN, PortKind.CONTROL_OUT)

    def __str__(self) -> str:
        return self.value


class Port:
    """A named, kinded, prioritized port with a cyclic rate sequence.

    ``priority`` is the ``alpha`` of Definition 2: larger values win in
    ``HIGHEST_PRIORITY`` selections (the edge-detection case study
    orders Canny > Prewitt > Sobel > QuickMask this way).

    Rates participate in every cached analysis (they decide the node's
    cycle length ``tau`` and the balance equations), so assigning
    ``port.rates`` after the port joined a graph bumps that graph's
    analysis version — in-place rate edits can never serve stale
    memoized results.
    """

    __slots__ = ("name", "kind", "_rates", "priority", "_owner")

    def __init__(self, name: str, kind: PortKind, rates: RateLike = 1, priority: int = 0):
        self.name = name
        self.kind = kind
        #: Owning node; set by ``Node._add_port`` so rate edits can
        #: propagate a cache-invalidation bump to the owning graph.
        self._owner = None
        self.rates = rates
        self.priority = int(priority)

    @property
    def rates(self) -> RateSequence:
        return self._rates

    @rates.setter
    def rates(self, value: RateLike) -> None:
        rates = RateSequence.of(value)
        if self.kind is PortKind.CONTROL_IN:
            # Def. 2: Rk(m, c, n) in {0, 1} — a kernel reads at most one
            # control token per firing.  Control *outputs* are not
            # restricted (the Fig. 2 controller emits 2 tokens per firing).
            for entry in rates._phases():
                if entry not in (0, 1):
                    raise ValueError(
                        f"control port {self.name!r}: rates must be 0 or 1 per "
                        f"firing (Def. 2), got {entry}"
                    )
        if self._owner is not None:
            self._owner._touch()  # raises first on frozen graphs
        self._rates = rates

    def __repr__(self) -> str:
        return (
            f"Port({self.name!r}, {self.kind}, rates={self.rates}, "
            f"priority={self.priority})"
        )
