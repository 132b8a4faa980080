"""TPDF kernels and control actors (Definition 2).

*Kernels* play the role CSDF actors do: iterated computations with
cyclic (possibly parametric) rates.  A kernel may own **at most one
control port** (the paper's simplifying assumption); a kernel without
one always operates in plain dataflow mode (``WAIT_ALL``).

*Control actors* form the disjoint set ``G``.  They fire like dataflow
actors (wait for ``Rg`` tokens on every input), perform a decision, and
emit control tokens on control output ports.  Their significance is
semantic: control channels may *only* originate at control actors, and
the scheduler gives them the highest priority (Sec. III-D).

Rates are per-port rate sequences, with optional per-mode overrides
(``Rk : Mk x (Ik u Ck u Ok) x N -> N``).  The static analyses use the
*full* rates (every edge present — Sec. III-A argues this is the safe
over-approximation); the mode overrides drive the dynamic simulator and
the ADF pruning.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..csdf.actor import ExecTime
from ..csdf.rates import RateLike, RateSequence, lcm_int
from ..errors import GraphConstructionError
from .modes import ControlToken, Mode
from .ports import Port, PortKind


class Node:
    """Common behaviour of kernels and control actors."""

    def __init__(self, name: str, exec_time: ExecTime = 1.0, function: Callable | None = None):
        if not name:
            raise ValueError("node name must be non-empty")
        if isinstance(exec_time, (int, float)):
            times: tuple[float, ...] = (float(exec_time),)
        else:
            times = tuple(float(t) for t in exec_time)
        if not times or any(t < 0 for t in times):
            raise ValueError(f"node {name!r}: invalid execution times {times}")
        self.name = name
        self._exec_times = times
        self.function = function
        self._ports: dict[str, Port] = {}
        #: Free-form annotations (builtin kind, clock period, vote arity...).
        self.meta: dict = {}
        #: Owning graph; set when the node is registered so port-level
        #: mutations (new ports, rate edits) invalidate the graph's
        #: analysis caches.  Graph-level mutators bump on their own.
        self._graph = None

    # -- ports -----------------------------------------------------------
    def _add_port(self, port: Port) -> Port:
        if port.name in self._ports:
            raise GraphConstructionError(
                f"node {self.name!r}: duplicate port name {port.name!r}"
            )
        self._ports[port.name] = port
        port._owner = self
        self._touch()
        return port

    def _touch(self) -> None:
        """Bump the owning graph's analysis version (port added or a
        port's rates edited): a node mutation changes ``tau`` and the
        balance equations, so every memoized analysis is stale."""
        if self._graph is not None:
            from ..cache import bump_version

            bump_version(self._graph, kind="structural")

    @property
    def ports(self) -> dict[str, Port]:
        return dict(self._ports)

    def port(self, name: str) -> Port:
        if name not in self._ports:
            raise KeyError(f"node {self.name!r} has no port {name!r}")
        return self._ports[name]

    def ports_of_kind(self, kind: PortKind) -> list[Port]:
        return [p for p in self._ports.values() if p.kind is kind]

    @property
    def data_inputs(self) -> list[Port]:
        return self.ports_of_kind(PortKind.DATA_IN)

    @property
    def data_outputs(self) -> list[Port]:
        return self.ports_of_kind(PortKind.DATA_OUT)

    # -- timing -----------------------------------------------------------
    def exec_time(self, firing: int = 0) -> float:
        return self._exec_times[firing % len(self._exec_times)]

    @property
    def exec_times(self) -> tuple[float, ...]:
        return self._exec_times

    # -- cyclic structure ---------------------------------------------------
    def tau(self) -> int:
        """Cycle length: lcm over all port rate sequences and exec times."""
        length = len(self._exec_times)
        for port in self._ports.values():
            length = lcm_int(length, len(port.rates))
        return length

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Kernel(Node):
    """A TPDF computation kernel (element of the set ``K``)."""

    def __init__(
        self,
        name: str,
        exec_time: ExecTime = 1.0,
        function: Callable | None = None,
        modes: tuple[Mode, ...] = (Mode.WAIT_ALL,),
    ):
        super().__init__(name, exec_time, function)
        self.modes: tuple[Mode, ...] = tuple(modes)
        #: mode -> {port name -> RateSequence} overriding the port rates.
        self._mode_rates: dict[Mode, dict[str, RateSequence]] = {}

    # -- port construction --------------------------------------------------
    def add_input(self, name: str, rates: RateLike = 1, priority: int = 0) -> Port:
        return self._add_port(Port(name, PortKind.DATA_IN, rates, priority))

    def add_output(self, name: str, rates: RateLike = 1, priority: int = 0) -> Port:
        return self._add_port(Port(name, PortKind.DATA_OUT, rates, priority))

    def add_control_port(self, name: str = "ctrl", rates: RateLike = 1) -> Port:
        if self.control_port() is not None:
            raise GraphConstructionError(
                f"kernel {self.name!r} already has a control port: the paper "
                f"assumes at most one control port per kernel (Sec. II-B)"
            )
        return self._add_port(Port(name, PortKind.CONTROL_IN, rates))

    def control_port(self) -> Port | None:
        ports = self.ports_of_kind(PortKind.CONTROL_IN)
        return ports[0] if ports else None

    def has_control(self) -> bool:
        return self.control_port() is not None

    # -- mode-dependent rates ------------------------------------------------
    def set_mode_rates(self, mode: Mode, rates: Mapping[str, RateLike]) -> None:
        """Override port rates for one mode (the ``Rk(m, ., .)`` table)."""
        if mode not in self.modes:
            raise GraphConstructionError(
                f"kernel {self.name!r} does not declare mode {mode}"
            )
        table: dict[str, RateSequence] = {}
        for port_name, value in rates.items():
            self.port(port_name)  # raises on unknown ports
            table[port_name] = RateSequence.of(value)
        self._mode_rates[mode] = table
        self._touch()

    def rate(self, port_name: str, firing: int = 0, mode: Mode | None = None):
        """``Rk(m, port, n)``: rate of the port for the given firing/mode."""
        port = self.port(port_name)
        if mode is not None and mode in self._mode_rates:
            override = self._mode_rates[mode].get(port_name)
            if override is not None:
                return override.rate(firing)
        return port.rates.rate(firing)

    def effective_ports(self, token: ControlToken) -> list[Port]:
        """Data ports enabled by the given control token."""
        return [
            port
            for port in self._ports.values()
            if not port.kind.is_control() and token.selects(port.name)
        ]


DecisionFn = Callable[[int, list], ControlToken]


class ControlActor(Node):
    """A TPDF control actor (element of the set ``G``).

    ``decision`` maps ``(firing index, consumed data tokens)`` to the
    :class:`ControlToken` emitted on every control output of that
    firing.  When omitted the actor always emits ``WAIT_ALL`` — a
    degenerate but valid controller.
    """

    def __init__(
        self,
        name: str,
        exec_time: ExecTime = 0.0,
        decision: DecisionFn | None = None,
    ):
        super().__init__(name, exec_time, function=None)
        self.decision = decision

    def add_input(self, name: str, rates: RateLike = 1, priority: int = 0) -> Port:
        return self._add_port(Port(name, PortKind.DATA_IN, rates, priority))

    def add_control_input(self, name: str, rates: RateLike = 1) -> Port:
        """Control-in port: control actors can themselves be controlled."""
        return self._add_port(Port(name, PortKind.CONTROL_IN, rates))

    def add_control_output(self, name: str, rates: RateLike = 1) -> Port:
        return self._add_port(Port(name, PortKind.CONTROL_OUT, rates))

    def control_outputs(self) -> list[Port]:
        return self.ports_of_kind(PortKind.CONTROL_OUT)

    def decide(self, firing: int, inputs: list) -> ControlToken:
        """Evaluate the decision function for one firing."""
        if self.decision is None:
            return ControlToken(Mode.WAIT_ALL)
        return self.decision(firing, inputs)
