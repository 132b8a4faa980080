"""Token-count simulation of CSDF graphs.

This is the *untimed* operational semantics: channel fill levels and
firing counters, no data values and no clock.  It underpins schedule
construction (:mod:`repro.csdf.schedule`), buffer sizing
(:mod:`repro.csdf.buffers`) and the liveness analysis of TPDF
(:mod:`repro.tpdf.liveness`).  Timed, data-carrying execution lives in
:mod:`repro.sim`.

The integer rates come from :func:`rate_table`: every channel's phase
tuples evaluated once per (graph version, bindings) and memoized, so a
:class:`TokenState` build only copies the initial tokens.  The array
templates of :mod:`repro.csdf.statearrays` read the same table.  It
needs no repetition vector (``validate_schedule`` replays schedules on
graphs of any consistency), and it is carried across execution-time
edits, which cannot move a rate.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..cache import bindings_key, cached, register_binding_insensitive
from ..errors import SimulationError
from .graph import CSDFGraph

# Rates, topology and the valuation fix the table; execution times
# never enter it.
register_binding_insensitive("rate_table")


class RateTable:
    """Integer phase tables and adjacency of one (graph, bindings) pair.

    Shared, read-only: every :class:`TokenState` and array template of
    the graph version reads the same instance.

    Attributes
    ----------
    production, consumption:
        Channel name -> integer phase tuple (``as_ints`` under the
        bindings).
    inputs, outputs:
        Actor name -> the channel names it consumes from / produces on,
        in channel order.
    consumers:
        Actor name -> the distinct other actors its output channels
        feed, in channel order: the actors one of its firings can make
        fireable.
    """

    __slots__ = ("production", "consumption", "inputs", "outputs", "consumers")

    def __init__(self, graph: CSDFGraph, bindings: Mapping | None):
        self.production: dict[str, tuple[int, ...]] = {}
        self.consumption: dict[str, tuple[int, ...]] = {}
        inputs: dict[str, list[str]] = {name: [] for name in graph.actors}
        outputs: dict[str, list[str]] = {name: [] for name in graph.actors}
        consumers: dict[str, dict[str, None]] = {name: {} for name in graph.actors}
        for channel in graph.channels.values():
            self.production[channel.name] = channel.production.as_ints(bindings)
            self.consumption[channel.name] = channel.consumption.as_ints(bindings)
            outputs[channel.src].append(channel.name)
            inputs[channel.dst].append(channel.name)
            if channel.dst != channel.src:
                consumers[channel.src][channel.dst] = None
        self.inputs = {name: tuple(names) for name, names in inputs.items()}
        self.outputs = {name: tuple(names) for name, names in outputs.items()}
        self.consumers = {name: tuple(names) for name, names in consumers.items()}


def rate_table(graph: CSDFGraph, bindings: Mapping | None = None) -> RateTable:
    """The memoized :class:`RateTable` of ``graph`` under ``bindings``."""
    return cached(graph, ("rate_table", bindings_key(bindings)),
                  lambda: RateTable(graph, bindings))


class TokenState:
    """Mutable token-count state of a (bound) CSDF graph.

    The rates come from the graph's memoized :func:`rate_table`, so
    stepping is pure integer arithmetic.

    Attributes
    ----------
    tokens:
        Current fill level per channel name.
    fired:
        Firing counter per actor name (phase = ``fired % tau``).
    peak:
        Highest fill level observed per channel (includes the initial
        tokens), i.e. the buffer capacity this execution requires.
    """

    __slots__ = ("graph", "tokens", "fired", "peak", "_prod", "_cons", "_in", "_out")

    def __init__(self, graph: CSDFGraph, bindings: Mapping | None = None):
        table = rate_table(graph, bindings)
        self.graph = graph
        self.tokens: dict[str, int] = {
            name: channel.initial_tokens for name, channel in graph.channels.items()
        }
        self.peak: dict[str, int] = dict(self.tokens)
        self._prod = table.production
        self._cons = table.consumption
        self._in = table.inputs
        self._out = table.outputs
        self.fired: dict[str, int] = {name: 0 for name in graph.actors}

    # -- firing rules -----------------------------------------------------
    def demand(self, actor: str, channel: str) -> int:
        """Tokens the next firing of ``actor`` consumes from ``channel``."""
        phases = self._cons[channel]
        return phases[self.fired[actor] % len(phases)]

    def supply(self, actor: str, channel: str) -> int:
        """Tokens the next firing of ``actor`` produces on ``channel``."""
        phases = self._prod[channel]
        return phases[self.fired[actor] % len(phases)]

    def net_change(self, actor: str) -> int:
        """Tokens the next firing of ``actor`` adds to the total fill:
        its production minus its consumption, self-loops netted."""
        fired = self.fired[actor]
        change = 0
        for channel in self._out[actor]:
            phases = self._prod[channel]
            change += phases[fired % len(phases)]
        for channel in self._in[actor]:
            phases = self._cons[channel]
            change -= phases[fired % len(phases)]
        return change

    def can_fire(self, actor: str) -> bool:
        """CSDF firing rule: every input channel holds enough tokens."""
        return all(
            self.tokens[channel] >= self.demand(actor, channel)
            for channel in self._in[actor]
        )

    def blocked_on(self, actor: str) -> list[str]:
        """Input channels currently preventing the actor from firing."""
        return [
            channel
            for channel in self._in[actor]
            if self.tokens[channel] < self.demand(actor, channel)
        ]

    def fire(self, actor: str) -> None:
        """Fire one invocation (consume inputs, then produce outputs)."""
        if actor not in self.fired:
            raise KeyError(f"unknown actor {actor!r}")
        for channel in self._in[actor]:
            need = self.demand(actor, channel)
            if self.tokens[channel] < need:
                raise SimulationError(
                    f"firing {actor!r} underflows channel {channel!r}: "
                    f"needs {need}, holds {self.tokens[channel]}"
                )
            self.tokens[channel] -= need
        # Self-loops: the consume above already ran for in-channels; a
        # channel that is both in and out of the actor sees consume
        # before produce, matching an atomic firing.
        for channel in self._out[actor]:
            self.tokens[channel] += self.supply(actor, channel)
            if self.tokens[channel] > self.peak[channel]:
                self.peak[channel] = self.tokens[channel]
        self.fired[actor] += 1

    def run(self, sequence: Iterable[str]) -> None:
        """Fire a sequence of actors, failing fast on underflow."""
        for actor in sequence:
            self.fire(actor)

    # -- views ----------------------------------------------------------
    def fireable(self, actors: Iterable[str] | None = None) -> list[str]:
        """Actors (subset or all) whose firing rule currently holds."""
        pool = actors if actors is not None else list(self.fired)
        return [actor for actor in pool if self.can_fire(actor)]

    def total_tokens(self) -> int:
        return sum(self.tokens.values())

    def matches_initial_state(self) -> bool:
        """True when every channel is back to its initial fill level."""
        return all(
            self.tokens[channel.name] == channel.initial_tokens
            for channel in self.graph.channels.values()
        )

    def copy(self) -> "TokenState":
        clone = object.__new__(TokenState)
        clone.graph = self.graph
        clone.tokens = dict(self.tokens)
        clone.peak = dict(self.peak)
        clone.fired = dict(self.fired)
        clone._prod = self._prod
        clone._cons = self._cons
        clone._in = self._in
        clone._out = self._out
        return clone

    def __repr__(self) -> str:
        return f"TokenState(tokens={self.tokens}, fired={self.fired})"
