"""The CSDF graph container ``G = <A, E>``.

Builds the directed multigraph of actors and channels, validates its
structure, and exposes the derived quantities the analyses need (cycle
lengths ``tau_j``, per-cycle totals) plus a networkx export.  The
parametric analyses live in
:mod:`repro.csdf.analysis`; this module is purely structural.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from ..cache import (bump_version, cached, ensure_mutable, freeze, is_frozen,
                     register_binding_insensitive)
from ..errors import GraphConstructionError
from .actor import Actor, ExecTime
from .channel import Channel
from .rates import RateLike

# Cycle lengths and parameter names follow from phase counts, rates and
# topology, which only structural edits move (see repro.cache).
register_binding_insensitive("taus")
register_binding_insensitive("parameters")


class CSDFGraph:
    """A Cyclo-Static Dataflow graph.

    Example — Fig. 1 of the paper::

        g = CSDFGraph("fig1")
        g.add_actor("a1")
        g.add_actor("a2")
        g.add_actor("a3")
        g.add_channel("e1", "a1", "a2", production=[1, 0, 1], consumption=[1, 1])
        g.add_channel("e2", "a2", "a3", production=[2], consumption=[1, 1, 2],
                      initial_tokens=2)
        g.add_channel("e3", "a3", "a1", production=[0, 2], consumption=[1])
    """

    def __init__(self, name: str = "csdf"):
        self.name = name
        self._actors: dict[str, Actor] = {}
        self._channels: dict[str, Channel] = {}

    # -- construction ---------------------------------------------------
    def add_actor(self, name: str, exec_time: ExecTime = 1.0, function=None) -> Actor:
        """Create and register an actor; returns it."""
        ensure_mutable(self)
        if name in self._actors:
            raise GraphConstructionError(f"duplicate actor name {name!r}")
        actor = Actor(name, exec_time=exec_time, function=function)
        actor._owner = self
        self._actors[name] = actor
        bump_version(self, kind="structural")
        return actor

    def add_channel(
        self,
        name: str | None,
        src: str,
        dst: str,
        production: RateLike = 1,
        consumption: RateLike = 1,
        initial_tokens: int = 0,
    ) -> Channel:
        """Create and register a channel; returns it.

        ``name=None`` auto-generates the first free ``e<k>``.
        """
        ensure_mutable(self)
        if name is None:
            k = len(self._channels) + 1
            while f"e{k}" in self._channels:  # removals leave gaps
                k += 1
            name = f"e{k}"
        if name in self._channels:
            raise GraphConstructionError(f"duplicate channel name {name!r}")
        for endpoint in (src, dst):
            if endpoint not in self._actors:
                raise GraphConstructionError(
                    f"channel {name!r}: unknown actor {endpoint!r}"
                )
        channel = Channel(name, src, dst, production, consumption, initial_tokens)
        channel._owner = self
        self._channels[name] = channel
        bump_version(self, kind="structural")
        return channel

    def remove_channel(self, name: str) -> Channel:
        """Remove and return a channel (structural mutation)."""
        ensure_mutable(self)
        if name not in self._channels:
            raise GraphConstructionError(f"unknown channel {name!r}")
        channel = self._channels[name]
        bump_version(self, kind="structural")
        del self._channels[name]
        channel._owner = None
        return channel

    def remove_actor(self, name: str) -> Actor:
        """Remove and return an actor plus every attached channel
        (structural mutation)."""
        ensure_mutable(self)
        if name not in self._actors:
            raise GraphConstructionError(f"unknown actor {name!r}")
        attached = [c.name for c in self._channels.values()
                    if c.src == name or c.dst == name]
        bump_version(self, kind="structural")
        for channel_name in attached:
            channel = self._channels.pop(channel_name)
            channel._owner = None
        actor = self._actors.pop(name)
        actor._owner = None
        return actor

    def freeze(self) -> "CSDFGraph":
        """Reject all further structural mutation (see
        :func:`repro.cache.freeze`); returns ``self`` for chaining."""
        freeze(self)
        return self

    @property
    def frozen(self) -> bool:
        return is_frozen(self)

    # -- access -----------------------------------------------------------
    @property
    def actors(self) -> dict[str, Actor]:
        return dict(self._actors)

    @property
    def channels(self) -> dict[str, Channel]:
        return dict(self._channels)

    def actor(self, name: str) -> Actor:
        return self._actors[name]

    def channel(self, name: str) -> Channel:
        return self._channels[name]

    def actor_names(self) -> list[str]:
        return list(self._actors)

    def in_channels(self, actor: str) -> list[Channel]:
        return [c for c in self._channels.values() if c.dst == actor]

    def out_channels(self, actor: str) -> list[Channel]:
        return [c for c in self._channels.values() if c.src == actor]

    # -- derived structure ---------------------------------------------------
    def tau(self, actor: str) -> int:
        """Cycle length ``tau_j``: lcm of the lengths of all rate
        sequences attached to the actor, and of its execution-time
        sequence."""
        return self._taus()[actor]

    def taus(self) -> dict[str, int]:
        """Every actor's cycle length (see :meth:`tau`), computed once
        per structure version; the caller gets a copy."""
        return dict(self._taus())

    def _taus(self) -> dict[str, int]:
        return cached(self, ("taus",), self._compute_taus)

    def _compute_taus(self) -> dict[str, int]:
        lengths = {name: len(actor.exec_times) for name, actor in self._actors.items()}
        lcm = math.lcm
        for channel in self._channels.values():
            src, dst = channel.src, channel.dst
            lengths[src] = lcm(lengths[src], len(channel.production))
            lengths[dst] = lcm(lengths[dst], len(channel.consumption))
        return lengths

    def parameters(self) -> frozenset[str]:
        """All parameter names occurring in any rate, computed once per
        structure version."""
        return cached(self, ("parameters",), self._compute_parameters)

    def _compute_parameters(self) -> frozenset[str]:
        names: set[str] = set()
        for channel in self._channels.values():
            for rates in (channel.production, channel.consumption):
                if rates._ints is None:  # an int-backed sequence names none
                    names |= rates.variables()
        return frozenset(names)

    def is_parametric(self) -> bool:
        return bool(self.parameters())

    def to_networkx(self):
        """Directed ``networkx.MultiDiGraph`` view (channel objects on
        edge data)."""
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        g.add_nodes_from(self._actors)
        for channel in self._channels.values():
            g.add_edge(channel.src, channel.dst, key=channel.name, channel=channel)
        return g

    def is_connected(self) -> bool:
        """Weak connectivity (required for a unique repetition vector)."""
        if not self._actors:
            return True
        import networkx as nx

        return nx.is_weakly_connected(self.to_networkx())

    def directed_cycles(self) -> list[list[str]]:
        """Simple directed cycles (actor name lists); deadlock suspects."""
        import networkx as nx

        return [cycle for cycle in nx.simple_cycles(self.to_networkx())]

    def bind(self, bindings: Mapping) -> "CSDFGraph":
        """A copy of the graph with parameters substituted."""
        bound = CSDFGraph(f"{self.name}@bound")
        for actor in self._actors.values():
            bound.add_actor(actor.name, exec_time=actor.exec_times, function=actor.function)
        for ch in self._channels.values():
            bound.add_channel(
                ch.name,
                ch.src,
                ch.dst,
                production=ch.production.bind(bindings),
                consumption=ch.consumption.bind(bindings),
                initial_tokens=ch.initial_tokens,
            )
        return bound

    # -- summaries ---------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"CSDFGraph({self.name!r}, actors={len(self._actors)}, "
            f"channels={len(self._channels)})"
        )

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [f"CSDF graph {self.name!r}: "
                 f"{len(self._actors)} actors, {len(self._channels)} channels"]
        for actor in self._actors.values():
            lines.append(f"  actor {actor.name} (tau={self.tau(actor.name)})")
        for ch in self._channels.values():
            init = f", init={ch.initial_tokens}" if ch.initial_tokens else ""
            lines.append(
                f"  {ch.name}: {ch.src} {ch.production} -> "
                f"{ch.consumption} {ch.dst}{init}"
            )
        return "\n".join(lines)


def chain(name: str, actor_names: Iterable[str], rates: Iterable[tuple] | None = None) -> CSDFGraph:
    """Convenience constructor for a pipeline ``a -> b -> c -> ...``.

    ``rates`` optionally gives ``(production, consumption)`` per hop;
    defaults to 1/1 everywhere.
    """
    graph = CSDFGraph(name)
    names = list(actor_names)
    for actor_name in names:
        graph.add_actor(actor_name)
    hop_rates = list(rates) if rates is not None else [(1, 1)] * (len(names) - 1)
    if len(hop_rates) != len(names) - 1:
        raise GraphConstructionError(
            f"chain {name!r}: {len(names) - 1} hops but {len(hop_rates)} rate pairs"
        )
    for (src, dst), (production, consumption) in zip(zip(names, names[1:]), hop_rates):
        graph.add_channel(None, src, dst, production, consumption)
    return graph
