"""The TPDF graph ``G = (K, G, E, P, Rk, Rg, alpha, phi*)`` (Def. 2).

Structural container tying together kernels ``K``, control actors
``G``, channels ``E`` (data and control), integer parameters ``P``,
rate functions (attached to ports), priorities ``alpha`` (attached to
ports) and the initial channel status ``phi*`` (initial tokens).

Structural rules enforced at construction time:

* kernel and control-actor names are unique and the two sets are
  disjoint (``K ∩ G = ∅``);
* a channel connects a data output to a data input, **or** a control
  output to a control port — control channels can only start from a
  control actor (Def. 2);
* each port is bound to at most one channel;
* kernels own at most one control port (enforced by
  :class:`~repro.tpdf.kernel.Kernel`).

The static analyses reuse the CSDF machinery through :meth:`as_csdf`,
which forgets modes and dynamic topology — exactly the "fully
connected" over-approximation of Sec. III-A.
"""

from __future__ import annotations

from typing import Callable, Iterable, Union

from ..cache import bump_version, cached
from ..csdf.actor import ExecTime
from ..csdf.channel import token_count
from ..csdf.graph import CSDFGraph
from ..errors import GraphConstructionError
from ..symbolic import Param
from .kernel import ControlActor, Kernel, Node
from .modes import Mode
from .ports import PortKind

#: "node.port" or (node_name, port_name)
PortRef = Union[str, tuple]


def _parse_ref(ref: PortRef) -> tuple[str, str]:
    if isinstance(ref, tuple):
        node, port = ref
        return str(node), str(port)
    if ref.count(".") != 1:
        raise GraphConstructionError(
            f"port reference {ref!r} must look like 'node.port'"
        )
    node, port = ref.split(".")
    return node, port


class TPDFChannel:
    """A channel between two ports (data or control).

    ``initial_tokens`` feeds the liveness/boundedness analyses, so
    assigning it after the channel joined a graph bumps that graph's
    analysis version (the rate sequences live on the ports, which
    propagate their own bumps)."""

    __slots__ = ("name", "src", "src_port", "dst", "dst_port",
                 "_initial_tokens", "is_control", "_owner")

    def __init__(self, name, src, src_port, dst, dst_port, initial_tokens, is_control):
        self.name = name
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self._owner = None
        self.initial_tokens = initial_tokens
        self.is_control = is_control

    @property
    def initial_tokens(self) -> int:
        return self._initial_tokens

    @initial_tokens.setter
    def initial_tokens(self, value: int) -> None:
        tokens = token_count(self.name, value, GraphConstructionError)
        if self._owner is not None:
            # raises first on frozen graphs
            bump_version(self._owner, kind="structural")
        self._initial_tokens = tokens

    def __repr__(self) -> str:
        kind = "control" if self.is_control else "data"
        return (
            f"TPDFChannel({self.name!r}, {self.src}.{self.src_port} -> "
            f"{self.dst}.{self.dst_port}, {kind}, init={self.initial_tokens})"
        )


class TPDFGraph:
    """A Transaction Parameterized Dataflow graph."""

    def __init__(self, name: str = "tpdf", parameters: Iterable[Param] = ()):
        self.name = name
        self._kernels: dict[str, Kernel] = {}
        self._controls: dict[str, ControlActor] = {}
        self._channels: dict[str, TPDFChannel] = {}
        #: (node, port) -> name of the channel bound to that port
        self._bound: dict[tuple[str, str], str] = {}
        self._params: dict[str, Param] = {}
        for param in parameters:
            self.declare_parameter(param)

    # -- construction ---------------------------------------------------
    def declare_parameter(self, param: Param) -> Param:
        existing = self._params.get(param.name)
        if existing is not None and (existing.lo, existing.hi) != (param.lo, param.hi):
            raise GraphConstructionError(
                f"parameter {param.name!r} redeclared with a different domain"
            )
        self._params[param.name] = param
        bump_version(self, kind="structural")
        return param

    def add_kernel(
        self,
        name: str,
        exec_time: ExecTime = 1.0,
        function: Callable | None = None,
        modes: tuple[Mode, ...] = (Mode.WAIT_ALL,),
    ) -> Kernel:
        self._check_fresh(name)
        kernel = Kernel(name, exec_time=exec_time, function=function, modes=modes)
        kernel._graph = self
        self._kernels[name] = kernel
        bump_version(self, kind="structural")
        return kernel

    def add_control_actor(
        self,
        name: str,
        exec_time: ExecTime = 0.0,
        decision=None,
    ) -> ControlActor:
        self._check_fresh(name)
        actor = ControlActor(name, exec_time=exec_time, decision=decision)
        actor._graph = self
        self._controls[name] = actor
        bump_version(self, kind="structural")
        return actor

    def register(self, node: Node) -> Node:
        """Register a pre-built node (used by the builtin factories)."""
        if not isinstance(node, (ControlActor, Kernel)):
            raise GraphConstructionError(f"cannot register {node!r}")
        self._check_fresh(node.name)
        node._graph = self
        if isinstance(node, ControlActor):
            self._controls[node.name] = node
        else:
            self._kernels[node.name] = node
        bump_version(self, kind="structural")
        return node

    def _check_fresh(self, name: str) -> None:
        if name in self._kernels or name in self._controls:
            raise GraphConstructionError(f"duplicate node name {name!r}")

    def connect(
        self,
        src: PortRef,
        dst: PortRef,
        name: str | None = None,
        initial_tokens: int = 0,
    ) -> TPDFChannel:
        """Create a channel between two existing ports.

        Endpoint kinds decide whether this is a data or a control
        channel; Definition 2's structural rules are enforced here.
        """
        src_node, src_port = _parse_ref(src)
        dst_node, dst_port = _parse_ref(dst)
        if name is None:
            k = len(self._channels) + 1
            while f"e{k}" in self._channels:  # explicit names leave gaps
                k += 1
            name = f"e{k}"
        if name in self._channels:
            raise GraphConstructionError(f"duplicate channel name {name!r}")
        producer = self.node(src_node)
        consumer = self.node(dst_node)
        out_port = producer.port(src_port)
        in_port = consumer.port(dst_port)

        if in_port.kind is PortKind.CONTROL_IN:
            if out_port.kind is not PortKind.CONTROL_OUT:
                raise GraphConstructionError(
                    f"channel {name!r}: control port {dst_node}.{dst_port} must "
                    f"be fed from a control output"
                )
            if not isinstance(producer, ControlActor):
                raise GraphConstructionError(
                    f"channel {name!r}: control channels can start only from a "
                    f"control actor (Def. 2), not from kernel {src_node!r}"
                )
            is_control = True
        elif in_port.kind is PortKind.DATA_IN:
            if out_port.kind is PortKind.CONTROL_OUT:
                raise GraphConstructionError(
                    f"channel {name!r}: control output {src_node}.{src_port} "
                    f"cannot feed the data port {dst_node}.{dst_port}"
                )
            if out_port.kind is not PortKind.DATA_OUT:
                raise GraphConstructionError(
                    f"channel {name!r}: {src_node}.{src_port} is not an output port"
                )
            is_control = False
        else:
            raise GraphConstructionError(
                f"channel {name!r}: {dst_node}.{dst_port} is not an input port"
            )

        feeds = self._bound.get((src_node, src_port))
        fed_by = self._bound.get((dst_node, dst_port))
        if feeds is not None and fed_by is not None and feeds != fed_by:
            # both ports taken: name the older channel first
            order = list(self._channels)
            if order.index(fed_by) < order.index(feeds):
                feeds = None
        if feeds is not None:
            raise GraphConstructionError(
                f"port {src_node}.{src_port} already feeds channel {feeds!r}"
            )
        if fed_by is not None:
            raise GraphConstructionError(
                f"port {dst_node}.{dst_port} already fed by channel {fed_by!r}"
            )

        channel = TPDFChannel(
            name, src_node, src_port, dst_node, dst_port, initial_tokens, is_control
        )
        channel._owner = self
        self._channels[name] = channel
        self._bound[(src_node, src_port)] = name
        self._bound[(dst_node, dst_port)] = name
        bump_version(self, kind="structural")
        return channel

    # -- access -----------------------------------------------------------
    @property
    def kernels(self) -> dict[str, Kernel]:
        return dict(self._kernels)

    @property
    def controls(self) -> dict[str, ControlActor]:
        return dict(self._controls)

    @property
    def channels(self) -> dict[str, TPDFChannel]:
        return dict(self._channels)

    @property
    def parameters(self) -> dict[str, Param]:
        return dict(self._params)

    def node(self, name: str) -> Node:
        if name in self._kernels:
            return self._kernels[name]
        if name in self._controls:
            return self._controls[name]
        raise KeyError(f"unknown node {name!r}")

    def node_names(self) -> list[str]:
        return list(self._kernels) + list(self._controls)

    def is_control_actor(self, name: str) -> bool:
        return name in self._controls

    def channel(self, name: str) -> TPDFChannel:
        return self._channels[name]

    def in_channels(self, node: str) -> list[TPDFChannel]:
        return [c for c in self._channels.values() if c.dst == node]

    def out_channels(self, node: str) -> list[TPDFChannel]:
        return [c for c in self._channels.values() if c.src == node]

    def control_channels(self) -> list[TPDFChannel]:
        """``Ec``: the control subset of the channel set."""
        return [c for c in self._channels.values() if c.is_control]

    def channel_between(self, src: str, dst: str) -> list[TPDFChannel]:
        return [c for c in self._channels.values() if c.src == src and c.dst == dst]

    # -- structure ---------------------------------------------------------
    def undeclared_parameters(self) -> set[str]:
        """Parameter names used in rates but never declared on the graph."""
        used: set[str] = set()
        for node in (*self._kernels.values(), *self._controls.values()):
            for port in node.ports.values():
                if port.rates._ints is None:  # an int-backed sequence names none
                    used |= port.rates.variables()
        return used - set(self._params)

    def to_networkx(self):
        """Directed ``networkx.MultiDiGraph`` view (channel objects on
        edge data, a ``control`` flag on every node)."""
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        for name in self.node_names():
            g.add_node(name, control=self.is_control_actor(name))
        for channel in self._channels.values():
            g.add_edge(channel.src, channel.dst, key=channel.name, channel=channel)
        return g

    def as_csdf(self) -> CSDFGraph:
        """Forget modes/dynamism: the CSDF abstraction of Sec. III-A.

        Every node becomes a CSDF actor; every channel a CSDF channel
        whose production/consumption sequences are the connected ports'
        rate sequences.

        The abstraction is memoized per graph version and shared across
        all analyses — the returned graph is *frozen*:
        ``add_actor``/``add_channel`` on it raise.
        """
        return cached(self, ("as_csdf",), self._build_csdf)

    def _build_csdf(self) -> CSDFGraph:
        csdf = CSDFGraph(f"{self.name}/csdf")
        for name in self.node_names():
            node = self.node(name)
            csdf.add_actor(name, exec_time=node.exec_times, function=node.function)
        for channel in self._channels.values():
            production = self.node(channel.src).port(channel.src_port).rates
            consumption = self.node(channel.dst).port(channel.dst_port).rates
            csdf.add_channel(
                channel.name,
                channel.src,
                channel.dst,
                production=production,
                consumption=consumption,
                initial_tokens=channel.initial_tokens,
            )
        return csdf.freeze()

    # -- summaries ---------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"TPDFGraph({self.name!r}, kernels={len(self._kernels)}, "
            f"controls={len(self._controls)}, channels={len(self._channels)})"
        )

    def describe(self) -> str:
        lines = [
            f"TPDF graph {self.name!r}: {len(self._kernels)} kernels, "
            f"{len(self._controls)} control actors, {len(self._channels)} channels"
        ]
        if self._params:
            domains = ", ".join(
                f"{p.name} in [{p.lo}, {p.hi if p.hi is not None else 'inf'}]"
                for p in self._params.values()
            )
            lines.append(f"  parameters: {domains}")
        for name in self.node_names():
            node = self.node(name)
            role = "control" if self.is_control_actor(name) else "kernel"
            lines.append(f"  {role} {name} (tau={node.tau()})")
        for channel in self._channels.values():
            production = self.node(channel.src).port(channel.src_port).rates
            consumption = self.node(channel.dst).port(channel.dst_port).rates
            kind = " [ctrl]" if channel.is_control else ""
            init = f", init={channel.initial_tokens}" if channel.initial_tokens else ""
            lines.append(
                f"  {channel.name}{kind}: {channel.src}.{channel.src_port} "
                f"{production} -> {consumption} {channel.dst}.{channel.dst_port}{init}"
            )
        return "\n".join(lines)


def fig2_graph(param: Param | None = None) -> TPDFGraph:
    """The running example of the paper (Fig. 2).

    Six nodes; ``A`` produces ``p`` tokens per firing, ``C`` is a
    control actor driving the transaction-style kernel ``F``.
    Expected repetition vector: ``[2, 2p, p, p, 2p, 2p]``.
    """
    p = param if param is not None else Param("p")
    graph = TPDFGraph("fig2", parameters=[p])
    a = graph.add_kernel("A")
    a.add_output("out", p)
    b = graph.add_kernel("B")
    b.add_input("in", 1)
    b.add_output("to_c", 1)
    b.add_output("to_d", 1)
    b.add_output("to_e", 1)
    c = graph.add_control_actor("C")
    c.add_input("in", 2)
    c.add_control_output("ctrl", 2)
    d = graph.add_kernel("D")
    d.add_input("in", 2)
    d.add_output("out", 2)
    e = graph.add_kernel("E")
    e.add_input("in", 1)
    e.add_output("out", 1)
    f = graph.add_kernel(
        "F", modes=(Mode.WAIT_ALL, Mode.SELECT_ONE, Mode.HIGHEST_PRIORITY)
    )
    f.add_input("from_d", [0, 2], priority=1)
    f.add_input("from_e", [1, 1], priority=2)
    f.add_control_port("ctrl", [1, 1])
    graph.connect("A.out", "B.in", name="e1")
    graph.connect("B.to_c", "C.in", name="e2")
    graph.connect("B.to_d", "D.in", name="e3")
    graph.connect("B.to_e", "E.in", name="e4")
    graph.connect("C.ctrl", "F.ctrl", name="e5")
    graph.connect("D.out", "F.from_d", name="e6")
    graph.connect("E.out", "F.from_e", name="e7")
    return graph
