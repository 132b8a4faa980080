"""Seeded graph generators for the benchmark workloads.

Every graph is built through the public construction API
(``CSDFGraph.add_actor``/``add_channel``, ``TPDFGraph.add_kernel``/
``connect``) and serialized with :mod:`repro.io`, so the programs under
test only ever see generated documents.

Graphs are consistent and live *by construction*: each actor gets a
base solution ``r`` first, every channel's per-cycle rates are derived
from it (production ``r_dst / g``, consumption ``r_src / g`` with
``g = gcd(r_src, r_dst)``), and every back edge carries the tokens one
whole iteration of its consumer needs.  The expected repetition vector
``q_j = tau_j * r_j / gcd(r)`` is therefore known without calling any
analysis, which is what makes it usable as a correctness reference.
The repository's own ``random_consistent_graph`` cannot be used here:
it calls ``repetition_vector`` to place its back-edge tokens.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from math import gcd

from repro.csdf import CSDFGraph
from repro.io import graph_to_payload
from repro.symbolic import Poly
from repro.tpdf import TPDFGraph

#: Execution-time values an actor phase may take.
EXEC_TIMES = (1.0, 2.0, 3.0, 4.0, 5.0)
#: Binding values of the parameter ``p`` in parametric graphs.
P_VALUES = (1, 2, 3)


@dataclass
class Model:
    """Plain-data mirror of a generated CSDF graph.

    It is what the benchmark knows about a graph independently of the
    code under test: the base solution, the cycle lengths and which
    channels close cycles.  The edit loop mutates it alongside the
    session graph to keep the expected repetition vector current.
    """

    name: str
    #: actor -> (tau, base solution r, exec times)
    actors: dict = field(default_factory=dict)
    #: channel -> [src, dst, production, consumption, tokens, role]
    #: with role "chain", "extra", "back" or "sink"
    channels: dict = field(default_factory=dict)
    #: parametric actors (base solution scaled by ``p``)
    scaled: frozenset = frozenset()
    #: actors on a cycle (between a back edge's endpoints)
    core: frozenset = frozenset()

    def expected_q(self, p: int | None = None) -> dict[str, int]:
        """Repetition vector ``tau_j * r_j / gcd(r)`` (at ``p`` for a
        parametric graph: the symbolic solution is normalized by the
        gcd of its integer coefficients, not of the values)."""
        norm = reduce(gcd, (r for _tau, r, _e in self.actors.values()))
        out = {}
        for name, (tau, r, _e) in self.actors.items():
            factor = p if name in self.scaled else 1
            out[name] = tau * (r // norm) * factor
        return out


@dataclass
class GraphDoc:
    """One generated input: the serialized document plus what the
    benchmark knows about it by construction."""

    kind: str            # "csdf", "tpdf" or "param"
    doc: dict
    bindings: dict | None
    expected_q: dict
    model: Model | None = None


def _split(total: int, phases: int, rng: random.Random) -> list[int]:
    """``total`` tokens spread over ``phases`` firings (each >= 0)."""
    if phases == 1:
        return [total]
    first = rng.randint(0, total)
    return [first, total - first]


def csdf_model(rng: random.Random, n: int, name: str, *,
               parametric: bool = False) -> Model:
    """A random consistent, live CSDF graph as a :class:`Model`.

    ``n`` actors on a spanning chain, ``n // 3`` extra forward edges
    and ``max(2, n // 10)`` short back edges.  A quarter of the actors of a
    parameter-free graph are two-phase (cyclo-static); a parametric
    graph scales the base solution of a suffix by ``p`` and keeps its
    back edges inside the unscaled prefix, so token needs stay
    constant.
    """
    model = Model(name)
    names = [f"a{i}" for i in range(n)]
    split = rng.randrange(n // 2, n - 1) if parametric else n
    model.scaled = frozenset(names[split:])
    for i, actor in enumerate(names):
        tau = 2 if (not parametric and rng.random() < 0.25) else 1
        r = rng.randint(1, 3)
        times = tuple(rng.choice(EXEC_TIMES) for _ in range(tau))
        model.actors[actor] = (tau, r, times)

    def rates(src: str, dst: str):
        tau_s, r_s, _ = model.actors[src]
        tau_d, r_d, _ = model.actors[dst]
        g = gcd(r_s, r_d)
        prod, cons = r_d // g, r_s // g
        if src not in model.scaled and dst in model.scaled:
            prod = Poly.var("p") * prod
        elif src in model.scaled and dst not in model.scaled:
            cons = Poly.var("p") * cons
        if isinstance(prod, int):
            prod = _split(prod, tau_s, rng)
        if isinstance(cons, int):
            cons = _split(cons, tau_d, rng)
        return prod, cons

    def add(src: str, dst: str, role: str) -> None:
        prod, cons = rates(src, dst)
        model.channels[f"c{len(model.channels)}"] = [
            src, dst, prod, cons, 0, role]

    for src, dst in zip(names, names[1:]):
        add(src, dst, "chain")
    for _ in range(n // 3):
        i, j = sorted(rng.sample(range(n), 2))
        add(names[i], names[j], "extra")
    core: set[str] = set()
    hi = split if parametric else n
    for _ in range(max(2, n // 10)):
        # short back edges: the cyclic core stays a part of the graph,
        # so edits land both inside and outside it
        i = rng.randrange(hi - 2)
        j = min(hi - 1, i + rng.randint(2, max(3, n // 8)))
        src, dst = names[j], names[i]
        prod, cons = rates(src, dst)
        # One whole iteration of the consumer: r_dst / gcd(r) cycles of
        # ``sum(cons)`` tokens each (gcd(r) divides r_dst).
        norm = reduce(gcd, (r for _t, r, _e in model.actors.values()))
        need = sum(cons) * (model.actors[dst][1] // norm)
        model.channels[f"c{len(model.channels)}"] = [
            src, dst, prod, cons, need, "back"]
        core.update(names[i:j + 1])
    model.core = frozenset(core)
    return model


def build_csdf(model: Model) -> CSDFGraph:
    graph = CSDFGraph(model.name)
    for actor, (_tau, _r, times) in model.actors.items():
        graph.add_actor(actor, exec_time=times)
    for name, (src, dst, prod, cons, tokens, _role) in model.channels.items():
        graph.add_channel(name, src, dst, production=prod,
                          consumption=cons, initial_tokens=tokens)
    return graph


def tpdf_doc(rng: random.Random, n: int, name: str, *,
             control: bool = True) -> tuple[dict, dict]:
    """A random consistent, live TPDF graph with single-phase kernels,
    as ``(document, expected repetition vector)``.

    With ``control`` a control actor reads one whole local iteration of
    the last kernel per firing and steers a sink through a control
    port: rate safe by construction (Def. 5), and both fire once per
    iteration.
    """
    model = csdf_model(rng, n, name)
    # single-phase kernels: re-draw the cyclo-static actors as SDF ones
    model.actors = {a: (1, r, times[:1])
                    for a, (_t, r, times) in model.actors.items()}
    graph = TPDFGraph(name)
    for actor, (_t, _r, times) in model.actors.items():
        graph.add_kernel(actor, exec_time=times[0])
    norm = reduce(gcd, (r for _t, r, _e in model.actors.values()))
    for cname, (src, dst, _p, _c, _tok, role) in model.channels.items():
        r_s, r_d = model.actors[src][1], model.actors[dst][1]
        g = gcd(r_s, r_d)
        prod, cons = r_d // g, r_s // g
        graph.node(src).add_output(f"o_{cname}", prod)
        graph.node(dst).add_input(f"i_{cname}", cons)
        tokens = cons * (r_d // norm) if role == "back" else 0
        graph.connect((src, f"o_{cname}"), (dst, f"i_{cname}"),
                      name=cname, initial_tokens=tokens)
    expected = model.expected_q()
    if control:
        last = f"a{n - 1}"
        q_last = expected[last]
        ctrl = graph.add_control_actor("ctrl0", exec_time=1.0)
        ctrl.add_input("in", q_last)
        ctrl.add_control_output("out", 1)
        sink = graph.add_kernel("sink0", exec_time=1.0)
        sink.add_input("in", q_last)
        sink.add_control_port("ctrl", 1)
        graph.node(last).add_output("o_ctrl", 1)
        graph.node(last).add_output("o_sink", 1)
        graph.connect((last, "o_ctrl"), ("ctrl0", "in"), name="to_ctrl")
        graph.connect(("ctrl0", "out"), ("sink0", "ctrl"), name="steer")
        graph.connect((last, "o_sink"), ("sink0", "in"), name="to_sink")
        expected = {**expected, "ctrl0": 1, "sink0": 1}
    return graph_to_payload(graph), expected


def csdf_doc(rng: random.Random, n: int, name: str, *,
             parametric: bool = False) -> GraphDoc:
    model = csdf_model(rng, n, name, parametric=parametric)
    if parametric:
        p = rng.choice(P_VALUES)
        graph = build_csdf(model)
        return GraphDoc("param", graph_to_payload(graph), {"p": p},
                        model.expected_q(p), model)
    return GraphDoc("csdf", graph_to_payload(build_csdf(model)), None,
                    model.expected_q(), model)


def make_doc(kind: str, n: int, seed: int, index: int) -> GraphDoc:
    """The ``index``-th generated graph of ``kind`` at ``n`` actors."""
    rng = random.Random(f"{seed}:{kind}:{n}:{index}")
    name = f"{kind}{n}_{index}"
    if kind == "tpdf":
        doc, expected = tpdf_doc(rng, n, name)
        return GraphDoc("tpdf", doc, None, expected)
    return csdf_doc(rng, n, name, parametric=(kind == "param"))


#: Edit classes of the edit scripts.  Execution-time edits are
#: binding-only (phase counts unchanged); the rest move tokens, rates
#: or topology.
BINDING_EDITS = ("exec_core", "exec_out")
STRUCTURAL_EDITS = ("tokens", "rates", "topology")
#: Values an edited execution-time phase takes: a small set, so graph
#: states recur the way undo/redo makes them recur.
EDIT_TIMES = (1.0, 2.0, 4.0)


class EditScript:
    """Seeded edit stream over one session graph, mirrored on its
    :class:`Model` so the expected repetition vector stays known.

    Token and rate edits toggle a fixed handful of channels between two
    values and the topology edit adds or removes one of two sink
    actors, so structural states recur too.
    """

    def __init__(self, model: Model, rng: random.Random):
        self.model = model
        self.rng = rng
        actors = list(model.actors)
        self.core = sorted(model.core) or actors[:1]
        self.outside = sorted(set(actors) - model.core) or actors[-1:]
        back = [c for c, v in model.channels.items() if v[5] == "back"]
        forward = [c for c, v in model.channels.items() if v[5] != "back"]
        self.token_channels = rng.sample(back, min(2, len(back))) + \
            rng.sample(forward, 2)
        self.token_base = {c: model.channels[c][4] for c in self.token_channels}
        self.rate_channels = rng.sample(forward, 3)
        self.rate_base = {c: (list(model.channels[c][2]), list(model.channels[c][3]))
                          for c in self.rate_channels}
        self.sink_source = rng.choice(self.outside)
        self.sinks: list[str] = []

    def next(self, cls: str) -> tuple[list[dict], dict]:
        """An edit of class ``cls`` (one of :data:`BINDING_EDITS` or
        :data:`STRUCTURAL_EDITS`) as ``EditSession.apply`` dicts, and
        the repetition vector of the edited graph."""
        return getattr(self, "_" + cls)(), self.model.expected_q()

    def _exec(self, pool: list[str]) -> list[dict]:
        actor = self.rng.choice(pool)
        tau, r, _times = self.model.actors[actor]
        times = tuple(self.rng.choice(EDIT_TIMES) for _ in range(tau))
        self.model.actors[actor] = (tau, r, times)
        return [{"op": "set_exec_time", "actor": actor, "value": list(times)}]

    def _exec_core(self) -> list[dict]:
        return self._exec(self.core)

    def _exec_out(self) -> list[dict]:
        return self._exec(self.outside)

    def _tokens(self) -> list[dict]:
        channel = self.rng.choice(self.token_channels)
        base = self.token_base[channel]
        entry = self.model.channels[channel]
        entry[4] = (2 * base or 2) if entry[4] == base else base
        return [{"op": "set_initial_tokens", "channel": channel,
                 "value": entry[4]}]

    def _rates(self) -> list[dict]:
        # Scaling production and consumption alike keeps the balance
        # equations (and the repetition vector); forward channels only,
        # so back-edge token needs do not move.
        channel = self.rng.choice(self.rate_channels)
        prod, cons = self.rate_base[channel]
        entry = self.model.channels[channel]
        factor = 1 if entry[2] != prod else 2
        entry[2] = [x * factor for x in prod]
        entry[3] = [x * factor for x in cons]
        return [{"op": "set_production", "channel": channel, "value": entry[2]},
                {"op": "set_consumption", "channel": channel, "value": entry[3]}]

    def _topology(self) -> list[dict]:
        if len(self.sinks) == 2 or (self.sinks and self.rng.random() < 0.5):
            sink = self.sinks.pop(self.rng.randrange(len(self.sinks)))
            del self.model.actors[sink]
            del self.model.channels[f"to_{sink}"]
            return [{"op": "remove_actor", "name": sink}]
        sink = next(s for s in ("sink0", "sink1") if s not in self.sinks)
        self.sinks.append(sink)
        src = self.sink_source
        tau, r, _t = self.model.actors[src]
        # one token per source firing: r_sink = tau_src * r_src
        self.model.actors[sink] = (1, tau * r, (2.0,))
        self.model.channels[f"to_{sink}"] = [src, sink, [1], [1], 0, "sink"]
        return [{"op": "add_actor", "name": sink, "exec_time": 2.0},
                {"op": "add_channel", "name": f"to_{sink}", "src": src,
                 "dst": sink}]


__all__ = ["BINDING_EDITS", "EXEC_TIMES", "EditScript",
           "GraphDoc", "Model", "P_VALUES", "STRUCTURAL_EDITS", "build_csdf",
           "csdf_doc", "csdf_model", "make_doc", "tpdf_doc"]
