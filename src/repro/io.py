"""Graph (de)serialization: dictionaries / JSON.

Lets adopters persist and exchange TPDF/CSDF graphs.  The format is a
plain-JSON document; symbolic rates serialize as strings rendered by
:class:`~repro.symbolic.poly.Poly` and are parsed back with a small
arithmetic-expression parser (sums of products of parameters and
integer constants — exactly the fragment rates use).  Integer phases
decode straight to ints, which is the form
:class:`~repro.csdf.rates.RateSequence` keeps them in, and each
distinct symbolic rate string is parsed once per decoded document.

Functions and decision callables are *not* serialized (they are code);
deserialized graphs carry the structure and rates, ready for analysis
or for re-attaching behaviour.

The same dictionaries double as the **pickle-safe codec** of the
analysis service's worker hand-off (:func:`graph_to_payload` /
:func:`graph_from_payload`): live graph objects carry analysis caches,
port->node->graph back-references and arbitrary callables, none of
which belong on a process-pool wire.  The payload strips all of that
and the worker-side decode rebuilds a fresh graph whose *static
analyses* (consistency, rate safety, liveness, MCR, buffers, a
requested timed run) are bit-identical to the original's.

Parametric-MCR artefacts have their own JSON view
(:func:`domain_to_dict`, :func:`piecewise_to_dict` and inverses):
piecewise results are persisted by the EXT5 benchmark and round-trip
value-identically (fingerprints match).

Analysis *results* have a JSON wire form as well
(:func:`report_to_dict` / :func:`report_from_dict` and the
``timed_result_*`` / ``parametric_report_*`` pairs): the resident
analysis service (:mod:`repro.service`) answers HTTP requests with
these documents, and the round trip preserves
:meth:`~repro.analysis.GraphReport.fingerprint` exactly — floats
travel through JSON's shortest-repr encoding bit-for-bit, Fractions
are carried as tagged ``{"$fraction": [num, den]}`` objects, and
piecewise payloads reuse :func:`piecewise_to_dict`.
:func:`payload_fingerprint` gives graph payloads a stable content
address (the service's cache and worker decode keys).
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from fractions import Fraction
from typing import Mapping, Union

from .csdf.graph import CSDFGraph
from .csdf.rates import RateSequence
from .errors import GraphConstructionError
from .symbolic import Param, Poly
from .tpdf.builtins import ClockActor
from .tpdf.graph import TPDFGraph
from .tpdf.kernel import ControlActor, Kernel
from .tpdf.modes import Mode
from .tpdf.ports import PortKind

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+/\d+|\d+)|(?P<name>[A-Za-z_]\w*)"
                    r"|(?P<op>\*\*|[+\-*()]))")


def parse_poly(text: str) -> Poly:
    """Parse the polynomial fragment rendered by ``str(Poly)``.

    Grammar: ``expr := term (('+'|'-') term)*``;
    ``term := factor ('*' factor)*``;
    ``factor := number | name ['**' number] | '(' expr ')' | '-' factor``.
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot tokenize rate expression {text!r} at {pos}")
        tokens.append(match.group().strip())
        pos = match.end()
    tokens.append("$")
    index = [0]

    def peek() -> str:
        return tokens[index[0]]

    def advance() -> str:
        token = tokens[index[0]]
        index[0] += 1
        return token

    def parse_expr() -> Poly:
        value = parse_term()
        while peek() in ("+", "-"):
            if advance() == "+":
                value = value + parse_term()
            else:
                value = value - parse_term()
        return value

    def parse_term() -> Poly:
        value = parse_factor()
        while peek() == "*":
            advance()
            value = value * parse_factor()
        return value

    def parse_factor() -> Poly:
        token = advance()
        if token == "-":
            return -parse_factor()
        if token == "(":
            value = parse_expr()
            if advance() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return value
        if re.fullmatch(r"\d+/\d+|\d+", token):
            return Poly.const(Fraction(token))
        if re.fullmatch(r"[A-Za-z_]\w*", token):
            base = Poly.var(token)
            if peek() == "**":
                advance()
                exponent = advance()
                if not exponent.isdigit():
                    raise ValueError(f"bad exponent in {text!r}")
                return base ** int(exponent)
            return base
        raise ValueError(f"unexpected token {token!r} in {text!r}")

    value = parse_expr()
    if peek() != "$":
        raise ValueError(f"trailing input in rate expression {text!r}")
    return value


def _name(value):
    """An actor or channel name read from a document, interned: graphs
    decoded from many documents, and the reports analyzing them, share
    one copy of each identifier."""
    return sys.intern(value) if type(value) is str else value


def _rates_to_json(rates: RateSequence) -> list[str]:
    return [str(phase) for phase in rates._phases()]


def _rates_from_json(data, parsed: dict[str, Poly]) -> RateSequence:
    return RateSequence([_rate_from_json(entry, parsed) for entry in data])


def _rate_from_json(entry, parsed: dict[str, Poly]) -> int | Poly:
    """One rate phase.

    JSON integers and plain digit strings are integer phases and skip
    the tokenizer.  Booleans and ``null`` are refused (their ``str``
    would parse as a parameter named ``True``, ``False`` or ``None``).
    Anything else goes through :func:`parse_poly` on its ``str``, once
    per distinct text: ``parsed`` holds the document's parses so far
    (a ``Poly`` is immutable, so phases may share one).
    """
    if type(entry) is int:
        return entry
    if isinstance(entry, str) and entry.isascii() and entry.isdigit():
        return int(entry)
    if entry is None or isinstance(entry, bool):
        raise ValueError(f"rate phase {entry!r} is not an integer or a rate expression")
    text = str(entry)
    poly = parsed.get(text)
    if poly is None:
        poly = parsed[text] = parse_poly(text)
    return poly


# -- TPDF ----------------------------------------------------------------

def tpdf_to_dict(graph: TPDFGraph) -> dict:
    """Serialize a TPDF graph to a JSON-compatible dictionary."""
    nodes = []
    for name in graph.node_names():
        node = graph.node(name)
        entry: dict = {
            "name": name,
            "kind": "control" if graph.is_control_actor(name) else "kernel",
            "exec_times": list(node.exec_times),
            "meta": {k: v for k, v in node.meta.items()
                     if isinstance(v, (str, int, float, bool))},
            "ports": [
                {
                    "name": port.name,
                    "kind": port.kind.value,
                    "rates": _rates_to_json(port.rates),
                    "priority": port.priority,
                }
                for port in node.ports.values()
            ],
        }
        if isinstance(node, ClockActor):
            entry["clock_period"] = node.period
        if isinstance(node, Kernel):
            entry["modes"] = [mode.value for mode in node.modes]
            overrides = {
                mode.value: {
                    port: _rates_to_json(rates) for port, rates in table.items()
                }
                for mode, table in node._mode_rates.items()
            }
            if overrides:
                entry["mode_rates"] = overrides
        nodes.append(entry)
    return {
        "model": "tpdf",
        "name": graph.name,
        "parameters": [
            {"name": p.name, "lo": p.lo, "hi": p.hi}
            for p in graph.parameters.values()
        ],
        "nodes": nodes,
        "channels": [
            {
                "name": c.name,
                "src": c.src, "src_port": c.src_port,
                "dst": c.dst, "dst_port": c.dst_port,
                "initial_tokens": c.initial_tokens,
            }
            for c in graph.channels.values()
        ],
    }


def tpdf_from_dict(data: Mapping) -> TPDFGraph:
    """Rebuild a TPDF graph from :func:`tpdf_to_dict` output."""
    if data.get("model") != "tpdf":
        raise GraphConstructionError(f"not a TPDF document: {data.get('model')!r}")
    params = [
        Param(p["name"], lo=p.get("lo", 1), hi=p.get("hi"))
        for p in data.get("parameters", [])
    ]
    graph = TPDFGraph(data.get("name", "tpdf"), parameters=params)
    parsed: dict[str, Poly] = {}
    for entry in data["nodes"]:
        exec_times = tuple(entry.get("exec_times", (1.0,)))
        name = _name(entry["name"])
        if entry["kind"] == "control":
            if "clock_period" in entry:
                node: ControlActor = ClockActor(name, entry["clock_period"])
                graph.register(node)
            else:
                node = graph.add_control_actor(name, exec_time=exec_times)
        else:
            modes = tuple(Mode(m) for m in entry.get("modes", (Mode.WAIT_ALL.value,)))
            node = graph.add_kernel(name, exec_time=exec_times, modes=modes)
        node.meta.update(entry.get("meta", {}))
        for port in entry["ports"]:
            kind = PortKind(port["kind"])
            rates = _rates_from_json(port["rates"], parsed)
            if isinstance(node, Kernel):
                if kind is PortKind.DATA_IN:
                    node.add_input(port["name"], rates, priority=port.get("priority", 0))
                elif kind is PortKind.DATA_OUT:
                    node.add_output(port["name"], rates, priority=port.get("priority", 0))
                elif kind is PortKind.CONTROL_IN:
                    node.add_control_port(port["name"], rates)
                else:
                    raise GraphConstructionError(
                        f"kernel {entry['name']!r} cannot own a control output"
                    )
            else:
                if kind is PortKind.DATA_IN:
                    node.add_input(port["name"], rates, priority=port.get("priority", 0))
                elif kind is PortKind.CONTROL_IN:
                    node.add_control_input(port["name"], rates)
                elif kind is PortKind.CONTROL_OUT:
                    node.add_control_output(port["name"], rates)
                else:
                    raise GraphConstructionError(
                        f"control actor {entry['name']!r} cannot own a data output"
                    )
        if isinstance(node, Kernel):
            for mode_value, table in entry.get("mode_rates", {}).items():
                node.set_mode_rates(
                    Mode(mode_value),
                    {port: _rates_from_json(rates, parsed)
                     for port, rates in table.items()},
                )
    for channel in data["channels"]:
        graph.connect(
            (_name(channel["src"]), channel["src_port"]),
            (_name(channel["dst"]), channel["dst_port"]),
            name=_name(channel["name"]),
            initial_tokens=channel.get("initial_tokens", 0),
        )
    return graph


def tpdf_to_json(graph: TPDFGraph, indent: int = 2) -> str:
    return json.dumps(tpdf_to_dict(graph), indent=indent)


def tpdf_from_json(text: str) -> TPDFGraph:
    return tpdf_from_dict(json.loads(text))


# -- CSDF ----------------------------------------------------------------

def csdf_to_dict(graph: CSDFGraph) -> dict:
    """Serialize a CSDF graph to a JSON-compatible dictionary."""
    return {
        "model": "csdf",
        "name": graph.name,
        "actors": [
            {"name": actor.name, "exec_times": list(actor.exec_times)}
            for actor in graph.actors.values()
        ],
        "channels": [
            {
                "name": c.name,
                "src": c.src,
                "dst": c.dst,
                "production": _rates_to_json(c.production),
                "consumption": _rates_to_json(c.consumption),
                "initial_tokens": c.initial_tokens,
            }
            for c in graph.channels.values()
        ],
    }


def csdf_from_dict(data: Mapping) -> CSDFGraph:
    if data.get("model") != "csdf":
        raise GraphConstructionError(f"not a CSDF document: {data.get('model')!r}")
    graph = CSDFGraph(data.get("name", "csdf"))
    parsed: dict[str, Poly] = {}
    for actor in data["actors"]:
        graph.add_actor(_name(actor["name"]), exec_time=tuple(actor.get("exec_times", (1.0,))))
    for channel in data["channels"]:
        graph.add_channel(
            _name(channel["name"]),
            _name(channel["src"]),
            _name(channel["dst"]),
            production=_rates_from_json(channel["production"], parsed),
            consumption=_rates_from_json(channel["consumption"], parsed),
            initial_tokens=channel.get("initial_tokens", 0),
        )
    return graph


def csdf_to_json(graph: CSDFGraph, indent: int = 2) -> str:
    return json.dumps(csdf_to_dict(graph), indent=indent)


def csdf_from_json(text: str) -> CSDFGraph:
    return csdf_from_dict(json.loads(text))


# -- process-pool codec --------------------------------------------------

AnyGraph = Union[CSDFGraph, TPDFGraph]


def graph_to_payload(graph: AnyGraph) -> dict:
    """Encode a graph for shipping to an analysis worker process.

    Live graphs are not pickle-safe by contract: they accumulate
    per-version analysis caches (holding arbitrarily large memoized
    expansions), ports hold back-references to their node and graph
    (added so rate edits invalidate caches), and actors may carry
    closures/lambdas as behaviour.  The payload is the plain-dict
    serialization instead — structure, rates, priorities, modes,
    execution times — which pickles as primitive containers only and
    preserves construction order, so every static analysis of the
    decoded graph is bit-identical to the original's.

    Behavioural attachments (``function``, ``decision``) are dropped;
    the analyses never evaluate them.
    """
    if isinstance(graph, TPDFGraph):
        return tpdf_to_dict(graph)
    if isinstance(graph, CSDFGraph):
        return csdf_to_dict(graph)
    raise GraphConstructionError(f"cannot encode {type(graph).__name__} for workers")


def payload_fingerprint(payload: Mapping) -> str:
    """Stable content address of a graph payload (sha256 hex digest of
    its canonical JSON rendering).

    Two payloads fingerprint identically iff they describe the same
    structure, rates, tokens and execution times — dict ordering and
    formatting do not matter.  The resident analysis service keys its
    result cache and per-worker decode caches on this value, so an
    edited graph (different payload) can never be served a stale
    entry: its key changed with its content.
    """
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str,
        allow_nan=True,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def graph_from_payload(payload: Mapping) -> AnyGraph:
    """Rebuild a worker-side graph from :func:`graph_to_payload`.

    The result is a fresh, mutable graph with empty analysis caches:
    the first analysis of it fills them."""
    model = payload.get("model")
    try:
        if model == "tpdf":
            return tpdf_from_dict(payload)
        if model == "csdf":
            return csdf_from_dict(payload)
    except (KeyError, TypeError, AttributeError) as exc:
        # A structurally incomplete payload (missing sections, wrong
        # shapes) is a construction error, not a stray KeyError deep
        # inside the decoder — callers (the analysis service maps this
        # to HTTP 400) rely on the typed surface.
        raise GraphConstructionError(
            f"malformed {model} payload: {exc!r}"
        ) from exc
    raise GraphConstructionError(f"unknown payload model {model!r}")


# -- parametric MCR artefacts --------------------------------------------

def domain_to_dict(domain) -> dict:
    """JSON-ready view of a :class:`~repro.csdf.parametric.ParamDomain`:
    ``{"p": [1, 8]}`` (ranges are inclusive)."""
    return {name: [lo, hi] for name, (lo, hi) in domain.ranges.items()}


def domain_from_dict(data: Mapping):
    """Rebuild a :class:`~repro.csdf.parametric.ParamDomain` from
    :func:`domain_to_dict` output."""
    from .csdf.parametric import ParamDomain

    return ParamDomain({name: (lo, hi) for name, (lo, hi) in data.items()})


def piecewise_to_dict(piecewise) -> dict:
    """JSON-ready view of a :class:`~repro.csdf.parametric.PiecewiseMCR`.

    Symbolic ratios serialize as rendered numerator/denominator
    polynomial strings (the :func:`parse_poly` fragment), regions as
    explicit inclusive boxes with a candidate index — the shape the
    benchmark artefacts record and :func:`piecewise_from_dict` restores.
    """
    return {
        "graph": piecewise.graph_name,
        "domain": domain_to_dict(piecewise.domain),
        "q": {name: str(poly) for name, poly in piecewise._q.items()},
        "candidates": [
            {
                "label": c.label,
                "kind": c.kind,
                "num": str(c.ratio.num),
                "den": str(c.ratio.den),
            }
            for c in piecewise.candidates
        ],
        "regions": [
            {
                "bounds": {name: [lo, hi] for name, lo, hi in r.bounds},
                "candidate": r.candidate,
            }
            for r in piecewise.regions
        ],
    }


# -- analysis-report wire forms ------------------------------------------
#
# The resident analysis service speaks JSON over HTTP, so every field
# of a GraphReport must survive a JSON round trip *bit-for-bit* (the
# differential suite compares fingerprints of decoded responses against
# direct analyze() calls with no tolerance).  Python's json module
# already guarantees exact float round-trips (shortest-repr encoding);
# what needs care is everything JSON has no native type for: Fractions
# (tagged objects), numpy scalars a caller passed in (normalized to
# native int/float — np.int64 is *not* JSON-encodable),
# and tuples (re-tupled on decode where the dataclasses expect them).

def _scalar_to_wire(value):
    """Normalize one scalar for the JSON wire, preserving value
    identity: native bool/int/float/str/None pass through, Fractions
    become ``{"$fraction": [num, den]}``, numpy integer/floating
    scalars collapse to the equal native number."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, Fraction):
        return {"$fraction": [value.numerator, value.denominator]}
    if isinstance(value, int):
        return int(value)  # collapse bool-free int subclasses (IntEnum)
    if isinstance(value, float):
        return float(value)  # collapse np.float64 (a float subclass)
    try:  # numpy integer scalars define __index__ but are not ints
        return int(value.__index__())
    except AttributeError:
        raise GraphConstructionError(
            f"cannot encode {value!r} (type {type(value).__name__}) "
            f"for the JSON wire"
        ) from None


def _scalar_from_wire(value):
    """Inverse of :func:`_scalar_to_wire`."""
    if isinstance(value, Mapping) and set(value) == {"$fraction"}:
        num, den = value["$fraction"]
        return Fraction(num, den)
    return value


def timed_result_to_dict(timed) -> dict:
    """JSON-ready view of a :class:`~repro.csdf.throughput.TimedResult`."""
    return {
        "makespan": float(timed.makespan),
        "iterations": int(timed.iterations),
        "firings": int(timed.firings),
        "iteration_ends": [float(t) for t in timed.iteration_ends],
        "peaks": {str(name): int(peak) for name, peak in timed.peaks.items()},
    }


def timed_result_from_dict(data: Mapping):
    """Rebuild a :class:`~repro.csdf.throughput.TimedResult` from
    :func:`timed_result_to_dict` output."""
    from .csdf.throughput import TimedResult

    return TimedResult(
        makespan=data["makespan"],
        iterations=data["iterations"],
        firings=data["firings"],
        iteration_ends=list(data["iteration_ends"]),
        peaks=dict(data["peaks"]),
    )


def _mode_to_wire(mode):
    """Encode a :class:`~repro.tpdf.modes.ControlToken` (or ``None``)."""
    if mode is None:
        return None
    return {"mode": mode.mode.value, "selection": list(mode.selection),
            "deadline": mode.deadline}


def _mode_from_wire(data):
    if data is None:
        return None
    from .tpdf.modes import ControlToken, Mode

    return ControlToken(Mode(data["mode"]), tuple(data["selection"]),
                        data["deadline"])


def trace_to_dict(trace) -> dict:
    """JSON-ready view of a :class:`~repro.sim.Trace` (timing view:
    firing times, modes, discards and peaks — not token payloads, which
    are arbitrary Python objects).  Floats survive the JSON round trip
    exactly, so a decoded trace fingerprints bit-for-bit like the
    original (provided the original carried no recorded values)."""
    return {
        "firings": [
            {"node": r.node, "index": r.index, "start": float(r.start),
             "end": float(r.end), "mode": _mode_to_wire(r.mode)}
            for r in trace.firings
        ],
        "discards": [
            {"channel": d.channel, "port": d.port, "node": d.node,
             "count": d.count, "time": float(d.time)}
            for d in trace.discards
        ],
        "peaks": {str(name): int(peak)
                  for name, peak in trace.peaks.items()},
    }


def trace_from_dict(data: Mapping):
    """Rebuild a :class:`~repro.sim.Trace` from :func:`trace_to_dict`
    output."""
    from .sim import DiscardRecord, FiringRecord, Trace

    return Trace(
        firings=[
            FiringRecord(node=r["node"], index=r["index"], start=r["start"],
                         end=r["end"], mode=_mode_from_wire(r["mode"]))
            for r in data["firings"]
        ],
        discards=[
            DiscardRecord(channel=d["channel"], port=d["port"],
                          node=d["node"], count=d["count"], time=d["time"])
            for d in data["discards"]
        ],
        peaks=dict(data["peaks"]),
    )


def parametric_report_to_dict(report) -> dict:
    """JSON-ready view of a :class:`~repro.analysis.ParametricReport`
    (piecewise payloads ride through :func:`piecewise_to_dict`)."""
    return {
        "name": report.name,
        "domain": {
            str(name): [int(lo), int(hi)]
            for name, (lo, hi) in report.domain.items()
        },
        "piecewise": (
            None if report.piecewise is None
            else piecewise_to_dict(report.piecewise)
        ),
        "errors": {str(k): str(v) for k, v in report.errors.items()},
        "elapsed": float(report.elapsed),
    }


def parametric_report_from_dict(data: Mapping):
    """Rebuild a :class:`~repro.analysis.ParametricReport` from
    :func:`parametric_report_to_dict` output (fingerprint-identical)."""
    from .analysis import ParametricReport

    return ParametricReport(
        name=data["name"],
        domain={
            name: (lo, hi) for name, (lo, hi) in data["domain"].items()
        },
        piecewise=(
            None if data.get("piecewise") is None
            else piecewise_from_dict(data["piecewise"])
        ),
        errors=dict(data.get("errors", {})),
        elapsed=float(data.get("elapsed", 0.0)),
    )


def report_to_dict(report) -> dict:
    """JSON-ready view of a :class:`~repro.analysis.GraphReport`.

    Carries every analysis-result field of the report and drops the
    live graph object, which the fingerprint excludes too (the wire
    identifies graphs by :func:`payload_fingerprint` instead).
    ``elapsed`` and ``diagnostics`` are kept (they report the serving
    cost and the lint findings) but are likewise outside the
    fingerprint.
    """
    return {
        "kind": "graph_report",
        "name": report.name,
        "bindings": {
            str(name): _scalar_to_wire(value)
            for name, value in report.bindings.items()
        },
        "consistent": bool(report.consistent),
        "repetition_symbolic": {
            str(k): str(v) for k, v in report.repetition_symbolic.items()
        },
        "repetition": (
            None if report.repetition is None
            else {str(k): int(v) for k, v in report.repetition.items()}
        ),
        "live": report.live,
        "safe": report.safe,
        "bounded": report.bounded,
        "mcr": None if report.mcr is None else float(report.mcr),
        "buffers": (
            None if report.buffers is None
            else {str(k): int(v) for k, v in report.buffers.items()}
        ),
        "timed": (
            None if report.timed is None
            else timed_result_to_dict(report.timed)
        ),
        "parametric": (
            None if report.parametric is None
            else parametric_report_to_dict(report.parametric)
        ),
        "skipped": {str(k): str(v) for k, v in report.skipped.items()},
        "errors": {str(k): str(v) for k, v in report.errors.items()},
        "diagnostics": [d.to_dict() for d in report.diagnostics],
        "elapsed": float(report.elapsed),
    }


def report_from_dict(data: Mapping):
    """Rebuild a :class:`~repro.analysis.GraphReport` from
    :func:`report_to_dict` output.

    The decoded report carries no graph object (``report.graph is
    None``), exactly like a report that crossed the service's worker
    process boundary; its ``fingerprint()`` equals the original's
    bit-for-bit.
    """
    if data.get("kind") != "graph_report":
        raise GraphConstructionError(
            f"not a graph-report document: kind={data.get('kind')!r}"
        )
    from .analysis import GraphReport
    from .diagnostics import Diagnostic

    return GraphReport(
        graph=None,
        name=data["name"],
        bindings={
            name: _scalar_from_wire(value)
            for name, value in data.get("bindings", {}).items()
        },
        consistent=data.get("consistent", False),
        repetition_symbolic=dict(data.get("repetition_symbolic", {})),
        repetition=(
            None if data.get("repetition") is None
            else dict(data["repetition"])
        ),
        live=data.get("live"),
        safe=data.get("safe"),
        bounded=data.get("bounded"),
        mcr=data.get("mcr"),
        buffers=None if data.get("buffers") is None else dict(data["buffers"]),
        timed=(
            None if data.get("timed") is None
            else timed_result_from_dict(data["timed"])
        ),
        parametric=(
            None if data.get("parametric") is None
            else parametric_report_from_dict(data["parametric"])
        ),
        skipped=dict(data.get("skipped", {})),
        errors=dict(data.get("errors", {})),
        diagnostics=tuple(
            Diagnostic.from_dict(row) for row in data.get("diagnostics", ())
        ),
        elapsed=float(data.get("elapsed", 0.0)),
    )


def piecewise_from_dict(data: Mapping):
    """Rebuild a :class:`~repro.csdf.parametric.PiecewiseMCR` from
    :func:`piecewise_to_dict` output (value-identical: fingerprints of
    the round-tripped object match the original's)."""
    from .csdf.parametric import MCRCandidate, PiecewiseMCR, Region
    from .symbolic import Rat

    candidates = [
        MCRCandidate(
            entry["label"], entry["kind"],
            Rat(parse_poly(entry["num"]), parse_poly(entry["den"])),
        )
        for entry in data["candidates"]
    ]
    regions = [
        Region(
            tuple((name, lo, hi) for name, (lo, hi) in entry["bounds"].items()),
            entry["candidate"],
        )
        for entry in data["regions"]
    ]
    return PiecewiseMCR(
        data["graph"],
        domain_from_dict(data["domain"]),
        candidates,
        regions,
        {name: parse_poly(text) for name, text in data["q"].items()},
    )
