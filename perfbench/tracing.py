"""Spans and counters for the traced run.

The traced run times calls into each layer from the benchmark's own
files: it replaces every live alias of each timed public function (the
module attributes that hold it, in every loaded module) with a wrapper
that records a span, and replaces timed methods on their class.
Nothing inside ``src/`` changes; :meth:`Patches.remove` puts every
original back.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
enclosing span of the same thread and ``op`` is the id of the workload
op that caused it.  A nested call into the layer that is already open
(``graph_from_payload`` -> ``tpdf_from_dict``, ``repetition_vector`` ->
``solve_balance``) stays inside the outer span instead of opening a
second one.  Counters are taken at the same boundaries and kept per op.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict

clock = time.perf_counter

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span and counter store, safe for several client
    threads (each thread keeps its own span stack, op id and counter
    table)."""

    def __init__(self):
        self.spans: list[list] = []
        self._tables: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.op = None
            state.counts = defaultdict(float)
            with self._lock:
                self._tables.append(state.counts)
        return state

    def begin(self, name: str, op=None) -> int | None:
        """Open a span; ``op`` (given for the root span of an op) sets
        the thread's current op id.  Returns ``None`` when ``name`` is
        already the innermost open span."""
        state = self._state()
        stack = state.stack
        if stack and self.spans[stack[-1]][NAME] == name:
            return None
        if op is not None:
            state.op = op
        span = [name, clock(), None, stack[-1] if stack else None, state.op]
        self.spans.append(span)
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int | None) -> None:
        if index is None:
            return
        self.spans[index][END] = clock()
        self._local.stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        state = self._state()
        state.counts[(state.op, name)] += value

    def counts(self) -> dict:
        """``(op, counter) -> value`` merged over all threads."""
        merged: dict = defaultdict(float)
        with self._lock:
            for table in self._tables:
                for key, value in table.items():
                    merged[key] += value
        return merged


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover
    (children of one span never overlap: they nest on one thread)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i]
            for i, span in enumerate(spans)]


def _span_wrapper(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _cached_wrapper(tracer: Tracer, cached):
    """Counts lookups, and hits as lookups whose factory never ran."""

    def wrapper(graph, key, factory):
        ran = []

        def counted():
            ran.append(True)
            return factory()

        try:
            return cached(graph, key, counted)
        finally:
            tracer.count("cache.lookups")
            if not ran:
                tracer.count("cache.hits")

    wrapper.__wrapped__ = cached
    return wrapper


def _store_get_wrapper(tracer: Tracer, get):
    def wrapper(self, key, default=None):
        tracer.count("cache.content_store.lookups")
        if key in self:
            tracer.count("cache.content_store.hits")
        return get(self, key, default)

    wrapper.__wrapped__ = get
    return wrapper


class Patches:
    """Installed wrappers, with what they replaced."""

    def __init__(self):
        self._undo: list[tuple] = []

    def function(self, module: str, attr: str, wrap) -> None:
        """Wrap ``module.attr`` at every live alias in ``sys.modules``."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = wrap(original)
        for owner in list(sys.modules.values()):
            try:
                names = [k for k, v in vars(owner).items() if v is original]
            except TypeError:
                continue
            for name in names:
                setattr(owner, name, wrapper)
                self._undo.append((owner, name, original))

    def method(self, module: str, cls: str, attr: str, wrap) -> None:
        owner = getattr(importlib.import_module(module), cls)
        original = owner.__dict__[attr]
        setattr(owner, attr, wrap(original))
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _sim_counts(tracer: Tracer):
    def after(args, _trace):
        stats = args[0].stats()
        tracer.count("sim.runs")
        tracer.count("sim.firings", stats.get("events", 0))
        tracer.count("sim.fast_path", 1.0 if stats.get("fast_path") else 0.0)
        tracer.count("sim.value_channels", stats.get("value_channels", 0))

    return after


def install(tracer: Tracer) -> Patches:
    """Install every layer wrapper; the caller must ``remove()`` them."""
    # Import lazily-imported layers first so their aliases exist.
    for module in ("repro.analysis", "repro.tpdf.boundedness",
                   "repro.csdf.schedule", "repro.sim.engine",
                   "repro.service.client"):
        importlib.import_module(module)
    patches = Patches()

    def span(name, after=None):
        return lambda fn: _span_wrapper(tracer, name, fn, after)

    def counter(name, measure):
        return lambda _args, result: tracer.count(name, measure(result))

    patches.function("repro.symbolic.linsolve", "solve_balance",
                     span("symbolic.balance",
                          counter("symbolic.balance.solves", lambda _r: 1)))
    patches.function("repro.csdf.analysis", "repetition_vector",
                     span("symbolic.balance"))
    patches.function("repro.csdf.sdf", "expand_to_hsdf",
                     span("csdf.hsdf", counter("csdf.hsdf.nodes",
                                               lambda g: len(g.actors))))
    patches.function("repro.csdf.mcr", "howard",
                     span("csdf.howard",
                          counter("csdf.howard.solves", lambda _r: 1)))
    patches.function("repro.csdf.mcr", "max_cycle_ratio", span("csdf.mcr"))
    patches.function("repro.tpdf.boundedness", "check_boundedness",
                     span("tpdf.boundedness"))
    patches.function("repro.csdf.schedule", "is_live", span("csdf.liveness"))
    patches.function("repro.csdf.buffers", "minimal_buffer_schedule",
                     span("csdf.buffers"))
    patches.function("repro.csdf.throughput", "self_timed_execution",
                     span("csdf.throughput",
                          counter("csdf.throughput.firings",
                                  lambda timed: timed.firings)))
    patches.function("repro.cache", "cached",
                     lambda fn: _cached_wrapper(tracer, fn))
    patches.method("repro.cache", "ContentStore", "get",
                   lambda fn: _store_get_wrapper(tracer, fn))
    for decoder in ("graph_from_payload", "csdf_from_dict", "tpdf_from_dict",
                    "csdf_from_json", "tpdf_from_json"):
        patches.function("repro.io", decoder, span("io.decode"))
    patches.function("repro.io", "report_from_dict", span("io.report_decode"))
    patches.function("repro.analysis", "analyze", span("analysis.analyze"))
    patches.method("repro.analysis", "GraphReport", "summary",
                   span("analysis.summary"))
    patches.method("repro.sim.engine", "Simulator", "__init__",
                   span("sim.build"))
    patches.method("repro.sim.engine", "Simulator", "run",
                   span("sim.run", _sim_counts(tracer)))
    patches.method("repro.service.client", "ServiceClient", "analyze",
                   span("service.rtt"))
    patches.method("repro.service.client", "ServiceSession", "edits",
                   span("service.rtt"))
    return patches


#: Layers reported as ``<layer>.ms_per_op`` self time per op.
SELF_TIME_LAYERS = (
    "symbolic.balance", "csdf.hsdf", "csdf.howard", "csdf.mcr",
    "tpdf.boundedness", "csdf.liveness", "csdf.buffers", "csdf.throughput",
    "io.decode", "io.report_decode", "analysis.summary", "sim.build",
    "sim.run",
)


def layer_metrics(tracer: Tracer, ops: int,
                  speed: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of a traced pass over ``ops`` ops, with times
    divided by the pass's host ``speed`` factor.

    ``<layer>.ms_per_op`` is self time; ``analysis.analyze.ms_per_op``
    and ``service.rtt.ms_per_op`` are whole-call times, and
    ``analysis.self.ms_per_op`` is the part of ``analyze()`` no child
    span covers.
    """
    spans = tracer.spans  # all closed: every wrapper ends its span in finally
    own = self_times(spans)
    self_ms: dict[str, float] = defaultdict(float)
    whole_ms: dict[str, float] = defaultdict(float)
    for span, value in zip(spans, own):
        self_ms[span[NAME]] += value * 1000.0
        whole_ms[span[NAME]] += (span[END] - span[START]) * 1000.0
    totals: dict[str, float] = defaultdict(float)
    for (_op, name), value in tracer.counts().items():
        totals[name] += value
    per_op = max(ops, 1)
    ms_per_op = per_op * speed
    out = {f"{layer}.ms_per_op": self_ms[layer] / ms_per_op
           for layer in SELF_TIME_LAYERS}
    out["analysis.analyze.ms_per_op"] = whole_ms["analysis.analyze"] / ms_per_op
    out["analysis.self.ms_per_op"] = self_ms["analysis.analyze"] / ms_per_op
    out["service.rtt.ms_per_op"] = whole_ms["service.rtt"] / ms_per_op
    out["symbolic.balance.solves_per_op"] = totals["symbolic.balance.solves"] / per_op
    out["csdf.hsdf.nodes_per_op"] = totals["csdf.hsdf.nodes"] / per_op
    out["csdf.howard.solves_per_op"] = totals["csdf.howard.solves"] / per_op
    out["csdf.throughput.firings_per_op"] = totals["csdf.throughput.firings"] / per_op
    out["cache.lookups_per_op"] = totals["cache.lookups"] / per_op
    out["cache.hit_ratio"] = _ratio(totals["cache.hits"], totals["cache.lookups"])
    out["cache.content_store.hit_ratio"] = _ratio(
        totals["cache.content_store.hits"], totals["cache.content_store.lookups"])
    out["sim.firings_per_op"] = totals["sim.firings"] / per_op
    out["sim.fast_path_ratio"] = _ratio(totals["sim.fast_path"], totals["sim.runs"])
    out["sim.value_channels_per_op"] = totals["sim.value_channels"] / per_op
    return out


def op_coverage(tracer: Tracer) -> list[float]:
    """For each op: the share of its root span that child spans cover."""
    spans = tracer.spans
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span[PARENT]
        if parent is not None and spans[parent][NAME] == "op":
            covered[parent] += span[END] - span[START]
    return [covered[i] / (span[END] - span[START])
            for i, span in enumerate(spans)
            if span[NAME] == "op" and span[END] > span[START]]


def solves_by_op(tracer: Tracer) -> dict:
    """``op -> balance solves``, for per-class solve counts."""
    out: dict = defaultdict(float)
    for (op, name), value in tracer.counts().items():
        if name == "symbolic.balance.solves":
            out[op] += value
    return out


def _ratio(hits: float, lookups: float) -> float:
    return hits / lookups if lookups else 0.0
