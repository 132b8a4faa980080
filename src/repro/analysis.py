"""``repro.analysis`` — the unified batch analysis front door.

One call runs the whole static chain over a graph (or many graphs)
with every intermediate shared through the per-graph caches of
:mod:`repro.cache`:

* **consistency** and the (symbolic + concrete) repetition vector;
* **liveness** (TPDF cycle analysis, or a sequential-schedule probe
  for plain CSDF);
* **MCR** — the throughput bound, by Howard's policy iteration;
* **buffer sizing** — peaks of a buffer-minimizing iteration;
* **self-timed throughput** — steady-state period of the timed
  event-driven execution, :func:`repro.csdf.throughput.self_timed_execution`
  (differentially pinned against the retained full-scan reference
  loop, ``self_timed_execution_reference``).

The point of the batch shape: a sweep that used to re-derive the
repetition vector and HSDF expansion for every query (one per beta
point, one per analysis kind) now derives each once per graph.  Used
by the ``analyze`` CLI subcommand and the scalability/Fig. 8 benches.
A batch runs in-process; to spread independent graphs over worker
processes, send them to the resident service (``repro serve``,
:meth:`repro.service.ServiceClient.batch`).

With a ``parametric_domain`` the chain additionally runs the
**parametric (symbolic) MCR** stage (:mod:`repro.csdf.parametric`):
instead of the throughput bound at one ``bindings`` point, the report
carries a :class:`ParametricReport` holding the bound as a
piecewise-symbolic function over a whole parameter box — one
computation replacing a per-binding sweep.

Examples
--------
>>> from repro.analysis import analyze
>>> from repro.csdf import CSDFGraph
>>> g = CSDFGraph("pair")
>>> _ = g.add_actor("a", exec_time=2)
>>> _ = g.add_actor("b", exec_time=1)
>>> _ = g.add_channel("ab", "a", "b")
>>> report = analyze(g)
>>> report.bounded, report.repetition, report.mcr
(True, {'a': 1, 'b': 1}, 2.0)

Symbolic throughput over a parameter box instead of one binding:

>>> from repro.symbolic import Param
>>> p = Param("p")
>>> h = CSDFGraph("fanout")
>>> _ = h.add_actor("src", exec_time=3)
>>> _ = h.add_actor("snk", exec_time=2)
>>> _ = h.add_channel("c", "src", "snk", production=p, consumption=1)
>>> report = analyze(h, parametric_domain={"p": (1, 8)})
>>> report.parametric.candidates
['ring:src = 3', 'ring:snk = 2*p']
>>> report.parametric.regions
['p=1..1 -> ring:src', 'p=2..8 -> ring:snk']
>>> report.parametric.mcr_at({"p": 4})
8.0
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from .cache import cached, register_binding_insensitive, version_of
from .csdf.buffers import minimal_buffer_schedule
from .csdf.graph import CSDFGraph
from .csdf.mcr import max_cycle_ratio
from .csdf.throughput import TimedResult, self_timed_execution
from .errors import (DeadlockError, DiagnosticsError, GraphConstructionError,
                     ReproError)
from .symbolic import InconsistentRatesError
from .tpdf.graph import TPDFGraph

#: What an analysis stage may legitimately raise.
_STAGE_ERRORS = (ReproError, InconsistentRatesError)

AnyGraph = Union[CSDFGraph, TPDFGraph]
#: An analyze_batch item: a graph, or a (graph, bindings) pair.
BatchItem = Union[AnyGraph, tuple]


@dataclass
class GraphReport:
    """Aggregate outcome of one graph's analysis chain.

    Stages that could not run record a reason in :attr:`skipped`
    (e.g. performance stages of a parametric graph analyzed without
    bindings) or :attr:`errors` (stage raised).
    """

    graph: AnyGraph
    name: str
    bindings: dict
    consistent: bool = False
    #: symbolic repetition vector, rendered (``{"B": "2*p"}``)
    repetition_symbolic: dict[str, str] = field(default_factory=dict)
    #: concrete repetition vector under ``bindings`` (when evaluable)
    repetition: dict[str, int] | None = None
    live: bool | None = None
    #: rate safety (TPDF graphs only; None for plain CSDF)
    safe: bool | None = None
    bounded: bool | None = None
    #: maximum cycle ratio — the steady-state period bound
    mcr: float | None = None
    #: per-channel buffer peaks of a buffer-minimizing iteration
    buffers: dict[str, int] | None = None
    #: timed self-timed execution (period, throughput, peaks)
    timed: TimedResult | None = None
    #: parametric (symbolic) MCR stage, when a domain was requested
    parametric: "ParametricReport | None" = None
    #: stage -> reason for stages that did not run
    skipped: dict[str, str] = field(default_factory=dict)
    #: stage -> error message for stages that raised
    errors: dict[str, str] = field(default_factory=dict)
    #: static diagnostics attached by ``analyze(lint="warn")`` —
    #: presentation data like ``elapsed``, outside the fingerprint
    #: (the same graph analyzed with ``lint="off"`` must stay
    #: bit-identical).
    diagnostics: tuple = ()
    #: wall-clock cost of this report, seconds
    elapsed: float = 0.0
    #: mutation version of the analyzed graph object when the report
    #: was produced — lets ``analyze(reuse_from=...)`` detect identical
    #: resubmissions in O(1).  Not part of the fingerprint (it tracks
    #: object history, not analysis values).
    graph_version: int | None = None
    #: normalized tuple of the analyze() options the report was
    #: computed under (same role as :attr:`graph_version`).
    analysis_options: tuple | None = None

    @property
    def total_buffer(self) -> int | None:
        return None if self.buffers is None else sum(self.buffers.values())

    @property
    def period(self) -> float | None:
        return None if self.timed is None else self.timed.iteration_period

    @property
    def throughput(self) -> float | None:
        return None if self.timed is None else self.timed.throughput

    def verdict_reasons(self) -> list[str]:
        """Why the graph is not provably bounded (empty when it is)."""
        reasons = []
        if not self.consistent:
            reasons.append("rate inconsistent: "
                           + self.errors.get("consistency", "no non-trivial solution"))
        if self.safe is False:
            reasons.append("rate safety violated")
        if self.live is False:
            reasons.append("not live")
        if "liveness" in self.errors:
            reasons.append(f"liveness analysis failed: {self.errors['liveness']}")
        return reasons

    def fingerprint(self) -> tuple:
        """Deterministic value identity of the analysis outcome.

        Covers every analysis-result field and excludes the
        process-dependent ones: the graph *object* (service workers
        analyze a decoded copy), ``elapsed`` (wall clock), and the
        ``graph_version``/``analysis_options`` provenance pair (object
        history, not analysis values).  The service and incremental
        differential suites assert service == direct and
        warm == cold on exactly this value — float fields included
        bit-for-bit, no tolerance.
        """
        timed = None
        if self.timed is not None:
            timed = (
                self.timed.makespan,
                self.timed.iterations,
                self.timed.firings,
                tuple(self.timed.iteration_ends),
                tuple(sorted(self.timed.peaks.items())),
            )
        return (
            self.name,
            tuple(sorted(self.bindings.items())),
            self.consistent,
            tuple(sorted(self.repetition_symbolic.items())),
            None if self.repetition is None else tuple(sorted(self.repetition.items())),
            self.live,
            self.safe,
            self.bounded,
            self.mcr,
            None if self.buffers is None else tuple(sorted(self.buffers.items())),
            timed,
            None if self.parametric is None else self.parametric.fingerprint(),
            tuple(sorted(self.skipped.items())),
            tuple(sorted(self.errors.items())),
        )

    def summary(self) -> str:
        """Multi-line human-readable digest (exactly what the CLI
        ``analyze`` subcommand prints per graph)."""
        lines = [f"graph: {self.name}"]
        verdict = (
            "bounded (consistent, rate safe, live)"
            if self.bounded
            else "NOT provably bounded: " + "; ".join(self.verdict_reasons())
        )
        lines.append(f"verdict: {verdict}")
        if self.consistent:
            lines.append("repetition vector:")
            q = self.repetition or self.repetition_symbolic
            for actor, count in q.items():
                lines.append(f"  q[{actor}] = {count}")
        if self.safe is not None:
            lines.append(f"rate safety: {'safe' if self.safe else 'violated'}")
        elif "liveness" in self.errors:
            lines.append("rate safety: unknown (analysis failed)")
        if self.live is not None:
            lines.append(f"liveness: {'live' if self.live else 'DEADLOCK'}")
        elif not self.consistent:
            lines.append("liveness: skipped (inconsistent)")
        if self.mcr is not None:
            lines.append(f"max cycle ratio (period bound): {self.mcr:.4f}")
        if self.timed is not None:
            lines.append(f"self-timed steady period:       {self.period:.4f}")
            lines.append(f"throughput:                     {self.throughput:.4f} iterations/time")
        if self.buffers is not None:
            lines.append(f"min single-core buffer total:   {self.total_buffer}")
        if self.parametric is not None:
            lines.extend(self.parametric.summary().splitlines())
        for stage, reason in self.skipped.items():
            lines.append(f"({stage} skipped: {reason})")
        for stage, message in self.errors.items():
            if stage != "consistency":
                lines.append(f"({stage} FAILED: {message})")
        return "\n".join(lines)


@dataclass
class ParametricReport:
    """Outcome of the parametric (symbolic) MCR stage.

    Produced by :func:`analyze_parametric` (or by :func:`analyze` when
    a ``parametric_domain`` is passed) and carried on
    :attr:`GraphReport.parametric`.  Holds no graph reference — the
    payload is plain symbolic data, so it crosses the analysis
    service's process boundary untouched (the underlying
    :class:`~repro.csdf.parametric.PiecewiseMCR` is pickle-safe and is
    memoized per graph version like every other analysis product).
    """

    name: str
    #: the requested integer box, ``{"p": (1, 8)}``
    domain: dict[str, tuple[int, int]]
    #: the piecewise-symbolic MCR (None when the stage failed)
    piecewise: object | None = None
    #: stage -> error message for failures (unsupported class, ...)
    errors: dict[str, str] = field(default_factory=dict)
    #: wall-clock cost of this stage, seconds
    elapsed: float = 0.0

    @property
    def candidates(self) -> list[str]:
        """Rendered symbolic candidates (``"ring:B = 2*p"``)."""
        if self.piecewise is None:
            return []
        return [str(c) for c in self.piecewise.candidates]

    @property
    def regions(self) -> list[str]:
        """Rendered dominance regions (``"p=2..8 -> ring:B"``)."""
        if self.piecewise is None:
            return []
        return [
            ", ".join(f"{n}={lo}..{hi}" for n, lo, hi in region.bounds)
            + f" -> {self.piecewise.candidates[region.candidate].label}"
            for region in self.piecewise.regions
        ]

    def mcr_at(self, bindings: Mapping) -> float:
        """Evaluate the piecewise MCR at one valuation (float view)."""
        if self.piecewise is None:
            raise ReproError(
                f"parametric MCR of {self.name!r} unavailable: "
                + "; ".join(self.errors.values())
            )
        return self.piecewise.evaluate_float(bindings)

    def fingerprint(self) -> tuple:
        """Deterministic value identity (service == direct)."""
        return (
            self.name,
            tuple(sorted((n, lo, hi) for n, (lo, hi) in self.domain.items())),
            None if self.piecewise is None else self.piecewise.fingerprint(),
            tuple(sorted(self.errors.items())),
        )

    def summary(self) -> str:
        """Multi-line digest (folded into ``GraphReport.summary``)."""
        if self.piecewise is not None:
            return self.piecewise.describe()
        reasons = "; ".join(
            f"{stage}: {message}" for stage, message in self.errors.items()
        )
        return f"(parametric MCR FAILED: {reasons})"


def analyze_parametric(
    graph: AnyGraph,
    domain,
    *,
    max_boxes: int = 20_000,
) -> ParametricReport:
    """Run the parametric (symbolic) MCR stage over one graph.

    ``domain`` is anything :meth:`~repro.csdf.parametric.ParamDomain.of`
    accepts — a :class:`~repro.csdf.parametric.ParamDomain`, a mapping
    ``{"p": (1, 8)}``, or CLI-style specs ``["p=1..8"]`` — and must
    bind every parameter of the graph.  Failures (graph outside the
    supported class, unbound parameters, deadlocking core) are recorded
    in :attr:`ParametricReport.errors` instead of raising, mirroring
    how :func:`analyze` treats its stages.
    """
    from .csdf.parametric import ParamDomain, parametric_mcr

    start = time.perf_counter()
    dom = ParamDomain.of(domain)
    report = ParametricReport(name=graph.name, domain=dom.ranges)
    try:
        report.piecewise = parametric_mcr(
            _csdf_view(graph), dom, max_boxes=max_boxes
        )
    except _STAGE_ERRORS as exc:
        report.errors["parametric_mcr"] = str(exc)
    report.elapsed = time.perf_counter() - start
    return report


def _csdf_view(graph: AnyGraph) -> CSDFGraph:
    return graph.as_csdf() if isinstance(graph, TPDFGraph) else graph


def _is_concrete(csdf: CSDFGraph, bindings: Mapping | None) -> bool:
    return not (csdf.parameters() - set(bindings or {}))


def _lint_gate(graph: AnyGraph, bindings: Mapping | None,
               mode: str) -> list:
    """Run the diagnostics engine for ``analyze(lint=...)``.

    ``mode="error"`` raises :class:`~repro.errors.DiagnosticsError`
    (carrying the full diagnostic list) when any ERROR-severity defect
    is present; otherwise the list is returned for attachment to the
    report.
    """
    from .diagnostics import Severity, run_diagnostics

    findings = run_diagnostics(graph, bindings=bindings)
    fatal = [d for d in findings if d.severity is Severity.ERROR]
    if mode == "error" and fatal:
        summary = "; ".join(f"{d.code} {d.subject}" for d in fatal[:5])
        if len(fatal) > 5:
            summary += f" (+{len(fatal) - 5} more)"
        raise DiagnosticsError(
            f"graph {graph.name!r} fails static diagnostics: {summary}",
            diagnostics=findings,
        )
    return findings


def analyze(
    graph: AnyGraph,
    bindings: Mapping | None = None,
    *,
    iterations: int = 4,
    with_liveness: bool = True,
    with_mcr: bool = True,
    with_buffers: bool = True,
    with_throughput: bool = True,
    parametric_domain=None,
    lint: str = "off",
    reuse_from: "GraphReport | None" = None,
) -> GraphReport:
    """Run the full analysis chain over one graph.

    Accepts TPDF and plain CSDF graphs.  Performance stages (MCR,
    buffers, self-timed throughput) need a concrete valuation; on a
    parametric graph without (complete) ``bindings`` they are recorded
    as skipped instead of raising.  All intermediates are memoized on
    the graph, so re-analyzing (or analyzing per-stage elsewhere) costs
    nothing extra.

    With ``parametric_domain`` (a parameter box, see
    :func:`analyze_parametric`) the report additionally carries the
    **parametric MCR** — the throughput bound as a piecewise-symbolic
    function over the whole domain, replacing a per-binding sweep.

    ``reuse_from`` accepts the previous report of the **same graph
    object** (edit traffic: analyze, edit, re-analyze): an identical
    resubmission — same graph version, bindings and options — returns a
    copy of the previous report in O(1), and anything else falls
    through to the chain, which is itself delta-aware (the per-graph
    caches carry binding-insensitive products across execution-time
    edits and re-solve only the SCCs an edit touched, see
    :mod:`repro.cache` and :mod:`repro.csdf.mcr`).  Warm results are
    bit-for-bit identical to cold analysis (``fingerprint()``).  See
    :class:`EditSession` for the convenience wrapper.

    ``lint`` runs the static diagnostics engine
    (:func:`repro.diagnostics.run_diagnostics`) before the stages:
    ``"error"`` raises :class:`~repro.errors.DiagnosticsError` when any
    ERROR-severity defect is found (rejecting statically-doomed graphs
    without burning analysis time), ``"warn"`` attaches the diagnostic
    list to ``report.diagnostics``, and ``"off"`` (the default) skips
    the engine entirely.
    """
    start = time.perf_counter()
    if lint not in ("off", "warn", "error"):
        raise ValueError(
            f"lint must be 'off', 'warn' or 'error', got {lint!r}"
        )
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    options_key = (
        iterations, with_liveness, with_mcr, with_buffers, with_throughput,
        None if parametric_domain is None else repr(parametric_domain), lint,
    )
    if reuse_from is not None:
        if reuse_from.graph is not graph:
            raise ValueError(
                "reuse_from must be a report of the same graph object "
                f"(got a report of {reuse_from.name!r})"
            )
        if (reuse_from.graph_version == version_of(graph)
                and reuse_from.analysis_options == options_key
                and reuse_from.bindings == dict(bindings or {})):
            return dataclasses.replace(
                reuse_from, elapsed=time.perf_counter() - start
            )
    lint_findings: tuple = ()
    if lint != "off":
        lint_findings = tuple(_lint_gate(graph, bindings, lint))
    report = GraphReport(
        graph=graph, name=graph.name, bindings=dict(bindings or {}),
        graph_version=version_of(graph), analysis_options=options_key,
        diagnostics=lint_findings,
    )
    csdf = _csdf_view(graph)

    # -- consistency + repetition vector -------------------------------
    from .csdf.analysis import concrete_repetition_vector, repetition_vector

    try:
        q_sym = repetition_vector(csdf)
        report.consistent = True
        # Interned: the few distinct counts of a graph family are then
        # shared by every report that keeps them.
        report.repetition_symbolic = {
            name: sys.intern(str(poly)) for name, poly in q_sym.items()
        }
    except _STAGE_ERRORS as exc:
        report.errors["consistency"] = str(exc)
        report.elapsed = time.perf_counter() - start
        return report

    concrete = _is_concrete(csdf, bindings)
    if concrete:
        try:
            report.repetition = concrete_repetition_vector(csdf, bindings)
        except _STAGE_ERRORS as exc:
            # Consistent but not evaluable at this valuation (e.g. a
            # fractional repetition count): report and stop the
            # concrete stages.
            report.errors["repetition"] = str(exc)
            concrete = False

    # -- rate safety + liveness ----------------------------------------
    if with_liveness:
        try:
            if isinstance(graph, TPDFGraph):
                # The full Theorem 2 chain (consistency is a cache hit).
                from .tpdf.boundedness import check_boundedness

                verdict = check_boundedness(graph)
                report.safe = verdict.safety.safe
                report.live = verdict.liveness.live
                report.bounded = verdict.bounded
            elif concrete:
                from .csdf.schedule import is_live

                report.live = is_live(csdf, bindings)
            else:
                report.skipped["liveness"] = "parametric CSDF graph: pass bindings"
        except _STAGE_ERRORS as exc:
            report.errors["liveness"] = str(exc)
    if "liveness" in report.errors:
        # Boundedness was never established — don't report it proven.
        report.bounded = False
    elif report.bounded is None:
        report.bounded = report.consistent and (report.live is not False)

    # -- performance stages (need a concrete valuation) -----------------
    unbound = sorted(csdf.parameters() - set(bindings or {}))
    reason = f"parametric (unbound: {', '.join(unbound)})" if unbound else None
    for stage, enabled in (
        ("mcr", with_mcr), ("buffers", with_buffers), ("throughput", with_throughput),
    ):
        if enabled and not concrete:
            report.skipped[stage] = reason or "repetition vector not concrete"
    if concrete and report.live is not False:
        if with_mcr:
            try:
                report.mcr = max_cycle_ratio(csdf, bindings)
            except _STAGE_ERRORS as exc:
                report.errors["mcr"] = str(exc)
        if with_buffers:
            try:
                _, peaks = minimal_buffer_schedule(csdf, bindings)
                report.buffers = dict(peaks)
            except _STAGE_ERRORS as exc:
                report.errors["buffers"] = str(exc)
        if with_throughput:
            try:
                report.timed = self_timed_execution(
                    csdf, bindings, iterations=iterations
                )
            except _STAGE_ERRORS as exc:
                report.errors["throughput"] = str(exc)
    elif concrete and report.live is False:
        for stage in ("mcr", "buffers", "throughput"):
            report.skipped.setdefault(stage, "graph deadlocks")

    # -- parametric (symbolic) MCR over a requested domain ---------------
    if parametric_domain is not None:
        report.parametric = analyze_parametric(graph, parametric_domain)

    report.elapsed = time.perf_counter() - start
    return report


# Warm-up only touches the rate algebra, so the marker survives
# binding-only bumps along with the products it certifies.
register_binding_insensitive("warm_graph")


def warm_graph(graph: AnyGraph) -> AnyGraph:
    """Pre-populate the binding-independent caches of ``graph``.

    Runs the CSDF abstraction and the symbolic balance solve (the two
    intermediates every later stage keys off), caching negative
    verdicts too.  Service workers call this once per decoded graph so
    every request that shares the graph starts from warm caches,
    mirroring what a batch gets from analyzing the same live object
    repeatedly.

    Idempotent per (graph, version): a completed warm-up leaves a
    marker in the graph's cache, and later calls return without
    re-entering the solver stages at all (they used to re-walk the
    whole warm-up chain on every call, betting on the per-stage caches
    — which re-derived everything whenever an earlier stage had been
    evicted or the call raced a fresh decode).
    """

    def _warm() -> bool:
        from .csdf.analysis import repetition_vector

        try:
            repetition_vector(_csdf_view(graph))
        except _STAGE_ERRORS:
            pass  # the negative result is memoized as well
        return True

    cached(graph, ("warm_graph",), _warm)
    return graph


def probe_capacities(
    graph: AnyGraph,
    capacities_list,
    bindings: Mapping | None = None,
    *,
    iterations: int = 4,
) -> list:
    """Evaluate many capacity vectors for one graph.

    Every vector runs through
    :func:`~repro.csdf.throughput.self_timed_execution`, cloned from one
    memoized SoA template.  The returned list is
    aligned with ``capacities_list``: a
    :class:`~repro.csdf.throughput.TimedResult` per feasible vector and
    the :class:`~repro.errors.DeadlockError` per deadlocking one
    (returned in place, not raised, so one deadlock does not hide the
    other verdicts), blocked sets included.  TPDF graphs are probed
    through their CSDF abstraction (the same view the throughput stage
    of :func:`analyze` executes).
    """
    csdf = _csdf_view(graph)
    outcomes: list = []
    for capacities in capacities_list:
        try:
            outcomes.append(self_timed_execution(
                csdf, bindings, iterations=iterations, capacities=capacities,
            ))
        except DeadlockError as exc:
            outcomes.append(exc)
    return outcomes


def simulate(
    graph: TPDFGraph,
    bindings: Mapping | None = None,
    *,
    until: float | None = None,
    limits: Mapping[str, int] | None = None,
    max_firings: int | None = None,
    cores: int | None = None,
    capacities: Mapping[str, int] | None = None,
    ready_core: str = "arrays",
    record_values: bool = False,
):
    """Run the discrete-event TPDF simulator and return its
    :class:`~repro.sim.Trace` — the analysis-level front door of
    :class:`repro.sim.Simulator`.

    This is the entry point for *functional* workloads: graphs whose
    kernels carry ``function``/``meta["time_fn"]`` hooks, control
    actors, clocks, or whose behaviour under a ``cores`` budget or
    channel ``capacities`` matters.  (For pure rate/timing questions
    :func:`analyze` is cheaper — its throughput stage runs the CSDF
    abstraction without the TPDF machinery.)

    ``ready_core`` defaults to ``"arrays"``, the schedule-plane /
    value-plane split: scheduling runs on flat counters over the
    memoized SoA template, token payloads are materialized only on
    channels with a value-touching endpoint, and kernels without a
    control port, function, time function or mode-rate table start and
    complete inline on the counters whatever else the graph holds.
    ``ready_core="reference"`` runs the legacy full-rescan loop, the
    differential oracle (:func:`simulate_reference` names it); both
    produce bit-identical traces (``Trace.fingerprint()``).

    At least one stop condition (``until``, ``limits`` or
    ``max_firings``) is required — a live unbounded graph would
    otherwise simulate forever.  A ``limits`` name that is no node of
    the graph, or ``cores`` below 1, raises ``ValueError`` before any
    firing; a missing binding raises ``KeyError``.
    """
    if not isinstance(graph, TPDFGraph):
        raise ValueError(
            "simulate() runs TPDF graphs; for plain CSDF use "
            "analyze() or repro.csdf.throughput.self_timed_execution()"
        )
    if until is None and limits is None and max_firings is None:
        raise ValueError(
            "simulate() needs a stop condition: until=, limits= or "
            "max_firings="
        )
    from .sim import Simulator

    sim = Simulator(
        graph, bindings, cores=cores, record_values=record_values,
        ready_core=ready_core, capacities=capacities,
    )
    sim.run(until=until, limits=limits,
            max_firings=max_firings if max_firings is not None else 1_000_000)
    return sim.trace


def simulate_reference(graph: TPDFGraph, bindings: Mapping | None = None,
                       **options):
    """:func:`simulate` on the legacy full-rescan loop, the differential
    oracle of its default core, called by name like
    :func:`~repro.csdf.throughput.self_timed_execution_reference`.
    The trace is bit-identical; run it only to cross-check (CLI
    ``simulate --check-reference``)."""
    return simulate(graph, bindings, ready_core="reference", **options)


class EditSession:
    """Edit/re-analyze helper for interactive and service traffic.

    Wraps one mutable :class:`~repro.csdf.graph.CSDFGraph` and chains
    every :meth:`analyze` call through ``analyze(reuse_from=...)``, so
    repeated analysis across small edits pays only for what each edit
    invalidated (and an unchanged resubmission is O(1)).  The edit
    helpers delegate to the graph's own mutators — the session adds no
    private state beyond the last report, so mixing direct graph edits
    with session edits is fine.

    Example::

        session = EditSession(graph)
        before = session.analyze()
        session.set_exec_time("worker", 7)      # binding-only edit
        after = session.analyze()               # warm re-analysis

    ``after`` is bit-for-bit what a cold analysis of the edited graph
    would produce (the incremental differential suite asserts exactly
    that on randomized edit scripts).
    """

    def __init__(self, graph: CSDFGraph, bindings: Mapping | None = None,
                 **options):
        if not isinstance(graph, CSDFGraph):
            raise TypeError(
                f"EditSession edits CSDF graphs; got {type(graph).__name__} "
                f"(TPDF graphs: edit kernels/ports directly and call analyze)"
            )
        self.graph = graph
        self.bindings = dict(bindings) if bindings else None
        self.options = dict(options)
        self.report: GraphReport | None = None

    # -- analysis --------------------------------------------------------
    def analyze(self, bindings: Mapping | None = None, **overrides) -> GraphReport:
        """Re-analyze the graph, reusing the previous report's warmth.

        ``bindings``/keyword overrides replace the session defaults for
        this call only; the resulting report becomes the new
        ``reuse_from`` anchor.
        """
        options = {**self.options, **overrides}
        self.report = analyze(
            self.graph,
            self.bindings if bindings is None else bindings,
            reuse_from=self.report,
            **options,
        )
        return self.report

    # -- pre-flight ------------------------------------------------------
    def preflight(self, edits: Iterable[Mapping],
                  bindings: Mapping | None = None) -> list:
        """Dry-run an edit script on a scratch copy of the graph.

        Replays every edit on a value-identical clone, then runs the
        static diagnostics engine on the result.  A script that cannot
        even apply raises its structural error immediately; a script
        whose end state carries ERROR-severity diagnostics raises
        :class:`~repro.errors.DiagnosticsError` — in both cases the
        session's real graph is untouched, so a fatal script fails
        *fast* instead of crashing (or corrupting the session) half-way
        through a replay.  Returns the full diagnostic list otherwise
        (warnings included, for display).
        """
        from .diagnostics import Severity, run_diagnostics

        scratch = self.graph.bind({})  # mutable value-identical clone
        scratch.name = self.graph.name
        probe = EditSession(scratch)
        for index, edit in enumerate(edits):
            try:
                probe.apply(edit)
            except KeyError as exc:
                raise GraphConstructionError(
                    f"edit {index} ({edit.get('op', '?')!r}) references an "
                    f"unknown actor/channel: {exc}"
                ) from exc
        findings = run_diagnostics(
            scratch, bindings=self.bindings if bindings is None else bindings
        )
        fatal = [d for d in findings if d.severity is Severity.ERROR]
        if fatal:
            summary = "; ".join(f"{d.code} {d.subject}" for d in fatal[:5])
            raise DiagnosticsError(
                f"edit script would leave {self.graph.name!r} statically "
                f"broken: {summary}",
                diagnostics=findings,
            )
        return findings

    # -- edits -----------------------------------------------------------
    def set_exec_time(self, actor: str, value) -> "EditSession":
        self.graph.actor(actor).set_exec_time(value)
        return self

    def set_production(self, channel: str, value) -> "EditSession":
        self.graph.channel(channel).production = value
        return self

    def set_consumption(self, channel: str, value) -> "EditSession":
        self.graph.channel(channel).consumption = value
        return self

    def set_initial_tokens(self, channel: str, value: int) -> "EditSession":
        self.graph.channel(channel).initial_tokens = value
        return self

    def add_actor(self, name: str, exec_time=1.0) -> "EditSession":
        self.graph.add_actor(name, exec_time=exec_time)
        return self

    def add_channel(self, name, src: str, dst: str, production=1,
                    consumption=1, initial_tokens: int = 0) -> "EditSession":
        self.graph.add_channel(name, src, dst, production=production,
                               consumption=consumption,
                               initial_tokens=initial_tokens)
        return self

    def remove_channel(self, name: str) -> "EditSession":
        self.graph.remove_channel(name)
        return self

    def remove_actor(self, name: str) -> "EditSession":
        self.graph.remove_actor(name)
        return self

    #: ``apply()`` dispatch: op name -> (method, required keys, optional keys).
    _OPS = {
        "set_exec_time": ("set_exec_time", ("actor", "value"), ()),
        "set_production": ("set_production", ("channel", "value"), ()),
        "set_consumption": ("set_consumption", ("channel", "value"), ()),
        "set_initial_tokens": ("set_initial_tokens", ("channel", "value"), ()),
        "add_actor": ("add_actor", ("name",), ("exec_time",)),
        "add_channel": ("add_channel", ("src", "dst"),
                        ("name", "production", "consumption", "initial_tokens")),
        "remove_channel": ("remove_channel", ("name",), ()),
        "remove_actor": ("remove_actor", ("name",), ()),
    }

    def apply(self, edit: Mapping) -> "EditSession":
        """Apply one declarative edit, e.g. from a JSON edit script:
        ``{"op": "set_exec_time", "actor": "worker", "value": 7}``.
        Used by the CLI's ``analyze --edits`` replay."""
        op = edit.get("op")
        spec = self._OPS.get(op)
        if spec is None:
            raise GraphConstructionError(
                f"unknown edit op {op!r}; expected one of {sorted(self._OPS)}"
            )
        method, required, optional = spec
        kwargs = {}
        for field_name in required:
            if field_name not in edit:
                raise GraphConstructionError(
                    f"edit op {op!r} is missing required field {field_name!r}"
                )
            kwargs[field_name] = edit[field_name]
        for field_name in optional:
            if field_name in edit:
                kwargs[field_name] = edit[field_name]
        extra = set(edit) - {"op", *required, *optional}
        if extra:
            raise GraphConstructionError(
                f"edit op {op!r} got unexpected fields {sorted(extra)}"
            )
        if op == "add_channel":
            kwargs.setdefault("name", None)
        getattr(self, method)(**kwargs)
        return self


def analyze_batch(items: Iterable[BatchItem], **options) -> list[GraphReport]:
    """Analyze many graphs (or (graph, bindings) pairs) in one call.

    Options are forwarded to :func:`analyze`.  Analyses of the same
    graph object under different bindings share every binding-independent
    intermediate (symbolic repetition vector, consistency verdict) and
    all binding-keyed caches (HSDF expansion, MCR, the SoA execution
    template the throughput stage and :func:`probe_capacities` clone
    their runs from) via the per-graph cache, which is what makes
    parameter sweeps cheap.  Consecutive items of the same graph object
    also pass the previous report as ``reuse_from``.  Reports come back
    in input order; a stage failure lands in that item's
    ``report.errors`` like it does for a direct :func:`analyze`.
    """
    reports = []
    prev_graph = None
    prev_report = None
    for item in items:
        if isinstance(item, tuple):
            graph, bindings = item
        else:
            graph, bindings = item, None
        reuse = prev_report if graph is prev_graph else None
        report = analyze(graph, bindings, reuse_from=reuse, **options)
        reports.append(report)
        prev_graph, prev_report = graph, report
    return reports
