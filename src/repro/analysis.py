"""``repro.analysis`` — the unified batch analysis front door.

One call runs the whole chain over a graph (or many graphs), every
intermediate shared through the per-graph caches of
:mod:`repro.cache`.  The chain is one table, ``_STAGES``, run by one
loop in :func:`analyze`; each stage has the ``analyze()`` switch that
enables it and a requirement:

* **consistency** and the symbolic repetition vector — always; a
  failure ends the chain (Theorem 2's first premise);
* **repetition** — the concrete vector, when ``bindings`` bind every
  parameter; a failure leaves the valuation non-concrete;
* **liveness** (``with_liveness``) — TPDF rate safety and cycle
  analysis, or for plain CSDF the same cycle-by-cycle check on integer
  local solutions (:func:`repro.csdf.schedule.is_live`), which needs a
  concrete valuation;
* **mcr**, **buffers** (``with_mcr``, ``with_buffers``) — Howard's
  MCR, which is also the exact self-timed period (``report.period``,
  its inverse ``report.throughput``), and the peaks of a
  buffer-minimizing iteration; they need a concrete valuation and a
  graph not found deadlocked;
* **throughput** (``with_throughput``, off by default) — under the
  same requirement, a timed self-timed execution of ``iterations``
  iterations (:func:`repro.csdf.throughput.self_timed_execution`)
  whose makespan, iteration ends and channel peaks land in
  ``report.timed``; no period or throughput reading depends on it;
* **parametric** — the parametric (symbolic) MCR over
  ``parametric_domain``, when one is given: instead of the throughput
  bound at one ``bindings`` point, a :class:`ParametricReport` holding
  it as a piecewise-symbolic function over a whole parameter box.

A disabled stage records nothing; an unmet requirement records its
reason in ``report.skipped``; a stage that raises records the message
in ``report.errors``.  ``report.bounded`` is drawn once, after the
loop, and only from a liveness stage that ran.  Used by the
``analyze`` CLI subcommand, the service and the scalability/Fig. 8
benches; to spread independent graphs over worker processes, send them
to the resident service (``repro serve``,
:meth:`repro.service.ServiceClient.batch`).

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

No executor runs unless the timed run is asked for:

>>> report.timed is None
True
>>> timed = analyze(g, with_throughput=True, iterations=3).timed
>>> timed.makespan, timed.iteration_ends
(7.0, [3.0, 5.0, 7.0])

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

import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Union

from .csdf.analysis import (concrete_repetition_vector, constant_repetition_vector,
                            repetition_vector)
from .csdf.buffers import minimal_buffer_schedule
from .csdf.graph import CSDFGraph
from .csdf.mcr import max_cycle_ratio
from .csdf.parametric import ParamDomain, parametric_mcr
from .csdf.schedule import is_live
from .csdf.throughput import TimedResult, self_timed_execution
from .errors import (DeadlockError, DiagnosticsError, GraphConstructionError,
                     ReproError, as_count)
from .symbolic import InconsistentRatesError
from .tpdf.boundedness import check_boundedness
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
    #: maximum cycle ratio — the exact self-timed steady period
    mcr: float | None = None
    #: per-channel buffer peaks of a buffer-minimizing iteration
    buffers: dict[str, int] | None = None
    #: timed self-timed execution (makespan, iteration ends, peaks);
    #: None unless ``analyze(with_throughput=True)`` ran it
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

    @property
    def total_buffer(self) -> int | None:
        return None if self.buffers is None else sum(self.buffers.values())

    @property
    def period(self) -> float | None:
        """The exact self-timed steady period: with unlimited cores and
        unbounded channels, as :func:`analyze` runs a graph, it is the
        MCR (Reiter).  The gap between a finite run's last two iteration
        ends (``timed.iteration_period``) can misread it."""
        return self.mcr

    @property
    def throughput(self) -> float | None:
        """Iterations per unit time in steady state (``inf`` at a zero
        period)."""
        if self.mcr is None:
            return None
        return 1.0 / self.mcr if self.mcr > 0 else float("inf")

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
        elif self.live is None and self.consistent:
            skipped = self.skipped.get("liveness")
            reasons.append(f"liveness not checked: {skipped}" if skipped
                           else "liveness not checked (disabled)")
        return reasons

    def fingerprint(self) -> tuple:
        """Deterministic value identity of the analysis outcome.

        Covers every analysis-result field and excludes the
        process-dependent ones: the graph *object* (service workers
        analyze a decoded copy), ``elapsed`` (wall clock) and the
        presentation-only ``diagnostics``.  The service and incremental
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
            lines.append(f"max cycle ratio (exact period): {self.mcr:.4f}")
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
    start = time.perf_counter()
    max_boxes = as_count("max_boxes", max_boxes)
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


def _lint_gate(graph: AnyGraph, bindings: Mapping | None,
               mode: str) -> list:
    """Run the diagnostics engine for ``analyze(lint=...)``: the
    findings, refused with ``mode="error"`` when any is an ERROR."""
    from .diagnostics import run_diagnostics

    findings = run_diagnostics(graph, bindings=bindings)
    if mode == "error":
        _refuse_errors(findings, f"graph {graph.name!r} fails static diagnostics")
    return findings


def _refuse_errors(findings: list, message: str) -> None:
    """Raise :class:`~repro.errors.DiagnosticsError` (carrying the full
    diagnostic list) when any finding has ERROR severity, naming the
    first five after ``message``."""
    from .diagnostics import Severity

    fatal = [d for d in findings if d.severity is Severity.ERROR]
    if fatal:
        summary = "; ".join(f"{d.code} {d.subject}" for d in fatal[:5])
        if len(fatal) > 5:
            summary += f" (+{len(fatal) - 5} more)"
        raise DiagnosticsError(f"{message}: {summary}", diagnostics=findings)


def analyze(
    graph: AnyGraph,
    bindings: Mapping | None = None,
    *,
    iterations: int = 4,
    with_liveness: bool = True,
    with_mcr: bool = True,
    with_buffers: bool = True,
    with_throughput: bool = False,
    parametric_domain=None,
    lint: str = "off",
) -> GraphReport:
    """Run the full analysis chain over one graph.

    Accepts TPDF and plain CSDF graphs.  Performance stages (MCR,
    buffers, the timed run) need a concrete valuation; on a parametric
    graph without (complete) ``bindings`` they are recorded as skipped
    instead of raising.  ``bounded`` is None when the liveness stage did
    not run (switched off, or a CSDF graph without a concrete
    valuation).  ``report.period`` and ``report.throughput`` read the
    MCR, so ``with_mcr`` controls them.  ``with_throughput`` (off by
    default) runs the timed self-timed execution behind
    ``report.timed``; ``iterations`` sizes that run and is validated
    (an int of at least 1) whether it runs or not.

    The analyses behind the stages are memoized on the graph
    (:mod:`repro.cache`), so re-analyzing an unchanged graph (or
    analyzing per-stage elsewhere) solves nothing again; only a
    requested timed run executes anew, from the graph's cached
    execution template.  The caches are delta-aware: they carry
    binding-insensitive products across execution-time edits and
    re-solve only the cyclic cores an edit touched (see
    :mod:`repro.cache` and :mod:`repro.csdf.mcr`).
    Warm results are bit-for-bit identical to cold analysis
    (``fingerprint()``), and the report holds copies, never the
    memoized values themselves.  See :class:`EditSession` for edit
    traffic.

    With ``parametric_domain`` (a parameter box, see
    :func:`analyze_parametric`) the report additionally carries the
    **parametric MCR** — the throughput bound as a piecewise-symbolic
    function over the whole domain, replacing a per-binding sweep.

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
    iterations = as_count("iterations", iterations, minimum=1)
    domain = (None if parametric_domain is None
              else ParamDomain.of(parametric_domain))
    lint_findings: tuple = ()
    if lint != "off":
        lint_findings = tuple(_lint_gate(graph, bindings, lint))
    report = GraphReport(
        graph=graph, name=graph.name, bindings=dict(bindings or {}),
        diagnostics=lint_findings,
    )
    csdf = _csdf_view(graph)
    run = _Run(graph, csdf, bindings, iterations, domain, report,
               sorted(csdf.parameters() - set(bindings or {})))
    enabled = {"with_liveness": with_liveness, "with_mcr": with_mcr,
               "with_buffers": with_buffers, "with_throughput": with_throughput}
    for name, switch, requires, stage in _STAGES:
        if switch is not None and not enabled[switch]:
            continue  # a disabled stage records nothing
        reason = requires(run)
        if reason is None:
            try:
                for field_name, value in stage(run).items():
                    setattr(report, field_name, value)
            except _STAGE_ERRORS as exc:
                report.errors[name] = str(exc)
        elif reason:
            report.skipped[name] = reason
        if not report.consistent:
            break  # Theorem 2's first premise failed: no later stage applies
    report.bounded = _verdict(report)
    report.elapsed = time.perf_counter() - start
    return report


class _Run(NamedTuple):
    """What the stages of one :func:`analyze` call read."""

    graph: AnyGraph
    csdf: CSDFGraph
    bindings: Mapping | None
    iterations: int
    domain: ParamDomain | None
    report: GraphReport
    unbound: list


# A requirement returns None when its stage can run, else the reason it
# is skipped ("" when there is nothing to do: not recorded).  A stage
# returns the report fields it established, calling its analysis
# through this module's globals (a tracer may have wrapped them).  The
# analyses memoize per graph version, so a stage hands the report a
# copy of any mutable value: a caller that edits its report cannot
# reach the cache.

def _checkable(run: _Run) -> str | None:
    """TPDF liveness needs consistency only; CSDF liveness runs each
    cycle at the concrete valuation."""
    if isinstance(run.graph, TPDFGraph) or run.report.repetition is not None:
        return None
    return "parametric CSDF graph: pass bindings"


def _concrete_and_live(run: _Run) -> str | None:
    if run.report.repetition is None:
        if run.unbound:
            return f"parametric (unbound: {', '.join(run.unbound)})"
        return "repetition vector not concrete"
    return "graph deadlocks" if run.report.live is False else None


def _consistency(run: _Run) -> dict:
    # A constant-rate graph's q stays an int vector (its str is its
    # Poly's); interned, the few distinct counts of a graph family are
    # shared by every report that keeps them.
    q = constant_repetition_vector(run.csdf)
    if q is None:
        q = repetition_vector(run.csdf)
    return {"consistent": True, "repetition_symbolic": {
        name: sys.intern(str(count)) for name, count in q.items()}}


def _liveness(run: _Run) -> dict:
    if isinstance(run.graph, TPDFGraph):
        # The full Theorem 2 chain (consistency is a cache hit).
        verdict = check_boundedness(run.graph)
        return {"safe": verdict.safety.safe, "live": verdict.liveness.live}
    return {"live": is_live(run.csdf, run.bindings)}


#: The analysis chain, in order: (stage, the analyze() switch that
#: enables it, its requirement, its run function).  A failed repetition
#: stage leaves the valuation non-concrete, which skips the stages after
#: it.
_STAGES: tuple = (
    ("consistency", None, lambda run: None, _consistency),
    ("repetition", None, lambda run: "" if run.unbound else None,
     lambda run: {"repetition": dict(concrete_repetition_vector(
         run.csdf, run.bindings))}),
    ("liveness", "with_liveness", _checkable, _liveness),
    ("mcr", "with_mcr", _concrete_and_live,
     lambda run: {"mcr": max_cycle_ratio(run.csdf, run.bindings)}),
    ("buffers", "with_buffers", _concrete_and_live,
     lambda run: {"buffers": dict(minimal_buffer_schedule(run.csdf,
                                                          run.bindings)[1])}),
    ("throughput", "with_throughput", _concrete_and_live,
     lambda run: {"timed": self_timed_execution(
         run.csdf, run.bindings, iterations=run.iterations)}),
    ("parametric", None, lambda run: None if run.domain is not None else "",
     lambda run: {"parametric": analyze_parametric(run.graph, run.domain)}),
)

#: The analyze() keywords that switch stages on and off.
STAGE_SWITCHES = tuple(switch for _, switch, _, _ in _STAGES if switch)


def _verdict(report: GraphReport) -> bool | None:
    """Theorem 2's conclusion, drawn only from a liveness stage that
    ran: bounded when it found the graph live (and, for TPDF, rate
    safe), not when it found a deadlock or a safety violation or
    raised, undecided (None) when it did not run."""
    if "liveness" in report.errors:
        return False
    if report.live is None:
        return None
    return report.live and report.safe is not False


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
    through their CSDF abstraction, the view :func:`analyze` reads its
    period from and runs when ``with_throughput=True`` asks for the
    timed run.
    """
    iterations = as_count("iterations", iterations, minimum=1)
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
    :func:`analyze` is cheaper — it reads the exact period off the CSDF
    abstraction's MCR and runs no executor unless
    ``with_throughput=True`` asks for the timed run.)

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

    Wraps one mutable :class:`~repro.csdf.graph.CSDFGraph`; every
    :meth:`analyze` call is one :func:`analyze` of it, which through the
    per-graph caches pays only for what each edit invalidated (for an
    unchanged resubmission nothing, or only the timed run when the
    options ask for it with ``with_throughput=True``).  The edit helpers
    delegate to the graph's own mutators — the session keeps no private
    state beyond its bindings and options, so mixing direct graph edits
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

    # -- analysis --------------------------------------------------------
    def analyze(self, bindings: Mapping | None = None, **overrides) -> GraphReport:
        """Re-analyze the graph from its warm caches.

        ``bindings``/keyword overrides replace the session defaults for
        this call only.
        """
        return analyze(self.graph,
                       self.bindings if bindings is None else bindings,
                       **{**self.options, **overrides})

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
        from .diagnostics import run_diagnostics

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
        _refuse_errors(findings, f"edit script would leave "
                                 f"{self.graph.name!r} statically broken")
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
    all binding-keyed caches (HSDF expansion, MCR, and the SoA execution
    template that a requested timed run, ``with_throughput=True``, and
    :func:`probe_capacities` clone their runs from) via the per-graph
    cache, which is what makes parameter sweeps cheap.  ``iterations``
    is validated on every item and read only by the timed run.  Reports
    come back in input order; a stage failure lands in that item's
    ``report.errors`` like it does for a direct :func:`analyze`.
    """
    reports = []
    for item in items:
        graph, bindings = item if isinstance(item, tuple) else (item, None)
        reports.append(analyze(graph, bindings, **options))
    return reports
