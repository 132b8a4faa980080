"""Command-line interface: ``python -m repro <command> <graph.json>``.

Commands operate on graphs serialized by :mod:`repro.io`:

``analyze``
    run the full static chain (consistency, rate safety, liveness,
    boundedness) and print the verdicts and repetition vector; with
    ``--symbolic``/``--param p=1..8`` additionally the **parametric
    MCR**: the throughput bound as a piecewise-symbolic function over
    the parameter box (one computation instead of a per-``--bind``
    sweep); with ``--edits script.json`` replay a JSON edit script
    against one CSDF graph through an incremental
    :class:`~repro.analysis.EditSession` (``--verify-cold``
    cross-checks every warm step against a cold re-analysis);
``lint``
    print structural warnings (exit status 1 if any);
``dot``
    print a Graphviz rendering;
``schedule``
    build the canonical period (with ``--bind p=2`` parameter values)
    and list-schedule it onto ``--cores N`` processing elements;
``buffers``
    print per-channel buffer bounds (symbolic when possible, concrete
    under ``--bind``); ``--search`` instead prints the smallest
    capacities that keep the unconstrained MCR, each candidate judged
    exactly;
``simulate``
    run the discrete-event TPDF simulator (control tokens, clocks,
    data-dependent durations) on the schedule-plane / value-plane
    core and print a trace summary; ``--check-reference`` cross-checks
    the trace fingerprint against the legacy reference loop;
``serve``
    run the resident analysis service (:mod:`repro.service`): a
    persistent worker pool behind an asyncio HTTP front door with a
    fingerprint-keyed result cache (``--workers``, ``--cache-size``,
    ``--max-attempts``; ``--smoke`` starts, self-checks against a
    built-in graph, and exits).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _load(path: str):
    from .io import graph_from_payload

    return graph_from_payload(json.loads(Path(path).read_text()))


def _parse_bindings(pairs: list[str]) -> dict[str, int]:
    bindings: dict[str, int] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--bind expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        bindings[name.strip()] = int(value)
    return bindings


def _parse_capacities(pairs: list[str]) -> dict[str, int]:
    capacities: dict[str, int] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        try:
            capacities[name.strip()] = int(value)
        except ValueError:
            raise SystemExit(f"--cap expects channel=tokens, got {pair!r}")
    return capacities


def _as_tpdf(graph):
    """Wrap a bare CSDF graph for ``simulate``, which runs TPDF only."""
    from .csdf.graph import CSDFGraph
    from .tpdf.graph import TPDFGraph

    if not isinstance(graph, CSDFGraph):
        return graph
    wrapped = TPDFGraph(graph.name)
    for actor in graph.actors.values():
        kernel = wrapped.add_kernel(actor.name, exec_time=actor.exec_times)
    for index, channel in enumerate(graph.channels.values()):
        src = wrapped.node(channel.src)
        dst = wrapped.node(channel.dst)
        src.add_output(f"o_{index}", channel.production)
        dst.add_input(f"i_{index}", channel.consumption)
        wrapped.connect(
            (channel.src, f"o_{index}"), (channel.dst, f"i_{index}"),
            name=channel.name, initial_tokens=channel.initial_tokens,
        )
    return wrapped


def _run_edit_replay(args, bindings, domain) -> int:
    """``analyze --edits``: replay a JSON edit script incrementally.

    Analyzes the baseline, then applies each edit through an
    :class:`~repro.analysis.EditSession` and re-analyzes warm, printing
    one verdict line per step.  With ``--verify-cold`` every warm
    report is compared bit-for-bit (``GraphReport.fingerprint``)
    against a cold analysis of a serialization round-trip clone; any
    divergence exits 1.
    """
    from .analysis import EditSession, analyze
    from .csdf.graph import CSDFGraph
    from .errors import ReproError
    from .io import csdf_from_dict, csdf_to_dict

    if len(args.graphs) != 1:
        raise SystemExit("--edits replays an edit script on exactly one graph")
    graph = _load(args.graphs[0])
    if not isinstance(graph, CSDFGraph):
        raise SystemExit(
            "--edits requires a csdf-model graph (EditSession edits CSDF "
            "actors/channels; re-run without --edits for TPDF graphs)"
        )
    script = json.loads(Path(args.edits).read_text())
    if not isinstance(script, list):
        raise SystemExit(
            f"edit script {args.edits} must be a JSON array of edit objects"
        )
    options = dict(parametric_domain=domain)
    session = EditSession(graph, bindings, **options)
    if args.preflight:
        # Fatal scripts fail fast on a scratch copy, before the replay
        # touches the session graph.
        from .errors import DiagnosticsError

        try:
            findings = session.preflight(script)
        except DiagnosticsError as exc:
            for diagnostic in exc.diagnostics:
                print(diagnostic, file=sys.stderr)
            raise SystemExit(f"preflight: {exc}")
        label = (f"{len(findings)} warning(s)" if findings else "clean")
        print(f"[preflight] {label}")
    exit_code = 0

    def step(label: str) -> None:
        nonlocal exit_code
        report = session.analyze()
        mcr = "-" if report.mcr is None else f"{report.mcr:.4f}"
        thr = "-" if report.throughput is None else f"{report.throughput:.4f}"
        verdict = "bounded" if report.bounded else "NOT bounded"
        line = (f"[{label}] {verdict}  mcr={mcr}  throughput={thr}  "
                f"elapsed={report.elapsed * 1e3:.1f}ms")
        if not report.bounded:
            exit_code = 1
        if args.verify_cold:
            # Cold oracle: a fresh clone (no caches, no shared version
            # state) analyzed from scratch must agree bit-for-bit.
            clone = csdf_from_dict(csdf_to_dict(graph))
            cold = analyze(clone, session.bindings, **options)
            if cold.fingerprint() == report.fingerprint():
                line += "  verify-cold: ok"
            else:
                line += "  verify-cold: DIVERGED"
                exit_code = 1
        print(line)

    step("baseline")
    for index, edit in enumerate(script):
        try:
            session.apply(edit)
        except KeyError as exc:
            raise SystemExit(f"edit {index}: unknown actor/channel {exc}")
        except ReproError as exc:
            raise SystemExit(f"edit {index}: {exc}")
        op = edit.get("op", "?")
        target = edit.get("actor") or edit.get("channel") or edit.get("name") or ""
        step(f"edit {index}: {op} {target}".rstrip())
    return exit_code


def cmd_analyze(args) -> int:
    """Full batch analysis chain over one or more graphs.

    Static verdicts always run; the performance stages (the MCR, which
    is the exact self-timed period, and buffer sizing) run whenever the
    graph is concrete under ``--bind``.  No executor runs: ``throughput``
    prints timed runs.  Exit status 1 if any graph is not provably
    bounded.
    """
    from .analysis import analyze_batch

    bindings = _parse_bindings(args.bind) or None
    domain = None
    if args.symbolic or args.param:
        from .csdf.parametric import ParamDomain

        domain = ParamDomain.parse(args.param)
    if args.verify_cold and not args.edits:
        raise SystemExit("--verify-cold only applies to an --edits replay")
    if args.preflight and not args.edits:
        raise SystemExit("--preflight only applies to an --edits replay")
    if args.edits:
        return _run_edit_replay(args, bindings, domain)
    graphs = [_load(path) for path in args.graphs]
    exit_code = 0
    reports = analyze_batch(
        ((g, bindings) for g in graphs),
        parametric_domain=domain,
    )
    for index, report in enumerate(reports):
        if index:
            print()
        print(report.summary())
        if not report.bounded:
            exit_code = 1
    return exit_code


def cmd_lint(args) -> int:
    """Static diagnostics over a TPDF *or* CSDF graph.

    Exit status contract: always 0 unless ``--strict`` is given, in
    which case the exit is 1 exactly when ERROR-severity diagnostics
    are present (warnings never fail the build).  ``--codes`` prints
    the code catalog and needs no graph.
    """
    from .diagnostics import (Severity, catalog_lines, has_errors,
                              run_diagnostics)

    if args.codes:
        for line in catalog_lines():
            print(line)
        return 0
    if not args.graph:
        raise SystemExit("lint needs a graph file (or --codes)")
    graph = _load(args.graph)
    bindings = _parse_bindings(args.bind) or None
    diagnostics = run_diagnostics(graph, bindings=bindings)
    if args.format == "json":
        print(json.dumps([d.to_dict() for d in diagnostics], indent=2))
    else:
        for diagnostic in diagnostics:
            print(diagnostic)
        if not diagnostics:
            print("clean")
        else:
            errors = sum(d.severity is Severity.ERROR for d in diagnostics)
            print(f"{len(diagnostics)} finding(s), {errors} error(s)")
    if args.strict and has_errors(diagnostics):
        return 1
    return 0


def cmd_dot(args) -> int:
    from .csdf.graph import CSDFGraph
    from .util.dot import csdf_to_dot, tpdf_to_dot

    graph = _load(args.graph)
    if isinstance(graph, CSDFGraph):
        print(csdf_to_dot(graph))
    else:
        print(tpdf_to_dot(graph))
    return 0


def cmd_schedule(args) -> int:
    from .platform import single_cluster
    from .scheduling import build_canonical_period, list_schedule

    graph = _load(args.graph)
    bindings = _parse_bindings(args.bind)
    period = build_canonical_period(graph, bindings or None,
                                    unfolding=args.unfolding)
    mapping = list_schedule(period, single_cluster(args.cores))
    print(f"occurrences: {period.dag.number_of_nodes()}")
    print(f"critical path: {period.critical_path_length()}")
    print(f"makespan on {args.cores} cores: {mapping.makespan}")
    print(mapping.gantt())
    return 0


def cmd_buffers(args) -> int:
    from .csdf.graph import CSDFGraph
    from .csdf.buffers import minimal_buffer_schedule
    from .csdf.symbuf import symbolic_channel_bounds, symbolic_total_bound

    graph = _load(args.graph)
    csdf = graph if isinstance(graph, CSDFGraph) else graph.as_csdf()
    bindings = _parse_bindings(args.bind)
    if args.search:
        from .csdf.throughput import min_buffers_for_full_throughput

        stats: dict = {}
        capacities = min_buffers_for_full_throughput(
            csdf, bindings or None, stats=stats,
        )
        for name in sorted(capacities):
            print(f"  {name}: {capacities[name]}")
        print(f"total: {sum(capacities.values())}")
        print(f"verdicts: {stats['probes']}")
        return 0
    if bindings:
        _, peaks = minimal_buffer_schedule(csdf, bindings)
        for name, peak in peaks.items():
            print(f"  {name}: {peak}")
        print(f"total: {sum(peaks.values())}")
    else:
        bounds = symbolic_channel_bounds(csdf)
        for name, bound in bounds.items():
            print(f"  {name}: {bound}")
        print(f"total: {symbolic_total_bound(csdf)}")
    return 0


def cmd_throughput(args) -> int:
    from .csdf.graph import CSDFGraph
    from .csdf.mcr import _CapacityEventGraph, max_cycle_ratio
    from .csdf.throughput import (
        self_timed_execution,
        self_timed_execution_reference,
    )
    from .errors import DeadlockError

    graph = _load(args.graph)
    csdf = graph if isinstance(graph, CSDFGraph) else graph.as_csdf()
    bindings = _parse_bindings(args.bind)
    capacities = _parse_capacities(args.cap) or None
    if args.probe_caps:
        return _run_probe_caps(args, csdf, bindings or None)
    mcr = max_cycle_ratio(csdf, bindings or None)
    stats: dict = {}
    try:
        result = self_timed_execution(
            csdf, bindings or None, iterations=args.iterations, stats=stats,
            capacities=capacities,
        )
    except DeadlockError as exc:
        print(f"deadlock under --cap bounds: {exc}")
        if exc.blocked:
            print(f"blocked actors: {', '.join(exc.blocked)}")
        return 1
    # The exact period under the capacities: the last iterations of a
    # finite run misread a steady state that repeats over several.
    period = float(_CapacityEventGraph(csdf, bindings or None).period(capacities or {}))
    throughput = 1.0 / period if period > 0 else float("inf")
    print(f"max cycle ratio (period bound): {mcr:.4f}")
    print(f"self-timed steady period:       {period:.4f}")
    print(f"throughput:                     {throughput:.4f} iterations/time")
    print(f"makespan ({args.iterations} iterations):      {result.makespan:.4f}")
    if args.reference_loop:
        # Cross-check the dependency-driven event core against the
        # retained full-scan reference loop (the differential oracle).
        ref_stats: dict = {}
        reference = self_timed_execution_reference(
            csdf, bindings or None, iterations=args.iterations,
            stats=ref_stats, capacities=capacities,
        )
        same = (
            reference.makespan == result.makespan
            and reference.iteration_ends == result.iteration_ends
            and reference.peaks == result.peaks
            and reference.firings == result.firings
        )
        print(f"reference loop parity:          "
              f"{'identical' if same else 'DIVERGED'}")
        print(f"ready-check actor visits:       {stats['ready_visits']} "
              f"(reference: {ref_stats['ready_visits']})")
        if not same:
            return 1
    return 0


def _run_probe_caps(args, csdf, bindings) -> int:
    """``throughput --probe-caps FILE``: evaluate many capacity vectors
    through :func:`repro.analysis.probe_capacities`.  The file is a
    JSON array of ``{channel: tokens}`` objects; one verdict line is
    printed per vector: the exact steady period under it (one capacity
    event graph per call) and the run's makespan, or the deadlock's
    blocked set."""
    from .analysis import probe_capacities
    from .csdf.mcr import _CapacityEventGraph
    from .errors import DeadlockError

    vectors = json.loads(Path(args.probe_caps).read_text())
    if not isinstance(vectors, list) or not all(
        isinstance(v, dict) for v in vectors
    ):
        raise SystemExit(
            f"--probe-caps file {args.probe_caps} must be a JSON array of "
            f"{{channel: tokens}} objects"
        )
    outcomes = probe_capacities(
        csdf, vectors, bindings, iterations=args.iterations,
    )
    exit_code = 0
    events = None
    for index, (capacities, outcome) in enumerate(zip(vectors, outcomes)):
        if isinstance(outcome, DeadlockError):
            exit_code = 1
            blocked = ", ".join(outcome.blocked) or "-"
            print(f"[{index}] deadlock (blocked: {blocked})")
        else:
            events = events or _CapacityEventGraph(csdf, bindings)
            print(f"[{index}] period={float(events.period(capacities)):.4f} "
                  f"makespan={outcome.makespan:.4f}")
    return exit_code


def cmd_simulate(args) -> int:
    """``simulate``: run the discrete-event TPDF simulator and print a
    trace summary.

    Executes :func:`repro.analysis.simulate` on the schedule-plane /
    value-plane core; with ``--check-reference`` the run is repeated on
    the legacy reference loop and the trace fingerprints compared
    bit-for-bit (exit 1 on divergence).
    """
    from .analysis import simulate, simulate_reference
    from .errors import DeadlockError

    graph = _as_tpdf(_load(args.graph))
    bindings = _parse_bindings(args.bind) or None
    capacities = _parse_capacities(args.cap) or None
    limits = None
    if args.limit:
        limits = {}
        for pair in args.limit:
            name, _, value = pair.partition("=")
            try:
                limits[name.strip()] = int(value)
            except ValueError:
                raise SystemExit(f"--limit expects node=firings, got {pair!r}")
    if args.until is None and limits is None and args.max_firings is None:
        raise SystemExit(
            "simulate needs a stop condition: --until, --limit or "
            "--max-firings"
        )
    options = dict(bindings=bindings, until=args.until, limits=limits,
                   max_firings=args.max_firings, cores=args.cores,
                   capacities=capacities)
    try:
        trace = simulate(graph, **options)
    except DeadlockError as exc:
        print(f"deadlock: {exc}")
        if exc.blocked:
            print(f"blocked actors: {', '.join(exc.blocked)}")
        return 1
    print(f"firings:      {len(trace.firings)}")
    print(f"end time:     {trace.end_time():.4f}")
    print(f"discards:     {trace.discarded_tokens()} tokens "
          f"({len(trace.discards)} records)")
    print(f"buffer peaks: total {trace.total_buffer()}")
    for name in sorted(trace.peaks):
        print(f"  {name}: {trace.peaks[name]}")
    exit_code = 0
    if args.check_reference:
        reference = simulate_reference(graph, **options)
        same = trace.fingerprint() == reference.fingerprint()
        print(f"reference parity: {'identical' if same else 'DIVERGED'}")
        if not same:
            exit_code = 1
    if args.gantt:
        print(trace.gantt())
    return exit_code


def cmd_serve(args) -> int:
    """``serve``: run the resident analysis service until interrupted.

    With ``--smoke`` the service starts on an ephemeral port, analyzes
    a built-in gallery graph through a real HTTP round trip, verifies
    the result against a direct in-process analysis (bit-for-bit
    fingerprints) and exits — a deployment self-check.
    """
    from .service import ServiceClient, serve_in_thread

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.smoke:
        from .analysis import analyze
        from .gallery import fig1_graph

        graph = fig1_graph()
        direct = analyze(graph)
        with serve_in_thread(host=args.host, port=args.port or 0,
                             workers=args.workers,
                             cache_limit=args.cache_size,
                             max_attempts=args.max_attempts) as handle:
            client = ServiceClient(handle.url)
            served = client.analyze(graph)
            health = client.health()
        if served.fingerprint() != direct.fingerprint():
            print("smoke: FAILED (served report diverged from direct analysis)")
            return 1
        alive = sum(1 for w in health["workers"] if w["alive"])
        print(f"smoke: ok ({alive}/{args.workers} workers, "
              f"mcr={served.mcr:.4f})")
        return 0

    import asyncio

    from .service import AnalysisService

    async def run() -> None:
        service = AnalysisService(workers=args.workers,
                                  cache_limit=args.cache_size,
                                  max_attempts=args.max_attempts)
        await service.start(args.host, args.port)
        print(f"repro analysis service listening on {service.url} "
              f"({args.workers} workers)")
        try:
            await asyncio.Event().wait()
        finally:
            await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TPDF reproduction toolchain (DATE 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze",
        help="full analysis chain (static + performance) over one or more graphs",
    )
    p_analyze.add_argument("graphs", nargs="+", metavar="graph")
    p_analyze.add_argument("--bind", action="append", default=[],
                           metavar="NAME=VALUE")
    p_analyze.add_argument("--symbolic", action="store_true",
                           help="compute the parametric (symbolic) MCR: the "
                                "throughput bound as a piecewise function over "
                                "the --param domain instead of one --bind point")
    p_analyze.add_argument("--param", action="append", default=[],
                           metavar="NAME=LO..HI",
                           help="parameter range for --symbolic (repeatable, "
                                "e.g. --param p=1..8; NAME=V pins a value); "
                                "implies --symbolic")
    p_analyze.add_argument("--edits", metavar="FILE",
                           help="JSON edit script (array of "
                                '{"op": ..., ...} objects) replayed '
                                "incrementally against a single CSDF graph; "
                                "prints one warm re-analysis verdict per step")
    p_analyze.add_argument("--preflight", action="store_true",
                           help="with --edits: dry-run the script on a "
                                "scratch copy first and abort (with "
                                "diagnostics) before replaying a script "
                                "that ends in a statically-broken state")
    p_analyze.add_argument("--verify-cold", action="store_true",
                           help="with --edits: cross-check every warm report "
                                "against a cold analysis of a round-trip "
                                "clone (bit-for-bit fingerprints; exit 1 on "
                                "divergence)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_lint = sub.add_parser(
        "lint",
        help="static diagnostics (rates, deadlocks, control contracts, "
             "bindings, structure) over a TPDF or CSDF graph",
    )
    p_lint.add_argument("graph", nargs="?", default=None)
    p_lint.add_argument("--bind", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="parameter bindings checked by the binding "
                             "passes (BIND003 unhashable values...)")
    p_lint.add_argument("--format", choices=("text", "json"), default="text",
                        help="text prints one line per finding; json prints "
                             "the structured diagnostic records")
    p_lint.add_argument("--strict", action="store_true",
                        help="exit 1 when ERROR-severity diagnostics are "
                             "present (default exit is always 0)")
    p_lint.add_argument("--codes", action="store_true",
                        help="print the diagnostic code catalog and exit "
                             "(no graph needed)")
    p_lint.set_defaults(func=cmd_lint)

    p_dot = sub.add_parser("dot", help="Graphviz rendering")
    p_dot.add_argument("graph")
    p_dot.set_defaults(func=cmd_dot)

    p_sched = sub.add_parser("schedule", help="canonical period + mapping")
    p_sched.add_argument("graph")
    p_sched.add_argument("--cores", type=int, default=4)
    p_sched.add_argument("--unfolding", type=int, default=1)
    p_sched.add_argument("--bind", action="append", default=[],
                         metavar="NAME=VALUE")
    p_sched.set_defaults(func=cmd_schedule)

    p_buf = sub.add_parser("buffers", help="buffer bounds")
    p_buf.add_argument("graph")
    p_buf.add_argument("--bind", action="append", default=[],
                       metavar="NAME=VALUE")
    p_buf.add_argument("--search", action="store_true",
                       help="search the minimal per-channel capacities "
                            "preserving full throughput (each candidate "
                            "judged exactly on the capacity-bounded "
                            "event graph)")
    p_buf.set_defaults(func=cmd_buffers)

    p_thr = sub.add_parser("throughput", help="MCR + self-timed period")
    p_thr.add_argument("graph")
    p_thr.add_argument("--iterations", type=int, default=5)
    p_thr.add_argument("--reference-loop", action="store_true",
                       help="cross-check the run against the legacy "
                            "full-scan loop (the differential oracle) and "
                            "report ready-check visit counts")
    p_thr.add_argument("--bind", action="append", default=[],
                       metavar="NAME=VALUE")
    p_thr.add_argument("--cap", action="append", default=[],
                       metavar="CHANNEL=TOKENS",
                       help="bound a channel's buffer (repeatable); unknown "
                            "channel names are rejected, deadlocks under the "
                            "bounds exit 1 with the blocked actors")
    p_thr.add_argument("--probe-caps", metavar="FILE",
                       help="JSON array of {channel: tokens} capacity "
                            "vectors, each executed on the default core "
                            "(one verdict line per vector)")
    p_thr.set_defaults(func=cmd_throughput)

    p_sim = sub.add_parser(
        "simulate",
        help="discrete-event TPDF simulation (schedule/value planes)",
    )
    p_sim.add_argument("graph")
    p_sim.add_argument("--bind", action="append", default=[],
                       metavar="NAME=VALUE")
    p_sim.add_argument("--cap", action="append", default=[],
                       metavar="CHANNEL=TOKENS",
                       help="bound a channel's buffer (repeatable)")
    p_sim.add_argument("--cores", type=int, default=None,
                       help="concurrent-firing budget (default: unbounded)")
    p_sim.add_argument("--limit", action="append", default=[],
                       metavar="NODE=FIRINGS",
                       help="cap a node's firing count (repeatable)")
    p_sim.add_argument("--until", type=float, default=None,
                       help="time horizon")
    p_sim.add_argument("--max-firings", type=int, default=None,
                       help="global firing budget")
    p_sim.add_argument("--check-reference", action="store_true",
                       help="re-run on the legacy reference loop and compare "
                            "trace fingerprints bit-for-bit (exit 1 on "
                            "divergence)")
    p_sim.add_argument("--gantt", action="store_true",
                       help="print an ASCII timeline of the trace")
    p_sim.set_defaults(func=cmd_simulate)

    p_serve = sub.add_parser(
        "serve",
        help="run the resident analysis service (HTTP, persistent workers)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument("--workers", type=int, default=2,
                         help="persistent analysis worker processes")
    p_serve.add_argument("--cache-size", type=int, default=256,
                         help="result-cache entries (LRU bound)")
    p_serve.add_argument("--max-attempts", type=int, default=3,
                         help="executions tried per request before a "
                              "worker-crash error (503)")
    p_serve.add_argument("--smoke", action="store_true",
                         help="start on an ephemeral port, self-check one "
                              "analysis over HTTP against a direct run, exit")
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the CLI's one error boundary.

    What the library raises for a bad input — a typed analysis error,
    inconsistent rates, a rejected value, or the ``KeyError`` of a
    parameter left unbound — exits 1 with one stderr line instead of a
    traceback.  Deadlocks a command can explain (blocked actors) are
    handled by the command itself.
    """
    from .errors import ReproError
    from .symbolic import InconsistentRatesError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        name = exc.args[0]
        raise SystemExit(
            f"unbound parameter {name!r}: pass --bind {name}=VALUE"
        )
    except (ReproError, InconsistentRatesError, ValueError) as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":
    sys.exit(main())
