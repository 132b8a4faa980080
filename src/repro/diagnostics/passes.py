"""The diagnostics passes and their front door, :func:`run_diagnostics`.

Every pass consumes the pure :class:`~repro.diagnostics.view.GraphView`
(or, for TPDF-only contracts, the graph's public read accessors) and
emits :class:`~repro.diagnostics.core.Diagnostic` records with codes
from the :data:`~repro.diagnostics.core.CATALOG`.

Purity contract (enforced by tests/diagnostics/test_purity.py): running
the engine never mutates the graph, never bumps its analysis version
and never populates its memoized analysis caches.  The rate passes
therefore call the symbolic solver directly instead of the ``cached``
wrappers in :mod:`repro.csdf.analysis`.

Soundness contract (enforced by tests/diagnostics/test_soundness.py):
an ERROR is only emitted when the runtime provably fails — see the
per-code notes in :mod:`repro.diagnostics.core`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from ..csdf.digraph import adjacency, nontrivial_components, reachable
from ..symbolic import InconsistentRatesError, solve_balance
from ..symbolic.linsolve import consistency_conditions
from .core import CATALOG, Diagnostic, Severity, sort_diagnostics
from .view import ChannelView, GraphView

#: Mode-restriction enumeration bound (mirrors modecheck's cap).
_MODE_CASE_LIMIT = 16


def _diag(code: str, subject: str, message: str,
          hint: str | None = None) -> Diagnostic:
    return Diagnostic(code, CATALOG[code].severity, subject, message, hint)


def run_diagnostics(graph: Any, bindings: Mapping | None = None,
                    capacities: Mapping | None = None) -> list[Diagnostic]:
    """Run every diagnostics pass over ``graph``.

    ``bindings`` enables the binding-value checks (BIND003);
    ``capacities`` enables the capacity-fit check (DEAD001).  Both are
    optional — the structural passes always run.  Accepts TPDF and
    plain CSDF graphs; returns diagnostics in deterministic order
    (severity, code, subject).
    """
    view = GraphView(graph)
    out: list[Diagnostic] = []
    strangled = _strangled_channels(view)
    out.extend(_pass_rates(view, strangled))
    out.extend(_pass_deadlock(view, strangled, capacities))
    out.extend(_pass_structural(view))
    out.extend(_pass_control(view))
    out.extend(_pass_bindings(view, bindings))
    return sort_diagnostics(out)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


# ---------------------------------------------------------------------------
# Rate consistency (RATE001 / RATE002) + strangled ports (DEAD003)
# ---------------------------------------------------------------------------

def _strangled_channels(view: GraphView) -> list[Diagnostic]:
    """DEAD003: channels where exactly one side's whole-cycle total is
    identically zero.  Zero production into positive consumption
    starves the consumer forever; positive production into zero
    consumption floods the channel — either way the balance system
    collapses to the trivial solution, so the runtime provably fails
    (``analyze`` reports ``consistent=False``)."""
    out = []
    for channel in view.channels:
        produced_zero = channel.production.cycle_total().is_zero()
        consumed_zero = channel.consumption.cycle_total().is_zero()
        if produced_zero == consumed_zero:
            continue  # both moving or both vacuous
        if produced_zero:
            message = (
                f"production on {channel.src_label} is identically zero but "
                f"{channel.dst_label} consumes "
                f"{channel.consumption.cycle_total()} per cycle: the "
                f"consumer starves forever"
            )
        else:
            message = (
                f"{channel.src_label} produces "
                f"{channel.production.cycle_total()} per cycle but "
                f"consumption on {channel.dst_label} is identically zero: "
                f"tokens accumulate without bound"
            )
        out.append(_diag(
            "DEAD003", channel.name, message,
            hint="give both sides a non-zero rate or remove the channel",
        ))
    return out


def _balance_edges(view: GraphView) -> tuple[list[str], list[tuple], list[Diagnostic]]:
    """(nodes, edges, selfloop_diags): the balance system of the view,
    mirroring the memoized ``_solve`` construction of
    :mod:`repro.csdf.analysis` without touching any cache."""
    edges = []
    selfloops: list[Diagnostic] = []
    for channel in view.channels:
        if channel.src == channel.dst:
            tau = view.tau(channel.src)
            produced = channel.production.cumulative(tau)
            consumed = channel.consumption.cumulative(tau)
            if produced != consumed:
                selfloops.append(_diag(
                    "RATE001", channel.name,
                    f"self-loop on {channel.src!r} is unbalanced: produces "
                    f"{produced}, consumes {consumed} per cycle",
                    hint="make the per-cycle totals equal on self-loops",
                ))
            continue
        edges.append((
            channel.src,
            channel.dst,
            channel.production.cumulative(view.tau(channel.src)),
            channel.consumption.cumulative(view.tau(channel.dst)),
        ))
    return list(view.actors), edges, selfloops


def _pass_rates(view: GraphView,
                strangled: list[Diagnostic]) -> Iterator[Diagnostic]:
    nodes, edges, selfloop_diags = _balance_edges(view)
    yield from selfloop_diags
    if not nodes:
        return
    try:
        conditions = consistency_conditions(nodes, edges)
    except InconsistentRatesError as exc:
        # Structural collapse (production into zero consumption): the
        # strangled-port pass already carries it as DEAD003; only emit
        # RATE001 when that pass somehow stayed silent.
        if not strangled:
            yield _diag("RATE001", view.name, str(exc))
        return
    if conditions:
        # The spanning-tree solution violates a non-tree constraint:
        # re-run the raising solver for its channel-naming message.
        try:
            solve_balance(nodes, edges)
            message = "; ".join(f"{cond} = 0 must hold" for cond in conditions)
        except InconsistentRatesError as exc:
            message = str(exc)
        yield _diag(
            "RATE001", view.name, message,
            hint="adjust the rates so every constraint cycle balances",
        )
        return
    try:
        solve_balance(nodes, edges)
    except InconsistentRatesError as exc:
        # Conditions were satisfiable yet normalization found a zero
        # component: some actor's repetition count is forced to 0.
        # Usually co-reported with the channel-level DEAD003 root
        # cause; both are true, with different subjects.
        yield _diag(
            "RATE002", view.name, str(exc),
            hint="remove the zero-rate channels forcing the component to 0",
        )


def _view_is_consistent(view: GraphView) -> bool:
    """Pure consistency probe used by the mode-restriction pass."""
    nodes, edges, selfloops = _balance_edges(view)
    if selfloops:
        return False
    try:
        solve_balance(nodes, edges)
    except InconsistentRatesError:
        return False
    return True


# ---------------------------------------------------------------------------
# Statically-provable deadlocks (DEAD001 / DEAD002)
# ---------------------------------------------------------------------------

def _pass_deadlock(view: GraphView, strangled: list[Diagnostic],
                   capacities: Mapping | None) -> Iterator[Diagnostic]:
    yield from strangled
    yield from _capacity_fit(view, capacities)
    yield from _token_free_cycles(view)


def _capacity_fit(view: GraphView,
                  capacities: Mapping | None) -> Iterator[Diagnostic]:
    """DEAD001: a capacity below a channel's initial tokens — the
    initial marking does not fit, and every execution backend raises
    :class:`~repro.errors.DeadlockError` up front (shared contract of
    ``repro.csdf.throughput``)."""
    if not capacities:
        return
    by_name = {channel.name: channel for channel in view.channels}
    for name in sorted(capacities):
        channel = by_name.get(str(name))
        if channel is None:
            continue  # unknown names are the transport layer's problem
        cap = int(capacities[name])
        if cap < channel.initial_tokens:
            yield _diag(
                "DEAD001", channel.name,
                f"capacity {cap} is below the {channel.initial_tokens} "
                f"initial tokens: the initial marking does not fit the "
                f"buffer",
                hint=f"raise the capacity to at least "
                     f"{channel.initial_tokens}",
            )


def _first_firing_need(channel: ChannelView) -> int | None:
    """Tokens the consumer's *first* firing needs on this channel, when
    that is a known constant; ``None`` when parametric."""
    entry = channel.consumption.rate(0)
    if not entry.is_const():
        return None
    value = entry.const_value()
    if value.denominator != 1:
        return None
    return int(value)


def _token_free_cycles(view: GraphView) -> Iterator[Diagnostic]:
    """DEAD002: directed cycles in which *every* hop starves its
    consumer's first firing.

    A hop ``u -> v`` is provably blocking when some channel ``u -> v``
    has ``initial_tokens`` below the consumer's constant first-phase
    need and ``v`` cannot fire around the starving input (WAIT_ALL-only
    kernels, CSDF actors, plain control actors — or any consumer when
    the starving channel is the control channel itself, since a kernel
    whose control rate is 1 cannot fire without the token).  If all
    hops of a cycle block, no member can ever fire first: the circular
    wait is permanent and ``analyze`` reports ``live=False``.
    """
    blocked: list[tuple[str, str]] = []
    for channel in view.channels:
        need = _first_firing_need(channel)
        if need is None or need <= 0 or channel.initial_tokens >= need:
            continue
        if channel.is_control or view.blocks_on_all_inputs(channel.dst):
            blocked.append((channel.src, channel.dst))
    for group in nontrivial_components(adjacency(view.actors, blocked)):
        cycle = " -> ".join(sorted(view.actors[u] for u in group))
        yield _diag(
            "DEAD002", cycle,
            f"directed cycle through {cycle} has no hop with enough "
            f"initial tokens for its consumer's first firing: permanent "
            f"circular wait",
            hint="seed at least one cycle channel with initial tokens",
        )


# ---------------------------------------------------------------------------
# Structural warnings (STRUCT001..STRUCT004)
# ---------------------------------------------------------------------------

def _pass_structural(view: GraphView) -> Iterator[Diagnostic]:
    if view.is_tpdf:
        yield from _tpdf_port_warnings(view)
        yield from _clock_cycles(view)
    yield from _unreachable(view)


def _tpdf_port_warnings(view: GraphView) -> Iterator[Diagnostic]:
    graph = view.graph
    connected = set()
    for channel in graph.channels.values():
        connected.add((channel.src, channel.src_port))
        connected.add((channel.dst, channel.dst_port))
    for name in graph.node_names():
        for port in graph.node(name).ports.values():
            if (name, port.name) not in connected:
                yield _diag(
                    "STRUCT001", f"{name}.{port.name}",
                    f"{port.kind} port is declared but never connected",
                )
            if all(entry.is_zero() for entry in port.rates):
                yield _diag(
                    "STRUCT004", f"{name}.{port.name}",
                    "every phase of the rate sequence is 0; the port can "
                    "never move a token",
                )


def _actor_adjacency(view: GraphView) -> list[list[int]]:
    return adjacency(view.actors, ((c.src, c.dst) for c in view.channels))


def _unreachable(view: GraphView) -> Iterator[Diagnostic]:
    fed = {channel.dst for channel in view.channels}
    sources = [u for u, name in enumerate(view.actors)
               if name not in fed or view.is_clock(name)]
    seen = reachable(_actor_adjacency(view), sources)
    for u, name in enumerate(view.actors):
        if u not in seen:
            yield _diag(
                "STRUCT002", name,
                "no path from any source or clock reaches this actor",
            )


def _clock_cycles(view: GraphView) -> Iterator[Diagnostic]:
    for group in nontrivial_components(_actor_adjacency(view)):
        clocks = sorted(view.actors[u] for u in group
                        if view.is_clock(view.actors[u]))
        if clocks:
            yield _diag(
                "STRUCT003", clocks[0],
                "clock actor participates in a feedback cycle; its "
                "time-triggered firings race the data path",
            )


# ---------------------------------------------------------------------------
# Control contract (CTRL001..CTRL004, TPDF only)
# ---------------------------------------------------------------------------

def _pass_control(view: GraphView) -> Iterator[Diagnostic]:
    if not view.is_tpdf:
        return
    graph = view.graph
    fed_control = {(c.dst, c.dst_port)
                   for c in graph.channels.values() if c.is_control}
    for name, kernel in graph.kernels.items():
        port = kernel.control_port()
        if port is None:
            continue
        if (name, port.name) not in fed_control:
            yield _diag(
                "CTRL001", f"{name}.{port.name}",
                "kernel declares a control port but no control actor "
                "feeds it; the simulator falls back to plain WAIT_ALL "
                "firings",
                hint="connect a control actor or drop the port",
            )
        for index, entry in enumerate(port.rates):
            if not entry.is_const() or entry.const_value() not in (0, 1):
                yield _diag(
                    "CTRL002", f"{name}.{port.name}",
                    f"control rate {entry} at phase {index} is outside "
                    f"{{0, 1}} (Def. 2); the simulator raises "
                    f"SimulationError on the firing",
                    hint="control ports read at most one token per firing",
                )
    for name in graph.controls:
        if not any(c.is_control for c in graph.out_channels(name)):
            yield _diag(
                "CTRL003", name,
                "control actor has no outgoing control channel; its "
                "decisions reach nobody",
            )
    yield from _mode_restrictions(view)


def _selectable_ports(kernel: Any) -> list[str]:
    """Data ports a SELECT_ONE token could pick on this kernel (the
    modecheck enumeration rule: transactions select among inputs,
    select-duplicates among outputs)."""
    from ..tpdf.modes import Mode

    if Mode.SELECT_ONE not in kernel.modes:
        return []
    inputs = [p.name for p in kernel.data_inputs]
    outputs = [p.name for p in kernel.data_outputs]
    if len(inputs) > 1:
        return inputs
    if len(outputs) > 1:
        return outputs
    return []


def _mode_restrictions(view: GraphView) -> Iterator[Diagnostic]:
    """CTRL004: SELECT_ONE restrictions that stay rate-inconsistent.

    Sec. III-A calls the full-graph consistency check "too strict":
    an inconsistency can disappear once a SELECT_ONE decision drops
    the unselected channels.  This pass reports the modes where it
    does *not* — restrictions that are still unbalanced, i.e. modes
    that can never run a full iteration.  Mirrors
    :mod:`repro.tpdf.modecheck` but stays pure: restrictions are built
    on scratch copies (``restrict_to_selection``) and checked with the
    direct solver, so nothing lands in the input graph's caches.  A
    consistent full graph short-circuits: every restriction is a
    subset of a satisfiable balance system, so none can be
    inconsistent.
    """
    graph = view.graph
    selectable = {
        name: _selectable_ports(kernel)
        for name, kernel in graph.kernels.items()
        if _selectable_ports(kernel)
    }
    if not selectable:
        return
    if _view_is_consistent(view):
        return
    from ..tpdf.transform import restrict_to_selection

    cases = 0
    for kernel_name, ports in sorted(selectable.items()):
        for port in ports:
            if cases >= _MODE_CASE_LIMIT:
                return
            cases += 1
            restricted = restrict_to_selection(graph, kernel_name, [port])
            if not _view_is_consistent(GraphView(restricted)):
                yield _diag(
                    "CTRL004", f"{kernel_name}.{port}",
                    f"the rate inconsistency survives restricting "
                    f"{kernel_name!r} to its {port!r} selection: this "
                    f"mode can never run a full iteration",
                )


# ---------------------------------------------------------------------------
# Binding problems (BIND001..BIND003)
# ---------------------------------------------------------------------------

def _pass_bindings(view: GraphView,
                   bindings: Mapping | None) -> Iterator[Diagnostic]:
    declared = view.declared_parameters()
    used = view.used_parameters()
    if declared is not None:
        for name in sorted(used - declared):
            yield _diag(
                "BIND001", name,
                "parameter used in rates but not declared on the graph "
                "(domain unknown); the consistency chain rejects it",
                hint=f"declare_parameter(Param({name!r}, lo=..., hi=...))",
            )
        for name in sorted(declared - used):
            yield _diag(
                "BIND002", name,
                "declared parameter appears in no rate sequence",
            )
    if bindings:
        for name in sorted(bindings, key=str):
            value = bindings[name]
            try:
                hash(value)
            except TypeError:
                yield _diag(
                    "BIND003", str(name),
                    f"binding value {value!r} is unhashable and cannot "
                    f"key the analysis caches; analyze() raises TypeError",
                    hint="bind plain ints (or other hashable scalars)",
                )
