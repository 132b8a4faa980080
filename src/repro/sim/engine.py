"""Discrete-event execution of TPDF graphs (the model's runtime
semantics).

This engine animates what the static analyses promise: kernels fire
under the TPDF firing rules (Sec. II-B), control tokens select modes
and data paths, clock actors tick on model time, transaction kernels
commit to "the best available input at the deadline", and rejected
tokens are flushed so buffers stay bounded.

Semantics implemented (with the paper reference):

* a kernel with a control port first waits for one control token; the
  token's mode decides which data ports the firing uses (Def. 2);
* ``HIGHEST_PRIORITY`` firings start as soon as the control token and
  *some* candidate input are available, choosing the available input
  with the largest port priority ``alpha`` — combined with clock
  tokens this is "highest priority at a given deadline" (Sec. II-B);
  if no input is available the kernel sleeps and wakes on the first
  arrival (Sec. III-D, sleeping queue);
* tokens on rejected ports are *removed*: the would-be-consumed amount
  is flushed immediately if present, otherwise remembered as a discard
  debt and flushed on arrival (Example 1: "remove remaining tokens");
* control actors are scheduled with the highest priority and do not
  compete for worker cores (Sec. III-D: a control actor "is ensured to
  have a processing unit available before the others");
* clock actors tick autonomously every ``period`` (watchdog timers).

Two cores execute these rules (``ready_core``, one of
:attr:`Simulator.READY_CORES`).  The default ``"arrays"`` core is the
schedule-plane / value-plane split of
:mod:`repro.sim.schedplane`: a dependency-driven ready check over flat
counters, re-examining after each event only the nodes whose
readiness may have changed.  The legacy loop in this module, a full
rescan of every node after every event, is the differential oracle:
``ready_core="reference"`` selects it, and
:func:`repro.analysis.simulate_reference` calls it by name.
``tests/sim/test_eventloop_differential.py`` pins trace equality bit
for bit, and CLI ``simulate --check-reference`` runs the same
comparison on one graph.  Both cores schedule completion events on a
bare ``heapq`` of ``(time, seq, ...)`` tuples, so simultaneous events
pop in push order.

Data values are real Python objects; attach a ``function`` to a kernel
to compute outputs from inputs (the OFDM and edge-detection case
studies run their actual numpy DSP through this hook).  Execution
times come from the kernel's ``exec_time`` or, when data-dependent,
from ``kernel.meta["time_fn"]``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import chain
from typing import Any, Mapping

from ..csdf.simulation import rate_table
from ..csdf.throughput import _check_capacity_contract
from ..errors import SimulationError, as_count
from ..symbolic import normalize_bindings
from ..tpdf.builtins import ClockActor
from ..tpdf.graph import TPDFChannel, TPDFGraph
from ..tpdf.kernel import ControlActor, Kernel
from ..tpdf.modes import ControlToken, Mode, highest_priority, wait_all
from .trace import INITIAL_TOKEN, DiscardRecord, FiringRecord, Trace


class _ChannelState:
    __slots__ = ("channel", "queue", "discard_debt", "capacity", "reserved")

    def __init__(self, channel: TPDFChannel):
        self.channel = channel
        # Initial tokens carry the InitialToken sentinel, not None: a
        # consuming ``function`` can tell "no payload yet" from a
        # produced ``None`` (the sentinel is falsy, like the old None).
        self.queue: deque = deque(
            INITIAL_TOKEN for _ in range(channel.initial_tokens)
        )
        self.discard_debt = 0
        #: buffer bound (``None`` = unbounded)
        self.capacity: int | None = None
        #: tokens promised by in-flight firings (reserved at start,
        #: converted to queued tokens at completion)
        self.reserved = 0


class Simulator:
    """Event-driven executor for one TPDF graph.

    Parameters
    ----------
    graph:
        The graph to execute (parametric graphs need ``bindings``).
    bindings:
        Parameter valuation for rate evaluation.
    cores:
        Worker-core budget for kernels (``None`` = unlimited, else at
        least 1; below 1 raises ``ValueError``).  Control actors never
        compete for these cores.
    capacities:
        Optional per-channel buffer bounds (channel name → max tokens),
        the same blocking-write discipline as
        ``self_timed_execution(capacities=...)``: a firing may start
        only when every bounded output channel has room for the tokens
        it will produce — occupancy counts queued tokens *plus* the
        reservations of in-flight firings, a self-loop's own
        consumption is credited, and the reservation converts into
        queued tokens at completion.  Unknown channel names raise
        ``ValueError``; a capacity below a channel's initial tokens
        raises :class:`~repro.errors.DeadlockError` up front (the
        initial marking does not fit the buffer).  Clock-actor ticks
        are time-triggered and never blocked — their deposits still
        count toward occupancy.  Capacity back-pressure can make the
        run quiesce earlier than an unbounded run; the trace's
        ``peaks`` never exceed the bound.
    record_values:
        Keep consumed/produced values in the trace (memory-heavy; used
        by functional tests).
    ready_core:
        ``"arrays"`` (default) runs the schedule-plane / value-plane
        split of :mod:`repro.sim.schedplane`: scheduling state lives in
        flat slot-indexed counters read from the graph's CSDF view and
        its memoized :func:`repro.csdf.simulation.rate_table`, and
        token payloads are materialized only on channels with a
        value-touching endpoint; ``"reference"`` keeps the legacy full
        rescan of every node after every event — the differential
        oracle.  Both produce bit-identical traces (``stats()`` reports
        which plane actually ran).
    """

    #: Accepted ``ready_core`` selections: the fast core, then the oracle.
    READY_CORES = ("arrays", "reference")

    def __init__(
        self,
        graph: TPDFGraph,
        bindings: Mapping | None = None,
        cores: int | None = None,
        record_values: bool = False,
        ready_core: str = "arrays",
        capacities: Mapping[str, int] | None = None,
    ):
        if ready_core not in self.READY_CORES:
            raise ValueError(
                "ready_core must be one of "
                f"{', '.join(map(repr, self.READY_CORES))}, got {ready_core!r}"
            )
        if cores is not None:
            cores = as_count("cores", cores, minimum=1)
        self.graph = graph
        self.bindings = dict(bindings or {})
        self.cores = cores
        self.record_values = record_values
        self.ready_core = ready_core
        #: ready-check cost counters: ``visits`` = nodes examined by
        #: the ready scan (the number the ext6 bench compares across
        #: cores), ``events`` = completed events.
        self.ready_stats = {"visits": 0, "events": 0}
        self.trace = Trace()
        self.now = 0.0

        self._channels: dict[str, _ChannelState] = {}
        self._in: dict[str, dict[str, _ChannelState]] = {}
        self._out: dict[str, dict[str, _ChannelState]] = {}
        for name in graph.node_names():
            self._in[name] = {}
            self._out[name] = {}
        for channel in graph.channels.values():
            state = _ChannelState(channel)
            self._channels[channel.name] = state
            self.trace.peaks[channel.name] = channel.initial_tokens
            self._in[channel.dst][channel.dst_port] = state
            self._out[channel.src][channel.src_port] = state
        # Integer port rates: the reference loop evaluates its own (an
        # independent oracle); the arrays core reads the memoized rate
        # table its template is built from.  Both raise KeyError on a
        # missing binding here, before any run.
        self._rates: dict[tuple[str, str], tuple[int, ...]] = {}
        if ready_core == "reference":
            for channel in graph.channels.values():
                for node, port in ((channel.src, channel.src_port),
                                   (channel.dst, channel.dst_port)):
                    self._rates[(node, port)] = (
                        graph.node(node).port(port).rates.as_ints(self.bindings)
                    )
        else:
            rate_table(graph.as_csdf(), self.bindings or None)
        # A value that is no rational is refused even when no rate
        # reads it (integer rates never evaluate the bindings).
        normalize_bindings(self.bindings)

        self._fired: dict[str, int] = {name: 0 for name in graph.node_names()}
        self._mode_rate_cache: dict[tuple, tuple[int, ...]] = {}
        self._busy: set[str] = set()
        self._limits: dict[str, int] = {}
        #: the reference loop's event heap of ``(time, seq, kind,
        #: payload)`` tuples (``"arrays"`` never touches it: the plane
        #: owns its own heap)
        self._events: list = []
        self._seq = 0
        #: the schedule/value plane, built lazily on the first run so
        #: ``function``/``meta`` hooks attached after construction are
        #: still honoured
        self._plane = None
        # Ready control actors start before ready kernels (the paper's
        # rule): the scan visits every control actor first.
        self._order = list(graph.controls) + list(graph.kernels)

        # Scan positions and node objects by position, shared with the
        # schedule plane (which indexes instead of calling graph.node()).
        self._pos = {name: i for i, name in enumerate(self._order)}
        self._nodes = [graph.node(name) for name in self._order]

        self._capacities = dict(capacities or {})
        self._any_capacity = bool(self._capacities)
        # Shared capacity contract (repro.csdf.throughput): unknown
        # names raise, and the initial marking must fit the buffer.
        _check_capacity_contract(graph, self._capacities, self._order)
        for name, cap in self._capacities.items():
            self._channels[name].capacity = cap

    # -- small helpers ------------------------------------------------------
    def _rate(self, node: str, port: str, firing: int) -> int:
        phases = self._rates[(node, port)]
        return phases[firing % len(phases)]

    def _kernel_rate(self, kernel: Kernel, port: str, firing: int,
                     mode: Mode | None) -> int:
        """Port rate honouring the per-mode overrides (the ``Rk(m, ., n)``
        table of Def. 2): a kernel firing in mode ``m`` may move a
        different token count than its default port rate."""
        if mode is not None:
            override = kernel._mode_rates.get(mode)
            if override is not None and port in override:
                key = (kernel.name, port, mode)
                cached = self._mode_rate_cache.get(key)
                if cached is None:
                    cached = override[port].as_ints(self.bindings)
                    self._mode_rate_cache[key] = cached
                return cached[firing % len(cached)]
        return self._rate(kernel.name, port, firing)

    def _push_event(self, time: float, kind: str, payload) -> None:
        heappush(self._events, (time, self._seq, kind, payload))
        self._seq += 1

    def tokens_in(self, channel: str) -> int:
        if self._plane is not None:
            return self._plane.tokens_of(channel)
        return len(self._channels[channel].queue)

    def channel_values(self, channel: str) -> list:
        """Current payloads on a channel (schedule-only channels report
        their counters as ``InitialToken``/``None`` placeholders)."""
        if self._plane is not None:
            return self._plane.values_of(channel)
        return list(self._channels[channel].queue)

    def channel_reserved(self, channel: str) -> int:
        """Tokens promised by in-flight firings on a bounded channel."""
        if self._plane is not None:
            return self._plane.reserved_of(channel)
        return self._channels[channel].reserved

    def stats(self) -> dict:
        """Which engine actually runs, plus the ready-check counters.

        ``plane`` is ``"arrays"`` for the schedule/value-plane split
        and ``"python"`` for the dict-walking reference loop;
        after an arrays run the plane split is reported too
        (``value_channels`` materialized payload FIFOs,
        ``schedule_only_channels`` counters-only, ``counter_nodes`` the
        kernels that start and complete inline on the counters, and
        ``fast_path`` whether every node is a counter node and no
        channel carries payloads).
        """
        info = {
            "ready_core": self.ready_core,
            "plane": "arrays" if self.ready_core == "arrays" else "python",
        }
        info.update(self.ready_stats)
        if self._plane is not None:
            value_channels = sum(
                1 for queue in self._plane.queues if queue is not None
            )
            info["value_channels"] = value_channels
            info["schedule_only_channels"] = (
                self._plane.nchan - value_channels
            )
            counter_nodes = sum(self._plane.counter)
            info["counter_nodes"] = counter_nodes
            info["fast_path"] = (counter_nodes == self._plane.n
                                 and not value_channels)
        return info

    # -- deposit with discard-debt settlement --------------------------------
    def _deposit(self, state: _ChannelState, values: list) -> None:
        for value in values:
            if state.discard_debt > 0:
                state.discard_debt -= 1
                continue
            state.queue.append(value)
        occupancy = len(state.queue)
        if occupancy > self.trace.peaks[state.channel.name]:
            self.trace.peaks[state.channel.name] = occupancy

    def _flush(self, state: _ChannelState, count: int, node: str, port: str,
               late_debt: bool = True) -> None:
        """Discard ``count`` tokens: immediately when present and — when
        ``late_debt`` — as a debt settled on arrival otherwise.

        The debt covers the paper's "remove remaining tokens" for
        rejected inputs whose producers still run (e.g. the slow Canny
        branch finishing after the deadline).  When an upstream
        select-duplicate made the same decision, the rejected producer
        never fires (Fig. 3 coordination / ADF) and nothing will
        arrive; kernels declare that with ``meta['discard_late'] =
        False`` so the debt cannot swallow a *future* activation's
        tokens."""
        if count <= 0:
            return
        available = min(count, len(state.queue))
        for _ in range(available):
            state.queue.popleft()
        flushed = available
        if late_debt:
            state.discard_debt += count - available
            flushed = count
        if flushed:
            self.trace.discards.append(
                DiscardRecord(
                    channel=state.channel.name,
                    port=port,
                    node=node,
                    count=flushed,
                    time=self.now,
                )
            )

    # -- firing rules --------------------------------------------------------
    def _control_state(self, kernel: Kernel) -> _ChannelState | None:
        port = kernel.control_port()
        if port is None:
            return None
        return self._in[kernel.name].get(port.name)

    def _peek_control(self, kernel: Kernel) -> ControlToken | None:
        state = self._control_state(kernel)
        if state is None or not state.queue:
            return None
        token = state.queue[0]
        if not isinstance(token, ControlToken):
            token = wait_all()
        return token

    def _kernel_plan(self, kernel: Kernel):
        """Return ``(mode_token, ports_to_consume)`` if the kernel can
        fire now, else ``None``."""
        name = kernel.name
        n = self._fired[name]
        control_state = self._control_state(kernel)
        token: ControlToken | None = None
        needs_control = False
        if control_state is not None:
            control_rate = self._rate(name, kernel.control_port().name, n)
            if control_rate > 1:
                # A multi-token control phase has no defined semantics
                # (which of the tokens selects the mode?); refuse
                # loudly instead of silently firing in WAIT_ALL with
                # the tokens left behind.
                raise SimulationError(
                    f"kernel {name!r} control port "
                    f"{kernel.control_port().name!r} has rate "
                    f"{control_rate} at firing {n}; only rates 0 "
                    f"(inactive phase) and 1 are supported"
                )
            needs_control = control_rate == 1
            if needs_control:
                if not control_state.queue:
                    return None
                token = self._peek_control(kernel)
        mode = token.mode if token is not None else Mode.WAIT_ALL

        data_ports = {
            port: state for port, state in self._in[name].items()
            if state is not control_state
        }

        if mode in (Mode.WAIT_ALL,):
            for port, state in data_ports.items():
                if len(state.queue) < self._kernel_rate(kernel, port, n, mode):
                    return None
            consume = list(data_ports)
        elif mode in (Mode.SELECT_ONE, Mode.SELECT_MANY):
            # A selection only constrains the side it names: a
            # select-duplicate token names *output* ports, so its
            # inputs behave as WAIT_ALL; a transaction token names
            # *input* ports.
            if token.selection and not set(token.selection) & set(data_ports):
                selected = list(data_ports)
            else:
                selected = [p for p in data_ports if token.selects(p)]
            for port in selected:
                if len(data_ports[port].queue) < self._kernel_rate(kernel, port, n, mode):
                    return None
            consume = selected
        else:  # HIGHEST_PRIORITY
            candidates = [
                port for port, state in data_ports.items()
                if self._kernel_rate(kernel, port, n, mode) > 0
                and len(state.queue) >= self._kernel_rate(kernel, port, n, mode)
            ]
            if not candidates:
                return None  # sleep until an input arrives
            best = max(
                candidates,
                key=lambda p: (kernel.port(p).priority, p),
            )
            consume = [best]
        if self._any_capacity and self._capacity_blocked(
            kernel, n, mode, self._reserve_plan(kernel, n, mode, token),
            consume,
        ):
            return None  # blocking write: no room on a bounded output
        return token if needs_control else None, consume

    def _reserve_plan(self, kernel: Kernel, n: int, mode: Mode | None,
                      token: ControlToken | None) -> dict[str, int]:
        """Per-port production this firing will deposit — the
        enabled-port rule of :meth:`_apply_function`, applied at plan
        time (the mode token, and with it the declared rates, is known
        before the firing starts)."""
        out_rates = {
            port: self._kernel_rate(kernel, port, n, mode)
            for port in self._out[kernel.name]
        }
        if (
            token is None
            or not token.selection
            or not set(token.selection) & set(out_rates)
        ):
            return out_rates
        return {
            port: rate for port, rate in out_rates.items()
            if token.selects(port)
        }

    def _capacity_blocked(self, kernel: Kernel, n: int, mode: Mode | None,
                          reserve: Mapping[str, int],
                          consume: list[str]) -> bool:
        """True when some bounded output channel lacks room for this
        firing's production.  Occupancy is queued tokens plus in-flight
        reservations; tokens the same firing pops from a self-loop at
        start are credited (they leave before the reservation lands)."""
        name = kernel.name
        for port, rate in reserve.items():
            state = self._out[name][port]
            cap = state.capacity
            if cap is None:
                continue
            credit = 0
            channel = state.channel
            if channel.dst == name and channel.dst_port in consume:
                credit = self._kernel_rate(kernel, channel.dst_port, n, mode)
            if len(state.queue) - credit + state.reserved + rate > cap:
                return True
        return False

    def _control_ready(self, actor: ControlActor) -> bool:
        if isinstance(actor, ClockActor):
            return False  # time-triggered, never data-ready
        name = actor.name
        n = self._fired[name]
        for port, state in self._in[name].items():
            if len(state.queue) < self._rate(name, port, n):
                return False
        if self._any_capacity:
            for port, state in self._out[name].items():
                cap = state.capacity
                if cap is None:
                    continue
                credit = 0
                channel = state.channel
                if channel.dst == name:
                    credit = self._rate(name, channel.dst_port, n)
                rate = self._rate(name, port, n)
                if len(state.queue) - credit + state.reserved + rate > cap:
                    return False
        return True

    # -- starting firings ------------------------------------------------------
    def _limit_reached(self, name: str) -> bool:
        limit = self._limits.get(name)
        return limit is not None and self._fired[name] >= limit

    def _start_ready_reference(self) -> None:
        """Legacy ready check: full rescan of every node after every
        event.  Kept as the differential oracle for the arrays core —
        its scan order is the tie-break contract both must honour."""
        visits = 0
        progress = True
        while progress:
            progress = False
            for name in self._order:
                visits += 1
                if name in self._busy or self._limit_reached(name):
                    continue
                node = self.graph.node(name)
                if isinstance(node, ControlActor):
                    if self._control_ready(node):
                        self._begin_control(node)
                        progress = True
                else:
                    if self.cores is not None:
                        workers = sum(
                            1 for busy in self._busy
                            if not self.graph.is_control_actor(busy)
                        )
                        if workers >= self.cores:
                            continue
                    assert isinstance(node, Kernel)
                    plan = self._kernel_plan(node)
                    if plan is not None:
                        self._begin_kernel(node, *plan)
                        progress = True
        self.ready_stats["visits"] += visits

    def _begin_control(self, actor: ControlActor) -> None:
        name = actor.name
        n = self._fired[name]
        consumed: dict[str, list] = {}
        for port, state in self._in[name].items():
            rate = self._rate(name, port, n)
            consumed[port] = [state.queue.popleft() for _ in range(rate)]
        reserve: dict[str, int] = {}
        if self._any_capacity:
            for port, state in self._out[name].items():
                rate = self._rate(name, port, n)
                reserve[port] = rate
                state.reserved += rate
        duration = actor.exec_time(n)
        self._busy.add(name)
        self._push_event(
            self.now + duration, "control_done",
            (actor, n, self.now, consumed, reserve),
        )

    def _begin_kernel(self, kernel: Kernel, token: ControlToken | None, consume: list[str]) -> None:
        name = kernel.name
        n = self._fired[name]
        mode = token.mode if token is not None else None
        consumed: dict[str, list] = {}
        if token is not None:
            control_state = self._control_state(kernel)
            assert control_state is not None
            control_state.queue.popleft()
        for port in consume:
            state = self._in[name][port]
            rate = self._kernel_rate(kernel, port, n, mode)
            consumed[port] = [state.queue.popleft() for _ in range(rate)]
        # Rejected ports: flush this firing's worth of tokens.
        control_port = kernel.control_port()
        late_debt = bool(kernel.meta.get("discard_late", True))
        for port, state in self._in[name].items():
            if control_port is not None and port == control_port.name:
                continue
            if port in consume:
                continue
            self._flush(state, self._kernel_rate(kernel, port, n, mode),
                        name, port, late_debt=late_debt)

        reserve: dict[str, int] = {}
        if self._any_capacity:
            reserve = self._reserve_plan(kernel, n, mode, token)
            for port, rate in reserve.items():
                self._out[name][port].reserved += rate

        time_fn = kernel.meta.get("time_fn")
        duration = (
            float(time_fn(n, consumed)) if callable(time_fn) else kernel.exec_time(n)
        )
        self._busy.add(name)
        self._push_event(
            self.now + duration, "kernel_done",
            (kernel, n, self.now, token, consumed, reserve),
        )

    # -- completing firings ------------------------------------------------------
    def _complete_control(self, actor: ControlActor, n: int, start: float,
                          consumed, reserve: Mapping[str, int] = ()) -> None:
        name = actor.name
        flat_inputs = [value for values in consumed.values() for value in values]
        token = actor.decide(n, flat_inputs)
        for port in reserve:
            self._out[name][port].reserved -= reserve[port]
        produced: dict[str, list] = {}
        for port, state in self._out[name].items():
            rate = self._rate(name, port, n)
            values = [token] * rate
            produced[port] = values
            self._deposit(state, values)
        self._busy.discard(name)
        self._fired[name] = n + 1
        self.trace.firings.append(
            FiringRecord(
                node=name, index=n, start=start, end=self.now, mode=token,
                consumed=consumed if self.record_values else None,
                produced=produced if self.record_values else None,
            )
        )

    def _complete_kernel(self, kernel: Kernel, n: int, start: float,
                         token: ControlToken | None, consumed,
                         reserve: Mapping[str, int] = ()) -> None:
        name = kernel.name
        outputs = self._apply_function(kernel, n, token, consumed)
        for port in reserve:
            self._out[name][port].reserved -= reserve[port]
        for port, values in outputs.items():
            self._deposit(self._out[name][port], values)
        self._busy.discard(name)
        self._fired[name] = n + 1
        self.trace.firings.append(
            FiringRecord(
                node=name, index=n, start=start, end=self.now, mode=token,
                consumed=consumed if self.record_values else None,
                produced=outputs if self.record_values else None,
            )
        )

    def _apply_function(self, kernel: Kernel, n: int,
                        token: ControlToken | None, consumed) -> dict[str, list]:
        """Run the kernel's function and shape its outputs per port."""
        name = kernel.name
        mode = token.mode if token is not None else None
        out_rates = {
            port: self._kernel_rate(kernel, port, n, mode)
            for port in self._out[name]
        }
        if (
            token is None
            or not token.selection
            or not set(token.selection) & set(out_rates)
        ):
            # No selection, or a selection naming input ports only:
            # every output is enabled.
            enabled = dict(out_rates)
        else:
            enabled = {
                port: rate for port, rate in out_rates.items()
                if token.selects(port)
            }
        function = kernel.function or _builtin_function(kernel)
        if function is None:
            result: Any = None
        else:
            result = function(n, consumed)

        outputs: dict[str, list] = {}
        if isinstance(result, dict):
            for port, rate in out_rates.items():
                if port not in enabled:
                    outputs[port] = []
                    continue
                values = result.get(port)
                if values is None:
                    values = [None] * rate
                if len(values) != rate:
                    raise SimulationError(
                        f"kernel {name!r} produced {len(values)} values on "
                        f"{port!r} but the rate of firing {n} is {rate}"
                    )
                outputs[port] = list(values)
        elif isinstance(result, list):
            if len(enabled) != 1:
                raise SimulationError(
                    f"kernel {name!r} returned a list but has "
                    f"{len(enabled)} enabled output ports; return a dict"
                )
            (port, rate), = enabled.items()
            if len(result) != rate:
                raise SimulationError(
                    f"kernel {name!r} produced {len(result)} values on {port!r} "
                    f"but the rate of firing {n} is {rate}"
                )
            outputs = {p: [] for p in out_rates}
            outputs[port] = list(result)
        else:
            # Scalar (or None): replicate on every enabled port.
            outputs = {
                port: ([result] * rate if port in enabled else [])
                for port, rate in out_rates.items()
            }
        # Disabled ports produce nothing (their consumers' tokens were
        # chosen away by the select-duplicate decision).
        return outputs

    # -- clocks --------------------------------------------------------------
    def _schedule_clock(self, actor: ClockActor, until: float) -> None:
        tick = self.now + actor.period
        if tick <= until:
            self._push_event(tick, "tick", actor)

    def _complete_tick(self, actor: ClockActor, until: float) -> None:
        name = actor.name
        n = self._fired[name]
        if not self._limit_reached(name):
            if actor.decision is not None:
                token = actor.decision(n, [])
            else:
                token = highest_priority(deadline=self.now)
            produced: dict[str, list] = {}
            for port, state in self._out[name].items():
                rate = self._rate(name, port, n)
                values = [token] * rate
                produced[port] = values
                self._deposit(state, values)
            self._fired[name] = n + 1
            self.trace.firings.append(
                FiringRecord(
                    node=name, index=n, start=self.now, end=self.now, mode=token,
                    produced=produced if self.record_values else None,
                )
            )
        self._schedule_clock(actor, until)

    # -- main loop ------------------------------------------------------------
    def run(
        self,
        until: float | None = None,
        limits: Mapping[str, int] | None = None,
        max_firings: int = 1_000_000,
    ) -> Trace:
        """Execute until quiescence, the time horizon, or the limits.

        ``limits`` caps firings per node (source kernels and clocks
        would otherwise run forever); ``until`` bounds model time —
        required when the graph contains clock actors and no limits.
        A ``limits`` name that is no node of the graph, or a limit or
        ``max_firings`` that is not a non-negative integer, raises
        ``ValueError`` before any firing.
        """
        unknown = sorted(set(limits or ()) - set(self._pos))
        if unknown:
            raise ValueError(
                f"limits name unknown nodes: {', '.join(unknown)} "
                f"(graph has: {', '.join(self.graph.node_names())})"
            )
        limits = {name: as_count(f"limit of {name!r}", cap)
                  for name, cap in (limits or {}).items()}
        max_firings = as_count("max_firings", max_firings)
        if self.ready_core == "arrays":
            from .schedplane import SimPlane

            if self._plane is None:
                self._plane = SimPlane(self)
            return self._plane.run(until, limits, max_firings)
        self._limits = limits
        has_clock = any(
            isinstance(self.graph.node(n), ClockActor) for n in self.graph.controls
        )
        if has_clock and until is None:
            raise SimulationError(
                "graphs with clock actors need a time horizon: run(until=...)"
            )
        horizon = until if until is not None else float("inf")
        for name in self.graph.controls:
            node = self.graph.node(name)
            if isinstance(node, ClockActor):
                self._schedule_clock(node, horizon)

        self._start_ready_reference()
        fired_total = 0
        while self._events:
            time, _, kind, payload = heappop(self._events)
            if time > horizon:
                self.now = horizon
                break
            self.now = time
            self.ready_stats["events"] += 1
            if kind == "kernel_done":
                self._complete_kernel(*payload)
            elif kind == "control_done":
                self._complete_control(*payload)
            elif kind == "tick":
                self._complete_tick(payload, horizon)
            fired_total += 1
            if fired_total > max_firings:
                raise SimulationError(
                    f"exceeded {max_firings} firings; add limits= or until= "
                    f"to bound the run"
                )
            self._start_ready_reference()
        return self.trace


def _builtin_function(kernel: Kernel):
    """Default data behaviour for the builtin kernels of Sec. II-B."""
    builtin = kernel.meta.get("builtin")
    if builtin == "select_duplicate":
        def duplicate(_n: int, consumed: dict) -> Any:
            return next((vs[0] for vs in consumed.values() if vs), None)
        return duplicate
    if builtin == "transaction":
        action = kernel.meta.get("action", "select")
        if action == "vote":
            def vote(_n: int, consumed: dict) -> Any:
                values = [v for vs in consumed.values() for v in vs]
                if not values:
                    return None
                tallies: dict = {}
                for value in values:
                    key = _vote_key(value)
                    tallies[key] = (tallies.get(key, (0, value))[0] + 1, value)
                _, winner = max(tallies.values(), key=lambda item: item[0])
                return winner
            return vote

        def forward(_n: int, consumed: dict) -> Any:
            filled = [vs for vs in consumed.values() if vs]
            if len(filled) == 1:
                # the usual transaction reads one port: pass its list on
                # (the caller copies it)
                values = filled[0]
            else:
                values = list(chain.from_iterable(filled))
            return values[0] if len(values) == 1 else values or None
        return forward
    return None


def _vote_key(value):
    """Hashable view of a vote value (numpy arrays compare by bytes)."""
    tobytes = getattr(value, "tobytes", None)
    if callable(tobytes):
        return tobytes()
    return value
