"""Schedule-plane / value-plane split of the TPDF simulator.

The :class:`~repro.sim.engine.Simulator`'s reference loop carries
*everything* per firing through Python dicts and deques: channel
states, per-port rate lookups, consumed-value lists, record objects.
For timing-dominated workloads almost none of that is needed — the
schedule only depends on token *counts*, rates, and execution times,
exactly the flat data the CSDF executor runs on.

This module runs the simulator on that data, split in two planes:

**Schedule plane** — slot-indexed integer state (token counts, discard
debts, capacities, reservations) read from the graph's CSDF view:
initial tokens, endpoint positions and execution times straight from
the graph, integer phases from the memoized
:func:`~repro.csdf.simulation.rate_table`.  It is driven by a
:class:`~repro.csdf.eventloop.ReadyWorklist` (only nodes whose
readiness may have changed are re-examined, in the reference loop's
scan order) and the same ``heapq`` event core as the CSDF executor,
:func:`~repro.csdf.throughput.self_timed_execution`.  The TPDF-only
mechanics the CSDF executor lacks live here:
control-token mode selection gating per-firing port sets,
highest-priority candidate choice over pre-sorted ``(priority, port)``
tables, discard-debt flushing, clock-actor autonomous ticks, and
control actors outside the worker-core budget.

**Value plane** — per-channel payload FIFOs (a list plus a head
index, :class:`_Payloads`), allocated **only** for channels where some
endpoint actually touches token values: the consumer declares a
``function``/``time_fn``/builtin or is a control actor with a decision
function, the producer computes values, the channel carries control
tokens, or the run records values.  Channels between pure-timing
kernels never materialize payload storage — their tokens exist only as
schedule-plane counters.

**One drain loop** picks the path per node.  A *counter kernel* (no
connected control port, no ``function`` or builtin, no
``meta["time_fn"]``, no mode-rate table, values not recorded) starts
and completes inline on the integer counters — the CSDF executor's
discipline with the simulator's limits/horizon semantics —
and on a payload channel it touches it only drops or appends ``None``
payloads, one slice per firing.  Control actors, clock ticks and every
other kernel go through the firing-rule methods (``_control_ready``,
``_kernel_plan``, ``_begin_*``, ``_complete_*``).  A firing therefore
costs the same whether or not the graph has a control actor.

Bit-for-bit contract
--------------------
Identical traces to the reference loop (``ready_core="reference"``,
the differential oracle): firing records
(times, modes), discard records, channel peaks, deadlock blocked sets
and ``ready_stats["events"]`` — candidates are seeded whenever their
readiness may have changed (tokens arrived or left, the node
completed, a worker core freed) and examined in the reference loop's
scan order, so the plane starts the same firings in the same order
while visiting far fewer nodes.  Firing records are handed to the trace in *columnar* form
(:meth:`repro.sim.trace.Trace._extend_from_columns`) and materialized
lazily; ``Trace.fingerprint()`` digests the columns directly.
``tests/sim/test_eventloop_differential.py`` pins both cores
against each other over the differential corpus × core budgets ×
capacity constraints.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf

from ..csdf.eventloop import ReadyWorklist
from ..csdf.simulation import rate_table
from ..errors import SimulationError
from ..tpdf.builtins import ClockActor
from ..tpdf.kernel import ControlActor
from ..tpdf.modes import ControlToken, Mode, highest_priority
from .trace import INITIAL_TOKEN, DiscardRecord

#: Event kinds (payload is ``(kind, pos)``; clock ticks re-read state).
_KERNEL_DONE, _CONTROL_DONE, _TICK, _COUNTER_DONE = 0, 1, 2, 3

_WAIT_ALL_TOKEN = ControlToken(Mode.WAIT_ALL)


class _Payloads:
    """One value-plane channel's FIFO: a list plus a head index.

    A firing takes or drops its ``rate`` payloads in one slice or one
    index bump.  The consumed prefix is cut off once it exceeds half
    the list, so the list stays within twice the live payloads.
    """

    __slots__ = ("items", "head")

    def __init__(self, values) -> None:
        self.items = list(values)
        self.head = 0

    def __iter__(self):
        return iter(self.items[self.head:])

    def peek(self):
        return self.items[self.head]

    def extend(self, values) -> None:
        self.items += values

    def take(self, count: int) -> list:
        head = self.head
        values = self.items[head:head + count]
        self.drop(count)
        return values

    def drop(self, count: int) -> None:
        head = self.head + count
        if head + head > len(self.items):
            del self.items[:head]
            head = 0
        self.head = head


def _make_queue(values) -> _Payloads:
    """Value-plane payload FIFO factory.

    A module-level hook so tests can spy on exactly how many channels
    materialize payload storage (the lazy-value-plane contract).
    """
    return _Payloads(values)


class SimPlane:
    """Array-backed execution state for one :class:`Simulator`.

    Built lazily on the first ``run()`` (kernel ``function``/``meta``
    hooks may be attached after construction); persists across ``run``
    calls like the Python engine's channel states.
    """

    def __init__(self, sim):
        graph = sim.graph
        self.sim = sim
        self.record_values = sim.record_values
        bindings = sim.bindings or None

        csdf = graph.as_csdf()
        rates = rate_table(csdf, bindings)
        order = sim._order
        n = len(order)
        pos_of = {name: i for i, name in enumerate(order)}
        flows = list(csdf.channels.values())
        nchan = len(flows)

        # -- schedule plane: slot-indexed channel state -------------------
        self.chan_names = [c.name for c in flows]
        self.slot_of = {name: s for s, name in enumerate(self.chan_names)}
        self.tokens = [c.initial_tokens for c in flows]
        self.init_left = list(self.tokens)
        self.debts = [0] * nchan
        self.reserved = [0] * nchan
        self.peaks = list(self.tokens)
        self.caps: list[int | None] = [None] * nchan
        for name, cap in sim._capacities.items():
            self.caps[self.slot_of[name]] = cap
        self.any_capacity = sim._any_capacity
        self.chan_src_pos = [pos_of[c.src] for c in flows]
        self.chan_dst_pos = [pos_of[c.dst] for c in flows]

        channels = list(graph.channels.values())
        self.chan_dst_port = [c.dst_port for c in channels]
        self.cons_ph = [rates.consumption[name] for name in self.chan_names]
        self.prod_ph = [rates.production[name] for name in self.chan_names]

        # -- per-node tables (mirrors of the engine's _in/_out dicts,
        #    including their port-keyed overwrite semantics) --------------
        in_map: list[dict[str, int]] = [{} for _ in range(n)]
        out_map: list[dict[str, int]] = [{} for _ in range(n)]
        for s, channel in enumerate(channels):
            in_map[pos_of[channel.dst]][channel.dst_port] = s
            out_map[pos_of[channel.src]][channel.src_port] = s
        self.in_ports = [tuple(m.items()) for m in in_map]
        self.out_ports = [tuple(m.items()) for m in out_map]

        nodes = sim._nodes
        self.nodes = nodes
        self.names = order
        self.is_ctrl = bytearray(n)
        self.is_clock = bytearray(n)
        self.ctrl_slot = [-1] * n
        self.hp_order: list[tuple] = [()] * n
        self.data_in: list[tuple] = [()] * n
        self.mode_over: list[dict | None] = [None] * n
        self.discard_late = bytearray(n)
        self.functions = [None] * n
        self.time_fns = [None] * n
        self.decisions = [None] * n
        #: the node reads or computes payloads, or the run records them
        self.collects = bytearray(n)
        self.exec_phases = [tuple(csdf.actor(name).exec_times)
                            for name in order]
        self.exec_const = [t[0] if len(t) == 1 else None
                           for t in self.exec_phases]
        self.clock_period = [0.0] * n

        from .engine import _builtin_function

        for pos, node in enumerate(nodes):
            if isinstance(node, ControlActor):
                self.is_ctrl[pos] = 1
                self.decisions[pos] = node.decision
                self.collects[pos] = (
                    node.decision is not None or self.record_values
                )
                if isinstance(node, ClockActor):
                    self.is_clock[pos] = 1
                    self.clock_period[pos] = node.period
                continue
            kernel = node
            cp = kernel.control_port()
            cslot = -1
            if cp is not None:
                cslot = in_map[pos].get(cp.name, -1)
            self.ctrl_slot[pos] = cslot
            data = tuple(
                (port, s) for port, s in self.in_ports[pos] if s != cslot
            )
            self.data_in[pos] = data
            self.hp_order[pos] = tuple(sorted(
                data, key=lambda ps: (kernel.port(ps[0]).priority, ps[0]),
                reverse=True,
            ))
            if kernel._mode_rates:
                self.mode_over[pos] = {
                    mode: {port: rs.as_ints(sim.bindings)
                           for port, rs in table.items()}
                    for mode, table in kernel._mode_rates.items()
                }
            self.discard_late[pos] = bool(kernel.meta.get("discard_late", True))
            self.functions[pos] = kernel.function or _builtin_function(kernel)
            time_fn = kernel.meta.get("time_fn")
            if callable(time_fn):
                self.time_fns[pos] = time_fn
            self.collects[pos] = (
                self.functions[pos] is not None
                or self.time_fns[pos] is not None
                or self.record_values
            )

        # -- value plane: payload FIFOs only where values matter ----------
        collects = self.collects
        self.queues: list[_Payloads | None] = [None] * nchan
        for s, channel in enumerate(channels):
            if (channel.is_control or collects[self.chan_src_pos[s]]
                    or collects[self.chan_dst_pos[s]]):
                self.queues[s] = _make_queue(
                    INITIAL_TOKEN for _ in range(self.tokens[s])
                )

        self.clocks = [
            (pos_of[name], graph.node(name)) for name in graph.controls
            if isinstance(graph.node(name), ClockActor)
        ]

        # -- counter kernels: start and complete inline on the counters ---
        self.counter = bytearray(
            not self.is_ctrl[pos] and self.ctrl_slot[pos] < 0
            and not collects[pos] and self.mode_over[pos] is None
            for pos in range(n)
        )

        # -- event core + wakeup state ------------------------------------
        self.n = n
        self.nchan = nchan
        self.worklist = ReadyWorklist(n)
        self.busy = bytearray(n)
        self.fired = [0] * n
        self.running = 0
        self.core_blocked: list[int] = []
        self.core_blocked_flag = bytearray(n)
        self.limit = [inf] * n
        self.now = 0.0
        self.events: list[tuple[float, int, int, int]] = []
        self.seq = 0

        # in-flight firing context, one per position
        self.ev_start = [0.0] * n
        self.ev_token: list[ControlToken | None] = [None] * n
        self.ev_consumed: list[dict | None] = [None] * n
        self.ev_reserve: list[tuple | None] = [None] * n

        # deferred firing-record columns (synced into the trace per run)
        self.col_node: list[str] = []
        self.col_index: list[int] = []
        self.col_start: list[float] = []
        self.col_end: list[float] = []
        self.col_mode: list[ControlToken | None] = []
        self.col_consumed: list[dict | None] = []
        self.col_produced: list[dict | None] = []

    # -- event queue -------------------------------------------------------
    def _push(self, time: float, kind: int, pos: int) -> None:
        self.seq += 1
        heappush(self.events, (time, self.seq, kind, pos))

    # -- rate lookups (the engine's _rate / _kernel_rate) -------------------
    def _rate_in(self, pos: int, port: str, slot: int, n: int,
                 mode: Mode | None) -> int:
        if mode is not None:
            over = self.mode_over[pos]
            if over is not None:
                table = over.get(mode)
                if table is not None:
                    phases = table.get(port)
                    if phases is not None:
                        return phases[n % len(phases)]
        phases = self.cons_ph[slot]
        return phases[n % len(phases)]

    def _rate_out(self, pos: int, port: str, slot: int, n: int,
                  mode: Mode | None) -> int:
        if mode is not None:
            over = self.mode_over[pos]
            if over is not None:
                table = over.get(mode)
                if table is not None:
                    phases = table.get(port)
                    if phases is not None:
                        return phases[n % len(phases)]
        phases = self.prod_ph[slot]
        return phases[n % len(phases)]

    # -- deposit / flush (discard-debt settlement on counters) -------------
    def _deposit_values(self, slot: int, values: list) -> None:
        debt = self.debts[slot]
        if debt:
            settle = len(values) if debt >= len(values) else debt
            self.debts[slot] = debt - settle
            values = values[settle:]
        if values:
            queue = self.queues[slot]
            if queue is not None:
                queue.extend(values)
            occupancy = self.tokens[slot] + len(values)
            self.tokens[slot] = occupancy
            if occupancy > self.peaks[slot]:
                self.peaks[slot] = occupancy
        self.worklist.seed(self.chan_dst_pos[slot])

    def _take(self, slot: int, count: int, consumed: dict | None,
              port: str | None) -> None:
        """Remove ``count`` tokens from a slot (readiness guaranteed),
        their payloads into ``consumed[port]`` when collecting (every
        input of a collecting node carries payloads)."""
        queue = self.queues[slot]
        if consumed is not None:
            consumed[port] = queue.take(count)
        elif queue is not None:
            queue.drop(count)
        self.tokens[slot] -= count
        left = self.init_left[slot]
        if left:
            self.init_left[slot] = left - count if left > count else 0
        if count and self.caps[slot] is not None:
            self.worklist.seed(self.chan_src_pos[slot])

    def _flush(self, slot: int, count: int, pos: int, port: str,
               late_debt: bool) -> None:
        if count <= 0:
            return
        tokens = self.tokens[slot]
        available = count if tokens >= count else tokens
        if available:
            self._take(slot, available, None, None)
        flushed = available
        if late_debt:
            self.debts[slot] += count - available
            flushed = count
        if flushed:
            self.sim.trace.discards.append(DiscardRecord(
                channel=self.chan_names[slot], port=port,
                node=self.names[pos], count=flushed, time=self.now,
            ))

    # -- firing rules -------------------------------------------------------
    def _reserve_plan(self, pos: int, n: int, mode: Mode | None,
                      token: ControlToken | None) -> tuple:
        out_ports = self.out_ports[pos]
        plan = tuple(
            (port, slot, self._rate_out(pos, port, slot, n, mode))
            for port, slot in out_ports
        )
        if token is None or not token.selection:
            return plan
        named = set(token.selection)
        if not named & {port for port, _ in out_ports}:
            return plan
        return tuple(item for item in plan if token.selects(item[0]))

    def _capacity_blocked(self, pos: int, n: int, mode: Mode | None,
                          reserve: tuple, consume) -> bool:
        caps = self.caps
        for port, slot, rate in reserve:
            cap = caps[slot]
            if cap is None:
                continue
            credit = 0
            if self.chan_dst_pos[slot] == pos:
                dst_port = self.chan_dst_port[slot]
                for cport, _ in consume:
                    if cport == dst_port:
                        credit = self._rate_in(pos, dst_port, slot, n, mode)
                        break
            if self.tokens[slot] - credit + self.reserved[slot] + rate > cap:
                return True
        return False

    def _kernel_plan(self, pos: int):
        """``(token_or_None, ports_to_consume)`` if fireable, else None."""
        n = self.fired[pos]
        tokens = self.tokens
        cslot = self.ctrl_slot[pos]
        token: ControlToken | None = None
        needs_control = False
        if cslot >= 0:
            phases = self.cons_ph[cslot]
            control_rate = phases[n % len(phases)]
            if control_rate > 1:
                kernel = self.nodes[pos]
                raise SimulationError(
                    f"kernel {self.names[pos]!r} control port "
                    f"{kernel.control_port().name!r} has rate "
                    f"{control_rate} at firing {n}; only rates 0 "
                    f"(inactive phase) and 1 are supported"
                )
            needs_control = control_rate == 1
            if needs_control:
                if not tokens[cslot]:
                    return None
                head = self.queues[cslot].peek()
                token = (head if isinstance(head, ControlToken)
                         else _WAIT_ALL_TOKEN)
        mode = token.mode if token is not None else Mode.WAIT_ALL

        data_ports = self.data_in[pos]
        if mode is Mode.WAIT_ALL:
            for port, slot in data_ports:
                if tokens[slot] < self._rate_in(pos, port, slot, n, mode):
                    return None
            consume = data_ports
        elif mode is Mode.SELECT_ONE or mode is Mode.SELECT_MANY:
            if token.selection and not (
                set(token.selection) & {port for port, _ in data_ports}
            ):
                consume = data_ports
            else:
                consume = tuple(
                    (port, slot) for port, slot in data_ports
                    if token.selects(port)
                )
            for port, slot in consume:
                if tokens[slot] < self._rate_in(pos, port, slot, n, mode):
                    return None
        else:  # HIGHEST_PRIORITY
            consume = None
            for port, slot in self.hp_order[pos]:
                rate = self._rate_in(pos, port, slot, n, mode)
                if rate > 0 and tokens[slot] >= rate:
                    consume = ((port, slot),)
                    break
            if consume is None:
                return None  # sleep until an input arrives
        if self.any_capacity and self._capacity_blocked(
            pos, n, mode, self._reserve_plan(pos, n, mode, token), consume,
        ):
            return None
        return token if needs_control else None, consume

    def _control_ready(self, pos: int) -> bool:
        if self.is_clock[pos]:
            return False  # time-triggered, never data-ready
        n = self.fired[pos]
        tokens = self.tokens
        for port, slot in self.in_ports[pos]:
            phases = self.cons_ph[slot]
            if tokens[slot] < phases[n % len(phases)]:
                return False
        if self.any_capacity:
            for port, slot in self.out_ports[pos]:
                cap = self.caps[slot]
                if cap is None:
                    continue
                credit = 0
                if self.chan_dst_pos[slot] == pos:
                    cphases = self.cons_ph[slot]
                    credit = cphases[n % len(cphases)]
                phases = self.prod_ph[slot]
                rate = phases[n % len(phases)]
                if tokens[slot] - credit + self.reserved[slot] + rate > cap:
                    return False
        return True

    # -- starting firings ---------------------------------------------------
    def _begin_control(self, pos: int) -> None:
        n = self.fired[pos]
        collect = self.collects[pos]
        consumed: dict | None = {} if collect else None
        for port, slot in self.in_ports[pos]:
            phases = self.cons_ph[slot]
            rate = phases[n % len(phases)]
            self._take(slot, rate, consumed, port)
        reserve: tuple | None = None
        if self.any_capacity:
            reserve = tuple(
                (port, slot,
                 self.prod_ph[slot][n % len(self.prod_ph[slot])])
                for port, slot in self.out_ports[pos]
            )
            for _, slot, rate in reserve:
                self.reserved[slot] += rate
        const = self.exec_const[pos]
        if const is None:
            phases = self.exec_phases[pos]
            const = phases[n % len(phases)]
        self.busy[pos] = 1
        self.ev_start[pos] = self.now
        self.ev_consumed[pos] = consumed
        self.ev_reserve[pos] = reserve
        self._push(self.now + const, _CONTROL_DONE, pos)

    def _begin_kernel(self, pos: int, token: ControlToken | None,
                      consume) -> None:
        n = self.fired[pos]
        mode = token.mode if token is not None else None
        collect = self.collects[pos]
        consumed: dict | None = {} if collect else None
        if token is not None:
            self._take(self.ctrl_slot[pos], 1, None, None)
        for port, slot in consume:
            self._take(slot, self._rate_in(pos, port, slot, n, mode),
                       consumed, port)
        # Rejected ports: flush this firing's worth of tokens.
        late_debt = bool(self.discard_late[pos])
        if len(consume) != len(self.data_in[pos]):
            taken = {port for port, _ in consume}
            for port, slot in self.data_in[pos]:
                if port in taken:
                    continue
                self._flush(slot, self._rate_in(pos, port, slot, n, mode),
                            pos, port, late_debt)

        reserve: tuple | None = None
        if self.any_capacity:
            reserve = self._reserve_plan(pos, n, mode, token)
            for _, slot, rate in reserve:
                self.reserved[slot] += rate

        time_fn = self.time_fns[pos]
        if time_fn is not None:
            duration = float(time_fn(n, consumed))
        else:
            duration = self.exec_const[pos]
            if duration is None:
                phases = self.exec_phases[pos]
                duration = phases[n % len(phases)]
        self.busy[pos] = 1
        self.running += 1
        self.ev_start[pos] = self.now
        self.ev_token[pos] = token
        self.ev_consumed[pos] = consumed
        self.ev_reserve[pos] = reserve
        self._push(self.now + duration, _KERNEL_DONE, pos)

    # -- completing firings -------------------------------------------------
    def _record(self, pos: int, n: int, start: float,
                token: ControlToken | None, consumed, produced) -> None:
        self.col_node.append(self.names[pos])
        self.col_index.append(n)
        self.col_start.append(start)
        self.col_end.append(self.now)
        self.col_mode.append(token)
        if self.record_values:
            self.col_consumed.append(consumed)
            self.col_produced.append(produced)

    def _complete_control(self, pos: int) -> None:
        n = self.fired[pos]
        start = self.ev_start[pos]
        consumed = self.ev_consumed[pos]
        reserve = self.ev_reserve[pos]
        self.ev_consumed[pos] = None
        self.ev_reserve[pos] = None
        actor = self.nodes[pos]
        if consumed:
            flat_inputs = [v for values in consumed.values() for v in values]
        else:
            flat_inputs = []
        token = actor.decide(n, flat_inputs)
        if reserve is not None:
            for _, slot, rate in reserve:
                self.reserved[slot] -= rate
        produced: dict | None = {} if self.record_values else None
        for port, slot in self.out_ports[pos]:
            phases = self.prod_ph[slot]
            rate = phases[n % len(phases)]
            values = [token] * rate
            if produced is not None:
                produced[port] = values
            self._deposit_values(slot, values)
        self.busy[pos] = 0
        self.fired[pos] = n + 1
        self.worklist.seed(pos)
        self._record(pos, n, start, token, consumed, produced)

    def _complete_kernel(self, pos: int) -> None:
        n = self.fired[pos]
        start = self.ev_start[pos]
        token = self.ev_token[pos]
        consumed = self.ev_consumed[pos]
        reserve = self.ev_reserve[pos]
        self.ev_token[pos] = None
        self.ev_consumed[pos] = None
        self.ev_reserve[pos] = None
        outputs = self._apply_function(pos, n, token, consumed)
        if reserve is not None:
            for _, slot, rate in reserve:
                self.reserved[slot] -= rate
        for port, slot in self.out_ports[pos]:
            self._deposit_values(slot, outputs[port])
        self.busy[pos] = 0
        self.fired[pos] = n + 1
        self.running -= 1
        worklist = self.worklist
        worklist.seed(pos)
        if self.core_blocked:
            for blocked in self.core_blocked:
                self.core_blocked_flag[blocked] = 0
                worklist.seed(blocked)
            self.core_blocked.clear()
        self._record(pos, n, start, token, consumed, outputs)

    def _apply_function(self, pos: int, n: int, token: ControlToken | None,
                        consumed) -> dict:
        """Run the kernel's function and shape its outputs per port
        (exact mirror of ``Simulator._apply_function``)."""
        name = self.names[pos]
        mode = token.mode if token is not None else None
        out_rates = {
            port: self._rate_out(pos, port, slot, n, mode)
            for port, slot in self.out_ports[pos]
        }
        if (
            token is None
            or not token.selection
            or not set(token.selection) & set(out_rates)
        ):
            enabled = dict(out_rates)
        else:
            enabled = {
                port: rate for port, rate in out_rates.items()
                if token.selects(port)
            }
        function = self.functions[pos]
        if function is None:
            result = None
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
            outputs = {
                port: ([result] * rate if port in enabled else [])
                for port, rate in out_rates.items()
            }
        return outputs

    # -- clocks -------------------------------------------------------------
    def _schedule_clock(self, pos: int, until: float) -> None:
        tick = self.now + self.clock_period[pos]
        if tick <= until:
            self._push(tick, _TICK, pos)

    def _complete_tick(self, pos: int, until: float) -> None:
        n = self.fired[pos]
        if n < self.limit[pos]:
            decision = self.decisions[pos]
            if decision is not None:
                token = decision(n, [])
            else:
                token = highest_priority(deadline=self.now)
            produced: dict | None = {} if self.record_values else None
            for port, slot in self.out_ports[pos]:
                phases = self.prod_ph[slot]
                rate = phases[n % len(phases)]
                values = [token] * rate
                if produced is not None:
                    produced[port] = values
                self._deposit_values(slot, values)
            self.fired[pos] = n + 1
            start = self.now
            self._record(pos, n, start, token, None, produced)
        self._schedule_clock(pos, until)

    # -- trace sync ---------------------------------------------------------
    def _sync(self) -> None:
        sim = self.sim
        sim.now = self.now
        if self.col_node:
            sim.trace._extend_from_columns(
                self.col_node, self.col_index, self.col_start,
                self.col_end, self.col_mode,
                self.col_consumed if self.record_values else None,
                self.col_produced if self.record_values else None,
            )
            del self.col_node[:]
            del self.col_index[:]
            del self.col_start[:]
            del self.col_end[:]
            del self.col_mode[:]
            del self.col_consumed[:]
            del self.col_produced[:]
        peaks = sim.trace.peaks
        chan_names = self.chan_names
        for slot, peak in enumerate(self.peaks):
            name = chan_names[slot]
            if peak > peaks[name]:
                peaks[name] = peak

    # -- public API for the Simulator ---------------------------------------
    def tokens_of(self, channel: str) -> int:
        return self.tokens[self.slot_of[channel]]

    def values_of(self, channel: str) -> list:
        slot = self.slot_of[channel]
        queue = self.queues[slot]
        if queue is not None:
            return list(queue)
        left = self.init_left[slot]
        return [INITIAL_TOKEN] * left + [None] * (self.tokens[slot] - left)

    def reserved_of(self, channel: str) -> int:
        return self.reserved[self.slot_of[channel]]

    # -- main loop ----------------------------------------------------------
    def run(self, until, limits, max_firings: int):
        sim = self.sim
        limit = self.limit
        for pos in range(self.n):
            limit[pos] = inf
        for name, cap in limits.items():
            limit[sim._pos[name]] = cap
        if self.clocks and until is None:
            raise SimulationError(
                "graphs with clock actors need a time horizon: run(until=...)"
            )
        horizon = until if until is not None else inf
        for pos, _ in self.clocks:
            self._schedule_clock(pos, horizon)

        self.worklist.seed_all(self.n)
        try:
            self._drain(horizon, max_firings)
        finally:
            self._sync()
        return sim.trace

    def _drain(self, horizon: float, max_firings: int) -> None:
        """Start ready firings and complete events until quiescence, the
        horizon or the firing budget.  Counter kernels start and
        complete inline on the counters; every other node goes through
        the firing-rule methods, under the same worklist seeds and
        event order."""
        sim = self.sim
        events = self.events
        worklist = self.worklist
        tokens = self.tokens
        debts = self.debts
        reserved = self.reserved
        caps = self.caps
        peaks = self.peaks
        queues = self.queues
        busy = self.busy
        fired = self.fired
        limit = self.limit
        init_left = self.init_left
        chan_src = self.chan_src_pos
        chan_dst = self.chan_dst_pos
        cons_ph = self.cons_ph
        prod_ph = self.prod_ph
        in_ports = self.in_ports
        out_ports = self.out_ports
        exec_const = self.exec_const
        exec_phases = self.exec_phases
        is_ctrl = self.is_ctrl
        counter = self.counter
        any_capacity = self.any_capacity
        cores = sim.cores
        core_blocked = self.core_blocked
        core_blocked_flag = self.core_blocked_flag
        ready_stats = sim.ready_stats
        col_node = self.col_node
        col_index = self.col_index
        col_start = self.col_start
        col_end = self.col_end
        col_mode = self.col_mode
        names = self.names
        ev_start = self.ev_start
        ev_reserve = self.ev_reserve
        seed = worklist.seed
        push = self._push

        def start_ready() -> None:
            visits = 0
            while worklist.begin_scan():
                progress = False
                pos = worklist.pop()
                while pos >= 0:
                    visits += 1
                    if busy[pos] or fired[pos] >= limit[pos]:
                        pass
                    elif is_ctrl[pos]:
                        if self._control_ready(pos):
                            self._begin_control(pos)
                            progress = True
                    elif cores is not None and self.running >= cores:
                        if not core_blocked_flag[pos]:
                            core_blocked_flag[pos] = 1
                            core_blocked.append(pos)
                    elif not counter[pos]:
                        plan = self._kernel_plan(pos)
                        if plan is not None:
                            self._begin_kernel(pos, plan[0], plan[1])
                            progress = True
                    else:
                        # counter kernel: WAIT_ALL over plain counters
                        n = fired[pos]
                        ready = True
                        for _, slot in in_ports[pos]:
                            phases = cons_ph[slot]
                            if tokens[slot] < phases[n % len(phases)]:
                                ready = False
                                break
                        if ready and any_capacity:
                            reserve = []
                            for _, slot in out_ports[pos]:
                                phases = prod_ph[slot]
                                rate = phases[n % len(phases)]
                                reserve.append((slot, rate))
                                cap = caps[slot]
                                if cap is None:
                                    continue
                                credit = 0
                                if chan_dst[slot] == pos:
                                    cphases = cons_ph[slot]
                                    credit = cphases[n % len(cphases)]
                                if (tokens[slot] - credit + reserved[slot]
                                        + rate > cap):
                                    ready = False
                                    break
                        if ready:
                            for _, slot in in_ports[pos]:
                                phases = cons_ph[slot]
                                rate = phases[n % len(phases)]
                                tokens[slot] -= rate
                                left = init_left[slot]
                                if left:
                                    init_left[slot] = (
                                        left - rate if left > rate else 0
                                    )
                                queue = queues[slot]
                                if queue is not None:
                                    queue.drop(rate)
                                if rate and caps[slot] is not None:
                                    seed(chan_src[slot])
                            if any_capacity:
                                for slot, rate in reserve:
                                    reserved[slot] += rate
                                ev_reserve[pos] = reserve
                            duration = exec_const[pos]
                            if duration is None:
                                phases = exec_phases[pos]
                                duration = phases[n % len(phases)]
                            busy[pos] = 1
                            self.running += 1
                            ev_start[pos] = self.now
                            push(self.now + duration, _COUNTER_DONE, pos)
                            progress = True
                    pos = worklist.pop()
                worklist.end_scan()
                if not progress:
                    break
            ready_stats["visits"] += visits

        start_ready()
        fired_total = 0
        while events:
            time, _, kind, pos = heappop(events)
            if time > horizon:
                self.now = horizon
                break
            now = self.now = time
            ready_stats["events"] += 1
            if kind == _COUNTER_DONE:
                n = fired[pos]
                if any_capacity:
                    for slot, rate in ev_reserve[pos]:
                        reserved[slot] -= rate
                    ev_reserve[pos] = None
                for _, slot in out_ports[pos]:
                    phases = prod_ph[slot]
                    rate = phases[n % len(phases)]
                    debt = debts[slot]
                    if debt and rate:
                        settle = rate if debt >= rate else debt
                        debts[slot] = debt - settle
                        rate -= settle
                    if rate:
                        occupancy = tokens[slot] + rate
                        tokens[slot] = occupancy
                        if occupancy > peaks[slot]:
                            peaks[slot] = occupancy
                        queue = queues[slot]
                        if queue is not None:
                            queue.extend([None] * rate)
                    seed(chan_dst[slot])
                busy[pos] = 0
                fired[pos] = n + 1
                self.running -= 1
                seed(pos)
                if core_blocked:
                    for blocked in core_blocked:
                        core_blocked_flag[blocked] = 0
                        seed(blocked)
                    del core_blocked[:]
                col_node.append(names[pos])
                col_index.append(n)
                col_start.append(ev_start[pos])
                col_end.append(now)
                col_mode.append(None)
            elif kind == _KERNEL_DONE:
                self._complete_kernel(pos)
            elif kind == _CONTROL_DONE:
                self._complete_control(pos)
            else:
                self._complete_tick(pos, horizon)
            fired_total += 1
            if fired_total > max_firings:
                raise SimulationError(
                    f"exceeded {max_firings} firings; add limits= or until= "
                    f"to bound the run"
                )
            start_ready()
