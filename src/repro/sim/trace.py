"""Execution traces of the discrete-event simulator.

A trace records every firing (who, when, in which mode), channel
occupancy peaks, and — optionally — the data values moved, so tests
can assert functional behaviour (e.g. the OFDM chain recovers the
transmitted bits) and benches can report buffer sizes (Fig. 8) and
latencies (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..tpdf.modes import ControlToken


class InitialToken:
    """Sentinel payload carried by a channel's *initial* tokens.

    Initial tokens exist before any producer fired, so they have no
    computed value; pre-filling ``None`` (the pre-split behaviour) made
    them indistinguishable from a genuine ``None`` produced by a
    kernel function.  Every initial token is this singleton instead:
    ``value is INITIAL_TOKEN`` tells a ``function`` kernel "no payload
    yet".  The sentinel is falsy, so existing guards of the form
    ``if consumed.get(port):`` keep treating it as absent.
    """

    __slots__ = ()
    _singleton: "InitialToken | None" = None

    def __new__(cls) -> "InitialToken":
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "InitialToken"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        return (InitialToken, ())


#: The one shared sentinel instance (``InitialToken()`` returns it too).
INITIAL_TOKEN = InitialToken()


@dataclass
class FiringRecord:
    """One completed firing."""

    node: str
    index: int  # 0-based firing count of this node
    start: float
    end: float
    mode: ControlToken | None = None
    consumed: dict[str, list] | None = None
    produced: dict[str, list] | None = None

    def __str__(self) -> str:
        mode = f" [{self.mode}]" if self.mode is not None else ""
        return f"{self.node}#{self.index} @ [{self.start}, {self.end}){mode}"


@dataclass
class DiscardRecord:
    """Tokens rejected by a mode decision and flushed from a channel."""

    channel: str
    port: str
    node: str
    count: int
    time: float


class Trace:
    """Aggregated observations of one simulation run.

    ``firings`` is a list of :class:`FiringRecord`; the reference
    engine appends records directly.  The arrays schedule plane
    instead hands over *columns* (parallel lists of node/index/start/
    end/mode) via :meth:`_extend_from_columns` — record objects are
    only constructed when ``firings`` is first read, and
    :meth:`fingerprint` digests the columns without ever building
    them.  Both paths produce byte-identical fingerprints.
    """

    __slots__ = ("_firings", "_columns", "discards", "peaks")

    def __init__(self, firings: list[FiringRecord] | None = None,
                 discards: list[DiscardRecord] | None = None,
                 peaks: dict[str, int] | None = None):
        self._firings: list[FiringRecord] = (
            firings if firings is not None else []
        )
        #: un-materialized firing columns from the arrays plane:
        #: ``(nodes, indices, starts, ends, modes, consumed, produced)``
        self._columns: tuple | None = None
        self.discards: list[DiscardRecord] = (
            discards if discards is not None else []
        )
        #: peak occupancy per channel (includes initial tokens)
        self.peaks: dict[str, int] = peaks if peaks is not None else {}

    @property
    def firings(self) -> list[FiringRecord]:
        if self._columns is not None:
            self._materialize()
        return self._firings

    @firings.setter
    def firings(self, records: list[FiringRecord]) -> None:
        self._columns = None
        self._firings = records

    def _materialize(self) -> None:
        nodes, indices, starts, ends, modes, consumed, produced = self._columns
        self._columns = None
        append = self._firings.append
        for i in range(len(nodes)):
            append(FiringRecord(
                node=nodes[i], index=indices[i], start=starts[i],
                end=ends[i], mode=modes[i],
                consumed=consumed[i] if consumed is not None else None,
                produced=produced[i] if produced is not None else None,
            ))

    def _extend_from_columns(self, nodes, indices, starts, ends, modes,
                             consumed=None, produced=None) -> None:
        """Append a batch of firings in columnar form (arrays plane).

        Record construction is deferred until ``firings`` is read; if
        records were already materialized (or engine-appended), the
        batch is converted eagerly so the list stays complete.
        """
        if not nodes:
            return
        if self._columns is None and not self._firings:
            self._columns = (list(nodes), list(indices), list(starts),
                             list(ends), list(modes),
                             list(consumed) if consumed is not None else None,
                             list(produced) if produced is not None else None)
            return
        if self._columns is not None:
            cols = self._columns
            cols[0].extend(nodes)
            cols[1].extend(indices)
            cols[2].extend(starts)
            cols[3].extend(ends)
            cols[4].extend(modes)
            if cols[5] is not None and consumed is not None:
                cols[5].extend(consumed)
            if cols[6] is not None and produced is not None:
                cols[6].extend(produced)
            return
        append = self._firings.append
        for i in range(len(nodes)):
            append(FiringRecord(
                node=nodes[i], index=indices[i], start=starts[i],
                end=ends[i], mode=modes[i],
                consumed=consumed[i] if consumed is not None else None,
                produced=produced[i] if produced is not None else None,
            ))

    def __reduce__(self):
        # Pickle the materialized form (the service ships traces
        # across the worker pipe).
        return (Trace, (self.firings, self.discards, self.peaks))

    def __repr__(self) -> str:
        pending = len(self._columns[0]) if self._columns is not None else 0
        return (f"Trace(firings={len(self._firings) + pending}, "
                f"discards={len(self.discards)}, "
                f"channels={len(self.peaks)})")

    def fingerprint(self) -> str:
        """Deterministic digest of the whole trace — firing order,
        exact event times, modes, discards, and channel peaks.

        Two simulator runs are bit-for-bit equivalent iff their
        fingerprints match; the event-loop differential suite uses
        this to pin the dependency-driven ready check against the
        legacy full-rescan reference."""
        import hashlib

        digest = hashlib.sha256()
        for record in self._firings:
            digest.update(
                f"F|{record.node}|{record.index}|{record.start!r}|"
                f"{record.end!r}|{record.mode!r}\n".encode()
            )
        if self._columns is not None:
            nodes, indices, starts, ends, modes = self._columns[:5]
            for i in range(len(nodes)):
                digest.update(
                    f"F|{nodes[i]}|{indices[i]}|{starts[i]!r}|"
                    f"{ends[i]!r}|{modes[i]!r}\n".encode()
                )
        for discard in self.discards:
            digest.update(
                f"D|{discard.channel}|{discard.port}|{discard.node}|"
                f"{discard.count}|{discard.time!r}\n".encode()
            )
        for channel, peak in self.peaks.items():
            digest.update(f"P|{channel}|{peak}\n".encode())
        return digest.hexdigest()

    def firings_of(self, node: str) -> list[FiringRecord]:
        return [record for record in self.firings if record.node == node]

    def count(self, node: str) -> int:
        return sum(1 for record in self.firings if record.node == node)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for record in self.firings:
            out[record.node] = out.get(record.node, 0) + 1
        return out

    def end_time(self) -> float:
        return max((record.end for record in self.firings), default=0.0)

    def total_buffer(self) -> int:
        return sum(self.peaks.values())

    def discarded_tokens(self) -> int:
        return sum(record.count for record in self.discards)

    def produced_values(self, node: str, port: str) -> list[Any]:
        """All values a node emitted on one port, in order (requires the
        simulator to run with ``record_values=True``)."""
        values: list[Any] = []
        for record in self.firings_of(node):
            if record.produced and port in record.produced:
                values.extend(record.produced[port])
        return values

    def busy_time(self, node: str) -> float:
        """Total time the node spent executing."""
        return sum(r.end - r.start for r in self.firings_of(node))

    def utilization(self) -> dict[str, float]:
        """Per-node busy fraction of the trace's time span."""
        horizon = self.end_time()
        if horizon <= 0.0:
            return {}
        return {
            node: self.busy_time(node) / horizon
            for node in sorted({r.node for r in self.firings})
        }

    def gantt(self, width: int = 72) -> str:
        """ASCII timeline, one row per node."""
        if not self.firings:
            return "(no firings)"
        horizon = self.end_time() or 1.0
        scale = width / horizon
        nodes = sorted({record.node for record in self.firings})
        lines = []
        for node in nodes:
            row = [" "] * (width + 1)
            for record in self.firings_of(node):
                lo = int(record.start * scale)
                hi = max(lo + 1, int(record.end * scale))
                for pos in range(lo, min(hi, width)):
                    row[pos] = "#" if row[pos] == " " else "%"
            lines.append(f"{node:>12} |{''.join(row).rstrip()}")
        return "\n".join(lines)
