"""Calendar-queue event scheduler for the array-state backend.

A calendar queue (Brown 1988) buckets future events by time the way a
desk calendar buckets appointments by day: ``nbuckets`` "days" of
``width`` model-time each, wrapping around year after year.  With the
width matched to the typical inter-event gap, each bucket holds O(1)
events, so ``push`` is an append into the right day and ``pop`` scans
the current day — O(1) amortized, against the O(log n) of a binary
heap.  The win only materializes at scale; at the queue sizes a small
graph produces, CPython's C ``heapq`` is unbeatable, which drives the
mode policy below.

Contract
--------
:class:`CalendarQueue` is a drop-in for
:class:`repro.csdf.eventloop.EventQueue`: ``push(time, payload)``
returns a monotonically increasing sequence number, ``pop`` returns
the earliest ``(time, seq, payload)`` with the exact ``(time, seq)``
FIFO tie-break (equal times pop in push order), and ``len``/truthiness
count queued events.  The executors can therefore pick either queue
without changing a single scheduling decision; the property suite
(``tests/csdf/test_scheduler_primitives.py``) drives both against one
sorted-list oracle.

Bucket policy
-------------
* The queue **starts in heap mode** and converts to a calendar only
  once the queued count exceeds ``calendar_threshold`` (default 128) —
  below that, bucket bookkeeping costs more than ``heapq`` saves.  In
  heap mode the hot path is bare ``heappush``/``heappop`` plus an
  integer counter.
* On conversion (and on each doubling resize) the width is
  re-estimated as three times the mean gap between the distinct event
  times currently queued — the classic rule of thumb that keeps the
  occupied day span a few buckets wide.
* The estimate **degenerates** when the queued times cannot span a
  calendar: fewer than two distinct times (e.g. a same-timestamp
  burst), a zero/negative mean gap, or a non-finite spread.  A
  degenerate width falls back to the heap and retries once the queue
  has doubled again, so pathological workloads simply keep heap
  behaviour instead of an unbounded bucket scan.
* The calendar resizes to twice the bucket count when the queued count
  outgrows it (amortized O(1)), and reverts to heap mode when the
  queued count falls back below half the threshold.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any

__all__ = ["CalendarQueue"]

#: Width multiplier over the mean inter-event gap (Brown's rule of
#: thumb: a day should hold a few events, not fractions of one).
_WIDTH_FACTOR = 3.0


class CalendarQueue:
    """Timed event queue with calendar buckets and a heap fallback.

    Parameters
    ----------
    calendar_threshold:
        Queued-event count above which the queue converts from heap mode
        to calendar buckets.  The default keeps small executions on
        the C heap; tests force conversion with a small threshold.
    bucket_width:
        Fixed bucket width override (model time per day).  ``None``
        (the default) estimates the width from the queued event times
        at conversion/resize.
    """

    __slots__ = ("_seq", "_count", "_heap", "_buckets", "_mask",
                 "_width", "_bucket_index", "_bucket_top",
                 "_threshold", "_convert_at", "_forced_width")

    def __init__(self, calendar_threshold: int = 128,
                 bucket_width: float | None = None) -> None:
        if bucket_width is not None and not bucket_width > 0:
            raise ValueError(f"bucket_width must be > 0, got {bucket_width}")
        self._seq = 0
        self._count = 0
        self._heap: list[tuple[float, int, Any]] = []
        self._buckets: list[list[tuple[float, int, Any]]] | None = None
        self._mask = 0
        self._width = 0.0
        self._bucket_index = 0
        self._bucket_top = 0.0
        self._threshold = max(0, calendar_threshold)
        self._convert_at = max(1, calendar_threshold)
        self._forced_width = bucket_width

    # -- public contract (mirrors EventQueue) ---------------------------
    @property
    def mode(self) -> str:
        """``"heap"`` or ``"calendar"`` — the active storage layout."""
        return "heap" if self._buckets is None else "calendar"

    def push(self, time: float, payload: Any) -> int:
        seq = self._seq
        self._seq = seq + 1
        count = self._count + 1
        self._count = count
        if self._buckets is None:
            heappush(self._heap, (time, seq, payload))
            if count >= self._convert_at:
                self._enter_calendar()
        else:
            day = int(time // self._width)
            self._buckets[day & self._mask].append((time, seq, payload))
            if time < self._bucket_top - self._width:
                # Pushed before the current scan day: rewind the scan
                # pointer so the new earliest event is not lapped.
                self._bucket_index = day & self._mask
                self._bucket_top = (day + 1) * self._width
            if count > 2 * len(self._buckets):
                self._rebuild(calendar=True)
        return seq

    def pop(self) -> tuple[float, int, Any]:
        """Remove and return the earliest ``(time, seq, payload)``.

        Raises ``IndexError`` when no event is queued.
        """
        if self._buckets is None:
            entry = heappop(self._heap)  # IndexError on empty
            self._count -= 1
            return entry
        if not self._count:
            raise IndexError("pop from an empty CalendarQueue")
        entry = self._pop_calendar()
        self._count -= 1
        if self._count < self._threshold // 2:
            self._rebuild(calendar=False)
        return entry

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    # -- calendar internals ---------------------------------------------
    def _entries(self) -> list[tuple[float, int, Any]]:
        """Queued entries, regardless of mode."""
        if self._buckets is None:
            return list(self._heap)
        return [entry for bucket in self._buckets for entry in bucket]

    def _estimate_width(self, entries: list) -> float | None:
        """Bucket width from the mean gap of the queued distinct times;
        ``None`` when the estimate degenerates (see module docstring)."""
        if self._forced_width is not None:
            return self._forced_width
        distinct = sorted({entry[0] for entry in entries})
        if len(distinct) < 2:
            return None
        span = distinct[-1] - distinct[0]
        width = _WIDTH_FACTOR * span / (len(distinct) - 1)
        if not width > 0.0 or width == float("inf") or span == float("inf"):
            return None
        return width

    def _enter_calendar(self) -> None:
        entries = self._entries()
        width = self._estimate_width(entries)
        if width is None:
            # Degenerate width: stay on the heap, try again once the
            # queue has doubled (the next burst may be schedulable).
            self._convert_at = max(self._convert_at * 2, 2)
            return
        self._install(entries, width)
        self._heap = []

    def _rebuild(self, calendar: bool) -> None:
        """Resize the calendar (grow) or revert to the heap (shrink)."""
        entries = self._entries()
        if calendar:
            width = self._estimate_width(entries)
            if width is None:
                width = self._width  # keep the old estimate; still exact
            self._install(entries, width)
        else:
            self._buckets = None
            self._heap = entries
            heapify(self._heap)
            self._convert_at = max(1, self._threshold)

    def _install(self, entries: list, width: float) -> None:
        nbuckets = 1 << max(2, len(entries)).bit_length()
        mask = nbuckets - 1
        buckets: list[list] = [[] for _ in range(nbuckets)]
        for entry in entries:
            buckets[int(entry[0] // width) & mask].append(entry)
        self._buckets = buckets
        self._mask = mask
        self._width = width
        start = min((entry[0] for entry in entries), default=0.0)
        day = int(start // width)
        self._bucket_index = day & mask
        self._bucket_top = (day + 1) * width

    def _pop_calendar(self) -> tuple[float, int, Any]:
        buckets = self._buckets
        assert buckets is not None
        mask, width = self._mask, self._width
        index, top = self._bucket_index, self._bucket_top
        for _ in range(len(buckets)):
            bucket = buckets[index]
            best = None
            if bucket:
                for entry in bucket:
                    if entry[0] < top and (best is None or entry < best):
                        best = entry
            if best is not None:
                bucket.remove(best)
                # Re-anchor the scan day exactly from the popped time
                # (accumulating ``top += width`` would drift).
                day = int(best[0] // width)
                self._bucket_index = day & mask
                self._bucket_top = (day + 1) * width
                return best
            index = (index + 1) & mask
            top += width
        # A full lap found nothing within its day: the queue is sparse
        # relative to the calendar year.  Jump straight to the global
        # minimum (the standard calendar-queue escape hatch).
        best = None
        for bucket in buckets:
            for entry in bucket:
                if best is None or entry < best:
                    best = entry
        assert best is not None
        day = int(best[0] // width)
        buckets[day & mask].remove(best)
        self._bucket_index = day & mask
        self._bucket_top = (day + 1) * width
        return best
