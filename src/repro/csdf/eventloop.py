"""Ready worklist of the discrete-event loops.

The loops of the reproduction — the timed CSDF executor
(:mod:`repro.csdf.throughput`) and the value-carrying TPDF simulator
(:mod:`repro.sim.engine`) — schedule completion events on bare
``heapq`` lists of ``(time, seq, ...)`` tuples: events at equal times
pop in push order, and no firing is ever revoked.  The one structure
kept out of line is:

:class:`ReadyWorklist`
    A pending-ready worklist over integer actor positions, used by the
    simulator's schedule plane (:mod:`repro.sim.schedplane`).  The
    plane seeds it with exactly the actors whose readiness *may* have
    changed — the **wakeup invariant**: an actor is re-examined iff an
    adjacent channel's token count (or reserved capacity) changed, the
    actor itself completed a firing, or a core it was waiting for was
    released.  Draining the worklist visits only those candidates, yet
    reproduces the legacy full-scan semantics **bit for bit**.

Tie-break contract
------------------
The legacy loops scan a fixed actor order with a forward cursor and
restart the scan whenever some actor started (a start may enable an
actor at an *earlier* position, e.g. a producer unblocked by the
capacity its consumer just freed).  Scheduling decisions under a core
budget, and the sequence numbers that order simultaneous events, both
depend on that exact start order.  :class:`ReadyWorklist` preserves it:

* candidates are examined in increasing position order;
* a candidate seeded at a position *behind* the scan cursor joins the
  **next** pass (the legacy restart), one seeded *ahead* of the cursor
  joins the current pass (the legacy cursor reaches it).

Because every candidate the legacy scan would have *started* is, by the
wakeup invariant, present in the worklist at the same point of the same
pass, the two disciplines start identical firings in identical order.
The differential suite ``tests/sim/test_eventloop_differential.py``
pins this equivalence against the retained ``*_reference`` loops.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterator

__all__ = ["ReadyWorklist"]


class ReadyWorklist:
    """Pending-ready worklist over ``n`` integer positions.

    Positions are seeded when their readiness may have changed and
    drained in legacy scan order (see the module docstring for the
    tie-break contract).  A drain is structured as passes::

        while worklist.begin_scan():
            progress = False
            while (pos := worklist.pop()) >= 0:
                ...examine pos; on a start set progress = True...
            worklist.end_scan()
            if not progress:
                break

    ``seed`` during a scan routes positions ahead of the cursor into
    the current pass and positions at or behind it into the next pass;
    ``seed`` outside a scan always defers to the next pass.  Seeding is
    idempotent (a position queued for a pass is queued once).
    """

    __slots__ = ("_cur", "_nxt", "_in_cur", "_in_nxt", "_cursor", "_scanning")

    def __init__(self, n: int) -> None:
        self._cur: list[int] = []
        self._nxt: list[int] = []
        self._in_cur = bytearray(n)
        self._in_nxt = bytearray(n)
        self._cursor = -1
        self._scanning = False

    def seed(self, pos: int) -> None:
        """Mark ``pos`` for (re-)examination."""
        if self._scanning and pos > self._cursor:
            if not self._in_cur[pos]:
                self._in_cur[pos] = 1
                heappush(self._cur, pos)
        elif not self._in_nxt[pos]:
            self._in_nxt[pos] = 1
            heappush(self._nxt, pos)

    def seed_all(self, n: int) -> None:
        """Mark positions ``0..n-1`` (initial drain / fresh run)."""
        for pos in range(n):
            self.seed(pos)

    def begin_scan(self) -> bool:
        """Promote deferred seeds and open a pass.

        Returns ``False`` when there is nothing to examine (the drain
        is complete).
        """
        cur, nxt = self._cur, self._nxt
        in_cur, in_nxt = self._in_cur, self._in_nxt
        while nxt:
            pos = heappop(nxt)
            if in_nxt[pos]:
                in_nxt[pos] = 0
                if not in_cur[pos]:
                    in_cur[pos] = 1
                    heappush(cur, pos)
        self._cursor = -1
        self._scanning = True
        if cur:
            return True
        self._scanning = False
        return False

    def pop(self) -> int:
        """Next position of the current pass, or ``-1`` when the pass
        is exhausted."""
        cur, in_cur = self._cur, self._in_cur
        while cur:
            pos = heappop(cur)
            if in_cur[pos]:
                in_cur[pos] = 0
                self._cursor = pos
                return pos
        return -1

    def end_scan(self) -> None:
        self._scanning = False

    def pending(self) -> Iterator[int]:
        """Queued positions (both passes), for introspection/tests."""
        seen = {p for p in self._cur if self._in_cur[p]}
        seen.update(p for p in self._nxt if self._in_nxt[p])
        return iter(sorted(seen))

    def __bool__(self) -> bool:
        return any(self._in_cur) or any(self._in_nxt)
