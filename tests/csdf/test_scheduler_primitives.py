"""Property-based suite for the scheduler primitives.

The discrete-event loops stand on a small data structure whose
contract every executor decision rides on:
:class:`repro.csdf.eventloop.ReadyWorklist`, the pass-structured
pending-ready worklist whose scan-order tie-break decides start order.
(The ``(time, seq)`` FIFO tie-break of the event heaps is pinned bit
for bit by the differential suites.)  The checks pin the ``pending()``
invariants and the cursor routing of mid-pass seeds.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csdf.eventloop import ReadyWorklist


# -- ReadyWorklist invariants ------------------------------------------------


def _drain_all(worklist, on_examine=None):
    """Canonical drain loop; returns examined positions in order."""
    examined = []
    while worklist.begin_scan():
        progress = False
        pos = worklist.pop()
        while pos >= 0:
            examined.append(pos)
            if on_examine is not None and on_examine(pos):
                progress = True
            pos = worklist.pop()
        worklist.end_scan()
        if not progress:
            break
    return examined


class TestReadyWorklistInvariants:
    @given(seeds=st.lists(st.integers(0, 15), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_pending_reflects_exactly_the_queued_positions(self, seeds):
        worklist = ReadyWorklist(16)
        for pos in seeds:
            worklist.seed(pos)
        assert list(worklist.pending()) == sorted(set(seeds))
        assert bool(worklist) == bool(seeds)
        examined = _drain_all(worklist)
        assert examined == sorted(set(seeds))
        assert list(worklist.pending()) == []
        assert not worklist

    def test_seed_during_pass_routes_by_cursor(self):
        """Ahead-of-cursor seeds join the current pass, behind-or-equal
        seeds the next pass — the documented tie-break contract."""
        worklist = ReadyWorklist(8)
        worklist.seed(3)
        order = []

        def examine(pos):
            order.append(pos)
            if pos == 3 and order.count(3) == 1:
                worklist.seed(6)  # ahead: same pass
                worklist.seed(1)  # behind: next pass
                worklist.seed(3)  # equal: next pass
                return True
            return False

        _drain_all(worklist, examine)
        assert order == [3, 6, 1, 3]
