"""Property-based suite for the scheduler primitives.

The discrete-event loops stand on two small data structures whose
contracts every executor decision rides on:

* :class:`repro.csdf.eventloop.EventQueue` — binary heap with the
  ``(time, seq)`` FIFO tie-break;
* :class:`repro.csdf.eventloop.ReadyWorklist` — the pass-structured
  pending-ready worklist whose scan-order tie-break decides start
  order.

Random interleavings of ``push``/``pop`` are driven against one
**sorted-list oracle** (a plain list of ``(time, seq, payload)``
entries popped by ``min``).  The worklist checks pin the
``pending()`` invariants and the cursor routing of mid-pass seeds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csdf.eventloop import EventQueue, ReadyWorklist

# -- operation strategies ----------------------------------------------------

#: Times drawn from a small float pool so equal-time ties are common
#: (the FIFO tie-break is the property under test).
_TIMES = st.one_of(
    st.integers(0, 12).map(float),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _TIMES),
        st.tuples(st.just("pop"), st.just(0.0)),
    ),
    min_size=1,
    max_size=120,
)


def _drive(ops):
    """Run one interleaving against the sorted-list oracle."""
    queue = EventQueue()
    oracle: list[tuple[float, int, int]] = []
    payload = 0
    for op, time in ops:
        if op == "push":
            payload += 1
            seq = queue.push(time, payload)
            assert all(seq > other for _, other, _ in oracle)
            oracle.append((time, seq, payload))
        elif op == "pop":
            if oracle:
                expected = min(oracle)  # (time, seq) order == FIFO ties
                assert queue.pop() == expected
                oracle.remove(expected)
            else:
                with pytest.raises(IndexError):
                    queue.pop()
        assert len(queue) == len(oracle)
        assert bool(queue) == bool(oracle)
    # Drain what is left: full FIFO-ordered agreement.
    while oracle:
        expected = min(oracle)
        assert queue.pop() == expected
        oracle.remove(expected)
    assert not queue


class TestQueuesAgainstSortedOracle:
    @given(ops=_OPS)
    @settings(max_examples=60)
    def test_random_interleavings(self, ops):
        _drive(ops)


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
