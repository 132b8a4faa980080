"""Unit tests for the ReadyWorklist — the scan-order tie-break
contract the simulator's schedule plane builds on."""

from repro.csdf.eventloop import ReadyWorklist


def drain_positions(wl, decide):
    """Drive a drain with the canonical pass loop; ``decide(pos)``
    returns True when the position 'starts' (progress)."""
    visited = []
    while wl.begin_scan():
        progress = False
        pos = wl.pop()
        while pos >= 0:
            visited.append(pos)
            if decide(pos):
                progress = True
            pos = wl.pop()
        wl.end_scan()
        if not progress:
            break
    return visited


class TestReadyWorklist:
    def test_positions_pop_in_increasing_order(self):
        wl = ReadyWorklist(8)
        for pos in (5, 1, 7, 3):
            wl.seed(pos)
        assert drain_positions(wl, lambda pos: False) == [1, 3, 5, 7]

    def test_seed_is_idempotent_per_pass(self):
        wl = ReadyWorklist(4)
        wl.seed(2)
        wl.seed(2)
        assert drain_positions(wl, lambda pos: False) == [2]

    def test_seed_behind_cursor_joins_next_pass(self):
        """The legacy rescan: a start that enables an *earlier*
        position defers it to the next forward scan."""
        wl = ReadyWorklist(4)
        wl.seed(1)
        wl.seed(2)
        order = []

        def decide(pos):
            order.append(pos)
            if pos == 2:
                wl.seed(0)  # behind the cursor -> next pass
                return True
            return False

        drain_positions(wl, decide)
        assert order == [1, 2, 0]

    def test_seed_ahead_of_cursor_joins_current_pass(self):
        """The legacy forward cursor reaches later positions in the
        same scan, so an enable-ahead is examined immediately."""
        wl = ReadyWorklist(4)
        wl.seed(0)
        order = []

        def decide(pos):
            order.append(pos)
            if pos == 0:
                wl.seed(3)  # ahead of the cursor -> this pass
                return True
            return False

        drain_positions(wl, decide)
        assert order == [0, 3]

    def test_no_progress_pass_ends_drain(self):
        wl = ReadyWorklist(3)
        wl.seed(0)
        wl.seed(1)
        visited = drain_positions(wl, lambda pos: False)
        assert visited == [0, 1]
        assert not wl

    def test_bool_reflects_pending_work(self):
        wl = ReadyWorklist(2)
        assert not wl
        wl.seed(1)
        assert wl
        drain_positions(wl, lambda pos: False)
        assert not wl
