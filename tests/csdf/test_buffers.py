"""Tests for buffer sizing."""

import pytest

from repro.csdf import (
    CSDFGraph,
    bounded_feasible,
    find_sequential_schedule,
    minimal_buffer_schedule,
    schedule_buffer_sizes,
    total_buffer_size,
    validate_schedule,
)
from repro.errors import DeadlockError


@pytest.fixture
def multirate() -> CSDFGraph:
    g = CSDFGraph("multirate")
    for name in ("a", "b", "c"):
        g.add_actor(name)
    g.add_channel("e1", "a", "b", 2, 1)
    g.add_channel("e2", "b", "c", 1, 2)
    return g


class TestSchedulePeaks:
    def test_grouped_schedule_peaks(self, multirate):
        schedule = find_sequential_schedule(multirate)  # a b b c
        peaks = schedule_buffer_sizes(multirate, schedule)
        assert peaks == {"e1": 2, "e2": 2}

    def test_peaks_depend_on_order(self, multirate):
        # Interleaving b as early as possible halves the peak on e1? No:
        # b needs e1 tokens; but consuming immediately keeps e1 at 1.
        schedule = ["a", "b", "b", "c"]
        peaks = schedule_buffer_sizes(multirate, schedule)
        assert peaks["e1"] == 2


class TestMinimalBufferSchedule:
    def test_greedy_no_worse_than_grouped(self, fig1):
        grouped = find_sequential_schedule(fig1)
        grouped_peaks = schedule_buffer_sizes(fig1, grouped)
        _, greedy_peaks = minimal_buffer_schedule(fig1)
        assert total_buffer_size(greedy_peaks) <= total_buffer_size(grouped_peaks)

    def test_schedule_is_valid(self, fig1):
        schedule, _ = minimal_buffer_schedule(fig1)
        validate_schedule(fig1, schedule)

    def test_deadlocked_graph_raises(self):
        g = CSDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("fwd", "a", "b", 1, 1)
        g.add_channel("back", "b", "a", 1, 1)
        with pytest.raises(DeadlockError):
            minimal_buffer_schedule(g)


class TestBoundedFeasible:
    def test_reported_peaks_are_feasible(self, fig1):
        _, peaks = minimal_buffer_schedule(fig1)
        assert bounded_feasible(fig1, peaks)

    def test_tightness_single_channel(self, multirate):
        _, peaks = minimal_buffer_schedule(multirate)
        assert bounded_feasible(multirate, peaks)
        # One token less on a critical channel must not be feasible.
        squeezed = dict(peaks)
        squeezed["e1"] = peaks["e1"] - 1
        assert not bounded_feasible(multirate, squeezed)

    def test_zero_capacity_blocks_everything(self, multirate):
        assert not bounded_feasible(multirate, {"e1": 0, "e2": 0})

    def test_missing_capacity_means_unbounded(self, multirate):
        assert bounded_feasible(multirate, {})

    def test_unknown_capacity_name_rejected(self):
        g = CSDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("e", "a", "b", 1, 1)
        # A typo must not read as "unbounded" on the real channel.
        with pytest.raises(ValueError, match="unknown channel name.*ee; graph channels are: e"):
            bounded_feasible(g, {"ee": 1})

    def test_below_initial_tokens_and_unbounded_deadlock(self):
        """A capacity below a channel's initial tokens is refused up
        front, as the executors do, and a graph that deadlocks with no
        capacity at all is infeasible under any."""
        g = CSDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("fwd", "a", "b", 1, 1, initial_tokens=2)
        g.add_channel("back", "b", "a", 1, 1)
        assert bounded_feasible(g, {"fwd": 2})
        assert not bounded_feasible(g, {"fwd": 1})
        g.channel("fwd").initial_tokens = 0
        assert not bounded_feasible(g, {})

    def test_selfloop_headroom(self):
        g = CSDFGraph()
        g.add_actor("a")
        g.add_channel("loop", "a", "a", 1, 1, initial_tokens=1)
        # Capacity 1 suffices: consume happens before produce.
        assert bounded_feasible(g, {"loop": 1})


class TestTotals:
    def test_total_buffer_size(self):
        assert total_buffer_size({"a": 3, "b": 4}) == 7
        assert total_buffer_size({}) == 0
