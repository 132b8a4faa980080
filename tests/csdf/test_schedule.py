"""Tests for PASS construction and validation."""

import pytest

from repro.csdf import (
    CSDFGraph,
    SequentialSchedule,
    find_sequential_schedule,
    is_live,
    validate_schedule,
)
from repro.errors import DeadlockError
from repro.symbolic import Poly


class TestSequentialSchedule:
    def test_runs_grouping(self):
        s = SequentialSchedule(["a", "a", "b", "a"])
        assert s.runs() == [("a", 2), ("b", 1), ("a", 1)]

    def test_str_rendering(self):
        s = SequentialSchedule(["a", "a", "b"])
        assert str(s) == "(a)^2 b"

    def test_counts(self):
        s = SequentialSchedule(["a", "b", "a"])
        assert s.counts() == {"a": 2, "b": 1}

    def test_equality_with_sequences(self):
        assert SequentialSchedule(["a", "b"]) == ["a", "b"]
        assert SequentialSchedule(["a"]) == SequentialSchedule(["a"])


class TestFig1Schedule:
    def test_grouped_matches_paper(self, fig1):
        s = find_sequential_schedule(fig1)
        assert str(s) == "(a3)^2 (a1)^3 (a2)^2"

    def test_round_robin_also_valid(self, fig1):
        s = find_sequential_schedule(fig1, policy="round_robin")
        validate_schedule(fig1, s)

    def test_validation_passes(self, fig1):
        s = find_sequential_schedule(fig1)
        state = validate_schedule(fig1, s)
        assert state.matches_initial_state()

    def test_is_live(self, fig1):
        assert is_live(fig1)


class TestDeadlocks:
    def build_cycle(self, tokens: int) -> CSDFGraph:
        g = CSDFGraph("cycle")
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("fwd", "a", "b", 1, 1)
        g.add_channel("back", "b", "a", 1, 1, initial_tokens=tokens)
        return g

    def test_tokenless_cycle_deadlocks(self):
        g = self.build_cycle(0)
        with pytest.raises(DeadlockError) as excinfo:
            find_sequential_schedule(g)
        assert set(excinfo.value.blocked) == {"a", "b"}
        assert excinfo.value.partial_schedule == []

    def test_seeded_cycle_lives(self):
        g = self.build_cycle(1)
        s = find_sequential_schedule(g)
        validate_schedule(g, s)

    def test_is_live_false(self):
        assert not is_live(self.build_cycle(0))

    def test_partial_schedule_reported(self):
        g = CSDFGraph()
        g.add_actor("src")
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("e0", "src", "a", 1, 1)
        g.add_channel("fwd", "a", "b", 1, 2)   # b needs 2, a gives 1/firing
        g.add_channel("back", "b", "a", 2, 1)  # but a needs b first
        with pytest.raises(DeadlockError) as excinfo:
            find_sequential_schedule(g)
        assert "src" in excinfo.value.partial_schedule


class TestValidation:
    def test_wrong_counts_rejected(self, fig1):
        with pytest.raises(DeadlockError):
            validate_schedule(fig1, ["a3", "a1", "a2"])

    def test_inadmissible_order_rejected(self, fig1):
        bad = ["a1", "a1", "a1", "a2", "a2", "a3", "a3"]
        with pytest.raises(DeadlockError):
            validate_schedule(fig1, bad)

    def test_non_iteration_replay_allowed(self, fig1):
        state = validate_schedule(fig1, ["a3"], require_iteration=False)
        assert state.fired["a3"] == 1

    def test_unknown_policy(self, fig1):
        with pytest.raises(ValueError):
            find_sequential_schedule(fig1, policy="magic")


class TestCustomRepetitions:
    def test_double_iteration(self, fig1):
        targets = {"a1": 6, "a2": 4, "a3": 4}
        s = find_sequential_schedule(fig1, repetitions=targets)
        assert s.counts() == targets
        state = validate_schedule(fig1, s, require_iteration=False)
        assert state.matches_initial_state()

    def test_parametric_graph_bound(self):
        g = CSDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("e", "a", "b", Poly.var("p"), 1)
        s = find_sequential_schedule(g, bindings={"p": 3})
        assert s.counts() == {"a": 1, "b": 3}
