"""Unit tests for the array-state template (`repro.csdf.statearrays`).

The executor-level behaviour is pinned by the differential suite
(``tests/sim/test_eventloop_differential.py``); these tests cover the
template itself: memoization per graph version, run isolation (a run
must never mutate the shared template), and a lone actor without
channels.
"""

from __future__ import annotations

import pytest

from repro.cache import analysis_cache
from repro.csdf import CSDFGraph, array_state, self_timed_execution


class TestTemplateCaching:
    def test_template_is_memoized_per_graph_version(self, fig1):
        first = array_state(fig1, None)
        assert array_state(fig1, None) is first
        assert any(key[0] == "statearrays" for key in analysis_cache(fig1))
        fig1.add_actor("late", exec_time=1.0)  # version bump
        rebuilt = array_state(fig1, None)
        assert rebuilt is not first
        assert len(rebuilt.order) == len(first.order) + 1

    def test_distinct_bindings_get_distinct_templates(self):
        from repro.tpdf import fig2_graph

        csdf = fig2_graph().as_csdf()
        one = array_state(csdf, {"p": 1})
        four = array_state(csdf, {"p": 4})
        assert one is not four
        assert array_state(csdf, {"p": 1}) is one

    def test_runs_do_not_mutate_the_template(self, fig1):
        template = array_state(fig1, None)
        assert template.tokens0 == (0, 2, 0)
        first = self_timed_execution(fig1, iterations=3)
        assert array_state(fig1, None) is template
        assert template.tokens0 == (0, 2, 0)
        again = self_timed_execution(fig1, iterations=3)
        assert first == again  # identical reruns from the shared template

    def test_capacity_runs_share_the_capacity_free_template(self, fig1):
        template = array_state(fig1, None)
        peaks = self_timed_execution(fig1, iterations=2).peaks
        self_timed_execution(fig1, iterations=2, capacities=peaks)
        assert array_state(fig1, None) is template


class TestLoneActor:
    def test_actor_without_channels_runs(self):
        lone = CSDFGraph("lone")
        lone.add_actor("only", exec_time=2.0)
        state = array_state(lone, None)
        assert (state.order, state.channel_names) == (("only",), ())
        result = self_timed_execution(lone, iterations=3)
        assert result.firings == 3
        assert result.makespan == pytest.approx(6.0)
