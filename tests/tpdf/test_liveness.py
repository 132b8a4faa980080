"""Tests for liveness analysis (Sec. III-C / Fig. 4)."""

import pytest

from repro.csdf import concrete_repetition_vector as csdf_q
from repro.csdf import cycle_subgraph, cyclic_components, find_sequential_schedule
from repro.symbolic import Poly
from repro.tpdf import (
    check_cycle,
    check_liveness,
    cluster_cycle,
    clustered_graph,
)
from tests.conftest import build_fig4

P = Poly.var("p")


class TestCycleDetection:
    def test_fig2_acyclic(self, fig2):
        assert cyclic_components(fig2.as_csdf()) == ()

    def test_fig4_cycle_found(self, fig4a):
        assert cyclic_components(fig4a.as_csdf()) == (("B", "C"),)

    def test_selfloop_detected(self, simple_pipeline):
        mid = simple_pipeline.node("mid")
        mid.add_output("loop_out", 1)
        mid.add_input("loop_in", 1)
        simple_pipeline.connect("mid.loop_out", "mid.loop_in", initial_tokens=1)
        assert ("mid",) in cyclic_components(simple_pipeline.as_csdf())


class TestFig4:
    def test_fig4a_live(self, fig4a):
        report = check_liveness(fig4a)
        assert report.live
        verdict = report.cycles[0]
        assert verdict.decided_symbolically
        assert verdict.local.counts == {"B": Poly.const(2), "C": Poly.const(2)}
        assert verdict.schedule is not None
        assert verdict.schedule.counts() == {"B": 2, "C": 2}

    def test_fig4b_live_with_interleaved_schedule(self, fig4b):
        report = check_liveness(fig4b)
        assert report.live
        schedule = report.cycles[0].schedule
        # Grouped (B)^2 (C)^2 is NOT admissible here; the found schedule
        # must interleave (the paper's late schedule (B C C B) or our
        # equivalent B C B C).
        runs = schedule.runs()
        assert all(count == 1 for _, count in runs)

    def test_tokenless_cycle_dead(self):
        g = build_fig4([2, 0], 0)
        report = check_liveness(g)
        assert not report.live
        assert "deadlock" in report.reason.lower() or report.reason

    def test_local_solution_absorbs_parameter(self, fig4a):
        verdict = check_cycle(fig4a, ("B", "C"))
        assert verdict.local.factor == P  # qG(Z) = p


class TestCycleSubgraph:
    def test_external_channels_removed(self, fig4a):
        sub = cycle_subgraph(fig4a.as_csdf(), ("B", "C"), owner=fig4a.name)
        assert sub.name == f"{fig4a.name}/cycle(B,C)"
        assert set(sub.actors) == {"B", "C"}
        assert set(sub.channels) == {"e2", "e3"}
        assert sub.channel("e3").initial_tokens == 2


class TestClustering:
    def test_cluster_matches_fig4c(self, fig4a):
        clustered = clustered_graph(fig4a)
        assert set(clustered.actors) == {"A", "Omega"}
        channel = clustered.channel("e1")
        assert channel.dst == "Omega"
        assert channel.consumption.cumulative(1) == Poly.const(2)

    def test_clustered_repetition_vector(self, fig4a):
        clustered = clustered_graph(fig4a)
        assert csdf_q(clustered, {"p": 3}) == {"A": 2, "Omega": 3}

    def test_clustered_schedule_a2_omega_p(self, fig4a):
        clustered = clustered_graph(fig4a)
        schedule = find_sequential_schedule(clustered, {"p": 2})
        assert str(schedule) == "(A)^2 (Omega)^2"

    def test_cluster_name_collision(self, fig4a):
        csdf = fig4a.as_csdf()
        with pytest.raises(Exception):
            cluster_cycle(csdf, ("B", "C"), {"B": Poly.const(2), "C": Poly.const(2)},
                          name="A")

    def test_acyclic_graph_unchanged(self, fig2):
        clustered = clustered_graph(fig2)
        assert set(clustered.actors) == {"A", "B", "C", "D", "E", "F"}


class TestParametricCycles:
    def test_witness_sampling(self):
        """A cycle whose internal rates stay parametric is validated on
        sampled parameter values."""
        from repro.symbolic import Param
        from repro.tpdf import TPDFGraph

        p = Param("p", lo=1, hi=4)
        g = TPDFGraph(parameters=[p])
        a = g.add_kernel("A")
        a.add_output("out", p)
        a.add_input("back", p)
        b = g.add_kernel("B")
        b.add_input("in", p)
        b.add_output("back", p)
        g.connect("A.out", "B.in", name="fwd")
        g.connect("B.back", "A.back", name="back", initial_tokens=4)
        report = check_liveness(g)
        assert report.live
        verdict = report.cycles[0]
        assert not verdict.decided_symbolically
        assert verdict.witnesses

    def test_witness_deadlock_detected(self):
        from repro.symbolic import Param
        from repro.tpdf import TPDFGraph

        p = Param("p", lo=1, hi=8)
        g = TPDFGraph(parameters=[p])
        a = g.add_kernel("A")
        a.add_output("out", p)
        a.add_input("back", p)
        b = g.add_kernel("B")
        b.add_input("in", p)
        b.add_output("back", p)
        g.connect("A.out", "B.in", name="fwd")
        # Only 2 initial tokens: dead for p > 2 (sampled domain catches it).
        g.connect("B.back", "A.back", name="back", initial_tokens=2)
        report = check_liveness(g)
        assert not report.live


class TestInconsistentGraphs:
    def test_liveness_requires_consistency(self):
        from repro.tpdf import TPDFGraph

        g = TPDFGraph()
        a = g.add_kernel("a")
        a.add_output("o1", 1)
        a.add_output("o2", 2)
        b = g.add_kernel("b")
        b.add_input("i1", 1)
        b.add_input("i2", 1)
        g.connect("a.o1", "b.i1")
        g.connect("a.o2", "b.i2")
        report = check_liveness(g)
        assert not report.live
        assert "consistent" in report.reason
