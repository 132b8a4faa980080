"""Tests for the structural checks of the diagnostics engine on TPDF
graphs (catalog codes of :mod:`repro.diagnostics`)."""

from repro.diagnostics import run_diagnostics
from repro.tpdf import TPDFGraph, clock, fig2_graph


def codes(graph) -> set[str]:
    return {finding.code for finding in run_diagnostics(graph)}


class TestCleanGraphs:
    def test_fig2_clean(self):
        assert run_diagnostics(fig2_graph()) == []

    def test_apps_clean(self):
        from repro.apps.ofdm import build_ofdm_tpdf

        assert run_diagnostics(build_ofdm_tpdf()) == []


class TestWarnings:
    def test_dangling_port(self):
        g = TPDFGraph()
        k = g.add_kernel("k")
        k.add_output("never_used", 1)
        findings = {(f.code, f.subject) for f in run_diagnostics(g)}
        assert ("STRUCT001", "k.never_used") in findings

    def test_unfed_control_port(self):
        g = TPDFGraph()
        src = g.add_kernel("src")
        src.add_output("out", 1)
        k = g.add_kernel("k")
        k.add_input("in", 1)
        k.add_control_port("ctrl", 1)
        g.connect("src.out", "k.in")
        assert "CTRL001" in codes(g)

    def test_ineffective_control(self):
        g = TPDFGraph()
        src = g.add_kernel("src")
        src.add_output("sig", 1)
        c = g.add_control_actor("c")
        c.add_input("in", 1)
        g.connect("src.sig", "c.in")
        assert "CTRL003" in codes(g)

    def test_unreachable_actor(self):
        g = TPDFGraph()
        a = g.add_kernel("a")
        a.add_output("o", 1)
        b = g.add_kernel("b")
        b.add_input("i", 1)
        g.connect("a.o", "b.i")
        # A two-node cycle with no source feeding it: unreachable.
        x = g.add_kernel("x")
        x.add_output("o", 1)
        x.add_input("i", 1)
        y = g.add_kernel("y")
        y.add_output("o", 1)
        y.add_input("i", 1)
        g.connect("x.o", "y.i", initial_tokens=1)
        g.connect("y.o", "x.i", initial_tokens=1)
        assert "STRUCT002" in codes(g)

    def test_zero_rate_port(self):
        g = TPDFGraph()
        a = g.add_kernel("a")
        a.add_output("o", [0, 0])
        b = g.add_kernel("b")
        b.add_input("i", 1)
        g.connect("a.o", "b.i")
        assert "STRUCT004" in codes(g)

    def test_undeclared_parameter(self):
        from repro.symbolic import Param

        g = TPDFGraph()
        a = g.add_kernel("a")
        a.add_output("o", Param("ghost"))
        b = g.add_kernel("b")
        b.add_input("i", 1)
        g.connect("a.o", "b.i")
        assert "BIND001" in codes(g)

    def test_clock_in_cycle(self):
        g = TPDFGraph()
        ck = clock(g, "ck", period=1.0)
        ck.add_input("feedback", 1)
        k = g.add_kernel("k")
        k.add_control_port("ctrl", 1)
        k.add_output("out", 1)
        g.connect("ck.tick", "k.ctrl")
        g.connect("k.out", "ck.feedback", initial_tokens=1)
        assert "STRUCT003" in codes(g)

