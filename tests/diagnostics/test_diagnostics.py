"""Unit tests for the static diagnostics engine: the catalog, the
record type, pass behavior on both graph models, and deterministic
ordering.  The soundness of the ERROR codes (engine flags it iff the
runtime fails) lives in test_soundness.py; purity in test_purity.py."""

from __future__ import annotations

import pytest

from repro.csdf import CSDFGraph
from repro.diagnostics import (CATALOG, ERROR_CODES, Diagnostic, GraphView,
                               Severity, catalog_lines, has_errors,
                               run_diagnostics, sort_diagnostics)
from repro.symbolic import Param
from repro.tpdf import TPDFGraph, fig2_graph


class TestCatalog:
    def test_every_code_has_severity_and_title(self):
        for code, info in CATALOG.items():
            assert info.code == code
            assert isinstance(info.severity, Severity)
            assert info.title

    def test_error_codes_match_catalog(self):
        assert set(ERROR_CODES) == {
            code for code, info in CATALOG.items()
            if info.severity is Severity.ERROR
        }
        # The soundness-proven surface of the issue.
        assert set(ERROR_CODES) == {
            "RATE001", "RATE002", "DEAD001", "DEAD002", "DEAD003",
            "CTRL002", "BIND001", "BIND003",
        }

    def test_catalog_lines_cover_all_codes(self):
        lines = catalog_lines()
        assert len(lines) == len(CATALOG)
        for code in CATALOG:
            assert any(line.startswith(code) for line in lines)

    def test_unfed_control_port_is_a_warning(self):
        # The engine falls back to WAIT_ALL for an unfed control port —
        # the runtime does NOT fail, so ERROR would be unsound.
        assert CATALOG["CTRL001"].severity is Severity.WARNING


class TestDiagnosticRecord:
    def test_round_trip(self):
        d = Diagnostic("RATE001", Severity.ERROR, "g", "broken", "fix it")
        assert Diagnostic.from_dict(d.to_dict()) == d
        assert d.to_dict()["severity"] == "error"

    def test_round_trip_without_hint(self):
        d = Diagnostic("STRUCT001", Severity.WARNING, "a.x", "dangling")
        assert Diagnostic.from_dict(d.to_dict()) == d

    def test_str_contains_code_and_subject(self):
        d = Diagnostic("DEAD002", Severity.ERROR, "a -> b", "cycle")
        assert "DEAD002" in str(d) and "a -> b" in str(d)

    def test_sort_is_severity_then_code(self):
        warn = Diagnostic("STRUCT001", Severity.WARNING, "z", "m")
        err = Diagnostic("RATE001", Severity.ERROR, "a", "m")
        assert sort_diagnostics([warn, err])[0] is err

    def test_has_errors(self):
        warn = Diagnostic("STRUCT001", Severity.WARNING, "z", "m")
        err = Diagnostic("RATE001", Severity.ERROR, "a", "m")
        assert not has_errors([warn])
        assert has_errors([warn, err])


class TestCleanGraphs:
    def test_fig2_is_clean(self):
        assert run_diagnostics(fig2_graph()) == []

    def test_plain_csdf_pair_is_clean(self):
        g = CSDFGraph("pair")
        g.add_actor("a", exec_time=2)
        g.add_actor("b", exec_time=1)
        g.add_channel("ab", "a", "b")
        assert run_diagnostics(g) == []

    def test_rejects_non_graph_input(self):
        with pytest.raises(TypeError):
            run_diagnostics({"not": "a graph"})


class TestCSDFPasses:
    """The engine accepts plain CSDF — the legacy lint was TPDF-only."""

    def _unbalanced(self) -> CSDFGraph:
        g = CSDFGraph("bad")
        g.add_actor("a", exec_time=1)
        g.add_actor("b", exec_time=1)
        g.add_channel("ab", "a", "b", production=2, consumption=3)
        g.add_channel("ab2", "a", "b", production=1, consumption=1)
        return g

    def test_rate001_on_csdf(self):
        codes = [d.code for d in run_diagnostics(self._unbalanced())]
        assert codes == ["RATE001"]

    def test_dead003_and_rate002_on_zero_production(self):
        g = CSDFGraph("z")
        g.add_actor("a", exec_time=1)
        g.add_actor("b", exec_time=1)
        g.add_channel("ab", "a", "b", production=[0], consumption=[1])
        codes = [d.code for d in run_diagnostics(g)]
        assert codes == ["DEAD003", "RATE002"]

    def test_dead001_needs_capacities(self):
        g = CSDFGraph("loop")
        g.add_actor("a", exec_time=1)
        g.add_actor("b", exec_time=1)
        g.add_channel("ab", "a", "b")
        g.add_channel("ba", "b", "a", initial_tokens=2)

        def errors(**kw):
            return [d.code for d in run_diagnostics(g, **kw)
                    if d.severity is Severity.ERROR]

        assert errors() == []
        assert errors(capacities={"ba": 1}) == ["DEAD001"]
        assert errors(capacities={"ba": 2}) == []  # fitting capacity

    def test_dead002_token_free_cycle_on_csdf(self):
        g = CSDFGraph("cycle")
        g.add_actor("a", exec_time=1)
        g.add_actor("b", exec_time=1)
        g.add_channel("ab", "a", "b")
        g.add_channel("ba", "b", "a")  # no initial tokens anywhere
        codes = [d.code for d in run_diagnostics(g)]
        assert "DEAD002" in codes
        # seeding either hop makes it live again
        g2 = CSDFGraph("cycle2")
        g2.add_actor("a", exec_time=1)
        g2.add_actor("b", exec_time=1)
        g2.add_channel("ab", "a", "b")
        g2.add_channel("ba", "b", "a", initial_tokens=1)
        assert not any(d.code == "DEAD002" for d in run_diagnostics(g2))

    def test_bind003_unhashable_value(self):
        g = CSDFGraph("pair")
        g.add_actor("a", exec_time=1)
        g.add_actor("b", exec_time=1)
        g.add_channel("ab", "a", "b")
        codes = [d.code for d in run_diagnostics(g, bindings={"p": [1, 2]})]
        assert codes == ["BIND003"]


class TestTPDFPasses:
    def test_bind002_unused_parameter(self):
        g = TPDFGraph("u", parameters=[Param("q", lo=1, hi=4)])
        a = g.add_kernel("a")
        a.add_output("o", 1)
        b = g.add_kernel("b")
        b.add_input("i", 1)
        g.connect("a.o", "b.i")
        codes = [d.code for d in run_diagnostics(g)]
        assert codes == ["BIND002"]

    def test_ctrl002_control_rate_above_one(self):
        from repro.csdf.rates import RateSequence

        g = TPDFGraph()
        src = g.add_kernel("src")
        src.add_output("o", 1)
        k = g.add_kernel("k")
        k.add_input("i", 1)
        port = k.add_control_port("c", 1)
        g.connect("src.o", "k.i")
        # bypass the setter's {0,1} validation, as a buggy frontend would
        port._rates = RateSequence.of([2])
        codes = [d.code for d in run_diagnostics(g)]
        assert "CTRL002" in codes

    def _select_one_graph(self, i2_rate: int) -> TPDFGraph:
        """a feeds a SELECT_ONE kernel over two inputs; i2's rate makes
        the full graph consistent (2) or inconsistent (3)."""
        from repro.tpdf import Mode

        g = TPDFGraph()
        a = g.add_kernel("a")
        a.add_output("o1", 1)
        a.add_output("o2", 2)
        m = g.add_kernel("m", modes=(Mode.WAIT_ALL, Mode.SELECT_ONE))
        m.add_input("i1", 1)
        m.add_input("i2", i2_rate)
        m.add_output("o", 1)
        s = g.add_kernel("s")
        s.add_input("i", 1)
        g.connect("a.o1", "m.i1")
        g.connect("a.o2", "m.i2")
        g.connect("m.o", "s.i")
        return g

    def test_ctrl004_flags_modes_where_inconsistency_survives(self):
        # Full graph inconsistent (i1 forces q_a = q_m, i2 forces
        # 2 q_a = 3 q_m).  Each single-input restriction drops the
        # conflicting sibling, so both modes are individually fine —
        # no CTRL004, only the full-graph RATE001 (Sec. III-A's point:
        # the full check is stricter than the per-mode reality).
        codes = [d.code for d in run_diagnostics(self._select_one_graph(3))]
        assert "RATE001" in codes and "CTRL004" not in codes
        # Move the contradiction entirely outside m's channels (two
        # parallel a -> s channels with conflicting ratios): it now
        # survives every restriction, so each mode is unreachable.
        g = self._select_one_graph(2)
        a = g.node("a")
        a.add_output("o3", 1)
        a.add_output("o4", 1)
        s = g.node("s")
        s.add_input("i2", 3)
        s.add_input("i3", 1)
        g.connect("a.o3", "s.i2")
        g.connect("a.o4", "s.i3")
        diags = run_diagnostics(g)
        codes = [d.code for d in diags]
        assert "RATE001" in codes
        assert codes.count("CTRL004") == 2  # both of m's modes stay broken

    def test_ctrl004_silent_on_consistent_graph(self):
        assert run_diagnostics(self._select_one_graph(2)) == []

    def test_graphview_labels_ports(self):
        view = GraphView(fig2_graph())
        assert view.is_tpdf
        assert all("." in c.src_label for c in view.channels)

    def test_graphview_csdf_labels_actors(self):
        g = CSDFGraph("pair")
        g.add_actor("a", exec_time=1)
        g.add_actor("b", exec_time=1)
        g.add_channel("ab", "a", "b")
        view = GraphView(g)
        assert not view.is_tpdf
        assert view.channels[0].src_label == "a"
