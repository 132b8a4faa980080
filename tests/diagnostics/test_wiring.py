"""Integration wiring of the diagnostics engine: the ``analyze``
lint gate, ``EditSession.preflight``, the report codec, the resident
service's ``/lint`` endpoint and preflighted session edits, and the
CLI ``--preflight`` replay flag.

The engine's own behavior is covered by test_diagnostics.py and the
soundness/purity suites — here we only prove every advertised entry
point reaches it and carries its findings faithfully."""

from __future__ import annotations

import json

import pytest

from repro.analysis import EditSession, analyze
from repro.csdf import CSDFGraph
from repro.diagnostics import Diagnostic, Severity
from repro.errors import DiagnosticsError, GraphConstructionError
from repro.io import report_from_dict, report_to_dict
from repro.tpdf import fig2_graph


def _broken_csdf() -> CSDFGraph:
    g = CSDFGraph("broken")
    g.add_actor("a", exec_time=1)
    g.add_actor("b", exec_time=1)
    g.add_channel("ab", "a", "b", production=2, consumption=3)
    g.add_channel("ab2", "a", "b", production=1, consumption=1)
    return g


def _pair_csdf(name: str = "pair") -> CSDFGraph:
    g = CSDFGraph(name)
    g.add_actor("a", exec_time=1)
    g.add_actor("b", exec_time=1)
    g.add_channel("ab", "a", "b")
    return g


def _seeded_cycle() -> CSDFGraph:
    """A source-less seeded cycle: STRUCT002 warnings, no errors."""
    g = CSDFGraph("cycle")
    g.add_actor("a", exec_time=1)
    g.add_actor("b", exec_time=1)
    g.add_channel("ab", "a", "b")
    g.add_channel("ba", "b", "a", initial_tokens=1)
    return g


class TestAnalyzeLintGate:
    def test_off_is_the_default_and_attaches_nothing(self):
        report = analyze(fig2_graph())
        assert report.diagnostics == ()

    def test_warn_attaches_findings_without_failing(self):
        report = analyze(_broken_csdf(), lint="warn")
        codes = [d.code for d in report.diagnostics]
        assert "RATE001" in codes
        assert report.consistent is False  # analysis still ran

    def test_warn_on_clean_graph_attaches_empty_tuple(self):
        report = analyze(fig2_graph(), lint="warn")
        assert report.diagnostics == ()

    def test_error_raises_with_findings_attached(self):
        with pytest.raises(DiagnosticsError) as excinfo:
            analyze(_broken_csdf(), lint="error")
        assert any(d.code == "RATE001" for d in excinfo.value.diagnostics)

    def test_error_mode_passes_clean_graphs(self):
        report = analyze(fig2_graph(), lint="error")
        assert report.consistent is True

    def test_error_mode_tolerates_warnings(self):
        report = analyze(_seeded_cycle(), lint="error")
        assert any(d.code == "STRUCT002" for d in report.diagnostics)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="lint"):
            analyze(fig2_graph(), lint="loud")

    def test_lint_mode_keys_the_memo_separately(self):
        """The per-graph cache serves the analysis, never the lint
        verdict: a ``lint="warn"`` call after a plain one still carries
        its findings."""
        graph = _seeded_cycle()
        plain = analyze(graph)
        warned = analyze(graph, lint="warn")
        assert plain.diagnostics == ()
        assert any(d.code == "STRUCT002" for d in warned.diagnostics)
        assert plain.fingerprint() == warned.fingerprint()


class TestEditSessionPreflight:
    def test_clean_script_returns_findings_and_applies_nothing(self):
        graph = _pair_csdf()
        session = EditSession(graph)
        findings = session.preflight(
            [{"op": "set_production", "channel": "ab", "value": [2]}])
        assert findings == []
        assert list(graph.channels["ab"].production.entries) == [1]

    def test_fatal_script_raises_and_leaves_graph_untouched(self):
        graph = _pair_csdf()
        session = EditSession(graph)
        with pytest.raises(DiagnosticsError) as excinfo:
            session.preflight(
                [{"op": "set_production", "channel": "ab", "value": [0]}])
        assert any(d.code == "DEAD003" for d in excinfo.value.diagnostics)
        assert list(graph.channels["ab"].production.entries) == [1]
        # the session is still healthy after a rejected preflight
        session.apply({"op": "set_exec_time", "actor": "a", "value": 5})
        assert session.analyze().consistent is True

    def test_warning_script_reports_without_raising(self):
        graph = _pair_csdf()
        session = EditSession(graph)
        # closing the pair into a seeded source-less cycle only warns
        findings = session.preflight([
            {"op": "add_channel", "name": "ba", "src": "b", "dst": "a",
             "initial_tokens": 1},
        ])
        assert any(d.code == "STRUCT002" for d in findings)
        assert "ba" not in graph.channels

    def test_unknown_target_is_a_construction_error(self):
        session = EditSession(_pair_csdf())
        with pytest.raises(GraphConstructionError, match="unknown"):
            session.preflight(
                [{"op": "set_production", "channel": "zz", "value": [1]}])


class TestReportCodec:
    def test_diagnostics_round_trip(self):
        report = analyze(_broken_csdf(), lint="warn")
        assert report.diagnostics  # meaningful round-trip
        decoded = report_from_dict(report_to_dict(report))
        assert decoded.diagnostics == report.diagnostics
        assert decoded.fingerprint() == report.fingerprint()

    def test_empty_diagnostics_round_trip(self):
        report = analyze(fig2_graph())
        decoded = report_from_dict(report_to_dict(report))
        assert decoded.diagnostics == ()
        assert decoded.fingerprint() == report.fingerprint()

    def test_fingerprint_ignores_diagnostics(self):
        # diagnostics are presentation data (like elapsed): two reports
        # differing only in lint mode fingerprint identically.
        graph = _broken_csdf()
        assert analyze(graph).fingerprint() == \
            analyze(graph, lint="warn").fingerprint()


class TestServiceWireForm:
    def test_diagnostics_error_round_trips_with_findings(self):
        from repro.service.wire import error_from_dict, error_to_dict

        original = DiagnosticsError(
            "broken", diagnostics=[
                Diagnostic("RATE001", Severity.ERROR, "g", "boom", "fix"),
                Diagnostic("STRUCT001", Severity.WARNING, "a.x", "dangling"),
            ])
        decoded = error_from_dict(error_to_dict(original))
        assert isinstance(decoded, DiagnosticsError)
        assert list(decoded.diagnostics) == list(original.diagnostics)


class TestCLIPreflight:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_preflight_requires_edits(self, tmp_path):
        from repro.__main__ import main
        from repro.io import csdf_to_dict

        graph_json = self._write(tmp_path, "g.json", csdf_to_dict(_pair_csdf()))
        with pytest.raises(SystemExit, match="--edits"):
            main(["analyze", graph_json, "--preflight"])

    def test_preflight_clean_replay(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.io import csdf_to_dict

        graph_json = self._write(tmp_path, "g.json", csdf_to_dict(_pair_csdf()))
        edits_json = self._write(tmp_path, "edits.json", [
            {"op": "set_exec_time", "actor": "a", "value": 3},
        ])
        assert main(["analyze", graph_json, "--edits", edits_json,
                     "--preflight"]) == 0
        assert "[preflight] clean" in capsys.readouterr().out

    def test_preflight_blocks_fatal_replay(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.io import csdf_to_dict

        graph_json = self._write(tmp_path, "g.json", csdf_to_dict(_pair_csdf()))
        edits_json = self._write(tmp_path, "edits.json", [
            {"op": "set_production", "channel": "ab", "value": [0]},
        ])
        with pytest.raises(SystemExit, match="preflight"):
            main(["analyze", graph_json, "--edits", edits_json,
                  "--preflight"])
        assert "DEAD003" in capsys.readouterr().err


class TestServiceLintEndpoint:
    """One tiny resident service instance for the /lint plumbing (the
    heavy differential traffic lives in tests/service/)."""

    @pytest.fixture(scope="class")
    def client(self):
        from repro.service import ServiceClient, serve_in_thread

        with serve_in_thread(workers=1) as handle:
            yield ServiceClient(handle.url)

    def test_lint_clean_graph(self, client):
        assert client.lint(fig2_graph()) == []

    def test_lint_broken_graph_returns_diagnostics(self, client):
        findings = client.lint(_broken_csdf())
        assert any(d.code == "RATE001" for d in findings)
        assert all(isinstance(d, Diagnostic) for d in findings)

    def test_lint_result_is_cached(self, client):
        graph = _broken_csdf()
        first = client.lint(graph)
        stats_before = client.stats()["cache"]["hits"]
        assert client.lint(graph) == first
        assert client.stats()["cache"]["hits"] == stats_before + 1

    def test_session_preflight_rejects_fatal_edits(self, client):
        with client.session(_pair_csdf("preflit")) as session:
            with pytest.raises(DiagnosticsError) as excinfo:
                session.edits(
                    [{"op": "set_production", "channel": "ab", "value": [0]}],
                    preflight=True)
            assert any(d.code == "DEAD003"
                       for d in excinfo.value.diagnostics)
            # rejected preflight left the resident graph untouched
            report = session.edits(
                [{"op": "set_exec_time", "actor": "a", "value": 2}])
            assert report.consistent is True

    def test_session_edits_without_preflight_still_apply(self, client):
        with client.session(_pair_csdf("nopre")) as session:
            report = session.edits(
                [{"op": "set_production", "channel": "ab", "value": [2]}])
            assert report.consistent is False or report.repetition
